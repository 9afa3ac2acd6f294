//! Metrics runtime configuration.

/// Default sampling cadence: one sample per node every 10 ms of simulated
/// time.
pub const DEFAULT_DT_US: u64 = 10_000;

/// Default ring capacity per node (drop-oldest beyond this).
pub const DEFAULT_CAP: usize = 1024;

/// Configuration for deterministic time-series sampling.
///
/// Sampling is **off by default**: the hot path pays only a per-event
/// branch when disabled (the CI off-path gate pins this below 2%).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Master switch.
    pub enabled: bool,
    /// Sampling cadence in simulated microseconds.
    pub dt_us: u64,
    /// Ring capacity per node; oldest samples are dropped beyond this,
    /// counted per node.
    pub cap: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl MetricsConfig {
    /// Sampling disabled.
    pub fn off() -> Self {
        Self { enabled: false, dt_us: DEFAULT_DT_US, cap: DEFAULT_CAP }
    }

    /// Sampling enabled at the default cadence and capacity.
    pub fn on() -> Self {
        Self { enabled: true, ..Self::off() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_with_documented_cadence() {
        let c = MetricsConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.dt_us, DEFAULT_DT_US);
        assert_eq!(c.cap, DEFAULT_CAP);
        assert!(MetricsConfig::on().enabled);
    }
}
