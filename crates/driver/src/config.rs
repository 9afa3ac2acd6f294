//! Driver configuration: worker count, repeats and quick mode.

/// Knobs for a [`Driver`](crate::Driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Worker threads to fan scenarios across. `1` means run inline on
    /// the calling thread. Never affects *results*: the driver restores
    /// grid order regardless of completion order.
    pub workers: usize,
    /// How many times to run each grid cell; repeat `r` reseeds the
    /// cell's scenario (repeat 0 keeps its own seed, later repeats
    /// stride into a disjoint seed range). Each cell keeps every repeat's
    /// report. Forced to `1` in quick mode.
    pub repeats: usize,
    /// Shrink every scenario's stop condition to a smoke-test size (see
    /// [`crate::ScenarioGrid`] docs) — used by CI to exercise the
    /// parallel path cheaply.
    pub quick_mode: bool,
}

impl Default for DriverConfig {
    /// One worker per available core (at least 1), single repeat, full
    /// scenarios.
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        DriverConfig { workers, repeats: 1, quick_mode: false }
    }
}

impl DriverConfig {
    /// Sets the worker count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-cell repeat count (clamped to at least 1).
    pub fn repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Enables or disables quick mode.
    pub fn quick(mut self, quick: bool) -> Self {
        self.quick_mode = quick;
        self
    }

    /// Repeats actually run per cell (quick mode forces 1).
    pub fn effective_repeats(&self) -> usize {
        if self.quick_mode {
            1
        } else {
            self.repeats.max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_to_one() {
        let c = DriverConfig::default().workers(0).repeats(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.repeats, 1);
        assert!(!c.quick_mode);
    }

    #[test]
    fn quick_mode_forces_single_repeat() {
        let c = DriverConfig::default().repeats(5);
        assert_eq!(c.effective_repeats(), 5);
        assert_eq!(c.quick(true).effective_repeats(), 1);
    }
}
