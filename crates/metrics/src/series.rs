//! Fixed-cadence per-node gauge series with drop-oldest ring storage.
//!
//! # Determinism contract
//!
//! Samples are recorded lazily by the simulator: when the next event a
//! node processes carries a timestamp at or past the node's next sampling
//! boundary, the runtime records one sample per elapsed boundary *before*
//! dispatching the event. Because each node's event stream (timestamps and
//! order) is identical for every worker count — the simulator's
//! determinism contract — the boundary crossings, and
//! therefore every sampled value, are bit-identical too.
//!
//! The one gauge that needs care is queue occupancy: the *global*
//! scheduler queue length at a sampling instant depends on every other
//! node's traffic, so it is not node-local. The node-local proxy
//! recorded here is `queue_events` — the number of events this node
//! processed in the elapsed sampling window — which measures the same
//! congestion from node-local state only. See ARCHITECTURE.md
//! ("Observability") for the rule new gauges must satisfy.

use std::collections::VecDeque;

use crate::config::MetricsConfig;

/// Gauges sampled per node per cadence tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaugeKind {
    /// Transactions injected at this node and not yet committed.
    TxInFlight,
    /// Commands queued in this node's pool awaiting batching.
    PoolBacklog,
    /// Cumulative forward-retry floods sent by this node.
    ForwardRetries,
    /// Fill of the most recent proposed batch, percent of the policy max.
    BatchFillPct,
    /// Events this node processed during the elapsed sampling window —
    /// the node-local proxy for scheduler queue occupancy.
    QueueEvents,
    /// Energy drawn during the elapsed window, scaled to mJ/s.
    EnergyRateMjPerS,
    /// The node's current view number.
    View,
}

/// Number of gauges in a [`Sample`].
pub const N_GAUGE: usize = 7;

impl GaugeKind {
    /// All gauges, in sample-vector order.
    pub const ALL: [GaugeKind; N_GAUGE] = [
        GaugeKind::TxInFlight,
        GaugeKind::PoolBacklog,
        GaugeKind::ForwardRetries,
        GaugeKind::BatchFillPct,
        GaugeKind::QueueEvents,
        GaugeKind::EnergyRateMjPerS,
        GaugeKind::View,
    ];

    /// Index of this gauge in a sample vector.
    pub fn index(self) -> usize {
        match self {
            GaugeKind::TxInFlight => 0,
            GaugeKind::PoolBacklog => 1,
            GaugeKind::ForwardRetries => 2,
            GaugeKind::BatchFillPct => 3,
            GaugeKind::QueueEvents => 4,
            GaugeKind::EnergyRateMjPerS => 5,
            GaugeKind::View => 6,
        }
    }

    /// Stable snake_case name (Prometheus metric stem, JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            GaugeKind::TxInFlight => "tx_in_flight",
            GaugeKind::PoolBacklog => "pool_backlog",
            GaugeKind::ForwardRetries => "forward_retries",
            GaugeKind::BatchFillPct => "batch_fill_pct",
            GaugeKind::QueueEvents => "queue_events",
            GaugeKind::EnergyRateMjPerS => "energy_rate_mj_per_s",
            GaugeKind::View => "view",
        }
    }
}

/// Gauge values an actor exposes for sampling, read via
/// `Actor::gauges()` in `eesmr-net`. All values come from the actor's own
/// state — never from the scheduler or another node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActorGauges {
    /// Transactions injected here and not yet committed.
    pub tx_in_flight: u64,
    /// Commands pooled here awaiting batching.
    pub pool_backlog: u64,
    /// Cumulative forward-retry floods sent.
    pub forward_retries: u64,
    /// Fill of the most recent proposed batch, percent of the policy max.
    pub batch_fill_pct: f64,
    /// Current view number.
    pub view: u64,
}

/// One sampled point: a simulated timestamp plus all gauge values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time of the sampling boundary, µs.
    pub t_us: u64,
    values: [f64; N_GAUGE],
}

impl Sample {
    /// Value of `gauge` at this sample.
    pub fn value(&self, gauge: GaugeKind) -> f64 {
        self.values[gauge.index()]
    }
}

/// A node's sampled series: a drop-oldest ring plus a dropped counter, the
/// same loss model as `eesmr-trace`'s per-node rings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeSeries {
    samples: VecDeque<Sample>,
    dropped: u64,
    cap: usize,
}

impl NodeSeries {
    fn with_cap(cap: usize) -> Self {
        Self { samples: VecDeque::new(), dropped: 0, cap }
    }

    fn push(&mut self, s: Sample) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.samples.len() == self.cap {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(s);
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if nothing was sampled (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Oldest samples evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<&Sample> {
        self.samples.back()
    }

    /// Peak value of `gauge` across retained samples.
    pub fn peak(&self, gauge: GaugeKind) -> f64 {
        self.samples.iter().map(|s| s.value(gauge)).fold(0.0, f64::max)
    }

    /// Mean value of `gauge` across retained samples (0 when empty).
    pub fn mean(&self, gauge: GaugeKind) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.value(gauge)).sum::<f64>() / self.samples.len() as f64
    }
}

/// All nodes' series from one run, plus the cadence they share.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSet {
    /// Sampling cadence, simulated µs.
    pub dt_us: u64,
    /// Per-node series, indexed by node id.
    pub nodes: Vec<NodeSeries>,
}

impl MetricsSet {
    /// True if no node retained any samples (metrics were off or the run
    /// ended before the first boundary).
    pub fn is_empty(&self) -> bool {
        self.nodes.iter().all(|n| n.is_empty())
    }
}

/// Per-node sampling state driven by the simulator's event loop.
///
/// The runtime calls [`MetricsRecorder::due`] once per event (a single
/// compare when enabled, a constant `false` when not) and, when a
/// boundary has been crossed, [`MetricsRecorder::sample_up_to`] with the
/// actor's gauges and the meter total *before* dispatching the event.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    enabled: bool,
    dt_us: u64,
    next_us: u64,
    last_total_mj: f64,
    window_events: u64,
    series: NodeSeries,
}

impl MetricsRecorder {
    /// A recorder for one node under `cfg`. Disabled recorders never
    /// sample and cost one branch per event.
    pub fn new(cfg: &MetricsConfig) -> Self {
        Self {
            enabled: cfg.enabled,
            dt_us: cfg.dt_us.max(1),
            next_us: cfg.dt_us.max(1),
            last_total_mj: 0.0,
            window_events: 0,
            series: NodeSeries::with_cap(cfg.cap),
        }
    }

    /// True when `now_us` has reached the node's next sampling boundary.
    #[inline]
    pub fn due(&self, now_us: u64) -> bool {
        self.enabled && now_us >= self.next_us
    }

    /// Counts one processed event into the current window.
    #[inline]
    pub fn note_event(&mut self) {
        if self.enabled {
            self.window_events += 1;
        }
    }

    /// Records one sample per elapsed boundary up to `now_us`. The first
    /// catch-up boundary receives the whole energy delta and the window's
    /// event count; later boundaries (idle stretches) record zero rate and
    /// zero events, so an idle node's series honestly reads idle.
    pub fn sample_up_to(&mut self, now_us: u64, gauges: &ActorGauges, total_mj: f64) {
        while self.next_us <= now_us {
            let window_s = self.dt_us as f64 / 1e6;
            let rate = (total_mj - self.last_total_mj) / window_s;
            let mut values = [0.0; N_GAUGE];
            values[GaugeKind::TxInFlight.index()] = gauges.tx_in_flight as f64;
            values[GaugeKind::PoolBacklog.index()] = gauges.pool_backlog as f64;
            values[GaugeKind::ForwardRetries.index()] = gauges.forward_retries as f64;
            values[GaugeKind::BatchFillPct.index()] = gauges.batch_fill_pct;
            values[GaugeKind::QueueEvents.index()] = self.window_events as f64;
            values[GaugeKind::EnergyRateMjPerS.index()] = rate;
            values[GaugeKind::View.index()] = gauges.view as f64;
            self.series.push(Sample { t_us: self.next_us, values });
            self.last_total_mj = total_mj;
            self.window_events = 0;
            self.next_us += self.dt_us;
        }
    }

    /// Consumes the recorder, returning the node's series.
    pub fn finish(self) -> NodeSeries {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dt_us: u64, cap: usize) -> MetricsConfig {
        MetricsConfig { enabled: true, dt_us, cap }
    }

    #[test]
    fn disabled_recorder_never_samples() {
        let mut r = MetricsRecorder::new(&MetricsConfig::off());
        assert!(!r.due(u64::MAX));
        r.note_event();
        assert!(r.finish().is_empty());
    }

    #[test]
    fn samples_land_on_every_elapsed_boundary() {
        let mut r = MetricsRecorder::new(&cfg(10, 64));
        let g = ActorGauges { pool_backlog: 5, ..ActorGauges::default() };
        r.note_event();
        r.note_event();
        assert!(r.due(10));
        // Event at t=35 crosses boundaries 10, 20, 30.
        r.sample_up_to(35, &g, 2.0);
        let s = r.finish();
        assert_eq!(s.len(), 3);
        let t: Vec<u64> = s.samples().map(|x| x.t_us).collect();
        assert_eq!(t, vec![10, 20, 30]);
        let first = s.samples().next().unwrap();
        assert_eq!(first.value(GaugeKind::PoolBacklog), 5.0);
        assert_eq!(first.value(GaugeKind::QueueEvents), 2.0);
        // Whole 2.0 mJ delta lands in the first 10 µs window: 2e5 mJ/s.
        assert!((first.value(GaugeKind::EnergyRateMjPerS) - 2.0e5).abs() < 1e-6);
        // Later catch-up boundaries are honest zeros.
        let last = s.last().unwrap();
        assert_eq!(last.value(GaugeKind::EnergyRateMjPerS), 0.0);
        assert_eq!(last.value(GaugeKind::QueueEvents), 0.0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = MetricsRecorder::new(&cfg(1, 2));
        r.sample_up_to(5, &ActorGauges::default(), 0.0);
        let s = r.finish();
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
        let t: Vec<u64> = s.samples().map(|x| x.t_us).collect();
        assert_eq!(t, vec![4, 5]);
    }

    #[test]
    fn peak_and_mean_summaries() {
        let mut r = MetricsRecorder::new(&cfg(10, 64));
        r.sample_up_to(10, &ActorGauges { pool_backlog: 4, ..ActorGauges::default() }, 0.0);
        r.sample_up_to(20, &ActorGauges { pool_backlog: 8, ..ActorGauges::default() }, 0.0);
        let s = r.finish();
        assert_eq!(s.peak(GaugeKind::PoolBacklog), 8.0);
        assert_eq!(s.mean(GaugeKind::PoolBacklog), 6.0);
    }
}
