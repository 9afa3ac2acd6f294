//! Deterministic telemetry for the EESMR reproduction.
//!
//! Three pillars, mirroring what real SMR deployments ship with:
//!
//! * [`series`] — typed per-node gauges sampled on a fixed simulated-time
//!   cadence ([`MetricsConfig::dt_us`]) into fixed-capacity ring series. Every
//!   sample is stamped from node-local state only, so series are
//!   bit-identical across worker counts — the same contract as
//!   `eesmr-trace` events.
//! * [`export`] — Prometheus text format and JSON renderers for a whole
//!   run's series plus the per-node energy-by-class attribution matrix
//!   (what `figures headline` writes to `EESMR_METRICS_OUT`), consumed by
//!   the `metrics_report` binary.
//! * [`profile`] — cheap wall-clock phase timers for the simulator itself
//!   (sched pop, replica step, transmit) behind
//!   [`set_profiling`], emitting folded-stacks output that `flamegraph.pl`
//!   and speedscope load directly.
//!
//! # Example
//!
//! ```
//! use eesmr_metrics::{ActorGauges, MetricsConfig, MetricsRecorder};
//!
//! let cfg = MetricsConfig::on();
//! let mut rec = MetricsRecorder::new(&cfg);
//! // The runtime calls this as simulated time crosses each dt boundary.
//! let gauges = ActorGauges { pool_backlog: 3, ..ActorGauges::default() };
//! rec.sample_up_to(cfg.dt_us, &gauges, 1.5);
//! let series = rec.finish();
//! assert_eq!(series.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod export;
pub mod profile;
pub mod series;

pub use config::MetricsConfig;
pub use profile::{
    profile_reset, profile_snapshot, profiling_enabled, set_profiling, ProfPhase, ProfTimer,
    ProfileSnapshot, N_PROF_PHASE,
};
pub use series::{
    ActorGauges, GaugeKind, MetricsRecorder, MetricsSet, NodeSeries, Sample, N_GAUGE,
};
