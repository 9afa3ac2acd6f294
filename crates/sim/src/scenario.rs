//! Scenario builder and runner — the experiment driver for all protocols.
//!
//! A [`Scenario`] describes *what to run* (protocol, system size, topology
//! degree, payload, faults, signature scheme) and *when to stop* (a block
//! target, a view target for view-change measurements, or a time budget).
//! [`Scenario::run`] executes it on the discrete-event simulator and
//! returns a [`RunReport`] with per-node energy and
//! protocol metrics — the raw material for every figure in the paper's
//! evaluation.

use eesmr_core::BatchPolicy;
use eesmr_crypto::SigScheme;
use eesmr_net::{
    MetricsConfig, NetConfig, SchedulerKind, ShardedNet, SimDuration, SimTime, TraceClass,
    TraceLevel, TraceSet,
};
use eesmr_trace::path::CommitPath;
use eesmr_workload::Workload;

use crate::cell::{Cell, NodeRole, ReplicaView, Replicas};
use crate::faults::{FaultPlan, FaultSpec};
use crate::report::{NodeReport, RunReport};

/// The protocols the harness can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The paper's protocol.
    Eesmr,
    /// Sync HotStuff baseline.
    SyncHotStuff,
    /// OptSync baseline.
    OptSync,
    /// Trusted-control-node baseline (§5.1) on a star over 4G.
    TrustedBaseline,
}

impl Protocol {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Eesmr => "EESMR",
            Protocol::SyncHotStuff => "Sync HotStuff",
            Protocol::OptSync => "OptSync",
            Protocol::TrustedBaseline => "Trusted baseline",
        }
    }
}

/// Stop condition for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// Every correct node has committed at least this many blocks.
    Blocks(u64),
    /// Every correct node has entered this view and resumed steady state
    /// (used for view-change energy measurements).
    ViewReached(u64),
    /// Run for a fixed span of virtual time.
    Elapsed(SimDuration),
}

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Node count (for the trusted baseline this includes the hub).
    pub n: usize,
    /// Ring k-cast degree (ignored by the trusted baseline's star).
    pub k: usize,
    /// Payload bytes per block (`|b_i|`).
    pub payload_bytes: usize,
    /// Run seed (keys, delays).
    pub seed: u64,
    /// Signature scheme (default RSA-1024, the paper's pick).
    pub scheme: SigScheme,
    /// Fault plan (used when no [`fault_spec`](Self::fault_spec) is set).
    pub faults: FaultPlan,
    /// Sweepable fault axis. When set, the tag expands to a canonical
    /// [`FaultPlan`] sized to `(n, Δ)` at run time — Δ depends on the
    /// topology, so the expansion cannot happen at build time — and
    /// overrides [`faults`](Self::faults).
    pub fault_spec: Option<FaultSpec>,
    /// Stop condition.
    pub stop: StopWhen,
    /// Hard deadline in virtual time.
    pub deadline: SimDuration,
    /// Streaming instead of blocking pacing.
    pub streaming: bool,
    /// EESMR: crash-only variant.
    pub crash_only: bool,
    /// EESMR: §3.5 equivocation speedup.
    pub opt_equivocation_speedup: bool,
    /// EESMR: §5.6 lock-only status.
    pub opt_lock_only_status: bool,
    /// Override the protocol fault bound `f` (default `⌈n/2⌉ − 1`). The
    /// paper's Fig. 2e/3 sweep `f` with `k = f + 1`.
    pub fault_bound: Option<usize>,
    /// EESMR: §3.5 checkpoint interval (optimistic pre-commit).
    pub checkpoint_interval: Option<u64>,
    /// How the proposer sizes each batch, if explicitly set. `None`
    /// keeps each protocol's historical default (`Fixed(64)`; the
    /// trusted baseline's spokes upload `Fixed(16)` batches).
    pub batch_policy: Option<BatchPolicy>,
    /// Synthetic offered load: commands available per proposal when no
    /// client commands are queued (the paper's workloads use 1). Ignored
    /// when a [`workload`](Self::workload) is attached.
    pub offered_load: usize,
    /// Forward-batching threshold at non-leading nodes: relay the local
    /// backlog once it holds this many commands (or after a Δ flush
    /// timer). `1` — the default — forwards on every arrival. Applies to
    /// EESMR and the HotStuff-family baselines; the trusted baseline's
    /// spokes batch through their upload schedule instead.
    pub forward_batch: usize,
    /// Client workload model: arrival process × per-node skew × payload
    /// distribution × injection discipline. When set, it replaces the
    /// synthetic `offered_load` feed and the run measures per-transaction
    /// end-to-end commit latency.
    pub workload: Option<Workload>,
    /// Which pending-event queue the simulator uses. Results are
    /// bit-identical under either kind; this only changes run speed.
    pub scheduler: SchedulerKind,
    /// How many shards (worker threads) the simulation is split across
    /// (see `eesmr_net::shard`). Results are bit-identical for any
    /// value; sharding only changes how fast a large-`n` scenario runs.
    /// Defaults to `EESMR_SHARDS` (or 1).
    pub shards: usize,
    /// Structured-event trace level (see `eesmr-trace`). An
    /// observability knob, not a sweep axis: traces are keyed to
    /// node-local state, so any level produces the same `RunReport`
    /// bit for bit. Defaults to `EESMR_TRACE` (or off).
    pub trace: TraceLevel,
    /// Time-series telemetry sampling (see `eesmr-metrics`). Like
    /// `trace`, an observability knob rather than a sweep axis: samples
    /// are taken from node-local state on each node's own event stream,
    /// so enabling them cannot change the `RunReport`. Defaults to
    /// `EESMR_METRICS` / `EESMR_METRICS_DT` / `EESMR_METRICS_CAP`
    /// (off unless set).
    pub metrics: MetricsConfig,
}

/// The sweep coordinates identifying one cell of an experiment grid: the
/// axes every figure in the paper varies. `Copy` + `Eq` + `Hash` so
/// drivers can key result tables by cell (see `eesmr-driver`).
///
/// A key covers the sweep axes only — not the fault plan, stop
/// condition, or optimization flags — so two explicitly-built scenarios
/// that differ only in those (e.g. an honest run and a view-change run
/// at the same `(protocol, n, k)`) share a key. Cells of one cartesian
/// sweep always have distinct keys; disambiguate explicit scenarios by
/// their label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Node count.
    pub n: usize,
    /// Ring k-cast degree.
    pub k: usize,
    /// Payload bytes per block.
    pub payload_bytes: usize,
    /// Signature scheme.
    pub scheme: SigScheme,
    /// Batch policy.
    pub batch: BatchPolicy,
    /// Synthetic offered load (commands available per proposal).
    pub offered_load: usize,
    /// Forward-batching threshold at non-leading nodes.
    pub forward_batch: usize,
    /// Client workload model, if any.
    pub workload: Option<Workload>,
    /// Simulation shard count. A *performance* axis: cells differing
    /// only in `shards` produce bit-identical `RunReport`s (the sharded
    /// determinism suite enforces it), so sweeping it measures speed,
    /// not results.
    pub shards: usize,
    /// Fault axis ([`FaultSpec::None`] when the scenario injects no
    /// swept fault; explicitly-built [`FaultPlan`]s do not key cells).
    pub fault: FaultSpec,
    /// Run seed.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the paper's defaults: BLE k-casts at 99.99 %
    /// reliability, RSA-1024, 16-byte payloads, 20-block target.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a valid ring degree for `n`.
    pub fn new(protocol: Protocol, n: usize, k: usize) -> Self {
        assert!(k >= 1 && k < n, "ring k-cast requires 1 ≤ k < n");
        Scenario {
            protocol,
            n,
            k,
            payload_bytes: 16,
            seed: 42,
            scheme: SigScheme::Rsa1024,
            faults: FaultPlan::none(),
            fault_spec: None,
            stop: StopWhen::Blocks(20),
            deadline: SimDuration::from_millis(120_000),
            streaming: false,
            crash_only: false,
            opt_equivocation_speedup: false,
            opt_lock_only_status: false,
            fault_bound: None,
            checkpoint_interval: None,
            batch_policy: None,
            offered_load: 1,
            forward_batch: 1,
            workload: None,
            scheduler: SchedulerKind::default(),
            shards: eesmr_net::shards_from_env(),
            trace: TraceLevel::from_env(),
            metrics: MetricsConfig::from_env(),
        }
    }

    /// Sets the batch policy (how proposers size each block's batch).
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch_policy = Some(policy);
        self
    }

    /// The batch policy this scenario actually runs with: the explicit
    /// setting if any, else the protocol's historical default.
    pub fn effective_batch_policy(&self) -> BatchPolicy {
        self.batch_policy.unwrap_or(match self.protocol {
            Protocol::TrustedBaseline => BatchPolicy::Fixed(16),
            _ => BatchPolicy::DEFAULT,
        })
    }

    /// Sets the synthetic offered load (commands available per proposal).
    pub fn offered_load(mut self, commands: usize) -> Self {
        self.offered_load = commands.max(1);
        self
    }

    /// Sets the forward-batching threshold: non-leading nodes relay
    /// their backlog once it holds `threshold` commands (or after a Δ
    /// flush timer), instead of on every arrival (clamped to at least 1).
    pub fn forward_batch(mut self, threshold: usize) -> Self {
        self.forward_batch = threshold.max(1);
        self
    }

    /// Attaches a client workload model (replaces the synthetic
    /// `offered_load` feed; see `eesmr-workload`).
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Selects the simulator's event scheduler (results are identical
    /// under either; see `eesmr_net::sched`).
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Splits the simulation across `shards` worker threads (clamped to
    /// at least 1; see `eesmr_net::shard`). Results are bit-identical
    /// for any shard count — sharding is purely an intra-scenario
    /// speed knob for large `n`.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the structured-event trace level (overriding `EESMR_TRACE`).
    /// Like [`shards`](Self::shards) this cannot change results — it only
    /// controls what [`run_traced`](Self::run_traced) captures.
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Sets the telemetry sampling configuration (overriding the
    /// `EESMR_METRICS*` environment). Pure observation: it fills
    /// [`RunReport::metrics`](RunReport) without changing any measured
    /// result.
    pub fn metrics(mut self, cfg: MetricsConfig) -> Self {
        self.metrics = cfg;
        self
    }

    /// Enables the §3.5 checkpoint optimization with the given interval.
    pub fn checkpoint_every(mut self, rounds: u64) -> Self {
        assert!(rounds > 0, "checkpoint interval must be positive");
        self.checkpoint_interval = Some(rounds);
        self
    }

    /// Overrides the protocol fault bound `f` (must keep `f < n/2`).
    pub fn fault_bound(mut self, f: usize) -> Self {
        self.fault_bound = Some(f);
        self
    }

    /// Sets the payload size.
    pub fn payload(mut self, bytes: usize) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the sweepable fault axis (overrides any explicit plan; the
    /// tag expands to a sized [`FaultPlan`] at run time).
    pub fn fault_spec(mut self, spec: FaultSpec) -> Self {
        self.fault_spec = Some(spec);
        self
    }

    /// The fault plan this scenario actually runs with: the swept axis
    /// expanded against the given Δ, or the explicit plan.
    pub fn effective_faults(&self, delta: SimDuration) -> FaultPlan {
        match self.fault_spec {
            Some(spec) => spec.plan(self.n, delta.as_micros()),
            None => self.faults.clone(),
        }
    }

    /// Sets the stop condition.
    pub fn stop(mut self, stop: StopWhen) -> Self {
        self.stop = stop;
        self
    }

    /// Sets the signature scheme.
    pub fn scheme(mut self, scheme: SigScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Switches to streaming pacing.
    pub fn streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Enables the §5.6 optimizations the paper's testbed runs used.
    pub fn with_paper_optimizations(mut self) -> Self {
        self.opt_equivocation_speedup = true;
        self.opt_lock_only_status = true;
        self
    }

    /// The cell-grid coordinates of this scenario.
    pub fn cell(&self) -> CellKey {
        CellKey {
            protocol: self.protocol,
            n: self.n,
            k: self.k,
            payload_bytes: self.payload_bytes,
            scheme: self.scheme,
            batch: self.effective_batch_policy(),
            offered_load: self.offered_load,
            forward_batch: self.forward_batch,
            workload: self.workload,
            shards: self.shards,
            fault: self.fault_spec.unwrap_or(FaultSpec::None),
            seed: self.seed,
        }
    }

    /// The non-default settings rendered as `key=value` label suffixes,
    /// in a fixed order (batch, load, workload, shards, faults). One
    /// place builds them so every axis renders consistently.
    fn label_suffixes(&self) -> Vec<(&'static str, String)> {
        let mut parts = Vec::new();
        if let Some(policy) = self.batch_policy {
            parts.push(("batch", policy.label()));
        }
        if self.offered_load != 1 {
            parts.push(("load", self.offered_load.to_string()));
        }
        if self.forward_batch != 1 {
            parts.push(("fwd", self.forward_batch.to_string()));
        }
        if let Some(workload) = &self.workload {
            parts.push(("wl", workload.label()));
        }
        if self.shards != 1 {
            parts.push(("shards", self.shards.to_string()));
        }
        if let Some(spec) = self.fault_spec {
            parts.push(("fault", spec.label().to_string()));
        } else if self.faults.count() > 0 {
            parts.push(("faults", self.faults.count().to_string()));
        }
        parts
    }

    /// A human-readable label for status lines and report rows, e.g.
    /// `EESMR n=6 k=3 |b|=16B RSA-1024 seed=42`, with a ` key=value`
    /// suffix per non-default axis (batch policy, offered load, workload,
    /// faults).
    pub fn label(&self) -> String {
        let mut label = format!(
            "{} n={} k={} |b|={}B {} seed={}",
            self.protocol.name(),
            self.n,
            self.k,
            self.payload_bytes,
            self.scheme.name(),
            self.seed
        );
        for (key, value) in self.label_suffixes() {
            label.push_str(&format!(" {key}={value}"));
        }
        label
    }

    /// Runs the scenario to completion.
    pub fn run(&self) -> RunReport {
        self.run_traced().0
    }

    /// Runs the scenario and also returns the structured-event trace the
    /// run recorded (empty at [`TraceLevel::Off`]). When the level
    /// enables commit-class events, the report's
    /// [`commit_path`](RunReport::commit_path) is reconstructed from the
    /// merged trace; when `EESMR_TRACE_OUT` names a file, the trace is
    /// also exported there as Perfetto JSON.
    pub fn run_traced(&self) -> (RunReport, TraceSet) {
        let net = self.net_config();
        let delta = net.delta();
        let plan = self.effective_faults(delta);
        let Cell { net, f, roles, replicas } = self.build(net, delta, &plan);
        let (mut report, traces) = match replicas {
            Replicas::Eesmr(r) => self.run_on(net, delta, f, &roles, r),
            Replicas::SyncHs(r) => self.run_on(net, delta, f, &roles, r),
            Replicas::Trusted(r) => self.run_on(net, delta, f, &roles, r),
        };
        if self.trace.enables(TraceClass::Commit) {
            report.commit_path = CommitPath::reconstruct(&traces.merged());
            export(ENV_TRACE_OUT, |_| eesmr_trace::perfetto::render(&traces));
        }
        if self.metrics.enabled {
            export(ENV_METRICS_OUT, |path| render_metrics(path, &report));
        }
        (report, traces)
    }

    /// Drives `replicas` on the simulator to the stop condition and
    /// reads the report off them. Generic — monomorphised per replica
    /// type — so the event loop is the one each protocol always ran.
    fn run_on<A>(
        &self,
        net_cfg: NetConfig,
        delta: SimDuration,
        f: usize,
        roles: &[NodeRole],
        replicas: Vec<A>,
    ) -> (RunReport, TraceSet)
    where
        A: ReplicaView + Send,
        A::Msg: Send + Sync,
        A::Timer: Send,
    {
        let mut net = ShardedNet::new(net_cfg, replicas, self.shards);
        let deadline = SimTime::ZERO + self.deadline;
        let excused = |id: u32| roles[id as usize].excused;
        match self.stop {
            StopWhen::Elapsed(d) => net.run_until(SimTime::ZERO + d),
            StopWhen::Blocks(b) => {
                net.run_until_all(deadline, |id, r| excused(id) || r.committed_height() >= b);
            }
            StopWhen::ViewReached(v) => {
                net.run_until_all(deadline, |id, r| excused(id) || r.resumed_in_view(v));
            }
        }

        let traces = net.take_traces();
        let metrics = net.take_metrics();
        let ids = 0..self.n as u32;
        let nodes = ids
            .clone()
            .zip(roles)
            .map(|(id, role)| {
                NodeReport::from_view(id, role.faulty, role.is_hub, net.actor(id), net.meter(id))
            })
            .collect();
        let mut report = RunReport::new(self, f, delta, net.now().as_micros(), nodes, net.stats());
        // The observability surfaces are all excluded from report
        // equality, so filling them cannot perturb determinism checks.
        report.energy_attr = ids.map(|id| net.meter(id).attribution().clone()).collect();
        report.metrics = metrics;
        report.trace_dropped = traces.nodes.iter().map(|t| t.dropped).collect();
        (report, traces)
    }
}

/// Env var naming a file each traced run exports its Perfetto JSON to
/// (level ≥ `commit`; a grid's runs overwrite it — last one wins).
pub const ENV_TRACE_OUT: &str = "EESMR_TRACE_OUT";

/// Writes `render(path)` to the file the env var `var` names, if it
/// names one, under a process-wide lock so concurrent grid cells (the
/// driver's worker pool) never interleave writes.
fn export(var: &str, render: impl FnOnce(&str) -> String) {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let Some(path) = std::env::var(var).ok().filter(|p| !p.is_empty()) else { return };
    let _lock = GUARD.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Err(err) = std::fs::write(&path, render(&path)) {
        eprintln!("warning: failed to write the {var} export {path}: {err}");
    }
}

/// Env var naming a file each metrics-enabled run exports its sampled
/// telemetry to: Prometheus text format when the path ends in `.prom`
/// or `.txt`, JSON (`eesmr-metrics/v1`) otherwise. Like
/// [`ENV_TRACE_OUT`], a grid's runs overwrite it — last one wins.
pub const ENV_METRICS_OUT: &str = "EESMR_METRICS_OUT";

/// Renders the metrics export in the format `path`'s extension selects.
fn render_metrics(path: &str, report: &RunReport) -> String {
    let energy: Vec<(eesmr_energy::EnergyAttribution, f64)> = report
        .energy_attr
        .iter()
        .zip(&report.nodes)
        .map(|(attr, node)| (attr.clone(), node.energy.total_mj()))
        .collect();
    if path.ends_with(".prom") || path.ends_with(".txt") {
        eesmr_metrics::export::prometheus(&report.metrics, &energy)
    } else {
        eesmr_metrics::export::json(&report.metrics, &energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    #[test]
    fn eesmr_scenario_reaches_block_target() {
        let report = Scenario::new(Protocol::Eesmr, 5, 2).stop(StopWhen::Blocks(5)).run();
        assert_eq!(report.protocol, "EESMR");
        assert!(report.committed_height() >= 5);
        assert_eq!(report.view_changes(), 0);
        assert!(report.total_correct_energy_mj() > 0.0);
    }

    #[test]
    fn synchs_scenario_runs() {
        let report = Scenario::new(Protocol::SyncHotStuff, 5, 2).stop(StopWhen::Blocks(5)).run();
        assert!(report.committed_height() >= 5);
        assert_eq!(report.protocol, "Sync HotStuff");
    }

    #[test]
    fn optsync_scenario_runs() {
        let report = Scenario::new(Protocol::OptSync, 8, 3).stop(StopWhen::Blocks(5)).run();
        assert!(report.committed_height() >= 5);
    }

    #[test]
    fn trusted_scenario_excludes_hub_energy() {
        let report = Scenario::new(Protocol::TrustedBaseline, 6, 2).stop(StopWhen::Blocks(5)).run();
        assert!(report.committed_height() >= 5);
        let hub = &report.nodes[0];
        assert!(hub.is_hub);
        assert!(hub.energy.total_mj() > 0.0);
        // Correct-node totals exclude the hub.
        let manual: f64 = report.nodes[1..].iter().map(|n| n.energy.total_mj()).sum();
        assert!((report.total_correct_energy_mj() - manual).abs() < 1e-9);
    }

    #[test]
    fn view_change_scenario_stops_after_vc() {
        let report = Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2))
            .run();
        assert!(report.view_changes() >= 1);
        // The faulty leader is excluded from correct-node aggregates.
        assert_eq!(report.correct_nodes().count(), 4);
    }

    #[test]
    fn eesmr_beats_synchs_total_energy_per_block() {
        // The headline comparison at small scale: same topology, payload,
        // and scheme — EESMR consumes less per committed block.
        let e = Scenario::new(Protocol::Eesmr, 7, 3).stop(StopWhen::Blocks(10)).run();
        let s = Scenario::new(Protocol::SyncHotStuff, 7, 3).stop(StopWhen::Blocks(10)).run();
        assert!(
            e.energy_per_block_mj() < s.energy_per_block_mj(),
            "EESMR {:.1} vs SyncHS {:.1} mJ/block",
            e.energy_per_block_mj(),
            s.energy_per_block_mj()
        );
    }

    #[test]
    fn label_and_cell_describe_the_sweep_axes() {
        let s = Scenario::new(Protocol::Eesmr, 6, 3).payload(128).seed(7);
        assert_eq!(s.cell().n, 6);
        assert_eq!(s.cell().seed, 7);
        assert_eq!(s.cell(), s.clone().cell(), "cell key is a pure function of the scenario");
        let label = s.label();
        assert!(label.contains("EESMR"), "{label}");
        assert!(label.contains("n=6"), "{label}");
        assert!(label.contains("|b|=128B"), "{label}");
        assert!(!label.contains("faults"), "{label}");
        let faulty = s.faults(FaultPlan::silent_leader()).label();
        assert!(faulty.contains("faults=1"), "{faulty}");
    }

    #[test]
    fn adaptive_batching_under_load_fills_bigger_blocks() {
        let adaptive = BatchPolicy::Adaptive { min: 1, max: 64, target_fill_pct: 100 };
        let loaded = Scenario::new(Protocol::Eesmr, 5, 2)
            .offered_load(32)
            .batch_policy(adaptive)
            .stop(StopWhen::Blocks(5))
            .run();
        assert!(loaded.committed_height() >= 5);
        let unit = Scenario::new(Protocol::Eesmr, 5, 2).stop(StopWhen::Blocks(5)).run();
        // Same block target, but the adaptive proposer drains the offered
        // load into each block: far more bytes cross the air per block.
        assert!(
            loaded.net.bytes_on_air > 2 * unit.net.bytes_on_air,
            "adaptive batches should carry the backlog ({} vs {} bytes)",
            loaded.net.bytes_on_air,
            unit.net.bytes_on_air
        );
        let label =
            Scenario::new(Protocol::Eesmr, 5, 2).offered_load(32).batch_policy(adaptive).label();
        assert!(label.contains("batch=adaptive1..64@100%"), "{label}");
        assert!(label.contains("load=32"), "{label}");
    }

    #[test]
    fn batch_policy_is_a_cell_axis() {
        let a = Scenario::new(Protocol::Eesmr, 5, 2);
        let b = a.clone().batch_policy(BatchPolicy::Fixed(8));
        assert_ne!(a.cell(), b.cell(), "batch policy distinguishes grid cells");
        assert_eq!(a.cell().batch, BatchPolicy::DEFAULT);
        let c = a.clone().offered_load(32);
        assert_ne!(a.cell(), c.cell(), "offered load distinguishes grid cells");
    }

    #[test]
    fn workload_scenario_measures_end_to_end_latency() {
        use eesmr_workload::{ArrivalProcess, Skew};
        // All load on node 0 — the view-1 leader — so arrivals flow
        // straight into proposals.
        let w =
            Workload::new(ArrivalProcess::Poisson { rate: 2_000 }).skew(Skew::Hotspot { pct: 100 });
        let report =
            Scenario::new(Protocol::Eesmr, 5, 2).workload(w).stop(StopWhen::Blocks(10)).run();
        assert!(report.committed_height() >= 10);
        assert!(report.tx_injected() > 0, "arrival events fired");
        assert!(report.tx_committed() > 0, "transactions rode committed blocks");
        let stats = report.tx_latency_stats().expect("latencies measured");
        assert!(stats.p50_us <= stats.p99_us);
        assert!(stats.mean_us > 0);
        let label = Scenario::new(Protocol::Eesmr, 5, 2).workload(w).label();
        assert!(label.contains("wl=poisson2000/hot100/open"), "{label}");
    }

    #[test]
    fn workload_runs_on_every_protocol() {
        use eesmr_workload::ArrivalProcess;
        let w = Workload::new(ArrivalProcess::Constant { rate: 3_000 });
        for protocol in
            [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline]
        {
            let report = Scenario::new(protocol, 5, 2).workload(w).stop(StopWhen::Blocks(5)).run();
            assert!(report.committed_height() >= 5, "{protocol:?}");
            assert!(report.tx_injected() > 0, "{protocol:?} injected nothing");
            assert!(
                report.tx_latency_stats().is_some(),
                "{protocol:?} committed no workload transactions"
            );
        }
    }

    #[test]
    fn closed_loop_bound_holds_end_to_end() {
        use eesmr_workload::{ArrivalProcess, Skew};
        let bound = 8;
        let w = Workload::new(ArrivalProcess::Poisson { rate: 20_000 })
            .skew(Skew::Hotspot { pct: 100 })
            .closed_loop(bound);
        let report =
            Scenario::new(Protocol::Eesmr, 5, 2).workload(w).stop(StopWhen::Blocks(8)).run();
        for node in report.nodes.iter() {
            let in_flight_at_end = node.tx_injected - node.tx_latency_hist.count();
            assert!(
                in_flight_at_end <= bound as u64,
                "node {} ended with {in_flight_at_end} in flight",
                node.id
            );
        }
        assert!(report.tx_committed() > 0);
    }

    #[test]
    fn forwarding_unstrands_transactions_at_non_leading_nodes() {
        use eesmr_workload::ArrivalProcess;
        // Uniform skew: every node injects, but (fault-free) only node 0
        // ever leads. Command forwarding relays the other nodes' commands
        // to the proposer, so every node's transactions commit — they
        // used to strand in the local pools forever.
        let w = Workload::new(ArrivalProcess::Poisson { rate: 4_000 }).closed_loop(4);
        for protocol in [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync] {
            let report = Scenario::new(protocol, 5, 2).workload(w).stop(StopWhen::Blocks(12)).run();
            assert!(report.committed_height() >= 12, "{protocol:?}");
            assert!(report.tx_forwarded() > 0, "{protocol:?} reported no forwards");
            for node in &report.nodes {
                assert!(node.tx_injected > 0, "{protocol:?} node {} injected nothing", node.id);
                assert!(
                    !node.tx_latency_hist.is_empty(),
                    "{protocol:?} node {}: its transactions stranded — forwarding broken",
                    node.id
                );
            }
        }
    }

    #[test]
    fn partitioned_follower_reforwards_its_queue_after_heal() {
        use eesmr_workload::ArrivalProcess;
        // Node 4 injects client commands like everyone else, but a
        // partition cuts it off from the (healthy, never-deposed) leader
        // mid-run, so its forward floods vanish into severed links and
        // no view change ever fires `requeue_unresolved` for it. The
        // forward-retry timer is the only rescue: after the heal it must
        // re-forward the partition-era queue so the commands commit and
        // the closed loop resumes injecting.
        let w = Workload::new(ArrivalProcess::Poisson { rate: 4_000 }).closed_loop(4);
        // Blocks(16) leaves enough healthy run after the heal for the
        // retry window (32Δ from each command's birth) to elapse and
        // the resumed loop to cycle a few more waves through commit.
        let base = Scenario::new(Protocol::Eesmr, 5, 2)
            .workload(w)
            .faults(FaultPlan::none().with_partition(5_000, 60_000, [4]))
            .stop(StopWhen::Blocks(16));
        let report = base.clone().run();
        assert!(report.committed_height() >= 16, "{}", report.summary());
        assert!(report.net.dropped > 0, "the partition severed real traffic");
        let islanded = &report.nodes[4];
        assert!(!islanded.faulty, "a partitioned node is a link fault, not a node fault");
        assert!(
            islanded.tx_forwarded > islanded.tx_injected,
            "retries re-forward stranded commands, so forwards ({}) must exceed \
             injections ({}) — without the retry each command is forwarded at most once",
            islanded.tx_forwarded,
            islanded.tx_injected
        );
        assert!(
            islanded.tx_injected >= 10,
            "only {} injections: the closed loop froze on stranded commands \
             instead of resuming after the heal",
            islanded.tx_injected
        );
        assert!(
            islanded.tx_latency_hist.count() + 4 >= islanded.tx_injected,
            "{} of {} injected commands never committed — re-forwarding after \
             the heal is broken",
            islanded.tx_injected - islanded.tx_latency_hist.count(),
            islanded.tx_injected
        );
        // The whole heal-and-reforward path is keyed to node-local state:
        // sharding the run must reproduce it bit for bit.
        let sharded = base.shards(2).run();
        assert_eq!(report, sharded, "partition re-forwarding broke shard determinism");
    }

    #[test]
    fn a_retried_forward_reaches_the_leader_so_retries_stop() {
        use eesmr_workload::{ArrivalProcess, Skew};
        // Node 6 is cut off from the leader from 5Δ to 25Δ; the forwards
        // it sends meanwhile vanish, and after the heal its retry timer
        // sends the same commands, in the same view, to the same leader
        // again. That retry is the same message as the first try and must
        // still go on the air: once it lands the commands commit and the
        // retries stop, so a run twice as long retries no more. A retry
        // swallowed as a duplicate strands the commands and retries on
        // every window for the rest of the run.
        let w = Workload::new(ArrivalProcess::Poisson { rate: 2_000 }).skew(Skew::Zipf);
        let base = Scenario::new(Protocol::Eesmr, 7, 3)
            .workload(w)
            .fault_spec(FaultSpec::PartitionHeal)
            .seed(42);
        let short = base.clone().stop(StopWhen::Blocks(100)).run();
        let long = base.stop(StopWhen::Blocks(200)).run();
        let (short, long) = (&short.nodes[6], &long.nodes[6]);
        assert!(short.forward_retries > 0, "the partition stranded no forward");
        assert_eq!(
            long.forward_retries, short.forward_retries,
            "node 6 kept retrying after the heal: its retried forwards never reached the leader"
        );
    }

    #[test]
    fn forward_batching_cuts_forward_traffic_without_perturbing_determinism() {
        use eesmr_workload::ArrivalProcess;
        // Uniform skew, closed loop, and a silent first leader: every
        // node queues commands for a proposer that dies, so the batch=1
        // baseline forwards each command on arrival and re-forwards
        // whole backlogs around the view change. With a threshold, the
        // sub-threshold backlog a node holds when it becomes (or gains
        // a live) leader is proposed or relayed once instead.
        let w = Workload::new(ArrivalProcess::Poisson { rate: 4_000 }).closed_loop(4);
        let base = Scenario::new(Protocol::Eesmr, 5, 2)
            .workload(w)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::Blocks(12));
        let unbatched = base.clone().run();
        let batched = base.clone().forward_batch(8).run();
        assert!(batched.committed_height() >= 12);
        assert!(batched.view_changes() >= 1);
        assert!(batched.tx_forwarded() > 0, "forwarding still happens, just batched");
        assert!(
            batched.tx_forwarded() < unbatched.tx_forwarded(),
            "batching should cut forward traffic ({} vs {})",
            batched.tx_forwarded(),
            unbatched.tx_forwarded()
        );
        // Batching is keyed to node-local state only: sharding the
        // batched run must reproduce it bit for bit.
        let sharded = base.clone().forward_batch(8).shards(2).run();
        assert_eq!(batched, sharded, "forward batching broke shard determinism");
        // The threshold is a sweep axis with a label suffix.
        let s = base.clone().forward_batch(8);
        assert_ne!(s.cell(), base.cell(), "forward_batch distinguishes grid cells");
        assert!(s.label().contains("fwd=8"), "{}", s.label());
        assert!(!base.label().contains("fwd="), "{}", base.label());
    }

    #[test]
    fn workload_survives_a_view_change() {
        use eesmr_workload::ArrivalProcess;
        // A silent view-1 leader forces a view change while client
        // traffic keeps arriving; the run must still complete, keep
        // injecting, and commit transactions under the new leader.
        let w = Workload::new(ArrivalProcess::Poisson { rate: 4_000 }).closed_loop(16);
        let report = Scenario::new(Protocol::Eesmr, 5, 2)
            .workload(w)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::Blocks(5))
            .run();
        assert!(report.view_changes() >= 1);
        assert!(report.committed_height() >= 5);
        assert!(report.tx_injected() > 0);
        assert!(report.tx_committed() > 0, "the new leader commits client traffic");
    }

    #[test]
    fn workload_is_a_cell_axis() {
        use eesmr_workload::ArrivalProcess;
        let a = Scenario::new(Protocol::Eesmr, 5, 2);
        let b = a.clone().workload(Workload::new(ArrivalProcess::Poisson { rate: 500 }));
        assert_ne!(a.cell(), b.cell(), "workload distinguishes grid cells");
        assert_eq!(a.cell().workload, None);
    }

    #[test]
    fn sharded_scenarios_match_single_threaded_bit_for_bit() {
        for protocol in
            [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline]
        {
            let base = Scenario::new(protocol, 6, 3).stop(StopWhen::Blocks(4));
            let reference = base.clone().shards(1).run();
            assert!(reference.committed_height() >= 4, "{protocol:?}");
            for shards in [2, 3, 6] {
                let sharded = base.clone().shards(shards).run();
                assert_eq!(reference, sharded, "{protocol:?} diverged with {shards} shards");
            }
        }
    }

    #[test]
    fn shards_are_a_cell_axis_and_label_suffix() {
        let a = Scenario::new(Protocol::Eesmr, 6, 3).shards(1);
        let b = a.clone().shards(4);
        assert_ne!(a.cell(), b.cell(), "shard count distinguishes grid cells");
        assert_eq!(b.cell().shards, 4);
        assert!(!a.label().contains("shards"), "{}", a.label());
        assert!(b.label().contains("shards=4"), "{}", b.label());
        assert_eq!(a.clone().shards(0).shards, 1, "clamped to at least one");
    }

    #[test]
    fn traced_workload_run_reconstructs_the_commit_path() {
        use eesmr_workload::ArrivalProcess;
        let w = Workload::new(ArrivalProcess::Poisson { rate: 2_000 });
        let base = Scenario::new(Protocol::Eesmr, 5, 2).workload(w).stop(StopWhen::Blocks(5));
        let (report, traces) = base.clone().trace(TraceLevel::Commit).run_traced();
        assert!(traces.total_events() > 0, "commit-level tracing recorded events");
        let path = report.commit_path.as_ref().expect("commit path reconstructed");
        assert_eq!(path.stages.first().map(|s| s.stage), Some("inject"));
        assert_eq!(path.stages.last().map(|s| s.stage), Some("commit"));
        assert!(path.total_us() > 0);
        // Tracing is pure observation: the untraced run is bit-identical
        // (commit_path itself is diagnostic and excluded from equality).
        let (untraced, empty) = base.clone().trace(TraceLevel::Off).run_traced();
        assert_eq!(empty.total_events(), 0);
        assert_eq!(untraced.commit_path, None);
        assert_eq!(report, untraced, "tracing perturbed the run");
        // Not a sweep axis: same cell, same label.
        assert_eq!(base.clone().trace(TraceLevel::All).cell(), base.cell());
        assert_eq!(base.clone().trace(TraceLevel::All).label(), base.label());
    }

    #[test]
    fn fault_axis_is_a_cell_axis_and_label_suffix() {
        let a = Scenario::new(Protocol::Eesmr, 6, 3);
        let b = a.clone().fault_spec(FaultSpec::Withhold);
        assert_ne!(a.cell(), b.cell(), "the fault axis distinguishes grid cells");
        assert_eq!(a.cell().fault, FaultSpec::None);
        assert_eq!(b.cell().fault, FaultSpec::Withhold);
        assert!(b.label().contains("fault=withhold"), "{}", b.label());
        assert!(!a.label().contains("fault="), "{}", a.label());
    }

    #[test]
    fn partition_heals_and_the_islanded_node_catches_up() {
        let report = Scenario::new(Protocol::Eesmr, 5, 2)
            .fault_spec(FaultSpec::PartitionHeal)
            .stop(StopWhen::Blocks(6))
            .run();
        // The partitioned node is a link fault, not a node fault: it is
        // not excused, so reaching the stop target proves it caught up
        // after the heal.
        for node in &report.nodes {
            assert!(!node.faulty, "partitions do not mark nodes faulty");
            assert!(
                node.committed_height >= 6,
                "node {} stuck at {}",
                node.id,
                node.committed_height
            );
        }
        assert!(report.net.dropped > 0, "the partition severed real deliveries");
    }

    #[test]
    fn crash_recovery_spec_commits_on_every_protocol() {
        for protocol in
            [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline]
        {
            let report = Scenario::new(protocol, 5, 2)
                .fault_spec(FaultSpec::CrashRecovery)
                .stop(StopWhen::Blocks(3))
                .run();
            let crashed = &report.nodes[4];
            assert!(crashed.faulty, "{protocol:?} marks the crashed node");
            assert!(
                crashed.committed_height >= 3,
                "{protocol:?}: the restarted node only reached {}",
                crashed.committed_height
            );
        }
    }

    #[test]
    fn elapsed_stop_runs_exact_time() {
        let report = Scenario::new(Protocol::Eesmr, 4, 2)
            .stop(StopWhen::Elapsed(SimDuration::from_millis(50)))
            .run();
        assert_eq!(report.elapsed_us, 50_000);
    }
}
