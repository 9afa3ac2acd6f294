//! The six named workloads: what each one runs, how one set-up pass and
//! one timed cell execute, and the correctness gate every run passes
//! through.
//!
//! A workload is a list of *cells*; one rep runs every cell once, in
//! order, so cells interleave inside each rep and slow drift hits all of
//! them alike. Every layer is driven from outside through its public
//! API (`Scenario::run`, `run_proc`, `ShardedNet`, `Driver`).

use std::cell::OnceCell;
use std::path::PathBuf;
use std::time::Instant;

use eesmr_core::{BatchPolicy, Block, Command};
use eesmr_crypto::sha256::Sha256;
use eesmr_driver::{Driver, DriverConfig, ScenarioGrid};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_metrics::{profile_reset, profile_snapshot, ProfileSnapshot};
use eesmr_net::{
    Actor, Context, Message, MetricsConfig, NetConfig, NodeId, ProcTransport, ShardedNet,
    SimDuration, TraceLevel,
};
use eesmr_sim::{
    ArrivalProcess, FaultSpec, Protocol, RunReport, Scenario, Skew, StopWhen, Workload,
};

/// Inputs shared by every cell of a run.
#[derive(Debug, Clone)]
pub struct Env {
    /// Workload seed: feeds `Scenario::seed`, `NetConfig::ble` and, through
    /// the scenario, `Workload::node_source`.
    pub seed: u64,
    /// Smoke-test sizes (1/10 of the block targets); never recorded.
    pub quick: bool,
    /// Where the `proc_replica` binary sits (beside this executable).
    pub exe_dir: PathBuf,
}

impl Env {
    /// Scales a block target for `--quick`.
    fn sized(&self, blocks: u64) -> u64 {
        if self.quick {
            (blocks / 10).max(2)
        } else {
            blocks
        }
    }

    pub fn proc_replica(&self) -> PathBuf {
        self.exe_dir.join("proc_replica")
    }
}

/// Simulated deadline for every scenario: far beyond any cell's needs, so
/// reaching it means the run wedged (and the gate fails it).
const DEADLINE: SimDuration = SimDuration::from_millis(3_600_000);

/// The flood storm's shape: `n·budget` floods, each delivered to all `n`.
pub const STORM_N: usize = 128;
const STORM_K: usize = 4;
const STORM_COMMANDS: usize = 16;
const STORM_COMMAND_BYTES: usize = 32;

pub enum CellKind {
    /// One `Scenario::run` to a block target.
    Sim(Scenario),
    /// The benchmark's own flood actor over `ShardedNet`.
    Storm { budget: u64, shards: usize },
    /// `Driver::run_grid` over a scenario grid.
    Sweep { grid: ScenarioGrid, workers: usize, repeats: usize, blocks_per_run: u64 },
    /// `Scenario::run_proc`: real child processes. `reference` is the
    /// SimNet run of the same cell, computed on first use (the untimed
    /// warm-up rep) and compared against every real-process run.
    Proc { scenario: Scenario, transport: ProcTransport, reference: OnceCell<Box<RunReport>> },
}

pub struct Cell {
    pub name: &'static str,
    /// Span name for the call into the layer under test.
    pub span: &'static str,
    /// Span name for the profiler's replica-step phase in this cell.
    pub step_span: &'static str,
    /// Ops attempted per run: the block target (floods for the storm).
    pub target: u64,
    pub kind: CellKind,
}

/// What one cell run produced.
#[derive(Default)]
pub struct CellOut {
    pub wall_ns: u64,
    /// Committed blocks (min over correct nodes, summed over runs);
    /// floods for the storm.
    pub blocks: u64,
    pub deliveries: u64,
    pub energy_mj: f64,
    pub latency_us: f64,
    /// Fingerprint of every deterministic output; equal across reps of
    /// one seed on SimNet cells. `None` for real-process cells.
    pub digest: Option<u64>,
    /// Why the gate failed this run, if it did.
    pub error: Option<String>,
    /// The underlying reports (one per scenario run; none for the storm).
    pub reports: Vec<RunReport>,
    /// Profiler phase totals, when the run was profiled.
    pub profile: Option<ProfileSnapshot>,
    /// Failed real-process attempts before the one reported here.
    pub retries: u64,
}

pub struct WorkloadPlan {
    pub name: &'static str,
    pub cells: Vec<Cell>,
}

fn sim_cell(name: &'static str, step_span: &'static str, scenario: Scenario) -> Cell {
    let StopWhen::Blocks(target) = scenario.stop else { unreachable!("sim cells stop on blocks") };
    Cell { name, span: "sim.scenario_run", step_span, target, kind: CellKind::Sim(scenario) }
}

/// Every sim scenario: one thread, observability off, the run's seed.
fn scenario(env: &Env, protocol: Protocol, n: usize, k: usize, blocks: u64) -> Scenario {
    let mut s = Scenario::new(protocol, n, k)
        .seed(env.seed)
        .shards(1)
        .trace(TraceLevel::Off)
        .metrics(MetricsConfig::off())
        .stop(StopWhen::Blocks(env.sized(blocks)));
    s.deadline = DEADLINE;
    s
}

/// The open-loop client model of `sim_clients` at a system-wide rate.
pub fn client_workload(rate: u32) -> Workload {
    Workload::new(ArrivalProcess::Poisson { rate }).skew(Skew::Zipf)
}

pub const CLIENT_BATCH: BatchPolicy =
    BatchPolicy::Adaptive { min: 1, max: 64, target_fill_pct: 100 };

/// The EESMR honest cell of `sim_clients` at another arrival rate (the
/// rate sweep behind `workload.p99_us_at_*`).
pub fn clients_at_rate(env: &Env, rate: u32, blocks: u64) -> Scenario {
    scenario(env, Protocol::Eesmr, 13, 7, blocks)
        .workload(client_workload(rate))
        .batch_policy(CLIENT_BATCH)
}

pub fn sweep_grid(env: &Env, blocks: u64) -> ScenarioGrid {
    ScenarioGrid::named("fig_sweep")
        .protocols([
            Protocol::Eesmr,
            Protocol::SyncHotStuff,
            Protocol::OptSync,
            Protocol::TrustedBaseline,
        ])
        .nodes(4..=10)
        .degrees([3, 5])
        .faults([FaultSpec::None, FaultSpec::SilentLeader, FaultSpec::CrashRecovery])
        .seeds((0..4).map(|i| env.seed.wrapping_mul(4).wrapping_add(i)))
        .stop(StopWhen::Blocks(blocks))
        .configure(|mut s| {
            s.deadline = DEADLINE;
            s.shards(1).trace(TraceLevel::Off).metrics(MetricsConfig::off())
        })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Builds the named workload's cells for `env`.
pub fn plan(name: &str, env: &Env) -> Option<WorkloadPlan> {
    use Protocol::{Eesmr, SyncHotStuff};
    let (name, cells) = match name {
        "sim_steady" => (
            "sim_steady",
            vec![
                sim_cell("eesmr_n13", "core.replica_step", scenario(env, Eesmr, 13, 7, 4000)),
                sim_cell(
                    "synchs_n13",
                    "baselines.replica_step",
                    scenario(env, SyncHotStuff, 13, 7, 1250),
                ),
            ],
        ),
        "sim_scale" => (
            "sim_scale",
            vec![
                sim_cell("eesmr_n128", "core.replica_step", scenario(env, Eesmr, 128, 4, 500)),
                sim_cell(
                    "synchs_n128",
                    "baselines.replica_step",
                    scenario(env, SyncHotStuff, 128, 4, 16),
                ),
            ],
        ),
        "sim_clients" => {
            let base = |p| {
                scenario(env, p, 13, 7, 700)
                    .workload(client_workload(2000))
                    .batch_policy(CLIENT_BATCH)
            };
            (
                "sim_clients",
                vec![
                    sim_cell("eesmr_honest", "core.replica_step", base(Eesmr)),
                    sim_cell(
                        "eesmr_silent_leader",
                        "core.replica_step",
                        base(Eesmr).fault_spec(FaultSpec::SilentLeader),
                    ),
                    sim_cell(
                        "synchs_crash_recovery",
                        "baselines.replica_step",
                        base(SyncHotStuff).fault_spec(FaultSpec::CrashRecovery),
                    ),
                ],
            )
        }
        "net_storm" => {
            let budget = env.sized(40);
            (
                "net_storm",
                vec![Cell {
                    name: "storm_n128",
                    span: "net.storm_run",
                    step_span: "bench.storm_actor_step",
                    target: STORM_N as u64 * budget,
                    kind: CellKind::Storm { budget, shards: 1 },
                }],
            )
        }
        "fig_sweep" => {
            let blocks = if env.quick { 3 } else { 15 };
            let grid = sweep_grid(env, blocks);
            let repeats = 1;
            (
                "fig_sweep",
                vec![Cell {
                    name: "grid_576",
                    span: "driver.run_grid",
                    step_span: "core.replica_step",
                    target: grid.len() as u64 * repeats as u64 * blocks,
                    kind: CellKind::Sweep {
                        grid,
                        workers: nproc(),
                        repeats,
                        blocks_per_run: blocks,
                    },
                }],
            )
        }
        "proc_mesh" => {
            let cell = |name, step_span, p| {
                let s = scenario(env, p, 7, 3, 12).offered_load(16);
                let StopWhen::Blocks(target) = s.stop else { unreachable!() };
                Cell {
                    name,
                    span: "net.run_proc",
                    step_span,
                    target,
                    kind: CellKind::Proc {
                        scenario: s,
                        transport: ProcTransport::Uds,
                        reference: OnceCell::new(),
                    },
                }
            };
            (
                "proc_mesh",
                vec![
                    cell("eesmr_uds", "core.replica_step", Eesmr),
                    cell("synchs_uds", "baselines.replica_step", SyncHotStuff),
                ],
            )
        }
        _ => return None,
    };
    Some(WorkloadPlan { name, cells })
}

// ---------------------------------------------------------------------
// The storm actor.
// ---------------------------------------------------------------------

/// A flooded proposal: a block of commands, a dedup key, and the origin's
/// send time so receivers can account flood latency.
#[derive(Debug, Clone)]
pub struct Flood {
    key: u64,
    sent_us: u64,
    block: Block,
}

impl Message for Flood {
    fn wire_size(&self) -> usize {
        16 + self.block.wire_size()
    }
    fn flood_key(&self) -> u64 {
        self.key
    }
}

/// Floods one block at start and a fresh one per delivery until its
/// budget is spent. No crypto, no protocol logic: all the time goes to
/// the runtime's transmit path and the scheduler.
pub struct StormNode {
    id: u64,
    sent: u64,
    budget: u64,
    pub heard: u64,
    pub commands_heard: u64,
    pub latency_sum_us: u64,
    template: Block,
}

impl StormNode {
    fn flood(&mut self, ctx: &mut Context<'_, Flood, ()>) {
        self.sent += 1;
        ctx.flood(Flood {
            key: (self.id << 32) | self.sent,
            sent_us: ctx.now().as_micros(),
            block: self.template.clone(),
        });
    }
}

impl Actor for StormNode {
    type Msg = Flood;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Flood, ()>) {
        self.flood(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: Flood, ctx: &mut Context<'_, Flood, ()>) {
        self.heard += 1;
        self.commands_heard += msg.block.payload.len() as u64;
        self.latency_sum_us += ctx.now().as_micros() - msg.sent_us;
        if self.sent < self.budget {
            self.flood(ctx);
        }
    }

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Flood, ()>) {}
}

/// Builds the storm's network — the part of a storm run that is set-up —
/// and a simulated span by which the storm is certainly quiescent.
pub fn storm_net(
    seed: u64,
    n: usize,
    budget: u64,
    shards: usize,
) -> (ShardedNet<StormNode>, SimDuration) {
    let payload: Vec<Command> = (0..STORM_COMMANDS)
        .map(|i| Command::synthetic(seed.wrapping_add(i as u64), STORM_COMMAND_BYTES))
        .collect();
    let template = Block::extending(&Block::genesis(), 1, 1, payload);
    let actors = (0..n as u64)
        .map(|id| StormNode {
            id,
            sent: 0,
            budget,
            heard: 0,
            commands_heard: 0,
            latency_sum_us: 0,
            template: template.clone(),
        })
        .collect();
    let mut cfg = NetConfig::ble(ring_kcast(n, STORM_K.min(n - 1)), seed);
    cfg.trace = TraceLevel::Off;
    cfg.metrics = MetricsConfig::off();
    // A node floods again on every delivery until its budget is spent, and
    // a flood reaches everyone within delta: `budget + 2` deltas is ample.
    let quiescent_by = cfg.delta() * (budget + 2);
    (ShardedNet::new(cfg, actors, shards), quiescent_by)
}

/// Runs a storm to quiescence and checks that every flood reached every
/// node with its payload intact.
pub fn run_storm(seed: u64, n: usize, budget: u64, shards: usize) -> CellOut {
    let (mut net, quiescent_by) = storm_net(seed, n, budget, shards);
    let started = Instant::now();
    net.run_for(quiescent_by);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let stats = net.stats();
    let (mut heard, mut commands, mut latency, mut energy) = (0u64, 0u64, 0u64, 0.0);
    for id in 0..n as NodeId {
        let node = net.actor(id);
        heard += node.heard;
        commands += node.commands_heard;
        latency += node.latency_sum_us;
        energy += net.meter(id).total_mj();
    }
    let floods = n as u64 * budget;
    let expected = floods * n as u64;
    let error = if stats.deliveries != expected || heard != expected {
        Some(format!("storm delivered {} / heard {heard}, expected {expected}", stats.deliveries))
    } else if commands != STORM_COMMANDS as u64 * heard {
        Some(format!("storm payloads damaged: {commands} commands over {heard} deliveries"))
    } else {
        None
    };
    let mut digest = Fingerprint::new();
    for v in [stats.deliveries, stats.kcasts, stats.flood_relays, stats.bytes_on_air, latency] {
        digest.u64(v);
    }
    digest.u64(energy.to_bits());
    CellOut {
        wall_ns,
        blocks: floods,
        deliveries: stats.deliveries,
        energy_mj: energy,
        latency_us: latency as f64 / heard.max(1) as f64,
        digest: Some(digest.finish()),
        error,
        ..CellOut::default()
    }
}

// ---------------------------------------------------------------------
// The correctness gate.
// ---------------------------------------------------------------------

/// Hashes the deterministic outputs of a run into one fingerprint.
struct Fingerprint(Sha256);

impl Fingerprint {
    fn new() -> Fingerprint {
        Fingerprint(Sha256::new())
    }
    fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }
    fn finish(self) -> u64 {
        self.0.finalize().to_u64()
    }
}

/// Fingerprints everything a simulated run computed: times, per-node
/// energy, heights, commit logs, latency histograms and net counters.
fn report_digest(h: &mut Fingerprint, r: &RunReport) {
    h.u64(r.elapsed_us);
    h.u64(r.delta_us);
    for n in &r.nodes {
        h.u64(n.energy.total_mj().to_bits());
        h.u64(n.committed_height);
        h.u64(n.signs);
        h.u64(n.verifies);
        h.u64(n.view_changes);
        h.u64(n.mean_commit_latency.map_or(u64::MAX, |d| d.as_micros()));
        h.u64(n.tx_injected);
        h.u64(n.tx_latency_hist.count());
        h.u64(n.tx_latency_hist.percentile(99).unwrap_or(0));
        for fp in &n.commit_fps {
            h.u64(*fp);
        }
    }
    let net = &r.net;
    for v in
        [net.kcasts, net.deliveries, net.loopbacks, net.flood_relays, net.bytes_on_air, net.dropped]
    {
        h.u64(v);
    }
}

/// The gate every scenario run passes: the block target was reached
/// before the deadline, and all correct nodes' commit logs are
/// prefix-consistent (no fork).
pub fn check_report(r: &RunReport, target: u64) -> Result<(), String> {
    let height = r.committed_height();
    if height < target {
        return Err(format!(
            "{} n={}: committed {height} of {target} blocks by the deadline",
            r.protocol, r.n
        ));
    }
    let mut longest: &[u64] = &[];
    for node in r.correct_nodes() {
        let fps = &node.commit_fps[..];
        let common = fps.len().min(longest.len());
        if fps[..common] != longest[..common] {
            return Err(format!(
                "{} n={}: node {} forked from its peers",
                r.protocol, r.n, node.id
            ));
        }
        if fps.len() > longest.len() {
            longest = fps;
        }
    }
    Ok(())
}

/// Real-process conformance, as `tests/proc_conformance.rs` does it: each
/// node's first `target` commits equal the SimNet run of the same cell.
fn check_conformance(sim: &RunReport, proc: &RunReport, target: u64) -> Result<(), String> {
    let prefix = target as usize;
    for (s, p) in sim.nodes.iter().zip(&proc.nodes) {
        if s.commit_fps.len() < prefix || p.commit_fps.len() < prefix {
            return Err(format!("node {}: commit log shorter than the target", s.id));
        }
        if s.commit_fps[..prefix] != p.commit_fps[..prefix]
            || s.commit_txs[..prefix] != p.commit_txs[..prefix]
        {
            return Err(format!("node {}: ProcNet and SimNet commit sequences differ", s.id));
        }
    }
    Ok(())
}

fn mean_latency_us(reports: &[RunReport]) -> f64 {
    let lat: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.mean_commit_latency())
        .map(|d| d.as_micros() as f64)
        .collect();
    lat.iter().sum::<f64>() / lat.len().max(1) as f64
}

/// Folds scenario reports into a `CellOut`, gating each one.
fn from_reports(
    reports: Vec<RunReport>,
    target_each: u64,
    wall_ns: u64,
    deterministic: bool,
) -> CellOut {
    let mut digest = Fingerprint::new();
    let mut error = None;
    for r in &reports {
        report_digest(&mut digest, r);
        if let Err(e) = check_report(r, target_each) {
            error.get_or_insert(e);
        }
    }
    CellOut {
        wall_ns,
        blocks: reports.iter().map(RunReport::committed_height).sum(),
        deliveries: reports.iter().map(|r| r.net.deliveries).sum(),
        energy_mj: reports.iter().map(RunReport::total_correct_energy_mj).sum(),
        latency_us: mean_latency_us(&reports),
        digest: deterministic.then(|| digest.finish()),
        error,
        reports,
        profile: None,
        retries: 0,
    }
}

/// Attempts a real-process run gets. The replicas' timers run off the
/// wall clock against a delta padded to 25 ms, so a run is valid only
/// while the host schedules every child within that bound; when it stalls
/// one for longer (seen on shared hosts), the protocols answer with a
/// view change — correct behaviour, but no longer the cell that was asked
/// for, and the commit sequence leaves the SimNet reference. The host's
/// stalls cannot be observed directly, so a failed attempt is re-run and
/// counted (`net.proc.retries`); a defect in the program fails every
/// attempt and still fails the gate.
const PROC_ATTEMPTS: u64 = 3;

/// One gated real-process run, spawn to reap: the report and its wall
/// time. `reference` is the SimNet run whose commit sequences it must
/// reproduce.
fn proc_attempt(
    scenario: &Scenario,
    transport: ProcTransport,
    env: &Env,
    target: u64,
    reference: Option<&RunReport>,
) -> Result<(RunReport, u64), String> {
    let started = Instant::now();
    let report =
        scenario.run_proc(transport, &env.proc_replica()).map_err(|e| format!("run_proc: {e}"))?;
    // The whole call: spawn, connect, run, collect and reap
    // (`elapsed_us` covers connect to collect only).
    let wall_ns = started.elapsed().as_nanos() as u64;
    check_report(&report, target)?;
    if let Some(sim) = reference {
        check_conformance(sim, &report, target)?;
    }
    Ok((report, wall_ns))
}

/// Runs `proc_attempt` until it passes, `PROC_ATTEMPTS` times at most:
/// the last outcome and how many attempts failed before it.
fn proc_run(
    scenario: &Scenario,
    transport: ProcTransport,
    env: &Env,
    target: u64,
    reference: Option<&RunReport>,
) -> (Result<(RunReport, u64), String>, u64) {
    let mut retries = 0;
    loop {
        let outcome = proc_attempt(scenario, transport, env, target, reference);
        if outcome.is_ok() || retries + 1 == PROC_ATTEMPTS {
            return (outcome, retries);
        }
        retries += 1;
    }
}

// ---------------------------------------------------------------------
// Running cells.
// ---------------------------------------------------------------------

impl Cell {
    /// One set-up pass: everything this cell pays before its first block
    /// can commit (keys, topology, diameter, replicas, runtime; for real
    /// processes: spawn, connect, first block, collect).
    pub fn setup(&self, env: &Env) -> Result<(), String> {
        match &self.kind {
            CellKind::Sim(s) => {
                let r = s.clone().stop(StopWhen::Blocks(1)).run();
                check_report(&r, 1)
            }
            CellKind::Storm { budget, shards } => {
                let (net, _) = storm_net(env.seed, STORM_N, *budget, *shards);
                std::hint::black_box(net.shards());
                Ok(())
            }
            CellKind::Sweep { grid, .. } => {
                // Building the grid, plus constructing (not running) one
                // cell per distinct (protocol, n, k).
                let mut seen = std::collections::BTreeSet::new();
                for cell in grid.build() {
                    let s = cell.scenario;
                    if seen.insert((s.protocol.name(), s.n, s.k)) {
                        s.stop(StopWhen::Elapsed(SimDuration::ZERO)).run();
                    }
                }
                Ok(())
            }
            CellKind::Proc { scenario, transport, .. } => {
                let one_block = scenario.clone().stop(StopWhen::Blocks(1));
                proc_run(&one_block, *transport, env, 1, None).0.map(|_| ())
            }
        }
    }

    /// Runs the cell once. With `profiled`, the program's phase profiler
    /// is switched on around the call and its totals returned.
    pub fn run(&self, env: &Env, profiled: bool) -> CellOut {
        if profiled {
            eesmr_metrics::set_profiling(true);
            profile_reset();
        }
        let mut out = self.run_inner(env);
        if profiled {
            out.profile = Some(profile_snapshot());
            eesmr_metrics::set_profiling(false);
        }
        out
    }

    fn run_inner(&self, env: &Env) -> CellOut {
        match &self.kind {
            CellKind::Sim(s) => {
                let started = Instant::now();
                let report = s.run();
                let wall_ns = started.elapsed().as_nanos() as u64;
                from_reports(vec![report], self.target, wall_ns, true)
            }
            CellKind::Storm { budget, shards } => run_storm(env.seed, STORM_N, *budget, *shards),
            CellKind::Sweep { grid, workers, repeats, blocks_per_run } => {
                let driver =
                    Driver::new(DriverConfig::default().workers(*workers).repeats(*repeats));
                let started = Instant::now();
                let suite = driver.run_grid(grid);
                let wall_ns = started.elapsed().as_nanos() as u64;
                let reports = suite.cells.into_iter().flat_map(|c| c.runs).collect();
                from_reports(reports, *blocks_per_run, wall_ns, true)
            }
            CellKind::Proc { scenario, transport, reference } => {
                let reference = reference.get_or_init(|| Box::new(scenario.run()));
                let (outcome, retries) =
                    proc_run(scenario, *transport, env, self.target, Some(reference));
                let out = match outcome {
                    Ok((report, wall_ns)) => {
                        from_reports(vec![report], self.target, wall_ns, false)
                    }
                    Err(e) => CellOut { error: Some(e), ..CellOut::default() },
                };
                CellOut { retries, ..out }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env { seed: 7, quick: true, exe_dir: PathBuf::from(".") }
    }

    #[test]
    fn every_catalogued_workload_has_a_plan() {
        for w in &crate::catalog::WORKLOADS {
            let plan = plan(w.name, &env()).unwrap_or_else(|| panic!("{} has no plan", w.name));
            assert_eq!(plan.name, w.name);
            assert!(!plan.cells.is_empty());
        }
        assert!(plan("nope", &env()).is_none());
    }

    #[test]
    fn the_sweep_grid_has_576_cells() {
        assert_eq!(sweep_grid(&env(), 3).len(), 576);
    }

    #[test]
    fn small_storm_delivers_every_flood_everywhere() {
        let out = run_storm(3, 12, 2, 1);
        assert_eq!(out.error, None);
        assert_eq!(out.deliveries, 12 * 2 * 12);
        assert_eq!(out.blocks, 24);
        assert!(out.latency_us > 0.0 && out.energy_mj > 0.0);
        // Same seed, same outputs — and sharding must not change them.
        assert_eq!(run_storm(3, 12, 2, 1).digest, out.digest);
        assert_eq!(run_storm(3, 12, 2, 2).digest, out.digest);
        assert_ne!(run_storm(4, 12, 2, 1).digest, out.digest);
    }

    #[test]
    fn a_real_process_run_that_keeps_failing_fails_after_its_attempts() {
        // No `proc_replica` beside "." — every attempt errs.
        let s = scenario(&env(), Protocol::Eesmr, 4, 2, 2);
        let (outcome, retries) = proc_run(&s, ProcTransport::Uds, &env(), 2, None);
        assert!(outcome.unwrap_err().starts_with("run_proc:"));
        assert_eq!(retries, PROC_ATTEMPTS - 1);
    }

    #[test]
    fn the_gate_rejects_a_missed_target_and_a_fork() {
        let s = scenario(&env(), Protocol::Eesmr, 5, 2, 40);
        let mut report = s.run();
        let StopWhen::Blocks(target) = s.stop else { unreachable!() };
        assert_eq!(check_report(&report, target), Ok(()));
        assert!(check_report(&report, target + 1_000).is_err(), "missed target");
        report.nodes[2].commit_fps[1] ^= 1;
        assert!(check_report(&report, target).unwrap_err().contains("forked"));
    }
}
