//! Runs one workload: set-up passes, a warm-up rep, timed reps with the
//! correctness gate, and — on a traced run — the profiled reps, the
//! layer ladder and the workload's own layer cells.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use eesmr_net::{MetricsConfig, ProcTransport, TraceLevel};
use eesmr_sim::{FaultPlan, FaultSpec, Protocol, RunReport, Scenario, StopWhen};
use eesmr_trace::audit::{audit, AuditConfig};
use eesmr_trace::hist::LogHistogram;
use eesmr_trace::EventKind as TraceEventKind;

use crate::catalog::{unit_of, Kind, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::layers;
use crate::procfs::{cpu_ticks, peak_rss_mb, ticks_to_ms, CpuTicks};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::workloads::{
    self, clients_at_rate, nproc, run_storm, Cell, CellKind, CellOut, Env, WorkloadPlan, STORM_N,
};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Exact rep count; `None` fits reps into `seconds`.
    pub reps: Option<usize>,
    pub quick: bool,
    pub out_dir: PathBuf,
    pub exe_dir: PathBuf,
}

/// One reported metric: the value the contract line carries plus the
/// per-rep summary behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    /// Real-process attempts that failed and were re-run.
    pub retries: u64,
    pub metrics: Vec<Metric>,
    pub errors: Vec<String>,
}

/// Wall-clock spent on set-up passes (at least `SETUP_MIN` of them).
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 400;
/// Timed reps never drop below this, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Indices into `ProfileSnapshot::{nanos, counts}` (`ProfPhase::ALL` order).
const SCHED_POP: usize = 0;
const REPLICA_STEP: usize = 1;
const TRANSMIT: usize = 2;

/// One rep: every cell once, in order.
struct Rep {
    cells: Vec<CellOut>,
    cpu: CpuTicks,
}

/// What a timed run keeps of a rep once the gate has seen it. The
/// reports are dropped so that peak memory does not grow with the rep
/// count (which varies with machine speed).
struct RepNumbers {
    wall_ns: u64,
    blocks: u64,
    deliveries: u64,
    energy_mj: f64,
    cpu: CpuTicks,
    retries: u64,
}

impl Rep {
    fn wall_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.wall_ns).sum()
    }
    fn blocks(&self) -> u64 {
        self.cells.iter().map(|c| c.blocks).sum()
    }
    fn deliveries(&self) -> u64 {
        self.cells.iter().map(|c| c.deliveries).sum()
    }
    fn energy_mj(&self) -> f64 {
        self.cells.iter().map(|c| c.energy_mj).sum()
    }
    fn retries(&self) -> u64 {
        self.cells.iter().map(|c| c.retries).sum()
    }
    fn latency_us(&self) -> f64 {
        self.cells.iter().map(|c| c.latency_us).sum::<f64>() / self.cells.len().max(1) as f64
    }
    fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.cells.iter().flat_map(|c| c.reports.iter())
    }
    /// A counter summed over every report of the rep.
    fn sum(&self, f: impl Fn(&RunReport) -> u64) -> f64 {
        self.reports().map(f).sum::<u64>() as f64
    }
    fn numbers(&self) -> RepNumbers {
        RepNumbers {
            wall_ns: self.wall_ns(),
            blocks: self.blocks(),
            deliveries: self.deliveries(),
            energy_mj: self.energy_mj(),
            cpu: self.cpu,
            retries: self.retries(),
        }
    }
}

fn run_rep(plan: &WorkloadPlan, env: &Env, profiled: bool, mut spans: Option<&mut Spans>) -> Rep {
    let before = cpu_ticks();
    let mut cells = Vec::with_capacity(plan.cells.len());
    for cell in &plan.cells {
        let out = match spans.as_deref_mut() {
            Some(spans) => spans.scope(cell.span, |spans| {
                let out = cell.run(env, profiled);
                if let Some(p) = &out.profile {
                    spans.aggregates(&[
                        ("net.sched_pop", p.nanos[SCHED_POP], p.counts[SCHED_POP]),
                        (cell.step_span, p.nanos[REPLICA_STEP], p.counts[REPLICA_STEP]),
                        ("net.transmit", p.nanos[TRANSMIT], p.counts[TRANSMIT]),
                    ]);
                }
                out
            }),
            None => cell.run(env, profiled),
        };
        cells.push(out);
    }
    let after = cpu_ticks();
    Rep {
        cells,
        cpu: CpuTicks { own: after.own - before.own, children: after.children - before.children },
    }
}

/// Tracks the gate across reps: ops attempted and failed, and that every
/// deterministic cell reproduces its first digest.
struct Gate {
    attempted: u64,
    failed: u64,
    digests: Vec<Option<u64>>,
    errors: Vec<String>,
}

impl Gate {
    fn new(cells: usize) -> Gate {
        Gate { attempted: 0, failed: 0, digests: vec![None; cells], errors: Vec::new() }
    }

    fn error(&mut self, message: String) {
        if self.errors.len() < 8 && !self.errors.contains(&message) {
            self.errors.push(message);
        }
    }

    /// Checks digests on any rep (timed or not) without counting ops.
    fn observe(&mut self, plan: &WorkloadPlan, rep: &Rep) -> Vec<bool> {
        let mut ok = Vec::with_capacity(rep.cells.len());
        for (i, (cell, out)) in plan.cells.iter().zip(&rep.cells).enumerate() {
            let mut good = out.error.is_none();
            if let Some(e) = &out.error {
                self.error(format!("{}/{}: {e}", plan.name, cell.name));
            }
            if let Some(d) = out.digest {
                match self.digests[i] {
                    None => self.digests[i] = Some(d),
                    Some(first) if first != d => {
                        good = false;
                        self.error(format!(
                            "{}/{}: simulated outputs differ between reps of one seed",
                            plan.name, cell.name
                        ));
                    }
                    Some(_) => {}
                }
            }
            ok.push(good);
        }
        ok
    }

    /// Counts a timed rep's ops: a failed cell run fails all its ops.
    fn count(&mut self, plan: &WorkloadPlan, rep: &Rep) {
        let ok = self.observe(plan, rep);
        for (cell, good) in plan.cells.iter().zip(ok) {
            self.attempted += cell.target;
            if !good {
                self.failed += cell.target;
            }
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-rep samples of every wall-clock end-to-end quantity.
fn e2e_metrics(reps: &[RepNumbers], setup_s: &[f64]) -> Vec<Metric> {
    // A rep with a re-run attempt is gated but not timed (its CPU ticks
    // span the failed attempt too), unless no rep went without one.
    let usable = |retried: bool| -> Vec<&RepNumbers> {
        reps.iter()
            .filter(|r| r.blocks > 0 && r.wall_ns > 0 && (retried || r.retries == 0))
            .collect()
    };
    let good = if usable(false).is_empty() { usable(true) } else { usable(false) };
    let per_rep =
        |f: &dyn Fn(&RepNumbers) -> f64| -> Vec<f64> { good.iter().map(|r| f(r)).collect() };
    let cpu_ms = |r: &RepNumbers| ticks_to_ms(r.cpu.own + r.cpu.children);
    let total_cpu: f64 = good.iter().map(|r| cpu_ms(r)).sum();
    let total_blocks: f64 = good.iter().map(|r| r.blocks as f64).sum();
    let samples: Vec<(&'static str, Vec<f64>, Option<f64>)> = vec![
        ("setup_s", setup_s.to_vec(), None),
        ("wall_ms_per_block", per_rep(&|r| r.wall_ns as f64 / 1e6 / r.blocks as f64), None),
        // CPU time comes in 10 ms ticks: the total over all reps is far
        // finer than the median of per-rep quotients.
        (
            "cpu_ms_per_block",
            per_rep(&|r| cpu_ms(r) / r.blocks as f64),
            Some(ratio(total_cpu, total_blocks)),
        ),
        ("events_per_s", per_rep(&|r| r.deliveries as f64 / (r.wall_ns as f64 / 1e9)), None),
        ("peak_rss_mb", vec![peak_rss_mb()], None),
        ("energy_mj_per_block", per_rep(&|r| r.energy_mj / r.blocks as f64), None),
    ];
    debug_assert_eq!(samples.len(), END_TO_END.len());
    samples
        .into_iter()
        .map(|(name, values, value)| {
            let summary = Summary::of(&values);
            Metric { name, value: value.unwrap_or_else(|| median(&values)), summary }
        })
        .collect()
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let env = Env { seed: args.seed, quick: args.quick, exe_dir: args.exe_dir.clone() };
    let plan = workloads::plan(&args.workload, &env)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut gate = Gate::new(plan.cells.len());

    // Set-up, several times over; the median is `setup_s`.
    let mut setup_s = Vec::new();
    let setup_started = Instant::now();
    while setup_s.len() < SETUP_MIN
        || (setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S && setup_s.len() < SETUP_MAX)
    {
        let t = Instant::now();
        for cell in &plan.cells {
            if let Err(e) = cell.setup(&env) {
                gate.error(format!("{}/{} set-up: {e}", plan.name, cell.name));
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if args.quick && setup_s.len() >= 2 {
            break;
        }
    }

    // One untimed warm-up rep: page faults, allocator growth, cold caches.
    let warm = run_rep(&plan, &env, false, None);
    gate.observe(&plan, &warm);

    let result = if args.trace {
        traced(args, &env, &plan, gate)
    } else {
        timed(args, &env, &plan, gate, &setup_s)
    };
    Ok(result)
}

/// Whether the rep loop is done: exactly `fixed` reps when given, else at
/// least `min` and as many as fit into `seconds` without overrunning.
fn enough(done: usize, min: usize, started: Instant, seconds: f64, fixed: Option<usize>) -> bool {
    match fixed {
        Some(k) => done >= k,
        None if done < min => false,
        None => {
            // Stop when the next rep would overrun the measuring window.
            let elapsed = started.elapsed().as_secs_f64();
            elapsed + elapsed / done as f64 > seconds
        }
    }
}

fn finish(
    args: &RunArgs,
    gate: Gate,
    reps: usize,
    retries: u64,
    metrics: Vec<Metric>,
) -> RunResult {
    let mut errors = gate.errors;
    for m in &metrics {
        if !m.value.is_finite() {
            errors.push(format!("{} is not finite", m.name));
        }
    }
    RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        correct: gate.failed == 0 && errors.is_empty(),
        attempted: gate.attempted.max(1),
        failed: gate.failed,
        reps,
        retries,
        metrics,
        errors,
    }
}

fn timed(
    args: &RunArgs,
    env: &Env,
    plan: &WorkloadPlan,
    mut gate: Gate,
    setup_s: &[f64],
) -> RunResult {
    let mut reps = Vec::new();
    let started = Instant::now();
    while !enough(reps.len(), MIN_REPS, started, args.seconds, args.reps) {
        let rep = run_rep(plan, env, false, None);
        gate.count(plan, &rep);
        reps.push(rep.numbers());
    }
    let metrics = e2e_metrics(&reps, setup_s);
    for m in &metrics {
        if m.value == 0.0 {
            gate.error(format!("{} measured 0", m.name));
        }
    }
    let retries = reps.iter().map(|r| r.retries).sum();
    finish(args, gate, reps.len(), retries, metrics)
}

// ---------------------------------------------------------------------
// The traced pass.
// ---------------------------------------------------------------------

/// Share of `--seconds` the traced pass gives its plain/profiled rep
/// pairs; the ladder and the workload's own layer cells share the rest.
const TRACED_REPS_SHARE: f64 = 0.35;
/// Seconds of timing per ladder micro-cell, as a share of `--seconds`.
const LADDER_CELL_SHARE: f64 = 0.02;

struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} not catalogued");
        self.0.insert(name, value);
    }
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

/// Overhead of `variant` over `base`, percent, floored at 0: with A/B
/// reps strictly alternated a negative reading is noise, not a speed-up.
fn overhead_pct(base: &[f64], variant: &[f64]) -> f64 {
    (pct(median(variant), median(base)) - 100.0).max(0.0)
}

fn traced(args: &RunArgs, env: &Env, plan: &WorkloadPlan, mut gate: Gate) -> RunResult {
    let mut spans = Spans::new(plan.name);
    let mut layers = Layers(BTreeMap::new());
    let threads = match plan.cells[0].kind {
        CellKind::Sweep { workers, .. } => workers as f64,
        _ => 1.0,
    };

    // Plain and profiled reps, strictly alternated.
    let mut plain: Vec<Rep> = Vec::new();
    let mut profiled: Vec<Rep> = Vec::new();
    let started = Instant::now();
    let seconds = args.seconds * TRACED_REPS_SHARE;
    let pairs = args.reps.map(|k| k.div_ceil(2));
    spans.scope("bench.workload", |spans| {
        while !enough(plain.len(), 1, started, seconds, pairs) {
            let rep = run_rep(plan, env, false, None);
            gate.count(plan, &rep);
            plain.push(rep);
            let rep =
                spans.scope("bench.profiled_rep", |spans| run_rep(plan, env, true, Some(spans)));
            gate.count(plan, &rep);
            profiled.push(rep);
        }
    });

    // Host-time split from the profiled reps.
    // `ProfileSnapshot` arrays are in `ProfPhase::ALL` order.
    let phase_pct = |idx: usize| {
        let samples: Vec<f64> = profiled
            .iter()
            .map(|rep| {
                let ns: u64 =
                    rep.cells.iter().filter_map(|c| c.profile.map(|p| p.nanos[idx])).sum();
                pct(ns as f64, rep.wall_ns() as f64 * threads)
            })
            .collect();
        median(&samples)
    };
    layers.set("net.runtime.sched_pop_pct", phase_pct(SCHED_POP));
    layers.set("net.runtime.replica_step_pct", phase_pct(REPLICA_STEP));
    layers.set("net.runtime.transmit_pct", phase_pct(TRANSMIT));
    let wall_ms =
        |reps: &[Rep]| -> Vec<f64> { reps.iter().map(|r| r.wall_ns() as f64 / 1e6).collect() };
    layers.set("bench.span_overhead_pct", overhead_pct(&wall_ms(&plain), &wall_ms(&profiled)));
    layers.set("bench.nproc", nproc() as f64);
    layers.set(
        "net.proc.retries",
        plain.iter().chain(&profiled).map(Rep::retries).sum::<u64>() as f64,
    );
    layers.set("sim.commit_latency_us", plain[0].latency_us());

    // Exact per-block counts, from the first plain rep's reports.
    let first = &plain[0];
    let blocks = first.blocks() as f64;
    let sum = |f: &dyn Fn(&RunReport) -> u64| first.sum(f);
    let signs = ratio(sum(&|r| r.nodes.iter().map(|n| n.signs).sum()), blocks);
    let verifies = ratio(sum(&|r| r.nodes.iter().map(|n| n.verifies).sum()), blocks);
    let deliveries = ratio(first.deliveries() as f64, blocks);
    let real_processes = matches!(plan.cells[0].kind, CellKind::Proc { .. });
    if !real_processes {
        layers.set("crypto.signs_per_block", signs);
        layers.set("crypto.verifies_per_block", verifies);
        layers.set("net.codec.bytes_per_block", ratio(sum(&|r| r.net.bytes_on_air), blocks));
        layers.set("net.runtime.deliveries_per_block", deliveries);
        layers.set("net.runtime.kcasts_per_block", ratio(sum(&|r| r.net.kcasts), blocks));
        layers
            .set("net.runtime.flood_relays_per_block", ratio(sum(&|r| r.net.flood_relays), blocks));
        layers.set("net.runtime.loopbacks_per_block", ratio(sum(&|r| r.net.loopbacks), blocks));
        layers.set("net.runtime.dropped", sum(&|r| r.net.dropped));
        layers.set("core.view_changes", sum(&|r| r.view_changes()));
    }

    // The per-cell split of wall time per block.
    for (i, cell) in plan.cells.iter().enumerate() {
        let metric = match cell.name {
            "eesmr_n13" => "core.eesmr_us_per_block.n13",
            "eesmr_n128" => "core.eesmr_us_per_block.n128",
            "synchs_n13" => "baselines.synchs_us_per_block.n13",
            "synchs_n128" => "baselines.synchs_us_per_block.n128",
            _ => continue,
        };
        let samples: Vec<f64> = plain
            .iter()
            .filter(|r| r.cells[i].blocks > 0)
            .map(|r| r.cells[i].wall_ns as f64 / 1e3 / r.cells[i].blocks as f64)
            .collect();
        layers.set(metric, median(&samples));
    }

    // The ladder: workload-independent unit costs.
    let cell_secs = if args.quick { 0.0 } else { args.seconds * LADDER_CELL_SHARE };
    for (name, value) in
        spans.scope("bench.ladder", |s| layers::unit_costs(args.seed, cell_secs, s))
    {
        layers.set(name, value);
    }

    // The workload's own layer cells.
    let extras_secs = args.seconds * 0.25;
    spans.scope("bench.workload_layers", |spans| match plan.name {
        "sim_steady" => steady_extras(env, plan, extras_secs, &mut layers, spans),
        "sim_clients" => clients_extras(env, first, &mut layers, &mut gate, spans),
        "net_storm" => storm_extras(env, &plain, extras_secs, &mut layers, spans),
        "fig_sweep" => sweep_extras(env, plan, &plain, &mut layers, &mut gate, spans),
        "proc_mesh" => proc_extras(env, plan, &plain, &mut layers, &mut gate, spans),
        _ => {}
    });

    // How much of the measured wall per block the unit costs explain.
    let wall_ns_per_block = median(
        &plain
            .iter()
            .map(|r| ratio(r.wall_ns() as f64 * threads, r.blocks() as f64))
            .collect::<Vec<_>>(),
    );
    if !real_processes {
        let crypto_ns =
            signs * layers.get("crypto.sign_ns") + verifies * layers.get("crypto.verify_ns");
        let net_ns = deliveries * layers.get("net.runtime.ns_per_delivery");
        layers.set("crypto.est_share_pct", pct(crypto_ns, wall_ns_per_block));
        layers.set(
            "bench.ladder_gap_pct",
            pct(wall_ns_per_block - crypto_ns - net_ns, wall_ns_per_block),
        );
    }

    if let Err(e) = write_trace(args, &spans) {
        gate.error(format!("writing the trace: {e}"));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric { name: m.name, value: layers.get(m.name), summary: None })
        .collect();
    let retries = layers.get("net.proc.retries") as u64;
    finish(args, gate, plain.len() + profiled.len(), retries, metrics)
}

fn write_trace(args: &RunArgs, spans: &Spans) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("trace.{}.json", args.workload));
    std::fs::write(path, spans.to_json().pretty())
}

fn sim_scenario(cell: &Cell) -> &Scenario {
    match &cell.kind {
        CellKind::Sim(s) => s,
        _ => unreachable!("{} is not a sim cell", cell.name),
    }
}

fn timed_run(s: &Scenario) -> (f64, RunReport) {
    let t = Instant::now();
    let report = s.run();
    (t.elapsed().as_nanos() as f64, report)
}

/// `sim_steady`: the observability off-path contract (A/B reps strictly
/// alternated on a quarter-size EESMR cell) and the paper's energy ratio.
fn steady_extras(
    env: &Env,
    plan: &WorkloadPlan,
    secs: f64,
    layers: &mut Layers,
    spans: &mut Spans,
) {
    let base = sim_scenario(&plan.cells[0]).clone();
    let StopWhen::Blocks(full) = base.stop else { unreachable!() };
    let base = base.stop(StopWhen::Blocks((full / 4).max(2)));
    let traced = base.clone().trace(TraceLevel::All);
    let sampled = base.clone().metrics(MetricsConfig::on());
    let mut walls: [Vec<f64>; 4] = Default::default();
    let mut dropped = 0;
    let started = Instant::now();
    spans.scope("bench.observability_ab", |_| {
        while walls[0].len() < 3 || started.elapsed().as_secs_f64() < secs {
            walls[0].push(timed_run(&base).0);
            let (wall, report) = timed_run(&traced);
            walls[1].push(wall);
            dropped = report.trace_dropped_total();
            walls[2].push(timed_run(&sampled).0);
            eesmr_metrics::set_profiling(true);
            walls[3].push(timed_run(&base).0);
            eesmr_metrics::set_profiling(false);
        }
    });
    layers.set("trace.all_overhead_pct", overhead_pct(&walls[0], &walls[1]));
    layers.set("trace.dropped_total", dropped as f64);
    layers.set("metrics.on_overhead_pct", overhead_pct(&walls[0], &walls[2]));
    layers.set("metrics.profile_overhead_pct", overhead_pct(&walls[0], &walls[3]));

    // §5.7's leader-energy ratio on the calibration scenario
    // (`tests/paper_calibration.rs`), stated with its error against the
    // paper's 2.85x beside every simulated number.
    const PAPER_RATIO: f64 = 2.85;
    let calibration = |protocol| {
        Scenario::new(protocol, 13, 7)
            .seed(env.seed)
            .fault_bound(6)
            .faults(FaultPlan::silent_nodes(2..8))
            .stop(StopWhen::Blocks(15))
            .run()
            .node_energy_per_block_mj(0)
    };
    let leader_ratio = spans.scope("energy.leader_ratio", |_| {
        ratio(calibration(Protocol::SyncHotStuff), calibration(Protocol::Eesmr))
    });
    layers.set("energy.synchs_over_eesmr_leader", leader_ratio);
    layers.set("energy.ratio_err_pct", pct((leader_ratio - PAPER_RATIO).abs(), PAPER_RATIO));
}

/// `sim_clients`: the client path's counters, latency at fixed rates and
/// the highest rate within the limit, and a trace-audited faulty run.
fn clients_extras(env: &Env, first: &Rep, layers: &mut Layers, gate: &mut Gate, spans: &mut Spans) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| first.sum(f);
    layers.set("core.tx_forwarded", sum(&|r| r.tx_forwarded()));
    layers.set("core.forward_retries", sum(&|r| r.forward_retries()));
    layers.set(
        "core.peak_backlog",
        first.reports().map(RunReport::peak_backlog).max().unwrap_or(0) as f64,
    );
    let fills: Vec<f64> = first.reports().filter_map(RunReport::mean_batch_fill_pct).collect();
    layers.set("core.batch_fill_pct", ratio(fills.iter().sum(), fills.len() as f64));
    let injected = sum(&|r| r.tx_injected());
    layers.set("workload.tx_injected", injected);
    layers.set("workload.committed_share", ratio(sum(&|r| r.tx_committed()), injected));
    let mut pooled = LogHistogram::new();
    for r in first.reports() {
        pooled.merge(&r.tx_latency_hist());
    }
    layers.set("workload.tx_p50_us", pooled.percentile(50).unwrap_or(0) as f64);
    layers.set("workload.tx_p99_us", pooled.percentile(99).unwrap_or(0) as f64);

    // Latency at fixed open-loop rates. A rate is within the limit when
    // p99 <= 4 delta + 16 ms and the backlog does not grow: its peak
    // over a full-length run stays within 1.5x that of a half-length run.
    spans.scope("workload.rate_sweep", |_| {
        let blocks = if env.quick { 40 } else { 400 };
        let mut max_rate = 0;
        for (rate, metric) in [
            (1000, Some("workload.p99_us_at_1000")),
            (2000, None),
            (4000, Some("workload.p99_us_at_4000")),
        ] {
            let full = clients_at_rate(env, rate, blocks).run();
            let half = clients_at_rate(env, rate, blocks / 2).run();
            let p99 = full.tx_latency_stats().map_or(u64::MAX, |s| s.p99_us);
            if let Some(metric) = metric {
                layers.set(metric, p99 as f64);
            }
            let limit_us = 4 * full.delta_us + 16_000;
            let steady = full.peak_backlog() as f64 <= 1.5 * half.peak_backlog().max(1) as f64;
            if p99 <= limit_us && steady {
                max_rate = rate;
            }
        }
        layers.set("workload.max_rate_within_limit", max_rate as f64);
    });

    // Time without service under the silent leader, and the auditor's
    // verdict, from a short commit-traced run (short, so the per-node
    // trace rings keep the first commit).
    spans.scope("trace.audited_run", |_| {
        let scenario = clients_at_rate(env, 2000, if env.quick { 10 } else { 60 })
            .fault_spec(FaultSpec::SilentLeader)
            .trace(TraceLevel::Commit);
        let (report, traces) = scenario.run_traced();
        let plan = FaultSpec::SilentLeader.plan(report.n, report.delta_us);
        let honest = (0..report.n as u32).filter(|id| !plan.is_excused(*id));
        let verdict = audit(&traces, &AuditConfig::new(honest, 0, report.elapsed_us));
        layers.set("trace.audit_violations", verdict.violations.len() as f64);
        for v in &verdict.violations {
            gate.error(format!("sim_clients audit: {v:?}"));
        }
        let first_commit = traces
            .merged()
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Commit { .. }))
            .map_or(0, |e| e.time_us);
        layers.set("core.first_commit_after_fault_us", first_commit as f64);
        layers.set("trace.dropped_total", report.trace_dropped_total() as f64);
    });
}

/// `net_storm`: the runtime's cost per delivery and what two shards buy.
fn storm_extras(env: &Env, plain: &[Rep], secs: f64, layers: &mut Layers, spans: &mut Spans) {
    let per_delivery: Vec<f64> =
        plain.iter().map(|r| ratio(r.wall_ns() as f64, r.deliveries() as f64)).collect();
    layers.set("net.runtime.ns_per_delivery", median(&per_delivery));
    let budget = if env.quick { 2 } else { 10 };
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let started = Instant::now();
    spans.scope("net.shard.ab", |_| {
        while one.len() < 3 || started.elapsed().as_secs_f64() < secs {
            one.push(run_storm(env.seed, STORM_N, budget, 1).wall_ns as f64);
            two.push(run_storm(env.seed, STORM_N, budget, 2).wall_ns as f64);
        }
    });
    layers.set("net.shard.s2_speedup", ratio(median(&one), median(&two)));
}

/// `fig_sweep`: cells per second and what the worker pool buys.
fn sweep_extras(
    env: &Env,
    plan: &WorkloadPlan,
    plain: &[Rep],
    layers: &mut Layers,
    gate: &mut Gate,
    spans: &mut Spans,
) {
    let CellKind::Sweep { grid, repeats, blocks_per_run, .. } = &plan.cells[0].kind else {
        unreachable!()
    };
    let runs = (grid.len() * repeats) as f64;
    layers.set("driver.cells", runs);
    let pooled: Vec<f64> = plain.iter().map(|r| r.wall_ns() as f64).collect();
    layers.set("driver.cells_per_s", ratio(runs, median(&pooled) / 1e9));
    let single = Cell {
        name: "grid_1_worker",
        span: "driver.run_grid",
        step_span: plan.cells[0].step_span,
        target: plan.cells[0].target,
        kind: CellKind::Sweep {
            grid: workloads::sweep_grid(env, *blocks_per_run),
            workers: 1,
            repeats: *repeats,
            blocks_per_run: *blocks_per_run,
        },
    };
    let out = spans.scope("driver.run_grid_1_worker", |_| single.run(env, false));
    if let Some(e) = &out.error {
        gate.error(format!("fig_sweep on one worker: {e}"));
    }
    if out.digest != plain[0].cells[0].digest {
        gate.error("fig_sweep: the suite differs between 1 and nproc workers".into());
    }
    layers.set("driver.workers_speedup", ratio(out.wall_ns as f64, median(&pooled)));
}

/// `proc_mesh`: where a real-process run's time goes besides timers.
fn proc_extras(
    env: &Env,
    plan: &WorkloadPlan,
    plain: &[Rep],
    layers: &mut Layers,
    gate: &mut Gate,
    spans: &mut Spans,
) {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let blocks = |r: &Rep| r.blocks() as f64;
    let sum = |r: &Rep, f: &dyn Fn(&RunReport) -> u64| r.sum(f);
    layers.set(
        "net.proc.child_cpu_ms_per_block",
        med(&|r| ratio(ticks_to_ms(r.cpu.children), blocks(r))),
    );
    layers.set(
        "net.proc.frames_per_block",
        med(&|r| ratio(sum(r, &|p| p.net.deliveries - p.net.loopbacks), blocks(r))),
    );
    layers.set(
        "net.proc.bytes_per_block",
        med(&|r| ratio(sum(r, &|p| p.net.bytes_on_air), blocks(r))),
    );
    layers.set(
        "net.proc.spawn_ms",
        med(&|r| {
            let per_cell: Vec<f64> = r
                .cells
                .iter()
                .filter_map(|c| {
                    Some((c.wall_ns as f64 - c.reports.first()?.elapsed_us as f64 * 1e3) / 1e6)
                })
                .collect();
            ratio(per_cell.iter().sum(), per_cell.len() as f64)
        }),
    );
    // Blocking pacing commits one block per 4 delta (EESMR) or 2 delta
    // (Sync HotStuff); the rest of `elapsed_us` is connect, poll, collect
    // and scheduling slack.
    layers.set(
        "net.proc.overhead_ms",
        med(&|r| {
            let per_cell: Vec<f64> = r
                .cells
                .iter()
                .zip(&plan.cells)
                .filter_map(|(c, cell)| {
                    let report = c.reports.first()?;
                    let period =
                        if cell.name.starts_with("eesmr") { 4 } else { 2 } * report.delta_us;
                    Some(
                        (report.elapsed_us as f64 - (report.committed_height() * period) as f64)
                            / 1e3,
                    )
                })
                .collect();
            ratio(per_cell.iter().sum(), per_cell.len() as f64)
        }),
    );
    layers.set(
        "crypto.signs_per_block",
        med(&|r| ratio(sum(r, &|p| p.nodes.iter().map(|n| n.signs).sum()), blocks(r))),
    );
    layers.set(
        "crypto.verifies_per_block",
        med(&|r| ratio(sum(r, &|p| p.nodes.iter().map(|n| n.verifies).sum()), blocks(r))),
    );

    let CellKind::Proc { scenario, .. } = &plan.cells[0].kind else { unreachable!() };
    let tcp = Cell {
        name: "eesmr_tcp",
        span: "net.run_proc",
        step_span: plan.cells[0].step_span,
        target: plan.cells[0].target,
        kind: CellKind::Proc {
            scenario: scenario.clone(),
            transport: ProcTransport::Tcp,
            reference: std::cell::OnceCell::new(),
        },
    };
    let out = spans.scope("net.run_proc_tcp", |_| tcp.run(env, false));
    if let Some(e) = &out.error {
        gate.error(format!("proc_mesh over TCP: {e}"));
    }
    layers.set("net.proc.retries", layers.get("net.proc.retries") + out.retries as f64);
    layers
        .set("net.proc.tcp_wall_ms_per_block", ratio(out.wall_ns as f64 / 1e6, out.blocks as f64));
}

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

impl RunResult {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = [("value", Json::Num(m.value)), ("unit", Json::str(unit_of(m.name)))];
                (m.name, Json::obj(fields))
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// Everything `--compare` needs: per metric the value, its unit,
    /// direction, bound, whether it repeats exactly, and the summary.
    pub fn detail(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields: Vec<(&str, Json)> = vec![("value", Json::Num(m.value))];
                if let Some(d) = END_TO_END.iter().find(|d| d.name == m.name) {
                    // Simulated quantities repeat exactly wherever the
                    // workload runs on the simulator.
                    let exact = d.simulated && self.workload != "proc_mesh";
                    fields.extend([
                        ("unit", Json::str(d.unit)),
                        ("better", Json::str(d.better.as_str())),
                        ("bound", Json::Num(d.bound)),
                        ("exact", Json::Bool(exact)),
                    ]);
                } else if let Some(d) = PER_LAYER.iter().find(|d| d.name == m.name) {
                    let exact = d.kind == Kind::Exact && self.workload != "proc_mesh";
                    fields.extend([
                        ("unit", Json::str(d.unit)),
                        ("better", Json::str(d.better.as_str())),
                        ("exact", Json::Bool(exact)),
                    ]);
                }
                if let Some(s) = &m.summary {
                    fields.extend([
                        ("n", Json::Num(s.n as f64)),
                        ("min", Json::Num(s.min)),
                        ("q1", Json::Num(s.q1)),
                        ("median", Json::Num(s.median)),
                        ("q3", Json::Num(s.q3)),
                        ("max", Json::Num(s.max)),
                    ]);
                }
                (m.name, Json::obj(fields))
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("reps", Json::Num(self.reps as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("proc_retries", Json::Num(self.retries as f64)),
            ("errors", Json::Arr(self.errors.iter().map(Json::str).collect())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Human-readable lines: every metric by name and unit.
    pub fn print_table(&self) {
        println!(
            "== {} seed={} trace={} reps={} attempted={} failed={} correct={}",
            self.workload,
            self.seed,
            self.trace as u8,
            self.reps,
            self.attempted,
            self.failed,
            self.correct
        );
        for e in &self.errors {
            println!("   ERROR {e}");
        }
        if self.retries > 0 {
            println!("   NOTE {} real-process attempt(s) failed and were re-run", self.retries);
        }
        for m in &self.metrics {
            let unit = unit_of(m.name);
            match &m.summary {
                Some(s) if s.n > 1 => println!(
                    "   {:<38} {:>16.4} {:<6} median {:.4} [q1 {:.4}, q3 {:.4}] min {:.4} n={}",
                    m.name, m.value, unit, s.median, s.q1, s.q3, s.min, s.n
                ),
                _ => println!("   {:<38} {:>16.4} {:<6}", m.name, m.value, unit),
            }
        }
    }
}
