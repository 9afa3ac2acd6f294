//! The simulator's determinism contract (`eesmr-net/src/runtime.rs`): a
//! scenario is a pure function of its configuration and seed. Two runs
//! with the same seed must produce *identical* `RunReport`s — every
//! energy figure, commit, view change, and network counter — across all
//! protocols, with and without faults — and the same across driver worker
//! counts and trace levels.

use eesmr_driver::{Driver, DriverConfig, ScenarioGrid};
use eesmr_sim::{
    ArrivalProcess, FaultPlan, FaultSpec, Protocol, RunReport, Scenario, Skew, StopWhen, Workload,
};

/// The bursty, skewed, closed-loop workload the determinism grids use —
/// deliberately the hardest sampling path (MMPP state walks + per-node
/// RNG streams + in-flight feedback).
fn bursty_workload() -> Workload {
    Workload::new(ArrivalProcess::Bursty { rate: 5_000, on_ms: 30, off_ms: 60 })
        .skew(Skew::Hotspot { pct: 80 })
        .closed_loop(16)
}

fn run(protocol: Protocol, seed: u64, faults: FaultPlan) -> RunReport {
    Scenario::new(protocol, 6, 3).seed(seed).faults(faults).stop(StopWhen::Blocks(4)).run()
}

#[test]
fn same_seed_same_report_for_every_protocol() {
    for protocol in
        [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline]
    {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = run(protocol, seed, FaultPlan::none());
            let b = run(protocol, seed, FaultPlan::none());
            assert_eq!(a, b, "{protocol:?} diverged with seed {seed}");
        }
    }
}

#[test]
fn same_seed_same_report_under_faults() {
    for faults in [FaultPlan::silent_leader(), FaultPlan::none().with_equivocator(1, 1)] {
        let a = run(Protocol::Eesmr, 7, faults.clone());
        let b = run(Protocol::Eesmr, 7, faults);
        assert_eq!(a, b, "faulty runs must still be deterministic");
    }
}

/// A mixed grid: three protocols × two system sizes × two seeds, plus
/// explicit faulty scenarios (a stalled leader forcing a view change and
/// an equivocator).
fn mixed_grid() -> ScenarioGrid {
    let explicit = [
        Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2)),
        Scenario::new(Protocol::Eesmr, 6, 2)
            .faults(FaultPlan::none().with_equivocator(1, 1))
            .stop(StopWhen::Blocks(3)),
    ];
    let grid = ScenarioGrid::named("determinism")
        .protocols([Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync])
        .nodes([5, 6])
        .degrees([2])
        .seeds([7, 42])
        .stop(StopWhen::Blocks(3));
    explicit.into_iter().fold(grid, |grid, s| grid.scenario(s.label(), s))
}

#[test]
fn parallel_driver_is_bit_identical_to_sequential() {
    // The driver extends the determinism contract across threads: a grid
    // fanned out over 8 workers must produce the same ordered suite —
    // every RunReport, energy figure, and summary statistic — as the
    // same grid run inline on 1 worker, twice (repeats included).
    let sequential =
        Driver::new(DriverConfig::default().workers(1).repeats(2)).run_grid(&mixed_grid());
    let parallel =
        Driver::new(DriverConfig::default().workers(8).repeats(2)).run_grid(&mixed_grid());
    assert_eq!(sequential.cells.len(), 14, "12 cartesian cells + 2 explicit scenarios");
    assert_eq!(sequential, parallel, "worker count leaked into the results");
    // And the parallel run is itself reproducible.
    let parallel_again =
        Driver::new(DriverConfig::default().workers(8).repeats(2)).run_grid(&mixed_grid());
    assert_eq!(parallel, parallel_again);
}

#[test]
fn driver_repeats_vary_the_seed_but_quick_mode_only_shrinks_targets() {
    let suite = Driver::new(DriverConfig::default().workers(4).repeats(3)).run_grid(
        &ScenarioGrid::named("repeats").nodes([6]).degrees([3]).stop(StopWhen::Blocks(3)),
    );
    let runs = &suite.cells[0].runs;
    assert_eq!(runs.len(), 3);
    assert!(
        runs.windows(2).any(|w| w[0] != w[1]),
        "repeats reseed the scenario, so some pair should differ"
    );
    // Repeat seeds stride into a disjoint range: with adjacent values on
    // the seed axis, cell(seed=1) repeat 1 must NOT replay cell(seed=2)
    // repeat 0 bit-for-bit.
    let adjacent = Driver::new(DriverConfig::default().workers(2).repeats(2)).run_grid(
        &ScenarioGrid::named("adjacent")
            .nodes([6])
            .degrees([3])
            .seeds([1, 2])
            .stop(StopWhen::Blocks(3)),
    );
    assert_ne!(
        adjacent.cells[0].runs[1], adjacent.cells[1].runs[0],
        "repeat reseeding collided with the next seed-axis value"
    );
    // Quick mode only clamps stop targets; with an already-small target
    // the run is unchanged.
    let full = Driver::new(DriverConfig::default().workers(2))
        .run_grid(&ScenarioGrid::named("quick").nodes([6]).degrees([3]).stop(StopWhen::Blocks(3)));
    let quick = Driver::new(DriverConfig::default().workers(2).quick(true))
        .run_grid(&ScenarioGrid::named("quick").nodes([6]).degrees([3]).stop(StopWhen::Blocks(3)));
    assert_eq!(full, quick);
}

/// A grid with a workload axis: every protocol under Poisson and bursty
/// client traffic, plus an explicit closed-loop diurnal scenario.
fn workload_grid() -> ScenarioGrid {
    let diurnal =
        Workload::new(ArrivalProcess::Diurnal { base: 2_000, amplitude: 1_500, period_ms: 100 })
            .closed_loop(8);
    let explicit = Scenario::new(Protocol::Eesmr, 6, 3).workload(diurnal).stop(StopWhen::Blocks(3));
    let grid = ScenarioGrid::named("workload-determinism")
        .protocols([Protocol::Eesmr, Protocol::OptSync, Protocol::TrustedBaseline])
        .nodes([5])
        .degrees([2])
        .workloads([
            Workload::new(ArrivalProcess::Poisson { rate: 2_000 }).skew(Skew::Zipf),
            bursty_workload(),
        ])
        .stop(StopWhen::Blocks(3));
    grid.scenario(explicit.label(), explicit)
}

#[test]
fn workload_grid_is_bit_identical_across_workers() {
    // The acceptance bar for the workload subsystem: a sweep over
    // (arrival × skew × protocol) — per-transaction latencies included —
    // is a pure function of the grid, not of the worker count.
    let sequential = Driver::new(DriverConfig::default().workers(1)).run_grid(&workload_grid());
    let parallel = Driver::new(DriverConfig::default().workers(8)).run_grid(&workload_grid());
    assert_eq!(sequential.cells.len(), 7, "3 protocols × 2 workloads + 1 explicit");
    assert_eq!(sequential, parallel, "worker count leaked into workload results");
    // The sweep actually committed transactions and measured their
    // latency everywhere.
    for cell in &sequential.cells {
        assert!(cell.report().tx_committed() > 0, "{} committed no transactions", cell.label);
        let stats = cell.report().tx_latency_stats();
        assert!(stats.is_some(), "{} measured no transactions", cell.label);
        assert!(cell.stats.tx_latency_p50_us.is_some());
        assert!(cell.stats.tx_latency_p99_us.is_some());
    }
    // And the JSON/CSV payloads — what the figures consume — match too.
    assert_eq!(sequential.to_json(), parallel.to_json());
}

#[test]
fn seed_actually_matters_somewhere() {
    // Guard against the seed being ignored entirely: across a spread of
    // seeds, at least one pair of EESMR runs must differ in some respect
    // (delivery jitter makes timing-derived metrics seed-dependent).
    let reports: Vec<RunReport> =
        (0..8).map(|s| run(Protocol::Eesmr, s, FaultPlan::none())).collect();
    assert!(
        reports.windows(2).any(|w| w[0] != w[1]),
        "eight different seeds produced eight identical reports; is the seed wired through?"
    );
}

#[test]
fn traces_are_bit_identical_across_workers() {
    // Fanning traced scenarios over the driver's worker pool must yield
    // the same traces as running them inline.
    use eesmr_net::TraceLevel;
    use eesmr_trace::TraceSet;
    let scenarios = [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync].map(|p| {
        Scenario::new(p, 5, 2)
            .workload(bursty_workload())
            .stop(StopWhen::Blocks(3))
            .trace(TraceLevel::All)
    });
    let traced = |workers: usize| -> Vec<TraceSet> {
        Driver::new(DriverConfig::default().workers(workers)).map(&scenarios, |s| s.run_traced().1)
    };
    let inline = traced(1);
    assert!(inline.iter().all(|t| t.total_events() > 0));
    assert_eq!(inline, traced(8), "worker count leaked into the traces");
}

/// Adversarial scenarios: every fault behaviour with a wall-clock schedule
/// (healing partition, node churn, crash-recovery) plus vote withholding
/// — the paths where restart timers, link-fault checks at transmit time,
/// and repair floods could conceivably leak a worker count.
fn adversarial_scenarios() -> Vec<Scenario> {
    let mut scenarios: Vec<Scenario> =
        [FaultSpec::PartitionHeal, FaultSpec::Churn, FaultSpec::Withhold]
            .into_iter()
            .flat_map(|spec| {
                [Protocol::Eesmr, Protocol::SyncHotStuff].into_iter().map(move |protocol| {
                    Scenario::new(protocol, 6, 3).fault_spec(spec).stop(StopWhen::Blocks(4))
                })
            })
            .collect();
    scenarios.push(
        Scenario::new(Protocol::TrustedBaseline, 6, 2)
            .fault_spec(FaultSpec::CrashRecovery)
            .stop(StopWhen::Blocks(4)),
    );
    // The compound plan: partition-heal + churn + withholding at once.
    scenarios.push(
        Scenario::new(Protocol::Eesmr, 6, 3)
            .faults(
                FaultPlan::none()
                    .with_withholder(5, 1)
                    .with_partition(5_000, 40_000, [4])
                    .with_crash(3, 10_000, Some(60_000)),
            )
            .stop(StopWhen::Blocks(4)),
    );
    scenarios
}

#[test]
fn adversarial_runs_are_bit_identical_across_workers() {
    // The fault model extends the determinism contract: restart timers,
    // partition/drop checks, and repair replies are all keyed to
    // node-local state and virtual time, so fanning the scenarios over
    // the driver pool (1 worker ≡ 8 workers) must not move a byte of a
    // report or an event of a commit trace. Every traced run must also
    // replay safety-clean through the auditor.
    use eesmr_net::TraceLevel;
    use eesmr_trace::audit::{audit, AuditConfig};
    let scenarios: Vec<Scenario> =
        adversarial_scenarios().into_iter().map(|s| s.trace(TraceLevel::Commit)).collect();
    let run_all = |workers: usize| {
        Driver::new(DriverConfig::default().workers(workers)).map(&scenarios, |s| s.run_traced())
    };
    let inline = run_all(1);
    let parallel = run_all(8);
    for (scenario, ((report_a, trace_a), (report_b, trace_b))) in
        scenarios.iter().zip(inline.iter().zip(&parallel))
    {
        assert!(trace_a.total_events() > 0, "{}: tracing recorded nothing", scenario.label());
        let verdict = audit(trace_a, &AuditConfig::safety_only());
        assert!(verdict.is_clean(), "{}: {:?}", scenario.label(), verdict.violations);
        assert_eq!(report_a, report_b, "worker count leaked: {}", scenario.label());
        assert_eq!(trace_a, trace_b, "trace diverged across workers: {}", scenario.label());
    }
}

#[test]
fn tracing_cannot_perturb_results() {
    // Every level from off to all must produce the same RunReport for
    // every protocol: tracing is pure observation.
    use eesmr_net::TraceLevel;
    let protocols =
        [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline];
    for base in protocols.map(|protocol| {
        Scenario::new(protocol, 5, 2).workload(bursty_workload()).stop(StopWhen::Blocks(3))
    }) {
        let off = base.clone().trace(TraceLevel::Off).run();
        for level in [TraceLevel::Commit, TraceLevel::Proto, TraceLevel::All] {
            let traced = base.clone().trace(level).run();
            assert_eq!(off, traced, "{} diverged at {}", base.label(), level.name());
        }
    }
}
