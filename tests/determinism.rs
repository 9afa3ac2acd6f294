//! The simulator's determinism contract (`eesmr-net/src/runtime.rs`): a
//! scenario is a pure function of its configuration and seed. Two runs
//! with the same seed must produce *identical* `RunReport`s — every
//! energy figure, commit, view change, and network counter — across all
//! protocols, with and without faults. The comparisons across worker
//! counts, schedulers and trace levels run on one shard and on two, so the
//! sharded runtime is held to each of them too.

use eesmr_driver::{Driver, DriverConfig, ScenarioGrid};
use eesmr_net::SimDuration;
use eesmr_sim::{
    ArrivalProcess, FaultPlan, FaultSpec, Protocol, RunReport, Scenario, SchedulerKind, Skew,
    StopWhen, Workload,
};

/// The bursty, skewed, closed-loop workload the determinism grids use —
/// deliberately the hardest sampling path (MMPP state walks + per-node
/// RNG streams + in-flight feedback).
fn bursty_workload() -> Workload {
    Workload::new(ArrivalProcess::Bursty { rate: 5_000, on_ms: 30, off_ms: 60 })
        .skew(Skew::Hotspot { pct: 80 })
        .closed_loop(16)
}

/// Each scenario on one shard, then on two.
fn on_one_and_two_shards(scenarios: impl IntoIterator<Item = Scenario>) -> Vec<Scenario> {
    scenarios.into_iter().flat_map(|s| [1, 2].map(|shards| s.clone().shards(shards))).collect()
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
/// an equivocator), each on one shard and on two.
fn mixed_grid() -> ScenarioGrid {
    let explicit = on_one_and_two_shards([
        Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2)),
        Scenario::new(Protocol::Eesmr, 6, 2)
            .faults(FaultPlan::none().with_equivocator(1, 1))
            .stop(StopWhen::Blocks(3)),
    ]);
    let grid = ScenarioGrid::named("determinism")
        .protocols([Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync])
        .nodes([5, 6])
        .degrees([2])
        .seeds([7, 42])
        .shards([1, 2])
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
    assert_eq!(sequential.cells.len(), 28, "(12 cartesian cells + 2 explicit scenarios) × 2");
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
/// client traffic, plus an explicit closed-loop diurnal scenario, each on
/// one shard and on two.
fn workload_grid() -> ScenarioGrid {
    let diurnal =
        Workload::new(ArrivalProcess::Diurnal { base: 2_000, amplitude: 1_500, period_ms: 100 })
            .closed_loop(8);
    let explicit = on_one_and_two_shards([Scenario::new(Protocol::Eesmr, 6, 3)
        .workload(diurnal)
        .stop(StopWhen::Blocks(3))]);
    let grid = ScenarioGrid::named("workload-determinism")
        .protocols([Protocol::Eesmr, Protocol::OptSync, Protocol::TrustedBaseline])
        .nodes([5])
        .degrees([2])
        .workloads([
            Workload::new(ArrivalProcess::Poisson { rate: 2_000 }).skew(Skew::Zipf),
            bursty_workload(),
        ])
        .shards([1, 2])
        .stop(StopWhen::Blocks(3));
    explicit.into_iter().fold(grid, |grid, s| grid.scenario(s.label(), s))
}

#[test]
fn workload_grid_is_bit_identical_across_workers() {
    // The acceptance bar for the workload subsystem: a sweep over
    // (arrival × skew × protocol) — per-transaction latencies included —
    // is a pure function of the grid, not of the worker count.
    let sequential = Driver::new(DriverConfig::default().workers(1)).run_grid(&workload_grid());
    let parallel = Driver::new(DriverConfig::default().workers(8)).run_grid(&workload_grid());
    assert_eq!(sequential.cells.len(), 14, "(3 protocols × 2 workloads + 1 explicit) × 2");
    assert_eq!(sequential, parallel, "worker count leaked into workload results");
    // The sweep actually measured per-transaction latency everywhere.
    for cell in &sequential.cells {
        let stats = cell.report().tx_latency_stats();
        assert!(stats.is_some(), "{} measured no transactions", cell.label);
        assert!(cell.stats.tx_latency_p50_us.is_some());
        assert!(cell.stats.tx_latency_p99_us.is_some());
    }
    // And the JSON/CSV payloads — what the figures consume — match too.
    assert_eq!(sequential.to_json(), parallel.to_json());
}

#[test]
fn workload_scenarios_are_bit_identical_across_schedulers() {
    // The scheduler must stay a pure performance choice with arrival
    // timers in the event stream: heap and calendar runs of a bursty,
    // skewed, closed-loop workload produce identical reports.
    let scenarios = [
        Scenario::new(Protocol::Eesmr, 6, 3).workload(bursty_workload()).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::SyncHotStuff, 6, 3)
            .workload(bursty_workload())
            .stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::TrustedBaseline, 5, 2)
            .workload(Workload::new(ArrivalProcess::Poisson { rate: 3_000 }))
            .stop(StopWhen::Blocks(4)),
    ];
    for scenario in on_one_and_two_shards(scenarios) {
        let heap = scenario.clone().scheduler(SchedulerKind::Heap).run();
        let calendar = scenario.clone().scheduler(SchedulerKind::Calendar).run();
        assert_eq!(heap, calendar, "scheduler leaked into results: {}", scenario.label());
        assert!(heap.tx_committed() > 0, "{} committed no transactions", scenario.label());
    }
}

#[test]
fn calendar_and_heap_schedulers_are_bit_identical() {
    // The event scheduler is a pure performance choice: swapping the
    // calendar queue for the reference binary heap must never change a
    // single byte of any report — across protocols, faults, and the
    // view-change path whose long timers exercise the spill heap.
    let scenarios = [
        Scenario::new(Protocol::Eesmr, 6, 3).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::SyncHotStuff, 6, 3).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::OptSync, 5, 2).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::TrustedBaseline, 6, 2).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2)),
        Scenario::new(Protocol::Eesmr, 6, 2)
            .faults(FaultPlan::none().with_equivocator(1, 1))
            .stop(StopWhen::Blocks(3)),
    ];
    for scenario in on_one_and_two_shards(scenarios) {
        let heap = scenario.clone().scheduler(SchedulerKind::Heap).run();
        let calendar = scenario.clone().scheduler(SchedulerKind::Calendar).run();
        assert_eq!(heap, calendar, "scheduler leaked into results: {}", scenario.label());
    }
}

/// The mixed grid the sharded-equivalence test sweeps: every protocol,
/// a stalled-leader view change, an equivocator, and the bursty
/// closed-loop workload — all the event-stream shapes (floods, targeted
/// floods, timers, arrivals, forwarding) that could conceivably leak a
/// shard layout.
fn sharding_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(Protocol::Eesmr, 6, 3).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::SyncHotStuff, 6, 3).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::OptSync, 5, 2).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::TrustedBaseline, 6, 2).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2)),
        Scenario::new(Protocol::Eesmr, 6, 2)
            .faults(FaultPlan::none().with_equivocator(1, 1))
            .stop(StopWhen::Blocks(3)),
        Scenario::new(Protocol::Eesmr, 6, 3).workload(bursty_workload()).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::SyncHotStuff, 6, 3)
            .workload(bursty_workload())
            .stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::Eesmr, 7, 3).stop(StopWhen::Elapsed(SimDuration::from_millis(40))),
        // `Elapsed` stops run the adaptive barrier windows. In these two a
        // shard falls idle while another is far ahead of it, the layout
        // under which a window bound that ignores a shard's own events
        // echoing back lets one arrive in that shard's past.
        Scenario::new(Protocol::SyncHotStuff, 5, 2)
            .stop(StopWhen::Elapsed(SimDuration::from_millis(80))),
        Scenario::new(Protocol::Eesmr, 6, 2)
            .faults(FaultPlan::silent_nodes([3]).with_crash(4, 10_000, None))
            .stop(StopWhen::Elapsed(SimDuration::from_millis(60))),
    ]
}

#[test]
fn sharded_runs_are_bit_identical_for_any_shard_count() {
    // The parallel-simulation acceptance bar: splitting one scenario's
    // node set across 2 or 4 shard threads (Scenario::shards) must not
    // change a single byte of the RunReport — energy floats included —
    // relative to the single-threaded run, across protocols, faults,
    // view changes, and workloads.
    for scenario in sharding_scenarios() {
        let reference = scenario.clone().shards(1).run();
        for shards in [2, 4] {
            let sharded = scenario.clone().shards(shards).run();
            assert_eq!(
                reference,
                sharded,
                "shard count {shards} leaked into results: {}",
                scenario.label()
            );
        }
    }
}

#[test]
fn sharded_runs_are_bit_identical_under_both_schedulers() {
    // Sharding × scheduler: all four combinations of (heap|calendar) ×
    // (1|3 shards) must coincide — each shard's local queue goes through
    // the selected backend, so this pins the full cross product.
    let scenarios = [
        Scenario::new(Protocol::Eesmr, 6, 3).workload(bursty_workload()).stop(StopWhen::Blocks(4)),
        Scenario::new(Protocol::Eesmr, 5, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::ViewReached(2)),
        Scenario::new(Protocol::OptSync, 6, 2).stop(StopWhen::Blocks(4)),
    ];
    for scenario in scenarios {
        let reference = scenario.clone().scheduler(SchedulerKind::Heap).shards(1).run();
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            for shards in [1, 3] {
                let run = scenario.clone().scheduler(kind).shards(shards).run();
                assert_eq!(
                    reference,
                    run,
                    "({}, {shards} shards) diverged: {}",
                    kind.name(),
                    scenario.label()
                );
            }
        }
    }
}

#[test]
fn shard_axis_suites_agree_cell_for_cell() {
    // A grid sweeping the shard axis produces one cell per shard count;
    // all of them must carry identical RunReports (the shard count is a
    // performance axis, not a results axis), and the suite JSON must
    // record the axis so sweeps are auditable.
    let grid = ScenarioGrid::named("shard-axis")
        .nodes([6])
        .degrees([3])
        .shards([1, 2, 4])
        .stop(StopWhen::Blocks(3));
    let suite = Driver::new(DriverConfig::default().workers(2)).run_grid(&grid);
    assert_eq!(suite.cells.len(), 3);
    for cell in &suite.cells[1..] {
        assert_eq!(suite.cells[0].runs, cell.runs, "cell {} diverged", cell.label);
    }
    assert_eq!(suite.cells[0].key.shards, 1);
    assert_eq!(suite.cells[2].key.shards, 4);
    assert!(suite.to_json().contains("\"shards\": 4"), "suite JSON records the shard axis");
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
fn traces_are_bit_identical_across_shards() {
    // The trace extends the determinism contract: events are stamped
    // (time, node, node-local seq) from node-local state only, so the
    // shard count — which reorders *execution* but not virtual time —
    // cannot move, drop, or reorder a single event.
    use eesmr_net::TraceLevel;
    let base = Scenario::new(Protocol::Eesmr, 6, 3)
        .workload(bursty_workload())
        .stop(StopWhen::Blocks(4))
        .trace(TraceLevel::All);
    let (reference_report, reference_trace) = base.clone().shards(1).run_traced();
    assert!(reference_trace.total_events() > 0, "tracing recorded something");
    for shards in [2usize, 4] {
        let (report, trace) = base.clone().shards(shards).run_traced();
        assert_eq!(reference_trace, trace, "trace diverged with {shards} shards");
        assert_eq!(reference_report, report, "report diverged with {shards} shards");
    }
    // Same contract for the scheduler knob.
    let (_, calendar) = base.clone().scheduler(SchedulerKind::Calendar).run_traced();
    let (_, heap) = base.clone().scheduler(SchedulerKind::Heap).run_traced();
    assert_eq!(calendar, heap, "trace diverged across schedulers");
}

#[test]
fn traces_are_bit_identical_across_workers() {
    // Fanning traced scenarios over the driver's worker pool must yield
    // the same traces as running them inline.
    use eesmr_net::TraceLevel;
    use eesmr_trace::TraceSet;
    let scenarios = on_one_and_two_shards(
        [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync].map(|p| {
            Scenario::new(p, 5, 2)
                .workload(bursty_workload())
                .stop(StopWhen::Blocks(3))
                .trace(TraceLevel::All)
        }),
    );
    let traced = |workers: usize| -> Vec<TraceSet> {
        Driver::new(DriverConfig::default().workers(workers)).map(&scenarios, |s| s.run_traced().1)
    };
    let inline = traced(1);
    assert!(inline.iter().all(|t| t.total_events() > 0));
    assert_eq!(inline, traced(8), "worker count leaked into the traces");
}

/// Adversarial scenarios for the sharded-equivalence sweep: every fault
/// behaviour with a wall-clock schedule (healing partition, node churn,
/// crash-recovery) plus vote withholding — the paths where restart
/// timers, link-fault checks at transmit time, and repair floods could
/// conceivably leak a shard layout, worker count, or scheduler choice.
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
fn adversarial_runs_are_bit_identical_across_shards_and_schedulers() {
    // The fault model extends the determinism contract: restart timers,
    // partition/drop checks, and repair replies are all keyed to
    // node-local state and virtual time, so the shard count and the
    // scheduler backend must not move a single byte of the report — or a
    // single event of the commit trace. Every traced run must also
    // replay safety-clean through the auditor.
    use eesmr_net::TraceLevel;
    use eesmr_trace::audit::{audit, AuditConfig};
    for scenario in adversarial_scenarios() {
        let base = scenario.trace(TraceLevel::Commit).scheduler(SchedulerKind::Heap);
        let (reference_report, reference_trace) = base.clone().shards(1).run_traced();
        assert!(reference_trace.total_events() > 0, "tracing recorded something");
        let verdict = audit(&reference_trace, &AuditConfig::safety_only());
        assert!(verdict.is_clean(), "{}: {:?}", base.label(), verdict.violations);
        for shards in [2usize, 4] {
            let (report, trace) = base.clone().shards(shards).run_traced();
            assert_eq!(reference_report, report, "{shards} shards leaked: {}", base.label());
            assert_eq!(reference_trace, trace, "trace diverged at {shards} shards");
        }
        let (report, trace) = base.clone().scheduler(SchedulerKind::Calendar).run_traced();
        assert_eq!(reference_report, report, "calendar scheduler leaked: {}", base.label());
        assert_eq!(reference_trace, trace, "trace diverged under the calendar scheduler");
    }
}

#[test]
fn adversarial_runs_are_bit_identical_across_workers() {
    // Same scenarios through the driver pool: 1 worker ≡ 8 workers,
    // reports and traces both.
    use eesmr_net::TraceLevel;
    let scenarios = on_one_and_two_shards(
        adversarial_scenarios().into_iter().map(|s| s.trace(TraceLevel::Commit)),
    );
    let run_all = |workers: usize| {
        Driver::new(DriverConfig::default().workers(workers)).map(&scenarios, |s| s.run_traced())
    };
    let inline = run_all(1);
    let parallel = run_all(8);
    for (scenario, ((report_a, trace_a), (report_b, trace_b))) in
        scenarios.iter().zip(inline.iter().zip(&parallel))
    {
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
    for base in on_one_and_two_shards(protocols.map(|protocol| {
        Scenario::new(protocol, 5, 2).workload(bursty_workload()).stop(StopWhen::Blocks(3))
    })) {
        let off = base.clone().trace(TraceLevel::Off).run();
        for level in [TraceLevel::Commit, TraceLevel::Proto, TraceLevel::All] {
            let traced = base.clone().trace(level).run();
            assert_eq!(off, traced, "{} diverged at {}", base.label(), level.name());
        }
    }
}
