//! Golden runs: reports pinned **across commits**. Every determinism test
//! compares two runs of the same build, so a runtime change that shifts
//! every trace consistently — a reordered fan-out, a delay draw consumed
//! one receiver early, a changed `seq` key — passes them all. Here a small
//! fixed grid is run and each cell's whole `RunReport` (and, where traced,
//! every recorded event) is fingerprinted and compared with a constant
//! captured on an earlier commit. In the spirit of `tests/hash_budget.rs`:
//! a deliberate change to what a run computes — the protocols, the energy
//! model, the delay or drop streams, the `Debug` shape of a report —
//! updates the pins in the same commit and says why; an accidental one
//! fails here. The shard count is left to `EESMR_SHARDS`, so the same pins
//! hold the sharded runtime to the single-threaded traces.

use eesmr_crypto::sha256::Sha256;
use eesmr_energy::EnergyPhase;
use eesmr_net::{MetricsConfig, SimDuration, TraceEventKind, TraceLevel};
use eesmr_sim::{ArrivalProcess, FaultSpec, Protocol, Scenario, Skew, StopWhen, Workload};

const PROTOCOLS: [Protocol; 4] =
    [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline];

const FAULTS: [FaultSpec; 3] = [FaultSpec::None, FaultSpec::SilentLeader, FaultSpec::CrashRecovery];

/// A cell of the grid at the fixed size n = 7, k = 3, observability
/// pinned off against the `EESMR_TRACE` / `EESMR_METRICS` defaults (the
/// report's `Debug` output includes the observability surfaces).
fn cell(protocol: Protocol) -> Scenario {
    Scenario::new(protocol, 7, 3).seed(42).trace(TraceLevel::Off).metrics(MetricsConfig::off())
}

/// The cells that run with full tracing and dense (1 ms) sampling: their
/// fingerprints also cover every trace event and every sampled series.
fn observed(scenario: Scenario) -> Scenario {
    scenario.trace(TraceLevel::All).metrics(MetricsConfig {
        enabled: true,
        dt_us: 1_000,
        cap: 4_096,
    })
}

/// The bursty, hotspot-skewed closed-loop client mix of the workload cells.
fn clients() -> Workload {
    Workload::new(ArrivalProcess::Bursty { rate: 5_000, on_ms: 30, off_ms: 60 })
        .skew(Skew::Hotspot { pct: 80 })
        .closed_loop(16)
}

/// The grid, in pin order: 4 protocols × 3 fault axes, one client-workload
/// cell, one `Elapsed`-stop cell (the adaptive-window path when sharded),
/// then [`shared_machine_cells`].
fn grid() -> Vec<(String, Scenario)> {
    let mut cells = Vec::new();
    for protocol in PROTOCOLS {
        for fault in FAULTS {
            // Long enough that the crash-recovery cell (down during
            // [10Δ, 40Δ)) restarts and repairs before the run stops.
            let mut scenario = cell(protocol).fault_spec(fault).stop(StopWhen::Blocks(24));
            if matches!(
                (protocol, fault),
                (Protocol::Eesmr, FaultSpec::SilentLeader)
                    | (Protocol::SyncHotStuff, FaultSpec::CrashRecovery)
            ) {
                scenario = observed(scenario);
            }
            cells.push((format!("{} {}", protocol.name(), fault.label()), scenario));
        }
    }
    cells.push((
        "EESMR clients".into(),
        cell(Protocol::Eesmr).workload(clients()).stop(StopWhen::Blocks(6)),
    ));
    cells.push((
        "Sync HotStuff elapsed".into(),
        cell(Protocol::SyncHotStuff).stop(StopWhen::Elapsed(SimDuration::from_millis(60))),
    ));
    cells.extend(shared_machine_cells());
    cells
}

/// What the first fourteen cells never enter: the blame, forward, sync and
/// repair machine that EESMR and the HotStuff family run in common —
/// equivocation proofs, chain sync with orphan replay after a partition,
/// two staggered repairs, batched forwarding with its flush timer and
/// re-routing across a view change, withheld and stormed votes, streaming
/// pacing. Pinned so that writing that machine once had to reproduce both
/// of its earlier copies.
fn shared_machine_cells() -> Vec<(String, Scenario)> {
    use FaultSpec::{Churn, Equivocate, PartitionHeal, SilentLeader, Storm, Withhold};
    use Protocol::{Eesmr, OptSync, SyncHotStuff};
    let faulty = |protocol: Protocol, fault: FaultSpec| {
        (
            format!("{} {}", protocol.name(), fault.label()),
            cell(protocol).fault_spec(fault).stop(StopWhen::Blocks(24)),
        )
    };
    let forwarding = |protocol: Protocol| {
        cell(protocol).workload(clients()).forward_batch(4).stop(StopWhen::Blocks(6))
    };
    let watched = |(label, scenario): (String, Scenario)| (label, observed(scenario));
    vec![
        faulty(Eesmr, Equivocate),
        watched(faulty(SyncHotStuff, Equivocate)),
        faulty(OptSync, Equivocate),
        (
            "EESMR optimized equivocate".into(),
            cell(Eesmr)
                .with_paper_optimizations()
                .fault_spec(Equivocate)
                .stop(StopWhen::Blocks(24)),
        ),
        ("EESMR checkpoint".into(), cell(Eesmr).checkpoint_every(4).stop(StopWhen::Blocks(24))),
        watched(faulty(Eesmr, PartitionHeal)),
        faulty(SyncHotStuff, PartitionHeal),
        faulty(Eesmr, Churn),
        watched(faulty(SyncHotStuff, Churn)),
        faulty(SyncHotStuff, Withhold),
        faulty(SyncHotStuff, Storm),
        ("Sync HotStuff clients fwd4".into(), forwarding(SyncHotStuff)),
        ("OptSync clients fwd4".into(), forwarding(OptSync)),
        ("EESMR clients fwd4 silent-leader".into(), forwarding(Eesmr).fault_spec(SilentLeader)),
        watched((
            "Sync HotStuff clients fwd4 silent-leader".into(),
            forwarding(SyncHotStuff).fault_spec(SilentLeader),
        )),
        ("EESMR streaming".into(), cell(Eesmr).streaming().stop(StopWhen::Blocks(24))),
        (
            "Sync HotStuff streaming".into(),
            cell(SyncHotStuff).streaming().stop(StopWhen::Blocks(24)),
        ),
    ]
}

/// The first eight bytes of SHA-256 over the `Debug` rendering of the
/// report and the traces: every field, every float to its last digit.
fn fingerprint(scenario: &Scenario) -> u64 {
    let (report, traces) = scenario.run_traced();
    let mut hasher = Sha256::new();
    hasher.update(format!("{report:?}").as_bytes());
    hasher.update(format!("{traces:?}").as_bytes());
    hasher.finalize().to_u64()
}

/// Captured on the commit before the runtime stored one record per
/// transmission (PR 18); that change had to reproduce them unmodified, and
/// so had the move of both replica families onto one skeleton (PR 20).
/// The five pins marked `repair` were then re-captured, deliberately, with
/// PR 20's one behaviour change: a `RepairReply` is authenticated before
/// it is used, so each recovering node is charged one signature check and
/// one hash per reply it receives. Nothing else in those reports moved —
/// every correct node, every trace event and the elapsed time are as
/// before.
const PINS: [u64; 31] = [
    0xcc5a74bc5c82fe90,
    0x58e4f766d2db4d21,
    0x1040c8610c5c5785, // repair
    0x9295f39281ba0ec1,
    0x92304c15c605f3b4,
    0x3ae2cf3b507826c8, // repair
    0x33186f0041ade711,
    0x288d5338a4807a9d,
    0x673dfab3d85b5fd9, // repair
    0xbdbf879fc219fbfa,
    // The trusted hub is node 0 and never faulty: "silent leader" is the
    // honest run.
    0xbdbf879fc219fbfa,
    0x377708c0b26d982b,
    0xb0f40312800f6be6,
    0x2c6dfb1a81a89e00,
    // The shared-machine cells, captured on the commit before EESMR and
    // the HotStuff family became one replica over three commit rules
    // (PR 20); that refactor had to reproduce them unmodified.
    0xae65491fd4e64313,
    0x9b2e1ace26f43568,
    0x6abcc7940a47280c,
    0x51a42c8a83bf9972,
    0x346fafd3251aa26e,
    0xebdfc5235473eedc,
    0xe3e7ec0628dc7e6a,
    0x22daf103b1061707, // repair
    0xb472ef62a628c8c8, // repair
    0x170a9b847c01f2a5,
    0x54cb04eb5cee1260,
    0x3501b4bf429f7738,
    0x0b14c16e5eaaffe6,
    0xd4611e5eec245f43,
    0x82e489f8c70025e7,
    0xb1d77c28c0caf87a,
    0x214f30f7fda7d8e2,
];

#[test]
fn reports_match_the_pins_captured_on_an_earlier_commit() {
    let cells = grid();
    assert_eq!(cells.len(), PINS.len());
    let got: Vec<u64> = cells.iter().map(|(_, scenario)| fingerprint(scenario)).collect();
    let moved: Vec<&str> = cells
        .iter()
        .zip(got.iter().zip(&PINS))
        .filter(|(_, (got, pin))| got != pin)
        .map(|((label, _), _)| label.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "runs changed in {moved:?}; if that is deliberate, the new pins are\n{}",
        got.iter().map(|fp| format!("    {fp:#018x},\n")).collect::<String>()
    );
}

#[test]
fn the_grid_exercises_what_it_claims_to() {
    // A pin over a run that never left the happy path pins nothing. The
    // report carries no equivocation or sync counter, so those two are
    // read off the trace and the energy ledger's sync phase.
    for (label, scenario) in grid() {
        let (report, traces) = scenario.clone().trace(TraceLevel::Proto).run_traced();
        let fault = scenario.fault_spec.unwrap_or(FaultSpec::None);
        assert!(report.committed_height() > 0, "{label} committed nothing");
        // Without clients the fault axis alone decides whether view 1 is
        // quit. With them it does not: a forward that reaches a Sync
        // HotStuff leader between its proposal and the loopback of that
        // proposal makes it propose a second block at the same height
        // (the honest "Sync HotStuff clients fwd4" cell is blamed out of
        // view 1 that way) — pinned as found, not judged here.
        if scenario.protocol != Protocol::TrustedBaseline && scenario.workload.is_none() {
            let quits_view_1 = matches!(fault, FaultSpec::SilentLeader | FaultSpec::Equivocate);
            assert_eq!(report.view_changes() > 0, quits_view_1, "{label}: view changes");
            let equivocations = traces
                .merged()
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::Equivocation { .. }))
                .count();
            assert_eq!(equivocations > 0, fault == FaultSpec::Equivocate, "{label}: equivocations");
        }
        if fault == FaultSpec::SilentLeader && scenario.protocol != Protocol::TrustedBaseline {
            assert!(report.view_changes() > 0, "{label}: the silent leader was never replaced");
        }
        let healed_at = match fault {
            FaultSpec::PartitionHeal => 25,
            FaultSpec::Churn | FaultSpec::CrashRecovery => 40,
            _ => 0,
        };
        assert!(report.elapsed_us > healed_at * report.delta_us, "{label} stopped before the heal");
        if fault == FaultSpec::PartitionHeal {
            let sync_mj: f64 =
                report.energy_attr.iter().map(|a| a.phase_mj(EnergyPhase::Sync)).sum();
            assert!(sync_mj > 0.0, "{label}: nobody asked for a missing block");
        }
        if scenario.workload.is_some() {
            assert!(report.tx_committed() > 0, "{label} committed no transactions");
            assert!(report.tx_forwarded() > 0, "{label} forwarded no transactions");
        }
    }
}
