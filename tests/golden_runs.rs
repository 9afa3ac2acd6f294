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
use eesmr_net::{MetricsConfig, SimDuration, TraceLevel};
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

/// The two cells that run with full tracing and dense sampling: their
/// fingerprints also cover every trace event and every sampled series.
fn observed(protocol: Protocol, fault: FaultSpec) -> bool {
    matches!(
        (protocol, fault),
        (Protocol::Eesmr, FaultSpec::SilentLeader)
            | (Protocol::SyncHotStuff, FaultSpec::CrashRecovery)
    )
}

/// The grid, in pin order: 4 protocols × 3 fault axes, one client-workload
/// cell, one `Elapsed`-stop cell (the adaptive-window path when sharded).
fn grid() -> Vec<(String, Scenario)> {
    let mut cells = Vec::new();
    for protocol in PROTOCOLS {
        for fault in FAULTS {
            // Long enough that the crash-recovery cell (down during
            // [10Δ, 40Δ)) restarts and repairs before the run stops.
            let mut scenario = cell(protocol).fault_spec(fault).stop(StopWhen::Blocks(24));
            if observed(protocol, fault) {
                scenario = scenario.trace(TraceLevel::All).metrics(MetricsConfig {
                    enabled: true,
                    dt_us: 1_000,
                    cap: 4_096,
                });
            }
            cells.push((format!("{} {}", protocol.name(), fault.label()), scenario));
        }
    }
    let clients = Workload::new(ArrivalProcess::Bursty { rate: 5_000, on_ms: 30, off_ms: 60 })
        .skew(Skew::Hotspot { pct: 80 })
        .closed_loop(16);
    cells.push((
        "EESMR clients".into(),
        cell(Protocol::Eesmr).workload(clients).stop(StopWhen::Blocks(6)),
    ));
    cells.push((
        "Sync HotStuff elapsed".into(),
        cell(Protocol::SyncHotStuff).stop(StopWhen::Elapsed(SimDuration::from_millis(60))),
    ));
    cells
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
/// transmission (PR 18); that change had to reproduce them unmodified.
const PINS: [u64; 14] = [
    0xcc5a74bc5c82fe90,
    0x58e4f766d2db4d21,
    0x2fad21a6da0c5e6c,
    0x9295f39281ba0ec1,
    0x92304c15c605f3b4,
    0x10e996a0f72d95d6,
    0x33186f0041ade711,
    0x288d5338a4807a9d,
    0xe94447baca7fee08,
    0xbdbf879fc219fbfa,
    // The trusted hub is node 0 and never faulty: "silent leader" is the
    // honest run.
    0xbdbf879fc219fbfa,
    0x377708c0b26d982b,
    0xb0f40312800f6be6,
    0x2c6dfb1a81a89e00,
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
    // A pin over a run that never left the happy path pins nothing.
    for (label, scenario) in grid() {
        let report = scenario.run();
        assert!(report.committed_height() > 0, "{label} committed nothing");
        let changed_views = report.view_changes() > 0;
        let silent_leader = scenario.fault_spec == Some(FaultSpec::SilentLeader);
        if scenario.protocol != Protocol::TrustedBaseline {
            assert_eq!(changed_views, silent_leader, "{label}: view changes");
        }
        if scenario.fault_spec == Some(FaultSpec::CrashRecovery) {
            assert!(report.elapsed_us > 40 * report.delta_us, "{label} stopped before the restart");
        }
        if scenario.workload.is_some() {
            assert!(report.tx_committed() > 0, "{label} committed no transactions");
        }
    }
}
