//! Backend conformance: SimNet and ProcNet commit the same log.
//!
//! The same happy-path scenario cell runs once on the deterministic
//! simulator and once as real OS processes over Unix domain sockets
//! (`Scenario::run_proc`, Δ-padded timers). The replicas are supposed to
//! be transport-agnostic: with no faults and the synthetic unit load,
//! block contents are a pure function of the protocol state machine, so
//! every node's committed block-id fingerprints and per-block command
//! counts must match bit for bit. Wall-clock fields (elapsed time,
//! latency, energy magnitudes) are excluded — those are exactly what the
//! backends legitimately disagree on.
//!
//! The trusted baseline is excluded from the grid: its hub batches spoke
//! uploads in arrival order, which is timing-dependent by design (see
//! README "Known deviations").

use std::path::Path;

use eesmr_net::ProcTransport;
use eesmr_sim::{Protocol, Scenario, StopWhen};

const BLOCKS: u64 = 5;

fn assert_conformance(scenario: Scenario) {
    let label = scenario.label();
    let sim = scenario.run();
    let proc = scenario
        .run_proc(ProcTransport::Uds, Path::new(env!("CARGO_BIN_EXE_proc_replica")))
        .unwrap_or_else(|e| panic!("{label}: proc run failed: {e}"));

    assert!(sim.committed_height() >= BLOCKS, "{label}: sim reached the target");
    assert!(proc.committed_height() >= BLOCKS, "{label}: proc reached the target");
    assert_eq!(sim.nodes.len(), proc.nodes.len(), "{label}");
    for (s, p) in sim.nodes.iter().zip(&proc.nodes) {
        // Both backends overshoot the block target by different amounts
        // (the simulator stops between events, the coordinator between
        // polls), so conformance is on the guaranteed common prefix.
        let prefix = BLOCKS as usize;
        assert!(
            s.commit_fps.len() >= prefix && p.commit_fps.len() >= prefix,
            "{label}: node {} committed {} (sim) / {} (proc) blocks",
            s.id,
            s.commit_fps.len(),
            p.commit_fps.len(),
        );
        assert_eq!(
            s.commit_fps[..prefix],
            p.commit_fps[..prefix],
            "{label}: node {} commit sequence diverged between backends",
            s.id
        );
        assert_eq!(
            s.commit_txs[..prefix],
            p.commit_txs[..prefix],
            "{label}: node {} per-block tx counts diverged between backends",
            s.id
        );
        assert!(
            p.commit_txs[..prefix].iter().all(|&c| c > 0),
            "{label}: node {} committed an empty block in the unit-load cell",
            s.id
        );
        // Real concurrency and wall-clock timers do not bypass the
        // meters: every process paid for its radio and its crypto.
        assert!(
            p.energy.total_mj() > 0.0 && p.signs + p.verifies > 0,
            "{label}: proc node {} was not metered",
            s.id
        );
    }
    // Every node agrees with node 0 within each backend too (safety,
    // cheap to pin while we have the logs).
    for report in [&sim, &proc] {
        let first = &report.nodes[0].commit_fps[..BLOCKS as usize];
        for node in &report.nodes[1..] {
            assert_eq!(&node.commit_fps[..BLOCKS as usize], first, "{label}: fork");
        }
    }
}

#[test]
fn eesmr_commits_identically_on_simnet_and_procnet() {
    assert_conformance(Scenario::new(Protocol::Eesmr, 5, 2).stop(StopWhen::Blocks(BLOCKS)));
}

#[test]
fn eesmr_larger_ring_and_payload_conform() {
    assert_conformance(
        Scenario::new(Protocol::Eesmr, 6, 3).payload(128).stop(StopWhen::Blocks(BLOCKS)),
    );
}

#[test]
fn sync_hotstuff_commits_identically_on_simnet_and_procnet() {
    assert_conformance(Scenario::new(Protocol::SyncHotStuff, 5, 2).stop(StopWhen::Blocks(BLOCKS)));
}

#[test]
fn optsync_commits_identically_on_simnet_and_procnet() {
    assert_conformance(Scenario::new(Protocol::OptSync, 5, 2).stop(StopWhen::Blocks(BLOCKS)));
}
