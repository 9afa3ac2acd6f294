//! Backend conformance: SimNet and ProcNet commit the same log.
//!
//! The same happy-path scenario cell runs once on the deterministic
//! simulator and once as real OS processes over Unix domain sockets
//! (`Scenario::run_proc`, Δ-padded timers). The replicas are supposed to
//! be transport-agnostic: with no faults and the synthetic unit load,
//! block contents are a pure function of the protocol state machine, so
//! every node's committed block-id fingerprints and per-block command
//! counts must match bit for bit. Wall-clock fields (elapsed time,
//! latency) are excluded — those are exactly what the backends
//! legitimately disagree on. Energy is compared within a band on the three
//! ring protocols: both backends step each replica through the same
//! `Harness` and price every send and reception with the same channel
//! rule, so correct-node energy per committed block agrees to within 25 %.
//! What is left is the medium (the process mesh is a full mesh that relays
//! nothing) and which receptions share a scan window on the wall clock.
//!
//! The trusted baseline commits the same log on both backends (its hub
//! orders each tick's uploads by `(seq, spoke)`, not by arrival), but its
//! energy is not held to the band: the full mesh turns every spoke's
//! upload k-cast, which reaches only the hub on the star, into a
//! broadcast that every spoke pays to receive. Before the baseline moved
//! onto the replica skeleton, ProcNet's correct-node energy per block was
//! 135 %, 178 % and 222 % above SimNet's at n = 5, 6 and 7, with the commit
//! sequences equal in 3 of 3 repetitions at each size; on the skeleton it
//! is 138 %, 183 % and 227 % (each frame carries the envelope's view), the
//! sequences again equal in 3 of 3. ProcNet running the scenario's
//! topology (ROADMAP item 12) closes that gap.

use std::path::Path;

use eesmr_energy::EnergyClass;
use eesmr_net::ProcTransport;
use eesmr_sim::{Protocol, RunReport, Scenario, StopWhen};

const BLOCKS: u64 = 5;

/// Runs `scenario` on both backends and checks that every node committed
/// the same blocks, with the same transaction counts, on both, and that no
/// backend forked.
fn assert_same_log(scenario: Scenario) -> (RunReport, RunReport) {
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
        // (the simulator stops between events, the coordinator once the
        // last child reports the target, while the others run on), so
        // conformance is on the guaranteed common prefix.
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
    (sim, proc)
}

/// Where `r`'s correct-node energy per committed block went, mJ: by meter
/// category (both backends), then by [`EnergyClass`] from the attribution,
/// which only the simulator records.
fn energy_split(r: &RunReport) -> String {
    let blocks = r.committed_height().max(1) as f64;
    let mut by_category = [0.0; 5];
    for e in r.correct_nodes().map(|n| n.energy) {
        let mj = [e.send_mj, e.recv_mj, e.sign_mj, e.verify_mj, e.hash_mj];
        by_category.iter_mut().zip(mj).for_each(|(sum, mj)| *sum += mj);
    }
    let show = |parts: Vec<(&str, f64)>| {
        let parts: Vec<String> =
            parts.iter().map(|(name, mj)| format!("{name} {:.1}", mj / blocks)).collect();
        parts.join(", ")
    };
    let categories = ["send", "recv", "sign", "verify", "hash"].into_iter().zip(by_category);
    let classes = EnergyClass::ALL.map(EnergyClass::as_str).into_iter().zip(r.energy_by_class_mj());
    let classes =
        if r.energy_attr.is_empty() { "not recorded".into() } else { show(classes.collect()) };
    format!("{}; by class: {classes}", show(categories.collect()))
}

/// [`assert_same_log`], and correct-node energy per block within 25 %.
fn assert_conformance(scenario: Scenario) {
    let label = scenario.label();
    let (sim, proc) = assert_same_log(scenario);
    let (s, p) = (sim.energy_per_block_mj(), proc.energy_per_block_mj());
    assert!(
        (p - s).abs() <= 0.25 * s,
        "{label}: correct-node energy per block {p:.1} mJ (proc) vs {s:.1} mJ (sim)\n  \
         proc: {}\n  sim:  {}",
        energy_split(&proc),
        energy_split(&sim)
    );
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

#[test]
fn trusted_baseline_commits_identically_on_simnet_and_procnet() {
    assert_same_log(Scenario::new(Protocol::TrustedBaseline, 5, 2).stop(StopWhen::Blocks(BLOCKS)));
}
