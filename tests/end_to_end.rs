//! Cross-crate integration tests: protocols × faults × topologies, plus
//! the repository-level claims (energy ordering, chain sync under loss).

use std::sync::Arc;

use eesmr_baselines::check_prefix_consistency;
use eesmr_core::{build_replicas, Config, FaultMode, Replica};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::{Fate, NetConfig, SimDuration, SimNet};
use eesmr_sim::{FaultPlan, Protocol, Scenario, StopWhen};

const PROTOCOLS: [Protocol; 3] = [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync];

#[test]
fn every_protocol_commits_in_honest_runs() {
    for proto in PROTOCOLS {
        let report = Scenario::new(proto, 6, 2).stop(StopWhen::Blocks(8)).run();
        assert!(
            report.committed_height() >= 8,
            "{} stuck at height {}",
            proto.name(),
            report.committed_height()
        );
        assert_eq!(report.view_changes(), 0, "{}", proto.name());
    }
    let tb = Scenario::new(Protocol::TrustedBaseline, 6, 2).stop(StopWhen::Blocks(8)).run();
    assert!(tb.committed_height() >= 8);
}

#[test]
fn every_bft_protocol_survives_a_silent_leader() {
    for proto in PROTOCOLS {
        let report = Scenario::new(proto, 6, 2)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::Blocks(3))
            .run();
        assert!(
            report.committed_height() >= 3,
            "{} did not recover: {}",
            proto.name(),
            report.summary()
        );
        assert!(report.view_changes() >= 1, "{}", proto.name());
    }
}

#[test]
fn every_bft_protocol_survives_an_equivocating_leader() {
    for proto in PROTOCOLS {
        let report = Scenario::new(proto, 6, 2)
            .faults(FaultPlan::equivocating_leader())
            .stop(StopWhen::Blocks(3))
            .run();
        assert!(
            report.committed_height() >= 3,
            "{} did not recover: {}",
            proto.name(),
            report.summary()
        );
    }
}

#[test]
fn energy_ordering_matches_the_paper() {
    // Steady state on identical settings: EESMR < SyncHS < OptSync.
    let e = Scenario::new(Protocol::Eesmr, 8, 3).stop(StopWhen::Blocks(10)).run();
    let s = Scenario::new(Protocol::SyncHotStuff, 8, 3).stop(StopWhen::Blocks(10)).run();
    let o = Scenario::new(Protocol::OptSync, 8, 3).stop(StopWhen::Blocks(10)).run();
    assert!(e.energy_per_block_mj() < s.energy_per_block_mj());
    assert!(s.energy_per_block_mj() < o.energy_per_block_mj());
}

#[test]
fn view_change_cost_inversion_matches_the_paper() {
    // The paper's trade-off: EESMR pays MORE than Sync HotStuff during a
    // view change (it converts votes-in-the-head into certificates).
    let e = Scenario::new(Protocol::Eesmr, 7, 3)
        .faults(FaultPlan::silent_leader())
        .stop(StopWhen::ViewReached(2))
        .run();
    let s = Scenario::new(Protocol::SyncHotStuff, 7, 3)
        .faults(FaultPlan::silent_leader())
        .stop(StopWhen::ViewReached(2))
        .run();
    assert!(
        e.node_energy_mj(1) > s.node_energy_mj(1),
        "EESMR VC {:.0} mJ should exceed SyncHS VC {:.0} mJ",
        e.node_energy_mj(1),
        s.node_energy_mj(1)
    );
}

#[test]
fn eesmr_steady_state_energy_independent_of_n_at_fixed_k() {
    // §5.6: "the energy cost of EESMR is independent of n in the best case
    // … the energy cost only depends on k" (per node).
    let per_node = |n: usize| {
        let r = Scenario::new(Protocol::Eesmr, n, 3).stop(StopWhen::Blocks(10)).run();
        r.node_energy_per_block_mj(2) // a replica
    };
    let small = per_node(6);
    let large = per_node(12);
    let ratio = large / small;
    assert!(
        (0.8..1.25).contains(&ratio),
        "per-node energy should not scale with n: {small:.1} vs {large:.1} mJ"
    );
}

#[test]
fn eesmr_replica_energy_grows_with_k_but_stays_subquadratic() {
    // Higher k buys higher redundancy (sends and first receptions cost
    // more), but the extra copies a denser graph delivers are mostly
    // duplicates, which a scanner abandons after one advertisement
    // (`ChannelCost::dup_recv_mj`) — so growth in k is real yet well
    // below proportional.
    let per_node = |k: usize| {
        let r = Scenario::new(Protocol::Eesmr, 10, k).stop(StopWhen::Blocks(10)).run();
        r.node_energy_per_block_mj(4)
    };
    let e2 = per_node(2);
    let e6 = per_node(6);
    assert!(e6 > e2 * 1.2, "k=6 ({e6:.0} mJ) should cost clearly above k=2 ({e2:.0} mJ)");
    assert!(e6 < e2 * 4.0, "growth should be roughly linear, not quadratic");
}

#[test]
fn chain_sync_repairs_a_lossy_node() {
    // Drop 60% of one node's incoming (non-flood) deliveries: it misses
    // proposals, detects the gaps via orphaned parents, and repairs them
    // through SyncRequest/SyncResponse.
    let n = 6;
    let topology = ring_kcast(n, 3);
    let net_cfg = NetConfig::ble(topology, 31);
    let config = Config::new(n, net_cfg.delta());
    let pki = Arc::new(KeyStore::generate(n, SigScheme::Rsa1024, 31));
    let replicas = build_replicas(&config, &pki, |_| FaultMode::Honest);
    let mut net: SimNet<Replica> = SimNet::new(net_cfg, replicas);

    let mut coin = 0u32;
    net.set_interceptor(Box::new(move |d| {
        if d.to == 4 && !d.is_flood {
            coin = coin.wrapping_mul(1664525).wrapping_add(1013904223);
            if coin % 10 < 6 {
                return Fate::Drop;
            }
        }
        Fate::Deliver
    }));
    net.run_for(SimDuration::from_millis(4_000));

    let healthy = net.actor(0).committed_height();
    let lossy = net.actor(4).committed_height();
    assert!(healthy >= 10, "healthy nodes progressed: {healthy}");
    assert!(
        lossy >= healthy / 2,
        "the lossy node kept up through chain sync: {lossy} vs {healthy}"
    );
    assert!(net.actor(4).metrics().sync_requests > 0, "chain sync was actually exercised");
    let logs: Vec<&[eesmr_crypto::Digest]> =
        (0..n as u32).map(|id| net.actor(id).committed()).collect();
    check_prefix_consistency(&logs).expect("safety under loss");
}

#[test]
fn seeds_change_schedules_but_not_safety() {
    for seed in [1u64, 7, 99, 12345] {
        let report = Scenario::new(Protocol::Eesmr, 6, 2)
            .seed(seed)
            .faults(FaultPlan::silent_leader())
            .stop(StopWhen::Blocks(3))
            .run();
        assert!(report.committed_height() >= 3, "seed {seed}");
    }
}

#[test]
fn paper_optimizations_reduce_view_change_energy() {
    let plain = Scenario::new(Protocol::Eesmr, 9, 3)
        .faults(FaultPlan::silent_leader())
        .stop(StopWhen::ViewReached(2))
        .run();
    let optimized = Scenario::new(Protocol::Eesmr, 9, 3)
        .faults(FaultPlan::silent_leader())
        .with_paper_optimizations()
        .stop(StopWhen::ViewReached(2))
        .run();
    assert!(
        optimized.total_correct_energy_mj() < plain.total_correct_energy_mj(),
        "lock-only status should cut VC energy: {:.0} vs {:.0} mJ",
        optimized.total_correct_energy_mj(),
        plain.total_correct_energy_mj()
    );
}

#[test]
fn hmac_scheme_runs_but_loses_transferable_authentication() {
    // The protocol still runs with MACs (energy analysis §2), though real
    // deployments need signatures to prove equivocation.
    let report = Scenario::new(Protocol::Eesmr, 5, 2)
        .scheme(SigScheme::Hmac)
        .stop(StopWhen::Blocks(5))
        .run();
    assert!(report.committed_height() >= 5);
    assert!(!SigScheme::Hmac.transferable());
}
