//! End-to-end tests for the baseline protocols over the simulated network.

use std::sync::Arc;

use eesmr_baselines::check_prefix_consistency;
use eesmr_baselines::sync_hotstuff::{build_hs_replicas, HsConfig, HsFault, HsReplica, HsVariant};
use eesmr_baselines::trusted::{build_tb_replicas, tb_config, TbReplica, HUB};
use eesmr_core::{Block, FaultMode, Pacing};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_energy::{EnergyCategory, Medium};
use eesmr_hypergraph::topology::{ring_kcast, star};
use eesmr_net::{ChannelCost, NetConfig, NodeId, SimDuration, SimNet};

fn run_hs(
    n: usize,
    k: usize,
    variant: HsVariant,
    faults: fn(u32) -> HsFault,
    millis: u64,
) -> SimNet<HsReplica> {
    let net_cfg = NetConfig::ble(ring_kcast(n, k), 5);
    let config = HsConfig::new(n, net_cfg.delta(), variant);
    let pki = Arc::new(KeyStore::generate(n, SigScheme::Rsa1024, 5));
    let replicas = build_hs_replicas(&config, &pki, faults);
    let mut net = SimNet::new(net_cfg, replicas);
    net.run_for(SimDuration::from_millis(millis));
    net
}

fn assert_consistent(net: &SimNet<HsReplica>, correct: impl Iterator<Item = u32>) {
    let logs: Vec<&[Block]> = correct.map(|id| net.actor(id).committed()).collect();
    check_prefix_consistency(&logs).expect("SyncHS safety violated");
}

#[test]
fn synchs_honest_run_commits() {
    let net = run_hs(5, 2, HsVariant::SyncHotStuff, |_| HsFault::Honest, 400);
    for id in 0..5 {
        assert!(
            net.actor(id).committed_height() >= 5,
            "node {id} got {}",
            net.actor(id).committed_height()
        );
        assert_eq!(net.actor(id).metrics().view_changes, 0);
    }
    assert_consistent(&net, 0..5);
}

#[test]
fn synchs_every_node_signs_votes() {
    // The certificate work EESMR avoids: every node signs one vote per
    // block in Sync HotStuff.
    let net = run_hs(5, 2, HsVariant::SyncHotStuff, |_| HsFault::Honest, 400);
    let committed = net.actor(0).committed_height();
    for id in 0..5 {
        let signs = net.meter(id).count(EnergyCategory::Sign);
        assert!(signs >= committed, "node {id} signed {signs} times for {committed} blocks");
    }
}

#[test]
fn synchs_view_change_on_silent_leader() {
    let net = run_hs(
        5,
        2,
        HsVariant::SyncHotStuff,
        |id| if id == 0 { HsFault::Silent { from_view: 1 } } else { HsFault::Honest },
        1_500,
    );
    for id in 1..5 {
        assert!(net.actor(id).current_view() >= 2, "node {id}");
        assert!(net.actor(id).committed_height() >= 1, "node {id} commits in view 2+");
    }
    assert_consistent(&net, 1..5);
}

#[test]
fn synchs_equivocating_leader_is_caught() {
    let net = run_hs(
        5,
        2,
        HsVariant::SyncHotStuff,
        |id| if id == 0 { HsFault::Equivocate { in_view: 1 } } else { HsFault::Honest },
        1_500,
    );
    for id in 1..5 {
        assert!(net.actor(id).current_view() >= 2, "node {id}");
    }
    assert_consistent(&net, 1..5);
}

#[test]
fn optsync_commits_faster_than_synchs_wallclock() {
    // The responsive path commits without the 2Δ wait, so with streaming
    // pacing OptSync sustains a higher rate in the same virtual time.
    let mk = |variant| {
        let n = 8;
        let net_cfg = NetConfig::ble(ring_kcast(n, 3), 6);
        let mut config = HsConfig::new(n, net_cfg.delta(), variant);
        config.pacing = Pacing::Streaming;
        let pki = Arc::new(KeyStore::generate(n, SigScheme::Rsa1024, 6));
        let replicas = build_hs_replicas(&config, &pki, |_| HsFault::Honest);
        let mut net = SimNet::new(net_cfg, replicas);
        net.run_for(SimDuration::from_millis(400));
        net.actor(0).committed_height()
    };
    let h_opt = mk(HsVariant::OptSync);
    let h_classic = mk(HsVariant::SyncHotStuff);
    // On the multi-hop ring the fast quorum can trail the 2Δ path by a
    // block, so allow a small tolerance.
    assert!(h_opt + 2 >= h_classic, "OptSync ({h_opt}) should keep pace with SyncHS ({h_classic})");
}

#[test]
fn optsync_verifies_more_than_synchs() {
    let opt = run_hs(8, 3, HsVariant::OptSync, |_| HsFault::Honest, 400);
    let classic = run_hs(8, 3, HsVariant::SyncHotStuff, |_| HsFault::Honest, 400);
    let per_block = |net: &SimNet<HsReplica>| {
        let verifies: u64 = (0..8).map(|id| net.meter(id).count(EnergyCategory::Verify)).sum();
        let blocks = net.actor(0).committed_height().max(1);
        verifies as f64 / blocks as f64
    };
    assert!(per_block(&opt) > per_block(&classic), "OptSync verifies 3n/4+1 votes vs n/2+1");
}

#[test]
fn synchs_deterministic_replay() {
    let a = run_hs(5, 2, HsVariant::SyncHotStuff, |_| HsFault::Honest, 300);
    let b = run_hs(5, 2, HsVariant::SyncHotStuff, |_| HsFault::Honest, 300);
    for id in 0..5 {
        assert_eq!(a.actor(id).committed(), b.actor(id).committed());
        assert_eq!(a.meter(id).total_mj(), b.meter(id).total_mj());
    }
}

fn run_tb(n: usize, millis: u64) -> SimNet<TbReplica> {
    run_tb_faulty(n, millis, |_| FaultMode::Honest)
}

fn run_tb_faulty(n: usize, millis: u64, faults: impl Fn(NodeId) -> FaultMode) -> SimNet<TbReplica> {
    // Star topology over the expensive medium (4G), as in §5.1; the hub
    // orders every 2Δ = 5 ms.
    let mut cfg = NetConfig::ble(star(n, HUB), 9);
    cfg.channel = ChannelCost::PerByte { medium: Medium::FourG };
    let mut config = tb_config(n, SimDuration::from_micros(2_500));
    config.payload_bytes = 64;
    let pki = Arc::new(KeyStore::generate(n, SigScheme::Rsa1024, 9));
    let nodes = build_tb_replicas(&config, &pki, faults);
    let mut net = SimNet::new(cfg, nodes);
    net.run_for(SimDuration::from_millis(millis));
    net
}

#[test]
fn trusted_baseline_orders_and_distributes() {
    let net = run_tb(6, 400);
    let hub_height = net.actor(HUB).committed_height();
    assert!(hub_height >= 3, "the hub ordered blocks, got {hub_height}");
    for id in 1..6 {
        assert!(net.actor(id).committed_height() >= hub_height - 1, "spoke {id} follows the hub");
    }
    let logs: Vec<&[Block]> = (0..6).map(|id| net.actor(id).committed()).collect();
    check_prefix_consistency(&logs).expect("trusted baseline logs diverge");
}

#[test]
fn trusted_baseline_spokes_pay_expensive_medium() {
    let net = run_tb(6, 400);
    for id in 1..6u32 {
        let send = net.meter(id).mj(EnergyCategory::Send);
        assert!(send > 0.0, "spoke {id} uploaded requests");
    }
    // The hub pays too — but harnesses exclude it from CPS totals.
    assert!(net.meter(HUB).total_mj() > 0.0);
}

#[test]
fn trusted_baseline_crashed_spoke_repairs_and_rejoins() {
    let fault = |id: NodeId| {
        if id == 3 {
            FaultMode::Crash { at_us: 50_000, restart_at_us: Some(250_000) }
        } else {
            FaultMode::Honest
        }
    };
    let net = run_tb_faulty(6, 500, fault);
    let hub_height = net.actor(HUB).committed_height();
    assert!(hub_height >= 5, "the hub kept ordering, got {hub_height}");
    let m = net.actor(3).metrics();
    assert!(m.repair_requests >= 1, "the restarted spoke asked the hub to repair");
    assert!(net.actor(HUB).metrics().repairs_served >= 1, "the hub served the repair");
    assert!(
        net.actor(3).committed_height() + 2 >= hub_height,
        "spoke 3 caught back up: {} vs hub {hub_height}",
        net.actor(3).committed_height()
    );
    let logs: Vec<&[Block]> = (0..6).map(|id| net.actor(id).committed()).collect();
    check_prefix_consistency(&logs).expect("repair forked the trusted log");
}

#[test]
fn trusted_baseline_storm_spoke_inflates_traffic_without_divergence() {
    let honest = run_tb(6, 400);
    let stormy = run_tb_faulty(6, 400, |id| {
        if id == 2 {
            FaultMode::Storm { from_view: 1, repeats: 3 }
        } else {
            FaultMode::Honest
        }
    });
    assert!(
        stormy.stats().bytes_on_air > honest.stats().bytes_on_air,
        "duplicate uploads cost real bytes on the expensive link"
    );
    let hub_height = stormy.actor(HUB).committed_height();
    assert!(hub_height >= 3, "the hub still orders under a storm");
    let logs: Vec<&[Block]> = (0..6).map(|id| stormy.actor(id).committed()).collect();
    check_prefix_consistency(&logs).expect("storm forked the trusted log");
    // The hub takes each signed upload once: the copies cost the link,
    // not the log, so no stormed block outgrows the honest run's largest.
    let largest = |net: &SimNet<TbReplica>| {
        let hub = net.actor(HUB);
        hub.committed().iter().map(|b| b.payload.len()).max()
    };
    let honest_max = largest(&honest).expect("the honest hub ordered");
    assert!(
        largest(&stormy).expect("the stormed hub ordered") <= honest_max,
        "a stormed upload was ordered more than once"
    );
}

#[test]
fn trusted_baseline_silent_spoke_does_not_stop_the_rest() {
    let net = run_tb_faulty(6, 400, |id| {
        if id == 4 {
            FaultMode::Silent { from_view: 1 }
        } else {
            FaultMode::Honest
        }
    });
    let hub_height = net.actor(HUB).committed_height();
    assert!(hub_height >= 3, "the hub orders from the remaining spokes");
    assert_eq!(net.actor(4).committed_height(), 0, "the silent spoke never commits");
    for id in 1..6u32 {
        if id == 4 {
            continue;
        }
        assert!(net.actor(id).committed_height() >= hub_height - 1, "spoke {id} follows the hub");
    }
}
