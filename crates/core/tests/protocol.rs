//! End-to-end protocol tests: EESMR replicas over the simulated network.
//!
//! These exercise the claims of Appendix B — safety (no two correct nodes
//! commit different blocks at a height), liveness (commits continue across
//! view changes), and the behaviour of the §3.5/§5.6 optimizations.

use std::sync::Arc;

use eesmr_core::{build_replicas, Block, Config, FaultMode, Pacing, Replica};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::{NetConfig, SimDuration, SimNet, SimTime};

struct Setup {
    n: usize,
    k: usize,
    seed: u64,
    tweak: fn(&mut Config),
    faults: fn(eesmr_net::NodeId) -> FaultMode,
}

impl Default for Setup {
    fn default() -> Self {
        Setup { n: 5, k: 2, seed: 7, tweak: |_| {}, faults: |_| FaultMode::Honest }
    }
}

fn run(setup: Setup, millis: u64) -> SimNet<Replica> {
    let net_cfg = NetConfig::ble(ring_kcast(setup.n, setup.k), setup.seed);
    let mut config = Config::new(setup.n, net_cfg.delta());
    (setup.tweak)(&mut config);
    let pki = Arc::new(KeyStore::generate(setup.n, SigScheme::Rsa1024, setup.seed));
    let replicas = build_replicas(&config, &pki, setup.faults);
    let mut net = SimNet::new(net_cfg, replicas);
    net.run_for(SimDuration::from_millis(millis));
    net
}

/// Safety: committed logs of correct nodes are prefixes of one another.
fn assert_log_consistency(net: &SimNet<Replica>, correct: impl Iterator<Item = u32>) {
    let logs: Vec<(u32, &[Block])> = correct.map(|id| (id, net.actor(id).committed())).collect();
    for (i, (id_a, a)) in logs.iter().enumerate() {
        for (id_b, b) in logs.iter().skip(i + 1) {
            let common = a.len().min(b.len());
            assert_eq!(
                &a[..common],
                &b[..common],
                "logs of {id_a} and {id_b} diverge within their common prefix"
            );
        }
    }
}

#[test]
fn honest_run_commits_and_agrees() {
    let net = run(Setup::default(), 300);
    for id in 0..5 {
        assert!(
            net.actor(id).committed_height() >= 5,
            "node {id} should have committed several blocks, got {}",
            net.actor(id).committed_height()
        );
        assert_eq!(net.actor(id).metrics().view_changes, 0, "no view change in honest runs");
    }
    assert_log_consistency(&net, 0..5);
}

#[test]
fn committed_blocks_form_a_chain() {
    let net = run(Setup::default(), 200);
    let r = net.actor(0);
    let log = r.committed();
    assert!(!log.is_empty());
    let mut prev_height = 0;
    for b in log {
        assert_eq!(r.block(&b.id()), Some(b), "committed blocks are stored");
        assert_eq!(b.height, prev_height + 1, "heights are consecutive");
        prev_height = b.height;
    }
}

#[test]
fn silent_leader_triggers_view_change_and_recovery() {
    // Node 0 leads view 1 but is silent from the start: the others blame,
    // change the view, and commit under leader 1.
    let net = run(
        Setup {
            faults: |id| {
                if id == 0 {
                    FaultMode::Silent { from_view: 1 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        1_000,
    );
    for id in 1..5 {
        let r = net.actor(id);
        assert!(r.current_view() >= 2, "node {id} must have left view 1");
        assert!(r.metrics().view_changes >= 1);
        assert!(r.committed_height() >= 1, "commits resume after the view change");
    }
    assert_log_consistency(&net, 1..5);
}

#[test]
fn equivocating_leader_is_evicted_without_conflicting_commits() {
    let net = run(
        Setup {
            faults: |id| {
                if id == 0 {
                    FaultMode::Equivocate { in_view: 1 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        1_000,
    );
    for id in 1..5 {
        let r = net.actor(id);
        assert!(r.current_view() >= 2, "node {id} must have changed views");
        assert!(
            r.metrics().equivocations_detected >= 1 || r.metrics().view_changes >= 1,
            "node {id} should have seen the equivocation or at least the view change"
        );
    }
    assert_log_consistency(&net, 1..5);
}

#[test]
fn equivocation_speedup_still_recovers() {
    let net = run(
        Setup {
            tweak: |c| c.opt_equivocation_speedup = true,
            faults: |id| {
                if id == 0 {
                    FaultMode::Equivocate { in_view: 1 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        1_000,
    );
    for id in 1..5 {
        assert!(net.actor(id).current_view() >= 2, "node {id}");
        assert!(net.actor(id).committed_height() >= 1, "node {id} commits in the new view");
    }
    assert_log_consistency(&net, 1..5);
}

#[test]
fn lock_only_status_view_change_works() {
    let net = run(
        Setup {
            tweak: |c| c.opt_lock_only_status = true,
            faults: |id| {
                if id == 0 {
                    FaultMode::Silent { from_view: 1 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        1_000,
    );
    for id in 1..5 {
        assert!(net.actor(id).current_view() >= 2, "node {id}");
        assert!(net.actor(id).committed_height() >= 1, "node {id}");
    }
    assert_log_consistency(&net, 1..5);
}

#[test]
fn crash_only_variant_handles_crash_faults() {
    let net = run(
        Setup {
            tweak: |c| c.crash_only = true,
            faults: |id| {
                if id == 0 {
                    FaultMode::Silent { from_view: 1 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        1_000,
    );
    for id in 1..5 {
        assert!(net.actor(id).current_view() >= 2, "node {id}");
        assert!(net.actor(id).committed_height() >= 1, "node {id}");
    }
    assert_log_consistency(&net, 1..5);
}

#[test]
fn consecutive_faulty_leaders_are_skipped() {
    // Leaders of views 1 and 2 are both silent: two view changes needed.
    let net = run(
        Setup {
            n: 7,
            k: 3,
            faults: |id| match id {
                0 => FaultMode::Silent { from_view: 1 },
                1 => FaultMode::Silent { from_view: 1 },
                _ => FaultMode::Honest,
            },
            ..Setup::default()
        },
        3_000,
    );
    for id in 2..7 {
        let r = net.actor(id);
        assert!(r.current_view() >= 3, "node {id} must reach view 3, at {}", r.current_view());
        assert!(r.committed_height() >= 1, "node {id} commits under leader 2");
    }
    assert_log_consistency(&net, 2..7);
}

#[test]
fn f_silent_followers_do_not_stop_progress() {
    // n = 7 tolerates f = 3; two silent non-leader followers.
    let net = run(
        Setup {
            n: 7,
            k: 3,
            faults: |id| match id {
                5 | 6 => FaultMode::Silent { from_view: 1 },
                _ => FaultMode::Honest,
            },
            ..Setup::default()
        },
        500,
    );
    for id in 0..5 {
        assert!(
            net.actor(id).committed_height() >= 3,
            "node {id} commits despite silent followers"
        );
        assert_eq!(net.actor(id).metrics().view_changes, 0);
    }
    assert_log_consistency(&net, 0..5);
}

#[test]
fn streaming_pacing_commits_faster_than_blocking() {
    let blocking = run(Setup::default(), 400);
    let streaming = run(Setup { tweak: |c| c.pacing = Pacing::Streaming, ..Setup::default() }, 400);
    let h_blocking = blocking.actor(0).committed_height();
    let h_streaming = streaming.actor(0).committed_height();
    assert!(
        h_streaming > h_blocking,
        "streaming ({h_streaming}) should outpace blocking ({h_blocking})"
    );
}

#[test]
fn deterministic_replay_same_seed() {
    let a = run(Setup::default(), 300);
    let b = run(Setup::default(), 300);
    for id in 0..5 {
        assert_eq!(a.actor(id).committed(), b.actor(id).committed());
        assert_eq!(a.meter(id).total_mj(), b.meter(id).total_mj());
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn steady_state_energy_is_dominated_by_one_signer() {
    // §3.3: O(1) signing per block for the whole system — only the leader
    // signs in the steady state.
    let net = run(Setup::default(), 300);
    let leader_signs = net.meter(0).count(eesmr_energy::EnergyCategory::Sign);
    for id in 1..5u32 {
        let signs = net.meter(id).count(eesmr_energy::EnergyCategory::Sign);
        assert!(signs <= 1, "non-leader {id} should not sign in the steady state, signed {signs}");
    }
    assert!(leader_signs >= 5, "the leader signs once per proposal");
}

#[test]
fn commit_latency_is_about_four_delta() {
    let net = run(Setup::default(), 400);
    let delta = net.config().delta();
    let r = net.actor(3);
    let mean = r.metrics().mean_commit_latency().expect("blocks were committed");
    assert!(
        mean >= delta * 4 && mean.as_micros() <= delta.as_micros() * 5,
        "commit latency {mean} should be ≈4Δ (Δ = {delta})"
    );
}

#[test]
fn logs_survive_longer_runs_with_rotating_faults() {
    // A stress mix: silent node 2 from view 3 onwards.
    let net = run(
        Setup {
            n: 6,
            k: 2,
            faults: |id| {
                if id == 2 {
                    FaultMode::Silent { from_view: 3 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        4_000,
    );
    let correct = (0..6u32).filter(|&id| id != 2);
    assert_log_consistency(&net, correct.clone());
    for id in correct {
        assert!(net.actor(id).committed_height() >= 2, "node {id}");
    }
    let _ = SimTime::ZERO; // keep the import exercised
}

#[test]
fn withholding_follower_neither_stalls_nor_forks() {
    // EESMR's implicit vote is the relay: a withholding follower keeps
    // processing and committing but never relays. With one withholder the
    // flood still saturates, so the others are unaffected.
    let net = run(
        Setup {
            faults: |id| {
                if id == 3 {
                    FaultMode::Withhold { from_view: 1 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        500,
    );
    assert_eq!(net.actor(3).metrics().proposals_relayed, 0, "withholder never relays");
    assert!(net.actor(3).committed_height() >= 3, "withholder still commits locally");
    for id in 0..5 {
        assert!(net.actor(id).committed_height() >= 3, "node {id}");
        assert_eq!(net.actor(id).metrics().view_changes, 0);
    }
    assert_log_consistency(&net, 0..5);
}

#[test]
fn storming_follower_inflates_traffic_without_breaking_safety() {
    let honest = run(Setup::default(), 400);
    let stormy = run(
        Setup {
            faults: |id| {
                if id == 4 {
                    FaultMode::Storm { from_view: 1, repeats: 4 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        400,
    );
    assert!(
        stormy.stats().bytes_on_air > honest.stats().bytes_on_air,
        "storm duplicates must show up on the air: {} vs {}",
        stormy.stats().bytes_on_air,
        honest.stats().bytes_on_air
    );
    for id in 0..5 {
        assert!(stormy.actor(id).committed_height() >= 3, "node {id} commits despite the storm");
    }
    assert_log_consistency(&stormy, 0..5);
}

#[test]
fn crashed_follower_repairs_and_commits_after_restart() {
    // Node 2 goes dark at 50 ms and restarts at 200 ms: on restart it
    // floods a Repair, peers serve the committed suffix, and it rejoins
    // steady state — by the end its log has caught back up.
    let net = run(
        Setup {
            faults: |id| {
                if id == 2 {
                    FaultMode::Crash { at_us: 50_000, restart_at_us: Some(200_000) }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        500,
    );
    let recovered = net.actor(2);
    assert_eq!(recovered.metrics().repair_requests, 1, "exactly one repair per restart");
    let served: u64 = (0..5).map(|id| net.actor(id).metrics().repairs_served).sum();
    assert!(served >= 1, "at least one peer served the repair");
    let reference = net.actor(0).committed_height();
    assert!(reference >= 10, "the healthy majority kept committing, got {reference}");
    assert!(
        recovered.committed_height() + 5 >= reference,
        "recovered node must catch up: {} vs {reference}",
        recovered.committed_height()
    );
    assert_log_consistency(&net, 0..5);
}

#[test]
fn permanently_crashed_follower_does_not_stop_progress() {
    let net = run(
        Setup {
            faults: |id| {
                if id == 4 {
                    FaultMode::Crash { at_us: 30_000, restart_at_us: None }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        500,
    );
    for id in 0..4 {
        assert!(net.actor(id).committed_height() >= 5, "node {id}");
    }
    assert_log_consistency(&net, 0..4);
}

#[test]
fn checkpoint_variant_commits_and_saves_verifications() {
    let plain = run(Setup::default(), 400);
    let checkpointed =
        run(Setup { tweak: |c| c.checkpoint_interval = Some(8), ..Setup::default() }, 400);
    // Same liveness and safety...
    assert!(checkpointed.actor(0).committed_height() >= 5);
    assert_log_consistency(&checkpointed, 0..5);
    // ...with strictly fewer signature verifications at the replicas.
    let verifies =
        |net: &SimNet<Replica>, id: u32| net.meter(id).count(eesmr_energy::EnergyCategory::Verify);
    assert!(
        verifies(&checkpointed, 3) < verifies(&plain, 3),
        "checkpointing should cut verification work: {} vs {}",
        verifies(&checkpointed, 3),
        verifies(&plain, 3)
    );
}

#[test]
fn checkpoint_variant_still_catches_equivocation() {
    // Equivocating proposals differ in content, so the duplicate check
    // still trips and the proof (which IS verified) evicts the leader.
    let net = run(
        Setup {
            tweak: |c| c.checkpoint_interval = Some(8),
            faults: |id| {
                if id == 0 {
                    FaultMode::Equivocate { in_view: 1 }
                } else {
                    FaultMode::Honest
                }
            },
            ..Setup::default()
        },
        1_500,
    );
    for id in 1..5 {
        assert!(net.actor(id).current_view() >= 2, "node {id}");
        assert!(net.actor(id).committed_height() >= 1, "node {id}");
    }
    assert_log_consistency(&net, 1..5);
}
