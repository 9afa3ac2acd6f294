//! Property-based tests over the repository's core invariants.

use eesmr_core::{Block, BlockStore, Command, Lineage};
use eesmr_crypto::{Digest, KeyStore, SigScheme};
use eesmr_energy::psi::break_even_nu;
use eesmr_energy::{BleKcastModel, Medium};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_sim::{FaultPlan, Protocol, Scenario, StopWhen};
use eesmr_trace::audit::{audit, AuditConfig};
use eesmr_trace::TraceLevel;
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Chain store invariants.
// ---------------------------------------------------------------------

/// Builds a chain of `len` blocks plus an optional fork at `fork_at`.
fn build_chain(len: usize, fork_at: Option<usize>) -> (BlockStore, Vec<Digest>, Option<Digest>) {
    let mut store = BlockStore::new();
    let mut ids = vec![store.genesis_id()];
    for i in 0..len {
        let parent = store.get(ids.last().unwrap()).unwrap().clone();
        let b = Block::extending(&parent, 1, 3 + i as u64, vec![Command::synthetic(i as u64, 8)]);
        ids.push(store.insert(b));
    }
    let fork = fork_at.and_then(|at| {
        if at >= ids.len() {
            return None;
        }
        let base = store.get(&ids[at]).unwrap().clone();
        let b = Block::extending(&base, 9, 99, vec![Command::synthetic(u64::MAX, 8)]);
        Some(store.insert(b))
    });
    (store, ids, fork)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extends_is_transitive_along_chains(len in 2usize..20, a in 0usize..20, b in 0usize..20, c in 0usize..20) {
        let (store, ids, _) = build_chain(len, None);
        let (a, b, c) = (a % ids.len(), b % ids.len(), c % ids.len());
        if store.extends(&ids[a], &ids[b]) && store.extends(&ids[b], &ids[c]) {
            prop_assert!(store.extends(&ids[a], &ids[c]));
        }
    }

    #[test]
    fn chain_order_matches_height_order(len in 1usize..20, x in 0usize..20, y in 0usize..20) {
        let (store, ids, _) = build_chain(len, None);
        let (x, y) = (x % ids.len(), y % ids.len());
        prop_assert_eq!(store.extends(&ids[x], &ids[y]), x >= y);
    }

    #[test]
    fn forks_are_detected(len in 2usize..15, at in 0usize..13) {
        let (store, ids, fork) = build_chain(len, Some(at % len));
        if let Some(fork) = fork {
            let tip = *ids.last().unwrap();
            if fork != tip {
                prop_assert_eq!(store.lineage(&fork, &tip), Lineage::Fork);
            }
        }
    }

    #[test]
    fn segment_reconstructs_the_chain(len in 1usize..20, from in 0usize..20, to in 0usize..20) {
        let (store, ids, _) = build_chain(len, None);
        let (from, to) = (from % ids.len(), to % ids.len());
        let seg = store.segment(&ids[from], &ids[to]);
        if from <= to {
            let seg = seg.expect("forward segments exist");
            prop_assert_eq!(seg.len(), to - from);
            prop_assert_eq!(seg.as_slice(), &ids[from + 1..=to]);
        } else {
            prop_assert!(seg.is_none());
        }
    }
}

// ---------------------------------------------------------------------
// Crypto invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn signatures_never_cross_verify(msg1 in prop::collection::vec(any::<u8>(), 0..64),
                                     msg2 in prop::collection::vec(any::<u8>(), 0..64),
                                     signer in 0u32..4, other in 0u32..4) {
        let pki = KeyStore::generate(4, SigScheme::Rsa1024, 5);
        let sig = pki.keypair(signer).sign(&msg1);
        prop_assert!(pki.verify(&msg1, &sig));
        if msg1 != msg2 {
            prop_assert!(!pki.verify(&msg2, &sig));
        }
        if signer != other {
            prop_assert!(!sig.verify(&msg1, pki.public_key(other).unwrap()));
        }
    }

    #[test]
    fn digests_are_deterministic_and_injective_in_practice(
        a in prop::collection::vec(any::<u8>(), 0..128),
        b in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        prop_assert_eq!(Digest::of(&a), Digest::of(&a));
        if a != b {
            prop_assert_ne!(Digest::of(&a), Digest::of(&b));
        }
    }
}

// ---------------------------------------------------------------------
// Hypergraph invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_kcast_structure(n in 3usize..20, k_raw in 1usize..19) {
        let k = 1 + k_raw % (n - 1);
        let h = ring_kcast(n, k);
        prop_assert_eq!(h.k(), Some(k));
        prop_assert!(h.is_strongly_connected());
        prop_assert_eq!(h.diameter(), Some((n - 1).div_ceil(k)));
        prop_assert_eq!(h.necessary_fault_bound(), k - 1);
        for p in 0..n as u32 {
            prop_assert_eq!(h.d_in(p), k);
            prop_assert_eq!(h.d_out(p), k);
        }
    }

    #[test]
    fn partition_resistance_never_exceeds_the_necessary_bound(n in 4usize..10, k_raw in 1usize..9,
                                                              at in 0usize..10) {
        // Lemma A.5 is tight on the ring: removing the k successors of any
        // node cuts it off from the rest, so no ring resists k faults —
        // as long as a node survives on the far side of the cut (k < n−1).
        let k = 1 + k_raw % (n - 2);
        let h = ring_kcast(n, k);
        prop_assert_eq!(h.necessary_fault_bound(), k - 1);
        let removed: BTreeSet<u32> = (1..=k).map(|j| ((at + j) % n) as u32).collect();
        prop_assert!(!h.is_strongly_connected_without(&removed), "removed {:?}", removed);
    }
}

// ---------------------------------------------------------------------
// Energy model invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn media_costs_are_monotone(bytes in 1usize..4096, extra in 1usize..1024) {
        for m in Medium::ALL {
            prop_assert!(m.send_mj(bytes + extra) >= m.send_mj(bytes));
            prop_assert!(m.recv_mj(bytes + extra) >= m.recv_mj(bytes));
        }
    }

    #[test]
    fn kcast_failure_monotone(k in 1usize..10, r in 1u32..9) {
        let model = BleKcastModel::default();
        // More receivers -> more ways to fail; more redundancy -> fewer.
        prop_assert!(model.fragment_failure_prob(k + 1, r) >= model.fragment_failure_prob(k, r));
        prop_assert!(model.fragment_failure_prob(k, r + 1) <= model.fragment_failure_prob(k, r));
        let p = model.fragment_failure_prob(k, r);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn redundancy_for_meets_its_target(k in 1usize..10, nines in 1u32..6) {
        let model = BleKcastModel::default();
        let target = 1.0 - 0.1f64.powi(nines as i32);
        let r = model.redundancy_for(k, target);
        prop_assert!(model.fragment_failure_prob(k, r) <= 1.0 - target + 1e-12);
        if r > 1 {
            prop_assert!(model.fragment_failure_prob(k, r - 1) > 1.0 - target);
        }
    }

    #[test]
    fn break_even_nu_is_a_valid_fraction(a in 0.0f64..1e6, b in 0.0f64..1e6,
                                         c in 0.0f64..1e6, d in 0.0f64..1e6) {
        if let Some(nu) = break_even_nu(a, b, c, d) {
            prop_assert!((0.0..=1.0).contains(&nu));
        }
    }
}

// ---------------------------------------------------------------------
// Whole-protocol properties (fewer cases — each runs a simulation).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn eesmr_is_deterministic_per_seed(seed in 0u64..1000) {
        let run = || {
            Scenario::new(Protocol::Eesmr, 5, 2)
                .seed(seed)
                .stop(StopWhen::Blocks(4))
                .run()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.total_correct_energy_mj(), b.total_correct_energy_mj());
        prop_assert_eq!(a.committed_height(), b.committed_height());
        prop_assert_eq!(a.net, b.net);
    }

    #[test]
    fn eesmr_survives_random_single_faults(seed in 0u64..1000, faulty in 0u32..5, equivocate: bool) {
        let plan = if equivocate {
            FaultPlan::none().with_equivocator(faulty, 1)
        } else {
            FaultPlan::none().with_silent(faulty, 1)
        };
        let report = Scenario::new(Protocol::Eesmr, 5, 2)
            .seed(seed)
            .faults(plan)
            .stop(StopWhen::Blocks(2))
            .run();
        prop_assert!(report.committed_height() >= 2, "stuck: {}", report.summary());
    }
}

// ---------------------------------------------------------------------
// Trace-audited adversarial properties (fewer cases — each case runs a
// whole simulation and replays its merged trace through the auditor).
// ---------------------------------------------------------------------

const AUDITED_PROTOCOLS: [Protocol; 4] =
    [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under any node-fault mix that respects the tolerance threshold
    /// (at most 2 faulty of n = 7 at k = 3), every protocol's traced run
    /// must audit safety-clean: no two nodes commit different blocks at
    /// the same height, and no node's committed height ever rewinds.
    #[test]
    fn random_fault_plans_audit_safety_clean(
        seed in 0u64..1000,
        proto_ix in 0usize..4,
        behaviors in prop::collection::vec(0usize..5, 1..3),
        restart_scale in 2u64..8,
    ) {
        let protocol = AUDITED_PROTOCOLS[proto_ix];
        // Afflict trailing nodes (6, then 5) so the view-1 leader stays
        // honest and the faulty count stays inside every threshold.
        let mut plan = FaultPlan::none();
        for (i, b) in behaviors.iter().enumerate() {
            let node = (6 - i) as u32;
            plan = match b {
                0 => plan.with_silent(node, 1),
                1 => plan.with_withholder(node, 1),
                2 => plan.with_storm(node, 1, 2),
                3 => plan.with_crash(node, 5_000, Some(5_000 * restart_scale)),
                _ => plan.with_crash(node, 5_000, None),
            };
        }
        let (report, traces) = Scenario::new(protocol, 7, 3)
            .seed(seed)
            .faults(plan)
            .stop(StopWhen::Blocks(3))
            .trace(TraceLevel::Commit)
            .run_traced();
        let verdict = audit(&traces, &AuditConfig::safety_only());
        prop_assert!(verdict.is_clean(), "{}: {:?}", report.summary(), verdict.violations);
        prop_assert!(verdict.commits > 0, "nobody committed: {}", report.summary());
    }

    /// Random link-level schedules — a healing partition plus a lossy
    /// egress window on the islanded node — never threaten safety on any
    /// protocol: the runtime drops or delays messages, it never forges
    /// them, so committed logs still agree.
    #[test]
    fn random_link_schedules_audit_safety_clean(
        seed in 0u64..1000,
        proto_ix in 0usize..4,
        island in 1u32..7,
        start_ms in 0u64..30,
        len_ms in 1u64..40,
        permille in 0u16..1001,
    ) {
        let protocol = AUDITED_PROTOCOLS[proto_ix];
        let start_us = start_ms * 1_000;
        let plan = FaultPlan::none()
            .with_partition(start_us, start_us + len_ms * 1_000, [island])
            .with_drop(island, None, permille, 0, start_us);
        let (report, traces) = Scenario::new(protocol, 7, 3)
            .seed(seed)
            .faults(plan)
            .stop(StopWhen::Blocks(3))
            .trace(TraceLevel::Commit)
            .run_traced();
        let verdict = audit(&traces, &AuditConfig::safety_only());
        prop_assert!(verdict.is_clean(), "{}: {:?}", report.summary(), verdict.violations);
        prop_assert!(verdict.commits > 0, "nobody committed: {}", report.summary());
    }
}
