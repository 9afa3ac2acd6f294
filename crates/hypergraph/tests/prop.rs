//! Property tests for the hypergraph model.

use eesmr_hypergraph::topology::{complete, random_kcast, ring_kcast};
use eesmr_hypergraph::{EdgeId, Hypergraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// make_independent never loses coverage and is idempotent.
    #[test]
    fn make_independent_preserves_coverage(n in 4usize..12, k_raw in 1usize..6,
                                           d_out in 1usize..4, seed in 0u64..500) {
        let k = 1 + k_raw % (n - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_kcast(n, k, d_out, &mut rng);
        // Coverage per node before/after is preserved by construction
        // (random_kcast already calls make_independent) — re-running must
        // be a no-op.
        let mut again = h.clone();
        again.make_independent();
        prop_assert_eq!(h.edges().len(), again.edges().len(), "idempotent");
        prop_assert!(h.is_independent());
    }

    /// The per-sender index answers `out_edges` exactly as a scan of the
    /// edge list would — same edges, same (edge-id) order — through every
    /// mutation, and stays a pure function of the edge list: a graph
    /// rebuilt from the surviving edges is `==` to the mutated one.
    #[test]
    fn out_edges_match_a_scan_of_the_edge_list(n in 2usize..12, prune: bool,
                                               raw in prop::collection::vec(any::<u64>(), 0..40)) {
        let mut h = Hypergraph::new(n);
        for word in raw {
            // Low byte: the sender; the next `n` bits: the receiver set.
            let sender = (word & 0xff) as u32 % n as u32;
            let receivers = (0..n as u32).filter(|&r| r != sender && (word >> (8 + r)) & 1 == 1);
            let _ = h.add_edge(sender, receivers); // an empty set is refused
        }
        if prune {
            h.make_independent();
        }
        for p in 0..n as u32 + 2 {
            let scanned: Vec<EdgeId> = h
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| e.sender() == p)
                .map(|(i, _)| EdgeId(i))
                .collect();
            let indexed: Vec<EdgeId> = h.out_edges(p).map(|(id, _)| id).collect();
            prop_assert_eq!(&indexed, &scanned, "node {}", p);
            for (id, e) in h.out_edges(p) {
                prop_assert!(std::ptr::eq(e, h.edge(id)), "edge {:?} of node {}", id, p);
            }
        }
        let mut rebuilt = Hypergraph::new(n);
        for e in h.edges() {
            rebuilt.add_edge(e.sender(), e.receivers().iter().copied()).unwrap();
        }
        prop_assert_eq!(&rebuilt, &h);
        prop_assert_eq!(&h.clone(), &h);
    }

    /// hop_distances and reachable_from agree.
    #[test]
    fn distances_agree_with_reachability(n in 3usize..12, k_raw in 1usize..6, start in 0u32..12) {
        let k = 1 + k_raw % (n - 1);
        let h = ring_kcast(n, k);
        let start = start % n as u32;
        let reach = h.reachable_from(start, &BTreeSet::new());
        let dist = h.hop_distances(start);
        for p in 0..n as u32 {
            prop_assert_eq!(reach.contains(&p), dist[p as usize].is_some(), "node {}", p);
        }
    }

    /// Degrees never exceed n−1 and Lemma A.6 never exceeds Lemma A.5's
    /// distinct-node form.
    #[test]
    fn degree_bounds(n in 3usize..12, k_raw in 1usize..6, d_out in 1usize..4, seed in 0u64..500) {
        let k = 1 + k_raw % (n - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = random_kcast(n, k, d_out, &mut rng);
        for p in 0..n as u32 {
            prop_assert!(h.d_out(p) < n);
            prop_assert!(h.d_in(p) < n);
        }
        prop_assert!(h.necessary_fault_bound() <= n - 2);
    }

    /// The complete multicast topology is maximally fault tolerant.
    #[test]
    fn complete_tolerates_all_minorities(n in 3usize..8) {
        let h = complete(n);
        prop_assert_eq!(h.necessary_fault_bound(), n - 2);
        prop_assert!(h.is_partition_resistant(n - 2));
    }
}
