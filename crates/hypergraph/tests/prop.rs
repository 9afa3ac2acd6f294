//! Property tests for the hypergraph model.

use eesmr_hypergraph::{HyperEdge, Hypergraph};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Builds an `n`-node graph with one edge per word. Low byte: the sender;
/// the next `n` bits: the receiver set (an empty set is refused).
fn from_words(n: usize, words: &[u64]) -> Hypergraph {
    let mut h = Hypergraph::new(n);
    for &word in words {
        let sender = (word & 0xff) as u32 % n as u32;
        let receivers = (0..n as u32).filter(|&r| r != sender && (word >> (8 + r)) & 1 == 1);
        let _ = h.add_edge(sender, receivers);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-sender index answers `out_edges` exactly as a scan of the
    /// edge list would — the same edges, in the order they were added —
    /// and stays a pure function of the edge list: a graph rebuilt from
    /// its edges is `==` to it.
    #[test]
    fn out_edges_match_a_scan_of_the_edge_list(n in 2usize..12,
                                               raw in prop::collection::vec(any::<u64>(), 0..40)) {
        let h = from_words(n, &raw);
        for p in 0..n as u32 + 2 {
            let scanned: Vec<*const HyperEdge> =
                h.edges().iter().filter(|e| e.sender() == p).map(|e| e as *const _).collect();
            let indexed: Vec<*const HyperEdge> = h.out_edges(p).map(|e| e as *const _).collect();
            prop_assert_eq!(&indexed, &scanned, "node {}", p);
        }
        let mut rebuilt = Hypergraph::new(n);
        for e in h.edges() {
            rebuilt.add_edge(e.sender(), e.receivers().iter().copied()).unwrap();
        }
        prop_assert_eq!(&rebuilt, &h);
        prop_assert_eq!(&h.clone(), &h);
    }

    /// Every hop distance is finite exactly when every node reaches every
    /// other: the diameter exists iff the graph is strongly connected.
    #[test]
    fn distances_agree_with_reachability(n in 2usize..12,
                                         raw in prop::collection::vec(any::<u64>(), 0..40)) {
        let h = from_words(n, &raw);
        prop_assert_eq!(h.diameter().is_some(), h.is_strongly_connected_without(&BTreeSet::new()));
    }

    /// Degrees never exceed n−1, so Lemma A.5's bound never exceeds n−2.
    #[test]
    fn degree_bounds(n in 3usize..12, raw in prop::collection::vec(any::<u64>(), 0..40)) {
        let h = from_words(n, &raw);
        for p in 0..n as u32 {
            prop_assert!(h.d_out(p) < n);
            prop_assert!(h.d_in(p) < n);
        }
        prop_assert!(h.necessary_fault_bound() <= n - 2);
    }

    /// The complete multicast topology (one (n−1)-cast per node) is
    /// maximally fault tolerant: Lemma A.5 allows n−2 faults, and no
    /// removal of at most n−2 nodes disconnects the rest.
    #[test]
    fn complete_tolerates_all_minorities(n in 3usize..8) {
        let mut h = Hypergraph::new(n);
        for p in 0..n as u32 {
            h.add_edge(p, (0..n as u32).filter(|&q| q != p)).unwrap();
        }
        prop_assert_eq!(h.necessary_fault_bound(), n - 2);
        for set in (0u32..1 << n).filter(|set| set.count_ones() as usize <= n - 2) {
            let removed: BTreeSet<u32> = (0..n as u32).filter(|p| set >> p & 1 == 1).collect();
            prop_assert!(h.is_strongly_connected_without(&removed), "removed {:?}", removed);
        }
    }
}
