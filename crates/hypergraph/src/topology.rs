//! Topology builders used by the paper's experiments.

use crate::graph::{Hypergraph, NodeId};

/// The paper's testbed topology (§5.6): node `p_i` transmits one k-cast to
/// `p_{i+1 mod n}, …, p_{i+k mod n}`, so every node has `D_out = 1`
/// outgoing k-cast and `D_in = k` incoming links.
///
/// # Panics
///
/// Panics if `k == 0` or `k >= n`.
pub fn ring_kcast(n: usize, k: usize) -> Hypergraph {
    assert!(k > 0, "k-cast degree must be positive");
    assert!(k < n, "k must leave at least one non-receiver (no self-loops)");
    let mut h = Hypergraph::new(n);
    for i in 0..n {
        let receivers: Vec<NodeId> = (1..=k).map(|j| ((i + j) % n) as NodeId).collect();
        h.add_edge(i as NodeId, receivers).expect("ring edges are valid by construction");
    }
    h
}

/// Star topology: every node exchanges unicasts with a `center` — the
/// trusted-baseline communication pattern (§5.1).
///
/// # Panics
///
/// Panics if `center` is out of range or `n < 2`.
pub fn star(n: usize, center: NodeId) -> Hypergraph {
    assert!(n >= 2, "star topology needs at least two nodes");
    assert!((center as usize) < n, "center must be a node");
    let mut h = Hypergraph::new(n);
    let spokes: Vec<NodeId> = (0..n as NodeId).filter(|&p| p != center).collect();
    h.add_edge(center, spokes.iter().copied()).expect("hub edge is valid");
    for p in spokes {
        h.add_edge(p, [center]).expect("spoke edges are valid");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_kcast_shape_matches_paper() {
        let h = ring_kcast(10, 3);
        assert_eq!(h.n(), 10);
        assert_eq!(h.edges().len(), 10);
        assert_eq!(h.k(), Some(3));
        for p in 0..10 {
            assert_eq!(h.out_edges(p).count(), 1, "D_out = 1");
            assert_eq!(h.in_edges(p).count(), 3, "D_in = k");
            assert_eq!(h.d_out(p), 3);
            assert_eq!(h.d_in(p), 3);
        }
    }

    #[test]
    fn ring_wraps_around() {
        let h = ring_kcast(5, 2);
        let e = h.out_edges(4).next().unwrap();
        let rs: Vec<_> = e.receivers().iter().copied().collect();
        assert_eq!(rs, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "k must leave")]
    fn ring_rejects_k_equal_n() {
        let _ = ring_kcast(4, 4);
    }

    #[test]
    fn star_routes_through_center() {
        let h = star(5, 0);
        assert!(h.is_strongly_connected());
        // Spoke to spoke is two hops, via the center.
        assert_eq!(h.diameter(), Some(2));
        // Removing the center partitions the spokes.
        assert!(!h.is_strongly_connected_without(&[0].into_iter().collect()));
    }
}
