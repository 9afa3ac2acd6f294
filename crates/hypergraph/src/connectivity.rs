//! Reachability, flooding distance, and fault-tolerance bounds
//! (paper Appendix A.2).

use std::collections::{BTreeSet, VecDeque};

use crate::graph::{Hypergraph, NodeId};

impl Hypergraph {
    /// Nodes reachable from `start` by flooding, ignoring nodes in
    /// `removed` (they neither relay nor count as reached).
    pub fn reachable_from(&self, start: NodeId, removed: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        if removed.contains(&start) {
            return seen;
        }
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(p) = queue.pop_front() {
            for (_, e) in self.out_edges(p) {
                for &r in e.receivers() {
                    if !removed.contains(&r) && seen.insert(r) {
                        queue.push_back(r);
                    }
                }
            }
        }
        seen
    }

    /// Hop distance from `start` to every node (flooding rounds needed),
    /// `None` for unreachable nodes. Index = node id.
    pub fn hop_distances(&self, start: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.n()];
        let mut queue = VecDeque::new();
        dist[start as usize] = Some(0);
        queue.push_back(start);
        while let Some(p) = queue.pop_front() {
            let d = dist[p as usize].expect("queued nodes have distances");
            for (_, e) in self.out_edges(p) {
                for &r in e.receivers() {
                    if dist[r as usize].is_none() {
                        dist[r as usize] = Some(d + 1);
                        queue.push_back(r);
                    }
                }
            }
        }
        dist
    }

    /// Whether every correct node can reach every other correct node after
    /// removing `removed` (strong connectivity of the residual graph).
    pub fn is_strongly_connected_without(&self, removed: &BTreeSet<NodeId>) -> bool {
        let alive: Vec<NodeId> = (0..self.n() as NodeId).filter(|p| !removed.contains(p)).collect();
        if alive.len() <= 1 {
            return true;
        }
        // Strong connectivity needs reachability from every alive node; with
        // flooding semantics it suffices that each alive node reaches all
        // alive nodes.
        alive.iter().all(|&p| {
            let r = self.reachable_from(p, removed);
            alive.iter().all(|q| r.contains(q))
        })
    }

    /// Whether the graph is strongly connected (no removals).
    pub fn is_strongly_connected(&self) -> bool {
        self.is_strongly_connected_without(&BTreeSet::new())
    }

    /// Flooding diameter in hops: the maximum finite hop distance between
    /// any ordered pair, or `None` if some pair is unreachable.
    ///
    /// The protocol's Δ parameter for a partially connected hypergraph is
    /// `diameter × per-hop bound` (Appendix A, "Network delay").
    pub fn diameter(&self) -> Option<usize> {
        let mut max = 0;
        for p in 0..self.n() as NodeId {
            for (q, d) in self.hop_distances(p).iter().enumerate() {
                match d {
                    Some(d) => max = max.max(*d),
                    None if q != p as usize => return None,
                    None => {}
                }
            }
        }
        Some(max)
    }

    /// The necessary fault bound of Lemma A.5: tolerating `f` faults
    /// requires `f < min_p min(d_out(p), d_in(p))`. Returns the largest `f`
    /// satisfying the necessary condition.
    pub fn necessary_fault_bound(&self) -> usize {
        let m = self.min_d_out().min(self.min_d_in());
        m.saturating_sub(1)
    }

    /// The k-cast form of the bound (Lemma A.6): `f < k · min(D_in, D_out)`.
    /// Returns the largest `f` satisfying it, or 0 for edge-less graphs.
    pub fn kcast_fault_bound(&self) -> usize {
        match self.k() {
            Some(k) => (k * self.cap_d_in().min(self.cap_d_out())).saturating_sub(1),
            None => 0,
        }
    }

    /// Exhaustively checks partition resistance: for every set of at most
    /// `f` removed nodes, the residual graph stays strongly connected.
    ///
    /// Work is `C(n, f)` residual-connectivity checks; intended for the
    /// paper-scale systems (n ≤ 20). Returns `false` early on the first
    /// partitioning set found.
    pub fn is_partition_resistant(&self, f: usize) -> bool {
        if f >= self.n() {
            return false;
        }
        let n = self.n() as NodeId;
        let mut chosen: Vec<NodeId> = Vec::with_capacity(f);
        self.partition_probe(0, n, f, &mut chosen)
    }

    fn partition_probe(&self, from: NodeId, n: NodeId, f: usize, chosen: &mut Vec<NodeId>) -> bool {
        // Check the current removal set (covers "at most f" by recursion).
        let removed: BTreeSet<NodeId> = chosen.iter().copied().collect();
        if !self.is_strongly_connected_without(&removed) {
            return false;
        }
        if chosen.len() == f {
            return true;
        }
        for p in from..n {
            chosen.push(p);
            let ok = self.partition_probe(p + 1, n, f, chosen);
            chosen.pop();
            if !ok {
                return false;
            }
        }
        true
    }

    /// Finds a minimal-size partitioning set if one of size at most `f`
    /// exists (useful for diagnostics in topology design).
    pub fn find_partitioning_set(&self, f: usize) -> Option<Vec<NodeId>> {
        for size in 0..=f.min(self.n().saturating_sub(1)) {
            let mut chosen = Vec::with_capacity(size);
            if let Some(bad) = self.find_partition_of_size(0, size, &mut chosen) {
                return Some(bad);
            }
        }
        None
    }

    fn find_partition_of_size(
        &self,
        from: NodeId,
        size: usize,
        chosen: &mut Vec<NodeId>,
    ) -> Option<Vec<NodeId>> {
        if chosen.len() == size {
            let removed: BTreeSet<NodeId> = chosen.iter().copied().collect();
            if !self.is_strongly_connected_without(&removed) {
                return Some(chosen.clone());
            }
            return None;
        }
        for p in from..self.n() as NodeId {
            chosen.push(p);
            if let Some(bad) = self.find_partition_of_size(p + 1, size, chosen) {
                return Some(bad);
            }
            chosen.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn ring_is_strongly_connected() {
        let h = topology::ring_kcast(7, 2);
        assert!(h.is_strongly_connected());
    }

    #[test]
    fn reachability_respects_removals() {
        // Line 0 -> 1 -> 2: removing 1 cuts 0 from 2.
        let mut h = Hypergraph::new(3);
        h.add_edge(0, [1]).unwrap();
        h.add_edge(1, [2]).unwrap();
        let none = BTreeSet::new();
        assert!(h.reachable_from(0, &none).contains(&2));
        let removed: BTreeSet<NodeId> = [1].into_iter().collect();
        assert!(!h.reachable_from(0, &removed).contains(&2));
        // Removed start reaches nothing.
        assert!(h.reachable_from(1, &removed).is_empty());
    }

    #[test]
    fn hop_distances_on_ring() {
        let h = topology::ring_kcast(6, 1); // simple directed cycle
        let d = h.hop_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4), Some(5)]);
        assert_eq!(h.diameter(), Some(5));
    }

    #[test]
    fn diameter_shrinks_with_k() {
        // ring_kcast(n, k) has diameter ceil((n-1)/k).
        assert_eq!(topology::ring_kcast(10, 1).diameter(), Some(9));
        assert_eq!(topology::ring_kcast(10, 3).diameter(), Some(3));
        assert_eq!(topology::ring_kcast(10, 9).diameter(), Some(1));
    }

    #[test]
    fn diameter_none_when_disconnected() {
        let mut h = Hypergraph::new(3);
        h.add_edge(0, [1]).unwrap();
        assert_eq!(h.diameter(), None);
    }

    #[test]
    fn fault_bounds_on_ring() {
        // ring_kcast(n, k): every node has d_in = d_out = k.
        let h = topology::ring_kcast(9, 3);
        assert_eq!(h.necessary_fault_bound(), 2);
        // One out k-cast, k in-casts: min(D_in, D_out) = 1, bound = k-1.
        assert_eq!(h.kcast_fault_bound(), 2);
    }

    #[test]
    fn lemma_a6_reduces_to_unicast_case() {
        // With k=1 the bound must match the classic directed-graph result
        // f < min(d_i, d_o).
        let h = topology::ring_kcast(8, 1);
        assert_eq!(h.kcast_fault_bound(), 0);
        assert_eq!(h.necessary_fault_bound(), 0);
    }

    #[test]
    fn partition_resistance_matches_bound_on_rings() {
        // ring k=2 over 7 nodes tolerates 1 removal but not 2 adjacent ones.
        let h = topology::ring_kcast(7, 2);
        assert!(h.is_partition_resistant(1));
        assert!(!h.is_partition_resistant(2));
        let bad = h.find_partitioning_set(2).expect("2 adjacent removals partition");
        assert_eq!(bad.len(), 2);
    }

    #[test]
    fn complete_graph_resists_up_to_n_minus_2() {
        let h = topology::complete(5);
        assert!(h.is_partition_resistant(3));
        assert!(!h.is_partition_resistant(5)); // f >= n is nonsense
    }

    #[test]
    fn find_partitioning_set_none_when_safe() {
        let h = topology::complete(4);
        assert_eq!(h.find_partitioning_set(2), None);
    }
}
