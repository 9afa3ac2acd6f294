//! Reachability, flooding distance, and the necessary fault bound
//! (paper Appendix A.2).

use std::collections::{BTreeSet, VecDeque};

use crate::graph::{Hypergraph, NodeId};

impl Hypergraph {
    /// Nodes reachable from `start` by flooding, ignoring nodes in
    /// `removed` (they neither relay nor count as reached).
    fn reachable_from(&self, start: NodeId, removed: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        if removed.contains(&start) {
            return seen;
        }
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(p) = queue.pop_front() {
            for e in self.out_edges(p) {
                for &r in e.receivers() {
                    if !removed.contains(&r) && seen.insert(r) {
                        queue.push_back(r);
                    }
                }
            }
        }
        seen
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
    ///
    /// Runs every source at once over per-node bitsets: after round `d`,
    /// row `p` holds the nodes within `d` hops of `p`, the union of its
    /// out-neighbours' rows from round `d - 1`. The rounds stop when no
    /// row grows; the diameter is their count if every row is then full.
    pub fn diameter(&self) -> Option<usize> {
        let n = self.n();
        let words = n.div_ceil(64);
        // Out-neighbours, flattened: node `p`'s are `targets[ends[p]..ends[p + 1]]`.
        let mut ends = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.edges().iter().map(|e| e.k()).sum());
        ends.push(0);
        for p in 0..n as NodeId {
            targets.extend(self.out_edges(p).flat_map(|e| e.receivers().iter().copied()));
            ends.push(targets.len());
        }
        let mut reach = vec![0u64; n * words];
        for p in 0..n {
            reach[p * words + p / 64] |= 1 << (p % 64);
        }
        let mut next = reach.clone();
        let mut rounds = 0;
        loop {
            for (p, row) in next.chunks_exact_mut(words).enumerate() {
                for &r in &targets[ends[p]..ends[p + 1]] {
                    let from = &reach[r as usize * words..][..words];
                    row.iter_mut().zip(from).for_each(|(w, f)| *w |= f);
                }
            }
            if next == reach {
                break;
            }
            reach.copy_from_slice(&next);
            rounds += 1;
        }
        let reached: usize = reach.iter().map(|w| w.count_ones() as usize).sum();
        (reached == n * n).then_some(rounds)
    }

    /// The necessary fault bound of Lemma A.5: tolerating `f` faults
    /// requires `f < min_p min(d_out(p), d_in(p))`. Returns the largest `f`
    /// satisfying the necessary condition.
    pub fn necessary_fault_bound(&self) -> usize {
        let m = self.min_d_out().min(self.min_d_in());
        m.saturating_sub(1)
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

    /// Hop distance from `start` to every node (flooding rounds needed),
    /// `None` for unreachable nodes. Index = node id.
    fn hop_distances(h: &Hypergraph, start: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; h.n()];
        let mut queue = VecDeque::new();
        dist[start as usize] = Some(0);
        queue.push_back(start);
        while let Some(p) = queue.pop_front() {
            let d = dist[p as usize].expect("queued nodes have distances");
            for e in h.out_edges(p) {
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

    /// The diameter as one BFS per source: the oracle for
    /// [`Hypergraph::diameter`].
    fn bfs_diameter(h: &Hypergraph) -> Option<usize> {
        let mut max = 0;
        for p in 0..h.n() as NodeId {
            for (q, d) in hop_distances(h, p).iter().enumerate() {
                match d {
                    Some(d) => max = max.max(*d),
                    None if q != p as usize => return None,
                    None => {}
                }
            }
        }
        Some(max)
    }

    #[test]
    fn hop_distances_on_ring() {
        let h = topology::ring_kcast(6, 1); // simple directed cycle
        let d = hop_distances(&h, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4), Some(5)]);
        assert_eq!(h.diameter(), Some(5));
    }

    #[test]
    fn diameter_matches_bfs_on_every_small_ring() {
        // Rotation maps a ring onto itself, so every source sees the same
        // distances: the BFS from node 0 is the whole oracle there.
        for n in 2..=160 {
            for k in 1..n {
                let h = topology::ring_kcast(n, k);
                let from_zero =
                    hop_distances(&h, 0).into_iter().try_fold(0, |m, d| Some(m.max(d?)));
                assert_eq!(h.diameter(), from_zero, "ring_kcast({n}, {k})");
                if n <= 24 {
                    assert_eq!(h.diameter(), bfs_diameter(&h), "ring_kcast({n}, {k})");
                }
            }
        }
    }

    #[test]
    fn diameter_matches_bfs_off_the_ring() {
        // Directed, uneven and with a shortcut: 0 -> {1, 2}, 1 -> {3},
        // 2 -> {3, 4}, 3 -> {0}, 4 -> {1, 0}, plus 65 nodes in a one-way
        // cycle hung off node 4 so the rows span two words.
        let mut h = Hypergraph::new(70);
        h.add_edge(0, [1, 2]).unwrap();
        h.add_edge(1, [3]).unwrap();
        h.add_edge(2, [3, 4]).unwrap();
        h.add_edge(3, [0]).unwrap();
        h.add_edge(4, [1, 0]).unwrap();
        h.add_edge(4, [5]).unwrap();
        for p in 5..69 {
            h.add_edge(p, [p + 1]).unwrap();
        }
        h.add_edge(69, [4]).unwrap();
        assert_eq!(h.diameter(), bfs_diameter(&h));
        assert!(h.diameter().is_some());
        // Two rings with one bridge 0 -> 70 between them: 70.. never
        // reaches 0.., so both answers are `None`.
        let mut split = Hypergraph::new(140);
        for p in 0..140 {
            let base = p / 70 * 70;
            split.add_edge(p, [base + (p + 1) % 70]).unwrap();
        }
        split.add_edge(0, [70]).unwrap();
        assert_eq!(bfs_diameter(&split), None);
        assert_eq!(split.diameter(), None);
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
    }

    /// Whether every removal set of at most `f` nodes leaves `h` strongly
    /// connected (`C(n, ≤ f)` residual checks; small `n` only).
    fn resists(h: &Hypergraph, f: usize) -> bool {
        (0u32..1 << h.n()).filter(|set| set.count_ones() as usize <= f).all(|set| {
            let removed: BTreeSet<NodeId> =
                (0..h.n() as NodeId).filter(|p| set >> p & 1 == 1).collect();
            h.is_strongly_connected_without(&removed)
        })
    }

    #[test]
    fn partition_resistance_matches_bound_on_rings() {
        // ring k=2 over 7 nodes tolerates 1 removal but not 2 adjacent ones.
        let h = topology::ring_kcast(7, 2);
        assert!(resists(&h, 1));
        assert!(!h.is_strongly_connected_without(&[3, 4].into_iter().collect()));
    }

    /// One (n-1)-cast per node: the single-hop broadcast domain over `n` nodes.
    fn complete(n: usize) -> Hypergraph {
        let mut h = Hypergraph::new(n);
        for p in 0..n as NodeId {
            h.add_edge(p, (0..n as NodeId).filter(|&q| q != p)).unwrap();
        }
        h
    }

    #[test]
    fn complete_graph_resists_up_to_n_minus_2() {
        let h = complete(5);
        assert_eq!(h.necessary_fault_bound(), 3);
        assert!(resists(&h, 3));
    }

    #[test]
    fn find_partitioning_set_none_when_safe() {
        // No removal set of at most 2 nodes partitions the complete graph on 4.
        assert!(resists(&complete(4), 2));
    }
}
