//! The hypergraph network model (paper Appendix A, Definition A.1).
//!
//! A hypergraph `H := (N, E)` has nodes `N = {p_1, …, p_n}` and hyper-edges
//! `E ⊆ N × 2^N`: each edge has one *sender* and a non-empty set of
//! *receivers*, modelling a wireless multicast ("k-cast") where one
//! transmission reaches several neighbours. Self-loops are excluded by
//! definition.

use std::collections::BTreeSet;
use std::fmt;

/// Node identifier. Nodes are numbered `0..n`.
pub type NodeId = u32;

/// Index of a hyper-edge inside its [`Hypergraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// A directed hyper-edge: one sender, `k ≥ 1` receivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperEdge {
    sender: NodeId,
    receivers: BTreeSet<NodeId>,
}

impl HyperEdge {
    /// The sender `S(e)`.
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// The receiver set `R(e)`.
    pub fn receivers(&self) -> &BTreeSet<NodeId> {
        &self.receivers
    }

    /// The edge's multicast degree `k = |R(e)|`.
    pub fn k(&self) -> usize {
        self.receivers.len()
    }
}

/// Errors from hypergraph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypergraphError {
    /// A node id ≥ n was referenced.
    NodeOutOfRange {
        /// The offending id.
        node: NodeId,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// The edge's receiver set was empty.
    EmptyReceiverSet,
    /// The sender appeared in its own receiver set (`S(e) ∈ R(e)`).
    SelfLoop {
        /// The sender that would receive its own transmission.
        node: NodeId,
    },
}

impl fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HypergraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for a {n}-node hypergraph")
            }
            HypergraphError::EmptyReceiverSet => write!(f, "hyper-edge has no receivers"),
            HypergraphError::SelfLoop { node } => {
                write!(f, "node {node} cannot be a receiver of its own hyper-edge")
            }
        }
    }
}

impl std::error::Error for HypergraphError {}

/// A directed hypergraph with multicast (`k`-cast) edges.
///
/// # Examples
///
/// ```
/// use eesmr_hypergraph::Hypergraph;
///
/// // 4 nodes; node 0 multicasts to {1, 2}; node 1 to {2, 3}.
/// let mut h = Hypergraph::new(4);
/// h.add_edge(0, [1, 2]).unwrap();
/// h.add_edge(1, [2, 3]).unwrap();
/// assert_eq!(h.k(), Some(2));
/// assert_eq!(h.d_out(0), 2); // node 0 reaches 2 distinct nodes
/// assert_eq!(h.d_in(2), 2);  // node 2 hears from 2 distinct nodes
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    n: usize,
    edges: Vec<HyperEdge>,
    /// `by_sender[p]`: indices into `edges` of the edges `p` sends on, in
    /// ascending (insertion) order. A pure function of `edges`, kept in
    /// step by the two mutators ([`Self::add_edge`],
    /// [`Self::make_independent`]), so the derived `PartialEq` and `Clone`
    /// see it agree whenever `edges` do.
    by_sender: Vec<Vec<usize>>,
}

impl Hypergraph {
    /// Creates an empty hypergraph over nodes `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "hypergraph needs at least one node");
        Hypergraph { n, edges: Vec::new(), by_sender: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// All hyper-edges.
    pub fn edges(&self) -> &[HyperEdge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale/out of range.
    pub fn edge(&self, id: EdgeId) -> &HyperEdge {
        &self.edges[id.0]
    }

    /// Adds a hyper-edge from `sender` to `receivers`.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range ids, an empty receiver set, or a
    /// self-loop.
    pub fn add_edge(
        &mut self,
        sender: NodeId,
        receivers: impl IntoIterator<Item = NodeId>,
    ) -> Result<EdgeId, HypergraphError> {
        if sender as usize >= self.n {
            return Err(HypergraphError::NodeOutOfRange { node: sender, n: self.n });
        }
        let receivers: BTreeSet<NodeId> = receivers.into_iter().collect();
        if receivers.is_empty() {
            return Err(HypergraphError::EmptyReceiverSet);
        }
        if receivers.contains(&sender) {
            return Err(HypergraphError::SelfLoop { node: sender });
        }
        if let Some(&bad) = receivers.iter().find(|&&r| r as usize >= self.n) {
            return Err(HypergraphError::NodeOutOfRange { node: bad, n: self.n });
        }
        self.by_sender[sender as usize].push(self.edges.len());
        self.edges.push(HyperEdge { sender, receivers });
        Ok(EdgeId(self.edges.len() - 1))
    }

    /// Edges sent by `p` (the out-going k-cast links), in edge-id order.
    /// Reads the per-sender index: the cost is `p`'s out-degree, not the
    /// size of the graph.
    pub fn out_edges(&self, p: NodeId) -> impl Iterator<Item = (EdgeId, &HyperEdge)> {
        let ids = self.by_sender.get(p as usize).map_or(&[][..], Vec::as_slice);
        ids.iter().map(|&i| (EdgeId(i), &self.edges[i]))
    }

    /// Edges in which `p` is a receiver (the incoming k-cast links).
    pub fn in_edges(&self, p: NodeId) -> impl Iterator<Item = (EdgeId, &HyperEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.receivers.contains(&p))
            .map(|(i, e)| (EdgeId(i), e))
    }

    /// The graph's k-cast parameter: the minimum receiver-set size over all
    /// edges, or `None` if there are no edges.
    ///
    /// "We say our hypergraph H has k-casts if every edge contains at least
    /// k receivers."
    pub fn k(&self) -> Option<usize> {
        self.edges.iter().map(HyperEdge::k).min()
    }

    /// Out-degree `d_out(p)` (Definition A.4): the number of *distinct*
    /// nodes `p` can reach with its out-going edges.
    pub fn d_out(&self, p: NodeId) -> usize {
        let mut reached = BTreeSet::new();
        for (_, e) in self.out_edges(p) {
            reached.extend(e.receivers.iter().copied());
        }
        reached.len()
    }

    /// In-degree `d_in(p)` (Definition A.3): the number of *distinct* nodes
    /// from which `p` can receive.
    pub fn d_in(&self, p: NodeId) -> usize {
        let mut senders = BTreeSet::new();
        for (_, e) in self.in_edges(p) {
            senders.insert(e.sender);
        }
        senders.len()
    }

    /// Graph-level `d_out`: the minimum `d_out(p)` over all nodes.
    pub fn min_d_out(&self) -> usize {
        (0..self.n as NodeId).map(|p| self.d_out(p)).min().unwrap_or(0)
    }

    /// Graph-level `d_in`: the minimum `d_in(p)` over all nodes.
    pub fn min_d_in(&self) -> usize {
        (0..self.n as NodeId).map(|p| self.d_in(p)).min().unwrap_or(0)
    }

    /// `D_out(p)`: the number of out-going k-cast *links* of `p`.
    pub fn cap_d_out_of(&self, p: NodeId) -> usize {
        self.out_edges(p).count()
    }

    /// `D_in(p)`: the number of incoming k-cast *links* of `p`.
    pub fn cap_d_in_of(&self, p: NodeId) -> usize {
        self.in_edges(p).count()
    }

    /// Graph-level `D_out`: minimum number of out-going k-casts per node.
    pub fn cap_d_out(&self) -> usize {
        (0..self.n as NodeId).map(|p| self.cap_d_out_of(p)).min().unwrap_or(0)
    }

    /// Graph-level `D_in`: minimum number of incoming k-casts per node.
    pub fn cap_d_in(&self) -> usize {
        (0..self.n as NodeId).map(|p| self.cap_d_in_of(p)).min().unwrap_or(0)
    }

    /// Checks independence of edges (Definition A.2).
    ///
    /// A family of same-sender edges is *independent* iff no two distinct
    /// sub-families cover the same receiver union. That holds exactly when
    /// no edge's receiver set is contained in the union of its sibling
    /// edges' receiver sets (if `e ⊆ ∪ others` then `others` and
    /// `others ∪ {e}` are distinct sub-families with equal unions, and
    /// conversely any pair of equal-union families yields such an `e`).
    pub fn is_independent(&self) -> bool {
        for p in 0..self.n as NodeId {
            let out: Vec<&HyperEdge> = self.out_edges(p).map(|(_, e)| e).collect();
            for (i, e) in out.iter().enumerate() {
                let mut union_others = BTreeSet::new();
                for (j, o) in out.iter().enumerate() {
                    if i != j {
                        union_others.extend(o.receivers.iter().copied());
                    }
                }
                if e.receivers.is_subset(&union_others) {
                    return false;
                }
            }
        }
        true
    }

    /// Removes redundant edges until the edge family is independent
    /// (the paper's "modified spanning tree algorithm" note). Greedy:
    /// repeatedly drop an edge covered by the union of its siblings,
    /// preferring to drop smaller edges first so coverage is preserved.
    pub fn make_independent(&mut self) {
        loop {
            let mut drop_idx: Option<usize> = None;
            'outer: for idxs in &self.by_sender {
                // Visit smallest edges first so we drop the most redundant.
                let mut by_size = idxs.clone();
                by_size.sort_by_key(|&i| self.edges[i].k());
                for &i in &by_size {
                    let mut union_others = BTreeSet::new();
                    for &j in idxs {
                        if i != j {
                            union_others.extend(self.edges[j].receivers.iter().copied());
                        }
                    }
                    if self.edges[i].receivers.is_subset(&union_others) {
                        drop_idx = Some(i);
                        break 'outer;
                    }
                }
            }
            match drop_idx {
                Some(i) => {
                    // Every later edge moves down one id.
                    let sender = self.edges.remove(i).sender;
                    self.by_sender[sender as usize].retain(|&j| j != i);
                    for j in self.by_sender.iter_mut().flatten().filter(|j| **j > i) {
                        *j -= 1;
                    }
                }
                None => break,
            }
        }
        debug_assert!(self.is_independent());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_validates_inputs() {
        let mut h = Hypergraph::new(3);
        assert_eq!(h.add_edge(3, [0]), Err(HypergraphError::NodeOutOfRange { node: 3, n: 3 }));
        assert_eq!(h.add_edge(0, []), Err(HypergraphError::EmptyReceiverSet));
        assert_eq!(h.add_edge(0, [0, 1]), Err(HypergraphError::SelfLoop { node: 0 }));
        assert_eq!(h.add_edge(0, [1, 9]), Err(HypergraphError::NodeOutOfRange { node: 9, n: 3 }));
        assert!(h.add_edge(0, [1, 2]).is_ok());
    }

    #[test]
    fn degrees_count_distinct_nodes_not_edges() {
        // Two overlapping edges from node 0: d_out counts distinct receivers.
        let mut h = Hypergraph::new(4);
        h.add_edge(0, [1, 2]).unwrap();
        h.add_edge(0, [2, 3]).unwrap();
        assert_eq!(h.d_out(0), 3);
        assert_eq!(h.cap_d_out_of(0), 2);
        assert_eq!(h.d_in(2), 1); // only node 0 sends to 2
        assert_eq!(h.cap_d_in_of(2), 2); // via two links
    }

    #[test]
    fn k_is_minimum_edge_degree() {
        let mut h = Hypergraph::new(5);
        assert_eq!(h.k(), None);
        h.add_edge(0, [1, 2, 3]).unwrap();
        h.add_edge(1, [2, 3]).unwrap();
        assert_eq!(h.k(), Some(2));
    }

    #[test]
    fn independence_detects_papers_example() {
        // Appendix A example: e1={p1,p2}, e2={p2,p3}, e3={p1,p3} from the
        // same sender — one edge is redundant.
        let mut h = Hypergraph::new(4);
        h.add_edge(0, [1, 2]).unwrap();
        h.add_edge(0, [2, 3]).unwrap();
        h.add_edge(0, [1, 3]).unwrap();
        assert!(!h.is_independent());
        h.make_independent();
        assert!(h.is_independent());
        // Coverage is preserved: node 0 still reaches all of {1,2,3}.
        assert_eq!(h.d_out(0), 3);
    }

    #[test]
    fn disjoint_edges_are_independent() {
        let mut h = Hypergraph::new(5);
        h.add_edge(0, [1, 2]).unwrap();
        h.add_edge(0, [3, 4]).unwrap();
        assert!(h.is_independent());
    }

    #[test]
    fn duplicate_edge_is_dependent() {
        let mut h = Hypergraph::new(3);
        h.add_edge(0, [1, 2]).unwrap();
        h.add_edge(0, [1, 2]).unwrap();
        assert!(!h.is_independent());
        h.make_independent();
        assert_eq!(h.edges().len(), 1);
    }

    #[test]
    fn in_out_edges_iterate_correctly() {
        let mut h = Hypergraph::new(4);
        let e0 = h.add_edge(0, [1, 2]).unwrap();
        let e1 = h.add_edge(1, [2]).unwrap();
        assert_eq!(h.out_edges(0).map(|(id, _)| id).collect::<Vec<_>>(), vec![e0]);
        assert_eq!(h.in_edges(2).map(|(id, _)| id).collect::<Vec<_>>(), vec![e0, e1]);
        assert_eq!(h.edge(e1).sender(), 1);
        assert_eq!(h.edge(e1).k(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_graph_panics() {
        let _ = Hypergraph::new(0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = HypergraphError::NodeOutOfRange { node: 7, n: 3 };
        assert!(e.to_string().contains('7'));
        assert!(HypergraphError::EmptyReceiverSet.to_string().contains("no receivers"));
        assert!(HypergraphError::SelfLoop { node: 1 }.to_string().contains("own"));
    }
}
