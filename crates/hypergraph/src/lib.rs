//! Hypergraph network model for multicast-capable CPS networks.
//!
//! Implements Appendix A of the paper: networks are modelled as directed
//! hypergraphs where a hyper-edge `(S(e), R(e))` is one wireless multicast
//! ("k-cast") from a sender to `k ≥ 1` receivers. The model generalises
//! point-to-point graphs (every edge has one receiver) and broadcast
//! domains (one edge reaching everyone).
//!
//! Provided here:
//!
//! * [`Hypergraph`] — edges, per-node degrees `d_in`/`d_out`
//!   (Definitions A.3/A.4) and the k-cast parameter.
//! * Connectivity analysis — strong connectivity with faulty nodes
//!   removed, the flooding diameter used to derive Δ, and the necessary
//!   fault bound of Lemma A.5.
//! * [`topology`] — builders for the paper's ring k-cast testbed topology
//!   and the trusted baseline's star.
//!
//! # Example: the paper's testbed topology
//!
//! ```
//! use std::collections::BTreeSet;
//!
//! use eesmr_hypergraph::topology::ring_kcast;
//!
//! // n = 10 nodes, k = 3: p_i k-casts to p_{i+1}, p_{i+2}, p_{i+3}.
//! let h = ring_kcast(10, 3);
//! assert_eq!(h.k(), Some(3));
//! // A flood reaches everyone in ⌈(n − 1) / k⌉ = 3 hops.
//! assert_eq!(h.diameter(), Some(3));
//! // Lemma A.5 necessary bound: f < min(d_in, d_out) = 3.
//! assert_eq!(h.necessary_fault_bound(), 2);
//! // Two removals leave the rest connected; three adjacent ones cut it.
//! assert!(h.is_strongly_connected_without(&BTreeSet::from([4, 5])));
//! assert!(!h.is_strongly_connected_without(&BTreeSet::from([4, 5, 6])));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connectivity;
mod graph;
pub mod topology;

pub use graph::{HyperEdge, Hypergraph, HypergraphError, NodeId};
