//! EESMR — the paper's energy-efficient BFT-SMR protocol.
//!
//! This crate implements Algorithm 2 in full: the certificate-free steady
//! state ("voting in the head": relay the leader's proposal once, wait 4Δ
//! for silence on equivocation, commit), blame handling for stalled and
//! equivocating leaders, the quit-view / new-view machinery that converts
//! implicit votes into explicit certificates, chain synchronization, the
//! crash-only variant, and the §3.5/§5.6 optimizations — all behind the
//! [`eesmr_net::Actor`] interface so replicas run unchanged over any
//! simulated topology and channel pricing.
//!
//! # Quick example: 5 replicas on the paper's ring topology
//!
//! ```
//! use std::sync::Arc;
//! use eesmr_core::{Config, FaultMode, Replica, build_replicas};
//! use eesmr_crypto::{KeyStore, SigScheme};
//! use eesmr_hypergraph::topology::ring_kcast;
//! use eesmr_net::{NetConfig, SimNet, SimDuration};
//!
//! let topology = ring_kcast(5, 2);
//! let net_cfg = NetConfig::ble(topology, 42);
//! let config = Config::new(5, net_cfg.delta());
//! let pki = Arc::new(KeyStore::generate(5, SigScheme::Rsa1024, 42));
//! let replicas = build_replicas(&config, &pki, |_| FaultMode::Honest);
//!
//! let mut net = SimNet::new(net_cfg, replicas);
//! net.run_for(SimDuration::from_millis(200));
//! assert!(net.actor(0).committed_height() >= 3, "the log grows");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod broadcast;
pub mod client;
pub mod codec;
pub mod config;
pub mod message;
pub mod metrics;
pub mod replica;
pub mod smr;
pub mod txpool;
mod view_change;

pub use block::{Block, BlockStore, ChainRelation, Command, Commands, Lineage};
pub use broadcast::{build_bb_nodes, BbNode, BbOutput};
pub use config::{BatchPolicy, Config, FaultMode, LeaderPolicy, Pacing};
pub use message::{
    CertifiedBlock, Envelope, MsgKind, Payload, QuorumCert, SignedBlock, SignedMsg, SignedPayload,
    Status,
};
pub use metrics::Metrics;
pub use replica::{EesmrRule, Replica};
pub use smr::{Params, Rule, Smr, SmrPayload, TimerToken};
pub use txpool::{AdaptiveBatcher, TxPool, WorkloadSource};
pub use view_change::build_replicas;
