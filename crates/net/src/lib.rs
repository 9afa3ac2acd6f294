//! Deterministic discrete-event network simulator for the EESMR
//! reproduction.
//!
//! Stands in for the paper's NUCLEO-F401RE + BLE testbed (§5.3): protocol
//! replicas are [`Actor`]s wired over an `eesmr_hypergraph::Hypergraph`
//! topology; the runtime delivers messages with bounded per-hop delays,
//! charges every transmission/reception to per-node
//! [`eesmr_energy::EnergyMeter`]s, supports network-layer flooding with
//! relay-once deduplication (the "logical full connectivity" of Appendix
//! A.3), and exposes an interceptor hook for adversarial scheduling.
//!
//! # Example
//!
//! ```
//! use eesmr_net::{Actor, Context, Message, NetConfig, NodeId, SimNet, SimDuration};
//! use eesmr_hypergraph::topology::ring_kcast;
//!
//! #[derive(Debug, Clone)]
//! struct Hello;
//! impl Message for Hello {
//!     fn wire_size(&self) -> usize { 25 }
//!     fn flood_key(&self) -> u64 { 1 }
//! }
//!
//! #[derive(Default)]
//! struct Node { heard: bool }
//! impl Actor for Node {
//!     type Msg = Hello;
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello, ()>) {
//!         if ctx.id() == 0 { ctx.flood(Hello); }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: Hello, _ctx: &mut Context<'_, Hello, ()>) {
//!         self.heard = true;
//!     }
//!     fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Hello, ()>) {}
//! }
//!
//! let cfg = NetConfig::ble(ring_kcast(5, 2), 7);
//! let mut net = SimNet::new(cfg, (0..5).map(|_| Node::default()).collect::<Vec<_>>());
//! net.run_for(SimDuration::from_millis(10));
//! assert!(net.actors().iter().all(|n| n.heard));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod channel;
pub mod codec;
pub mod harness;
pub mod message;
pub mod proc;
pub mod runtime;
pub mod sched;
pub mod shard;
pub mod time;

pub use actor::{Actor, Context, NodeId, TimerId};
pub use channel::ChannelCost;
pub use codec::{CodecError, Reader, WireCodec};
pub use proc::{ChildOpts, Coordinator, ProcTransport};
// Telemetry vocabulary, re-exported so actor crates can expose gauges
// and callers can configure sampling without naming `eesmr_metrics`.
pub use eesmr_metrics::{ActorGauges, GaugeKind, MetricsConfig, MetricsSet, NodeSeries};
// Trace vocabulary, re-exported so actor crates can gate and emit
// events through [`Context`] without naming `eesmr_trace` themselves.
pub use eesmr_trace::{EventKind as TraceEventKind, TraceClass, TraceLevel, TraceSet, Tracer};
pub use message::Message;
pub use runtime::{
    Delivery, Fate, Interceptor, LinkDrop, LinkFaults, NetConfig, NetStats, Partition, SimNet,
};
pub use sched::{CalendarQueue, EventQueue, SchedulerKind};
pub use shard::{shards_from_env, ShardedNet};
pub use time::{SimDuration, SimTime};
