//! Deterministic structured event tracing for the EESMR simulator.
//!
//! Every replica and the network runtime emit typed [`EventKind`]s into a
//! per-node fixed-capacity ring buffer ([`Tracer`]). Events are stamped
//! with **node-local** state only — the node's simulated clock and a
//! per-node monotone sequence number — so a merged trace is bit-identical
//! no matter how the run was executed (worker count, shard count, either
//! scheduler), exactly like every other observable in the workspace.
//!
//! The [`TraceLevel`] gate (`off|commit|proto|all`) compiles
//! down to one ordered-enum comparison per candidate event, so the `off`
//! path stays within noise on the hot-path bench. Levels nest: `commit`
//! ⊂ `proto` ⊂ `all` (see [`TraceClass`]).
//!
//! On top of the raw stream:
//! * [`audit`] — replays a merged trace and checks SMR safety (no
//!   same-height forks, monotone per-node heights) and post-heal
//!   liveness; the adversarial suites and CI gate on its verdict.
//! * [`path::CommitPath`] — follows one transaction
//!   birth→forward→batch→propose→relay→commit through a merged trace and
//!   reports the per-hop latency breakdown.
//! * [`perfetto`] — a Chrome-trace/Perfetto JSON exporter (one track per
//!   node, spans for views), written one event per line so two exports
//!   diff cleanly.
//! * [`hist::LogHistogram`] — a fixed-point log-bucket streaming
//!   histogram replacing per-sample hoarding (O(buckets) memory,
//!   deterministic merge across nodes and shards).
//! * the `trace_diff` binary — diffs two exported traces and pinpoints
//!   the first divergent event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

pub mod audit;
pub mod hist;
pub mod path;
pub mod perfetto;

/// How much of the event taxonomy is recorded. Levels nest: everything
/// enabled at `commit` is also enabled at `proto` and `all`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// Record nothing (the default). The per-event cost is one enum
    /// comparison.
    #[default]
    Off,
    /// Commit-path events only: tx inject/forward/batch, propose, relay,
    /// commit.
    Commit,
    /// `commit` plus protocol-control events: votes, blames,
    /// equivocations, view-change phases.
    Proto,
    /// Everything, including per-message send/deliver and timer fires.
    All,
}

impl TraceLevel {
    /// Whether events of `class` are recorded at this level.
    #[inline]
    pub fn enables(self, class: TraceClass) -> bool {
        self >= class.min_level()
    }

    /// The level's `EESMR_TRACE` spelling.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Commit => "commit",
            TraceLevel::Proto => "proto",
            TraceLevel::All => "all",
        }
    }
}

/// The three event families, by the cheapest [`TraceLevel`] that records
/// them. Call sites that must compute an event's fields (digest
/// fingerprints, wire sizes) gate on
/// [`enables`](TraceLevel::enables) (via `Context::traces` in the net
/// runtime) first so the
/// `off` path never pays for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceClass {
    /// The transaction commit path (recorded from `commit` up).
    Commit,
    /// Protocol control flow (recorded from `proto` up).
    Proto,
    /// The wire and timer layer (recorded at `all` only).
    Wire,
}

impl TraceClass {
    /// The cheapest level that records this class.
    #[inline]
    pub fn min_level(self) -> TraceLevel {
        match self {
            TraceClass::Commit => TraceLevel::Commit,
            TraceClass::Proto => TraceLevel::Proto,
            TraceClass::Wire => TraceLevel::All,
        }
    }
}

/// The typed event taxonomy. `tx` and `block` fields are 64-bit digest
/// fingerprints (the first 8 bytes of the SHA-256 digest, little-endian)
/// — stable identifiers that cost nothing to copy once the digest
/// exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A workload transaction was born (injected) at this node.
    TxInject {
        /// Fingerprint of the injected command.
        tx: u64,
    },
    /// A pending transaction was forwarded to the current proposer.
    TxForward {
        /// Fingerprint of the forwarded command.
        tx: u64,
        /// The proposer it was forwarded to.
        leader: u32,
    },
    /// The proposer batched a transaction into a block.
    TxBatched {
        /// Fingerprint of the batched command.
        tx: u64,
        /// Fingerprint of the carrying block.
        block: u64,
    },
    /// This node proposed a block.
    Propose {
        /// Fingerprint of the proposed block.
        block: u64,
        /// Proposing view.
        view: u64,
        /// Proposing round (0 for protocols without rounds).
        round: u64,
    },
    /// This node relayed a proposal it accepted (EESMR's re-multicast,
    /// or a baseline's certificate-forming broadcast).
    Relay {
        /// Fingerprint of the relayed block.
        block: u64,
    },
    /// This node voted for a block (baselines; EESMR has no votes).
    Vote {
        /// Fingerprint of the voted block.
        block: u64,
        /// Voting view.
        view: u64,
    },
    /// This node committed a block.
    Commit {
        /// Fingerprint of the committed block.
        block: u64,
        /// The block's height.
        height: u64,
    },
    /// This node multicast a blame against the current leader.
    Blame {
        /// The blamed view.
        view: u64,
    },
    /// This node detected leader equivocation.
    Equivocation {
        /// The view the equivocation was detected in.
        view: u64,
    },
    /// View-change phase entered: the node quit the old view (blame
    /// certificate or equivocation proof in hand).
    VcQuit {
        /// The view being quit.
        view: u64,
    },
    /// View-change phase exited: the node entered the new view.
    ViewEnter {
        /// The view being entered.
        view: u64,
    },
    /// A protocol timer fired at this node.
    TimerFire {
        /// The runtime timer id.
        id: u64,
    },
    /// This node transmitted a message (one event per k-cast, not per
    /// receiver).
    MsgSend {
        /// Serialized size in bytes.
        bytes: u64,
        /// Whether this was a flood (re)transmission.
        flood: bool,
    },
    /// A message was delivered to this node's actor.
    MsgDeliver {
        /// The sending node.
        from: u32,
        /// Serialized size in bytes.
        bytes: u64,
        /// Whether it arrived via the flood layer.
        flood: bool,
    },
}

impl EventKind {
    /// The event's family (which decides the recording level).
    #[inline]
    pub fn class(&self) -> TraceClass {
        match self {
            EventKind::TxInject { .. }
            | EventKind::TxForward { .. }
            | EventKind::TxBatched { .. }
            | EventKind::Propose { .. }
            | EventKind::Relay { .. }
            | EventKind::Commit { .. } => TraceClass::Commit,
            EventKind::Vote { .. }
            | EventKind::Blame { .. }
            | EventKind::Equivocation { .. }
            | EventKind::VcQuit { .. }
            | EventKind::ViewEnter { .. } => TraceClass::Proto,
            EventKind::TimerFire { .. }
            | EventKind::MsgSend { .. }
            | EventKind::MsgDeliver { .. } => TraceClass::Wire,
        }
    }

    /// A short stable name (used by the Perfetto exporter).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TxInject { .. } => "tx_inject",
            EventKind::TxForward { .. } => "tx_forward",
            EventKind::TxBatched { .. } => "tx_batched",
            EventKind::Propose { .. } => "propose",
            EventKind::Relay { .. } => "relay",
            EventKind::Vote { .. } => "vote",
            EventKind::Commit { .. } => "commit",
            EventKind::Blame { .. } => "blame",
            EventKind::Equivocation { .. } => "equivocation",
            EventKind::VcQuit { .. } => "vc_quit",
            EventKind::ViewEnter { .. } => "view_enter",
            EventKind::TimerFire { .. } => "timer_fire",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgDeliver { .. } => "msg_deliver",
        }
    }
}

/// One recorded event. `time_us` is the node's simulated clock; `seq` is
/// the node's monotone emission counter. `(time_us, node, seq)` totally
/// orders a merged trace, and every component is node-local state, so
/// the order is independent of worker/shard/scheduler choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Simulated time of emission, microseconds.
    pub time_us: u64,
    /// The emitting node.
    pub node: u32,
    /// Per-node monotone sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A per-node fixed-capacity ring buffer of [`TraceEvent`]s. When full,
/// the oldest event is dropped (and counted), so memory is bounded for
/// arbitrarily long runs while the tail — where debugging happens — is
/// always intact.
#[derive(Debug, Clone)]
pub struct Tracer {
    level: TraceLevel,
    node: u32,
    cap: usize,
    events: VecDeque<TraceEvent>,
    seq: u64,
    dropped: u64,
}

impl Tracer {
    /// Default ring capacity (events per node).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A tracer for `node` recording at `level` with the default
    /// capacity.
    pub fn new(level: TraceLevel, node: u32) -> Tracer {
        Tracer::with_capacity(level, node, Tracer::DEFAULT_CAPACITY)
    }

    /// A tracer with an explicit ring capacity (clamped to ≥ 1).
    pub fn with_capacity(level: TraceLevel, node: u32, cap: usize) -> Tracer {
        Tracer { level, node, cap: cap.max(1), events: VecDeque::new(), seq: 0, dropped: 0 }
    }

    /// A tracer that records nothing (level [`TraceLevel::Off`]).
    pub fn disabled(node: u32) -> Tracer {
        Tracer::with_capacity(TraceLevel::Off, node, 1)
    }

    /// The active level.
    #[inline]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether events of `class` would be recorded. Check this before
    /// computing expensive event fields (fingerprints, wire sizes).
    #[inline]
    pub fn enabled(&self, class: TraceClass) -> bool {
        self.level.enables(class)
    }

    /// Records `kind` at `time_us` if the level admits its class. This
    /// is the whole hot-path cost when tracing is off: one comparison.
    #[inline]
    pub fn record(&mut self, time_us: u64, kind: EventKind) {
        if !self.level.enables(kind.class()) {
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.events.push_back(TraceEvent { time_us, node: self.node, seq, kind });
    }

    /// The node this tracer belongs to.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped by ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes the buffered stream out of the tracer, leaving it empty
    /// (sequence numbers keep counting).
    pub fn drain(&mut self) -> NodeTrace {
        NodeTrace {
            node: self.node,
            dropped: self.dropped,
            events: std::mem::take(&mut self.events).into(),
        }
    }
}

/// One node's drained event stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeTrace {
    /// The emitting node.
    pub node: u32,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow before these.
    pub dropped: u64,
}

/// Every node's stream from one run, in node-id order. Comparing two
/// `TraceSet`s (`==`) is the bit-identity check the determinism suite
/// uses across shard counts, worker counts, and schedulers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// Per-node streams, indexed by node id.
    pub nodes: Vec<NodeTrace>,
}

impl TraceSet {
    /// All events of the run merged into the canonical total order
    /// `(time_us, node, seq)`.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> =
            self.nodes.iter().flat_map(|n| n.events.iter().copied()).collect();
        all.sort_by_key(|e| (e.time_us, e.node, e.seq));
        all
    }

    /// Total buffered events across nodes.
    pub fn total_events(&self) -> usize {
        self.nodes.iter().map(|n| n.events.len()).sum()
    }

    /// Total ring-overflow drops across nodes.
    pub fn total_dropped(&self) -> u64 {
        self.nodes.iter().map(|n| n.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_nest() {
        assert!(!TraceLevel::Off.enables(TraceClass::Commit));
        assert!(TraceLevel::Commit.enables(TraceClass::Commit));
        assert!(!TraceLevel::Commit.enables(TraceClass::Proto));
        assert!(TraceLevel::Proto.enables(TraceClass::Commit));
        assert!(TraceLevel::Proto.enables(TraceClass::Proto));
        assert!(!TraceLevel::Proto.enables(TraceClass::Wire));
        assert!(TraceLevel::All.enables(TraceClass::Wire));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(TraceLevel::Off, 3);
        t.record(5, EventKind::Commit { block: 1, height: 1 });
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn level_filters_by_class() {
        let mut t = Tracer::new(TraceLevel::Commit, 0);
        t.record(1, EventKind::Propose { block: 9, view: 1, round: 1 });
        t.record(2, EventKind::Blame { view: 1 });
        t.record(3, EventKind::TimerFire { id: 7 });
        let trace = t.drain();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].kind, EventKind::Propose { block: 9, view: 1, round: 1 });
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Tracer::with_capacity(TraceLevel::All, 2, 2);
        for i in 0..5u64 {
            t.record(i, EventKind::TimerFire { id: i });
        }
        let trace = t.drain();
        assert_eq!(trace.dropped, 3);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].kind, EventKind::TimerFire { id: 3 });
        assert_eq!(trace.events[1].kind, EventKind::TimerFire { id: 4 });
        // Sequence numbers are emission-global, not buffer positions.
        assert_eq!(trace.events[0].seq, 3);
    }

    #[test]
    fn merge_orders_by_time_then_node_then_seq() {
        let mut a = Tracer::new(TraceLevel::All, 1);
        let mut b = Tracer::new(TraceLevel::All, 0);
        a.record(10, EventKind::TimerFire { id: 1 });
        a.record(10, EventKind::TimerFire { id: 2 });
        b.record(10, EventKind::TimerFire { id: 3 });
        b.record(5, EventKind::TimerFire { id: 4 });
        let set = TraceSet { nodes: vec![b.drain(), a.drain()] };
        let merged = set.merged();
        let ids: Vec<u64> = merged
            .iter()
            .map(|e| match e.kind {
                EventKind::TimerFire { id } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![4, 3, 1, 2]);
    }
}
