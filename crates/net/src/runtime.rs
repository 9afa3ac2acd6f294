//! The deterministic discrete-event network runtime.
//!
//! Replaces the paper's physical BLE testbed: actors exchange messages over
//! a [`Hypergraph`] topology with bounded per-hop delays, every
//! transmission and reception is charged to the node's [`EnergyMeter`] at
//! the configured [`ChannelCost`], and an optional interceptor lets fault
//! injectors delay or drop traffic (within the bounded-synchrony envelope
//! their scenario assumes).
//!
//! Determinism: every source of nondeterminism is keyed by *node-local*
//! state rather than global processing order. Hop delays are counter-based
//! draws keyed by `(seed, sender, per-sender draw index)`; event-queue
//! ties break by a sequence key derived from `(origin node, per-origin
//! push counter)`; timer ids encode `(node, per-node timer counter)`. A
//! run is therefore a pure function of `(config, actors, seed)` — and,
//! because no counter is shared between nodes, the very same trace falls
//! out whether the nodes run in one event loop or sharded across worker
//! threads (see [`crate::shard`]). The pending-event queue itself is
//! pluggable (see [`crate::sched`]): the default calendar queue and the
//! reference binary heap pop in the same `(time, seq)` total order, so
//! the choice never changes a trace, only how fast it is produced.
//!
//! The unit of work is the **transmission**, not the reception. What is a
//! pure function of the run or of the message is computed once and read
//! afterwards:
//!
//! * *Per run*: each node's out-edges as flat receiver slices (`FanOut`,
//!   built when the shard is). Their order — edges by edge id, receivers
//!   ascending within an edge — is part of the model: hop-delay and drop
//!   draws are consumed per receiver in that order.
//! * *Per message sent*: one record (`OnAir`) holding the sender, the
//!   payload, its `wire_size()` and `phase()` and, for a flood, its dedup
//!   key and target — built when the `Multicast`/`Flood` effect is
//!   applied. The loopback, every receiver of every k-cast and every relay
//!   of a flood share that one record. A queued delivery is plain data: a
//!   `u32` slot in the shard's on-air table (`OnAirTable`), which counts
//!   the deliveries still queued for the record — no reference count is
//!   touched per receiver. The payload is cloned only to hand a delivery
//!   to an actor (the last queued one takes it), never for a relay or a
//!   duplicate reception.
//! * *Per shard*: flood dedup is one table, flood key → a bit per owned
//!   node (`SeenFloods`), not a key set per node. A flood's row is looked
//!   up once, when its record enters the shard (at origination, or when a
//!   delivery from another shard is ingested), and kept in its slot: a
//!   reception tests one bit and probes no hash table.
//!
//! None of this skips or reorders an energy charge, a trace event, an
//! interceptor call or a draw: `tests/golden_runs.rs` pins whole reports
//! and traces across commits, `tests/runtime_budget.rs` the `wire_size()`
//! and `clone()` counts.
//!
//! # Example: drive a simulation step by step
//!
//! ```
//! use eesmr_net::{Actor, Context, Message, NetConfig, NodeId, SimDuration, SimNet};
//! use eesmr_hypergraph::topology::ring_kcast;
//!
//! #[derive(Debug, Clone)]
//! struct Tick;
//! impl Message for Tick {
//!     fn wire_size(&self) -> usize { 16 }
//!     fn flood_key(&self) -> u64 { 0 }
//! }
//!
//! #[derive(Default)]
//! struct Node { heard: usize }
//! impl Actor for Node {
//!     type Msg = Tick;
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, Tick, ()>) {
//!         if ctx.id() == 0 { ctx.multicast(Tick); }
//!     }
//!     fn on_message(&mut self, _: NodeId, _: Tick, _: &mut Context<'_, Tick, ()>) {
//!         self.heard += 1;
//!     }
//!     fn on_timer(&mut self, _: (), _: &mut Context<'_, Tick, ()>) {}
//! }
//!
//! let mut net = SimNet::new(
//!     NetConfig::ble(ring_kcast(4, 2), 7),
//!     (0..4).map(|_| Node::default()).collect::<Vec<_>>(),
//! );
//! net.run_for(SimDuration::from_millis(5));
//! // Node 0 multicast once: its two ring successors (and its own
//! // loopback) heard it, and the meters were charged for the k-cast.
//! assert_eq!(net.actors().iter().filter(|n| n.heard > 0).count(), 3);
//! assert!(net.stats().kcasts >= 1);
//! ```

use std::sync::Arc;

use eesmr_crypto::{KeyMap, KeySet};
use eesmr_energy::{EnergyCategory, EnergyClass, EnergyMeter, EnergyPhase};
use eesmr_hypergraph::Hypergraph;
use eesmr_metrics::{MetricsConfig, MetricsRecorder, MetricsSet, NodeSeries, ProfPhase, ProfTimer};
use eesmr_trace::{EventKind as TraceEventKind, NodeTrace, TraceLevel, TraceSet, Tracer};

use crate::actor::{Actor, Context, Effect, NodeId, TimerId};
use crate::channel::ChannelCost;
use crate::message::Message;
use crate::sched::{EventQueue, FreeList, SchedulerKind};
use crate::time::{SimDuration, SimTime};

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The communication topology.
    pub topology: Hypergraph,
    /// Per-edge energy pricing.
    pub channel: ChannelCost,
    /// Minimum per-hop propagation delay.
    pub hop_delay_min: SimDuration,
    /// Maximum per-hop propagation delay (the per-hop synchrony bound).
    pub hop_delay_max: SimDuration,
    /// Seed for all delay sampling.
    pub seed: u64,
    /// Pending-event queue implementation. Traces are bit-identical under
    /// either kind; the calendar queue is simply faster (see
    /// [`crate::sched`]).
    pub scheduler: SchedulerKind,
    /// How much of the structured event taxonomy the runtime records
    /// into per-node [`Tracer`] ring buffers (collect with
    /// [`SimNet::take_traces`]). [`TraceLevel::Off`] costs one enum
    /// comparison per candidate event.
    pub trace: TraceLevel,
    /// Deterministic time-series sampling (see `eesmr-metrics`): when
    /// enabled, every node records its gauges each `dt_us` of simulated
    /// time into a ring series (collect with [`SimNet::take_metrics`]).
    /// Off by default; disabled sampling costs one branch per event.
    pub metrics: MetricsConfig,
    /// Scheduled link-level faults: healing partitions and selective
    /// per-link drop rules, enforced at transmit time (empty by default).
    pub link_faults: LinkFaults,
}

/// A scheduled set of link-level faults the runtime enforces at transmit
/// time. Both fault families are **pure functions of the sender's local
/// view** — partitions of `(virtual time, from, to)`, drop rules of that
/// plus a per-sender keyed draw counter — so sharded runs stay
/// bit-identical to single-threaded ones (see `crate::shard`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFaults {
    /// Healing partitions: while active, every link with exactly one
    /// endpoint inside the island is severed.
    pub partitions: Vec<Partition>,
    /// Probabilistic per-link drop rules.
    pub drops: Vec<LinkDrop>,
}

impl LinkFaults {
    /// Whether no fault is scheduled at all (the common fast path).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty() && self.drops.is_empty()
    }

    /// Whether the `from → to` link is severed by an active partition at
    /// `now_us`: a link crosses the partition boundary iff exactly one
    /// endpoint is inside the island.
    pub fn severed(&self, now_us: u64, from: NodeId, to: NodeId) -> bool {
        self.partitions.iter().any(|p| {
            now_us >= p.start_us
                && now_us < p.end_us
                && (p.island.contains(&from) != p.island.contains(&to))
        })
    }

    /// The strongest drop probability (per mille) any active rule applies
    /// to the `from → to` link at `now_us`; `None` when no rule matches.
    pub fn drop_permille(&self, now_us: u64, from: NodeId, to: NodeId) -> Option<u16> {
        self.drops
            .iter()
            .filter(|d| {
                d.from == from
                    && d.to.is_none_or(|t| t == to)
                    && now_us >= d.start_us
                    && now_us < d.end_us
            })
            .map(|d| d.permille)
            .max()
    }

    /// The time the last scheduled fault window ends (µs); 0 when no
    /// windows are scheduled. Open-ended (`u64::MAX`) windows never heal.
    pub fn heal_time_us(&self) -> u64 {
        let p = self.partitions.iter().map(|p| p.end_us).max().unwrap_or(0);
        let d = self.drops.iter().map(|d| d.end_us).max().unwrap_or(0);
        p.max(d)
    }
}

/// One healing network partition: during `[start_us, end_us)` the nodes
/// in `island` can talk among themselves but not across the boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partition {
    /// Window start (inclusive), µs of virtual time.
    pub start_us: u64,
    /// Window end (exclusive), µs; `u64::MAX` for a partition that never
    /// heals.
    pub end_us: u64,
    /// The nodes cut off from the rest of the network during the window.
    pub island: Vec<NodeId>,
}

/// One selective per-link drop rule: while active, deliveries on the
/// matching link(s) are dropped with probability `permille / 1000`,
/// decided by a keyed draw from the sender's private drop counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkDrop {
    /// The transmitting node the rule applies to.
    pub from: NodeId,
    /// The receiving node, or `None` to match every receiver.
    pub to: Option<NodeId>,
    /// Drop probability in per mille (1000 = drop everything).
    pub permille: u16,
    /// Window start (inclusive), µs of virtual time.
    pub start_us: u64,
    /// Window end (exclusive), µs; `u64::MAX` for a permanent rule.
    pub end_us: u64,
}

/// Salt mixed into the seed for selective-drop draws, so the drop stream
/// never aliases the hop-delay stream of the same sender.
const DROP_SALT: u64 = 0xD20F_5EED_1155_0BAD;

/// Seed of the draw that spreads a `send_to`'s sequence key into its
/// flood key, so it never aliases a small content key.
const SEND_TO_SALT: u64 = 0x5E4D_7011_CE5E_9A11;

impl NetConfig {
    /// A BLE k-cast network over `topology` with four-nines reliability and
    /// default delays (0.5–1 ms per hop).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no edges.
    pub fn ble(topology: Hypergraph, seed: u64) -> Self {
        let k = topology.k().expect("topology must have edges");
        NetConfig {
            topology,
            channel: ChannelCost::ble_four_nines(k),
            hop_delay_min: SimDuration::from_micros(500),
            hop_delay_max: SimDuration::from_micros(1_000),
            seed,
            scheduler: SchedulerKind::default(),
            trace: TraceLevel::from_env(),
            metrics: MetricsConfig::from_env(),
            link_faults: LinkFaults::default(),
        }
    }

    /// The synchrony bound Δ this network guarantees: a message from any
    /// correct sender reaches every correct node within
    /// `diameter × hop_delay_max` (Appendix A, "Network delay").
    ///
    /// # Panics
    ///
    /// Panics if the topology is not strongly connected.
    pub fn delta(&self) -> SimDuration {
        let d =
            self.topology.diameter().expect("Δ is only defined for strongly connected topologies");
        self.hop_delay_max * (d as u64).max(1)
    }
}

/// Counters describing what the network did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Physical k-cast transmissions (multicast originations + relays).
    pub kcasts: u64,
    /// Messages delivered to actors.
    pub deliveries: u64,
    /// Free loopback deliveries (not on the air).
    pub loopbacks: u64,
    /// Flood relays performed by the network layer.
    pub flood_relays: u64,
    /// Payload bytes that crossed the air (per k-cast, not per receiver).
    pub bytes_on_air: u64,
    /// Deliveries suppressed by the interceptor or the link-fault
    /// schedule ([`LinkFaults`]).
    pub dropped: u64,
}

impl NetStats {
    /// Adds another stats block into this one (field-wise). Counter sums
    /// are order-independent, so merging per-shard stats yields exactly
    /// the single-threaded totals.
    pub fn absorb(&mut self, other: &NetStats) {
        self.kcasts += other.kcasts;
        self.deliveries += other.deliveries;
        self.loopbacks += other.loopbacks;
        self.flood_relays += other.flood_relays;
        self.bytes_on_air += other.bytes_on_air;
        self.dropped += other.dropped;
    }
}

/// A pending delivery the interceptor may reshape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Message size in bytes.
    pub size: usize,
    /// Whether this hop is a network-layer flood relay.
    pub is_flood: bool,
}

/// What the interceptor decides for a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver normally (with the sampled delay).
    Deliver,
    /// Drop silently (the sender still paid transmission energy).
    Drop,
    /// Add extra delay on top of the sampled hop delay. The caller is
    /// responsible for keeping the total within the Δ its scenario assumes
    /// — the standard synchronous-adversary contract.
    DelayBy(SimDuration),
}

/// Adversarial scheduling hook. `Send` so sharded runtimes can install a
/// per-shard instance (see [`crate::shard`] for the shard-safety
/// contract interceptors must additionally satisfy there).
pub type Interceptor = Box<dyn FnMut(&Delivery) -> Fate + Send>;

/// What a queued event does when it pops. A delivery names its message's
/// slot in the shard's [`OnAirTable`]; the timer token stays inline, as
/// the entry is sized by it anyway.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind<T> {
    Start,
    Deliver { slot: u32, loopback: bool },
    Timer { id: TimerId, token: T },
}

/// A queue entry stays plain data: a reference-counted handle in a
/// delivery would cost an atomic per receiver again.
const _: fn() = || {
    fn plain_data<T: Copy>() {}
    plain_data::<EventKind<()>>();
};

/// One message on the air: built once, when its `Multicast` or `Flood`
/// effect is applied, and shared by the sender's loopback, the `k`
/// deliveries of every k-cast that carries it and — for a flood — every
/// relay on every node. Everything that is a pure function of the message
/// is computed here and read from the record afterwards; the payload
/// itself is cloned only to hand a delivery to an actor (and moved out by
/// the last one), never for a reception that is dropped as a duplicate.
/// Within a shard the record sits in one [`OnAirTable`] slot; only a
/// delivery to another shard's node holds a second handle to it.
#[derive(Debug)]
pub(crate) struct OnAir<M> {
    /// The node whose actor sent the message — what a delivery reports as
    /// its sender. For a flood this is the origin, never the last relayer
    /// (replies go back to the source), which is why relays need no record
    /// of their own.
    from: NodeId,
    msg: M,
    /// `msg.wire_size()`.
    size: usize,
    /// `msg.phase()`.
    phase: EnergyPhase,
    flood: Option<FloodMeta>,
}

impl<M: Message> OnAir<M> {
    fn new(from: NodeId, msg: M, flood: Option<FloodMeta>) -> Arc<Self> {
        let (size, phase) = (msg.wire_size(), msg.phase());
        Arc::new(OnAir { from, msg, size, phase, flood })
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct FloodMeta {
    key: u64,
    target: Option<NodeId>,
}

/// The row a k-cast's slot carries: it has no `SeenFloods` row.
const NO_ROW: u32 = u32::MAX;

/// One shard's messages on the air, by slot. A queued delivery names a
/// slot instead of holding a handle, and the slot counts the deliveries
/// still queued for its record: the delivery that takes the count to zero
/// releases the slot (for reuse) and moves the payload out of the record
/// if no other shard shares it. On one shard that is always the case, so
/// a message costs one atomic operation in all, not two per receiver.
#[derive(Debug)]
struct OnAirTable<M> {
    slots: Vec<Slot<M>>,
    /// Released slots, reused before the table grows.
    free: Vec<u32>,
}

#[derive(Debug)]
struct Slot<M> {
    /// `None` once released.
    record: Option<Arc<OnAir<M>>>,
    /// Deliveries in this shard's queue that name the slot.
    queued: u32,
    /// The flood's `SeenFloods` row, or [`NO_ROW`].
    row: u32,
}

impl<M: Message> OnAirTable<M> {
    fn new() -> Self {
        OnAirTable { slots: Vec::new(), free: Vec::new() }
    }

    /// Gives `record` a slot holding one queued delivery — the one its
    /// caller queues next.
    fn insert(&mut self, record: Arc<OnAir<M>>, row: u32) -> u32 {
        let slot = Slot { record: Some(record), queued: 1, row };
        match self.free.pop() {
            Some(at) => {
                self.slots[at as usize] = slot;
                at
            }
            None => {
                self.slots.push(slot);
                self.slots.len() as u32 - 1
            }
        }
    }

    /// The record in a live slot.
    fn record(&self, slot: u32) -> &Arc<OnAir<M>> {
        self.slots[slot as usize].record.as_ref().expect("a queued delivery names a live slot")
    }

    /// The `SeenFloods` row of a live slot's flood.
    fn row(&self, slot: u32) -> u32 {
        self.slots[slot as usize].row
    }

    /// Counts `deliveries` more queued deliveries of a live slot.
    fn hold(&mut self, slot: u32, deliveries: u32) {
        self.slots[slot as usize].queued += deliveries;
    }

    /// Drops one queued delivery's hold. The last one releases the slot
    /// and returns its record.
    fn release(&mut self, slot: u32) -> Option<Arc<OnAir<M>>> {
        let entry = &mut self.slots[slot as usize];
        entry.queued -= 1;
        if entry.queued > 0 {
            return None;
        }
        self.free.push(slot);
        entry.record.take()
    }

    /// Releases one hold and returns the payload for an actor: moved out
    /// by the last delivery in flight, cloned otherwise.
    fn take_msg(&mut self, slot: u32) -> M {
        match self.release(slot) {
            Some(record) => {
                Arc::try_unwrap(record).map_or_else(|shared| shared.msg.clone(), |air| air.msg)
            }
            None => self.record(slot).msg.clone(),
        }
    }
}

/// The pending-event payload: which node the event targets and what it
/// carries.
pub(crate) type NodeEvent<T> = (NodeId, EventKind<T>);

/// A delivery to another shard's node, as exchanged between shards:
/// `(time µs, seq key, receiver, record)`. Slots are per shard, so it
/// carries a handle to the record, and [`ShardState::ingest`] gives the
/// record a slot of its own.
pub(crate) type ForeignDelivery<M> = (u64, u64, NodeId, Arc<OnAir<M>>);

/// Bits reserved for the origin node id in the low end of an event's
/// sequence key (the per-origin push counter occupies the high bits, so
/// same-time keys order by counter first, then node id). Caps simulated
/// systems at 2^20 nodes.
pub(crate) const SEQ_NODE_BITS: u32 = 20;

/// A deterministic 64-bit draw keyed by `(seed, node, counter)` — a
/// SplitMix64-style finalizer over a per-node stream position. Because
/// the value depends only on the key (never on how many draws other
/// nodes made), delay sampling is invariant under sharding.
pub(crate) fn keyed_draw(seed: u64, node: NodeId, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add((node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(counter.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Flood dedup for one shard: which of its nodes have seen which flood,
/// as one row of bits per flood key — a bit per owned node — instead of a
/// set of keys per node. A flood reaches every node, so a per-node set
/// stores each key `n` times over and a probe lands in whichever node's
/// table the event happens to target; a row costs `n / 8` bytes and the
/// whole table stays cache-resident. Membership is exactly
/// `(key, node)` seen-or-not, and — like the sets it replaces — the table
/// only grows: a flood key stays seen for the rest of the run. A key is
/// looked up ([`Self::row`]) once per record that enters the shard; each
/// reception then tests its row ([`Self::insert`]) without hashing.
#[derive(Debug)]
struct SeenFloods {
    /// `u64` words per row.
    words: usize,
    /// Flood key → row index; row `r` is `bits[r * words..][..words]`.
    /// Keys are digests or node-tagged counters the program made itself,
    /// so the map runs on the workspace's table hasher.
    rows: KeyMap<u64, u32>,
    bits: Vec<u64>,
}

impl SeenFloods {
    /// An empty table over `owned` nodes.
    fn new(owned: usize) -> Self {
        SeenFloods { words: owned.div_ceil(64), rows: KeyMap::default(), bits: Vec::new() }
    }

    /// The row of flood `key`, added — seen by no node — if the key is new.
    fn row(&mut self, key: u64) -> u32 {
        let next_row = self.rows.len() as u32;
        *self.rows.entry(key).or_insert_with(|| {
            self.bits.resize(self.bits.len() + self.words, 0);
            next_row
        })
    }

    /// Marks the flood of row `row` as seen by local node `local`. Returns
    /// whether it was new to that node (the contract of `HashSet::insert`).
    fn insert(&mut self, row: u32, local: usize) -> bool {
        let word = &mut self.bits[row as usize * self.words + local / 64];
        let bit = 1u64 << (local % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// Every owned node's out-edges as flat receiver slices, built once per
/// run from the topology — a transmit walks its own node's slices and
/// nothing else.
///
/// **Order is part of the model**: edges in edge-id order, receivers
/// ascending within an edge (as [`Hypergraph::out_edges`] and the edge's
/// receiver set yield them). Hop-delay and drop draws are consumed per
/// receiver in this order, so any reordering changes every trace.
#[derive(Debug)]
struct FanOut {
    /// Local node `l` sends on edges `first_edge[l]..first_edge[l + 1]`.
    first_edge: Vec<u32>,
    /// Edge `e` reaches `receivers[edge_start[e]..edge_start[e + 1]]`.
    edge_start: Vec<u32>,
    receivers: Vec<Receiver>,
}

/// One receiver of an out-edge, with the shard that owns it.
#[derive(Debug, Clone, Copy)]
struct Receiver {
    node: NodeId,
    shard: u32,
}

impl FanOut {
    /// The fan-out of `nodes` (a shard's owned nodes, in local order) in a
    /// run split across `shards` shards.
    fn new(topology: &Hypergraph, nodes: impl Iterator<Item = NodeId>, shards: u32) -> Self {
        let mut fan = FanOut { first_edge: vec![0], edge_start: vec![0], receivers: Vec::new() };
        for node in nodes {
            for (_, edge) in topology.out_edges(node) {
                let receivers = edge.receivers().iter();
                fan.receivers
                    .extend(receivers.map(|&to| Receiver { node: to, shard: to % shards }));
                fan.edge_start.push(fan.receivers.len() as u32);
            }
            fan.first_edge.push(fan.edge_start.len() as u32 - 1);
        }
        fan
    }

    /// The edges local node `local` sends on, as indices for
    /// [`Self::receivers_of`].
    fn edges_of(&self, local: usize) -> std::ops::Range<usize> {
        self.first_edge[local] as usize..self.first_edge[local + 1] as usize
    }

    /// The positions in `self.receivers` of edge `edge`'s receivers.
    fn receivers_of(&self, edge: usize) -> std::ops::Range<usize> {
        self.edge_start[edge] as usize..self.edge_start[edge + 1] as usize
    }
}

/// A node this shard owns: its global id and its slot in the shard's
/// per-node vectors. Resolved once per event — the shard count is a
/// runtime value, so every `id / shards` is a real division.
#[derive(Debug, Clone, Copy)]
struct Owned {
    id: NodeId,
    local: usize,
}

/// One shard of a simulation: the actors it owns (a round-robin residue
/// class of the node ids), their meters and flood-dedup table, the
/// messages on the air, the local pending-event queue, and an outbox of
/// cross-shard deliveries. A single-threaded [`SimNet`] is exactly one
/// `ShardState` owning every node; the parallel runtime (`crate::shard`)
/// drives several in lockstep windows.
pub(crate) struct ShardState<A: Actor> {
    pub(crate) cfg: Arc<NetConfig>,
    /// Total shard count (1 for `SimNet`).
    shards: u32,
    /// This shard's index; it owns every node with `id % shards == index`.
    index: u32,
    /// Owned actors; local slot `i` holds global node `index + i·shards`.
    pub(crate) actors: Vec<A>,
    meters: Vec<EnergyMeter>,
    /// Per-owned-node trace ring buffers (see [`crate::Context::trace`];
    /// the runtime also records wire-layer events here). Node-local like
    /// the meters, so recorded streams are shard-invariant.
    tracers: Vec<Tracer>,
    /// Per-owned-node metrics samplers (see `eesmr-metrics`): lazy
    /// boundary-crossing on the node's own event stream, so sampled
    /// series are shard-invariant like the tracers.
    recorders: Vec<MetricsRecorder>,
    seen_floods: SeenFloods,
    on_air: OnAirTable<A::Msg>,
    /// Per-owned-node end of the current receive scan window, µs. The
    /// first reception in a window pays the full scan
    /// ([`ChannelCost::recv_mj`]); further receptions before it closes
    /// share the radio-on time and pay only marginal decode
    /// ([`ChannelCost::shared_recv_mj`]). Node-local, so scan pricing is
    /// shard-invariant.
    scan_until: Vec<u64>,
    /// Per-owned-node event push counters (high bits of the seq key).
    push_ctr: Vec<u64>,
    /// Per-owned-node hop-delay draw counters.
    draw_ctr: Vec<u64>,
    /// Per-owned-node selective-drop draw counters (separate from
    /// `draw_ctr` so enabling a drop rule never perturbs the hop-delay
    /// stream of unrelated deliveries).
    drop_ctr: Vec<u64>,
    /// Per-owned-node timer-id counters.
    timer_ctr: Vec<u64>,
    cancelled_timers: KeySet<u64>,
    fan_out: FanOut,
    queue: EventQueue<NodeEvent<A::Timer>>,
    /// Cross-shard deliveries generated this window, keyed by target
    /// shard (`outbox[self.index]` stays empty).
    outbox: Vec<Vec<ForeignDelivery<A::Msg>>>,
    /// Recycled outbox buffers: vectors drained by [`Self::ingest`] come
    /// back here and [`Self::take_outbox`] hands them out again, so the
    /// per-window exchange allocates nothing at steady state.
    event_buffers: FreeList<ForeignDelivery<A::Msg>>,
    /// Recycled effect-scratch buffers for [`Self::invoke`]: one actor
    /// invocation per queue pop means alloc-per-event without this.
    effect_buffers: FreeList<Effect<A::Msg, A::Timer>>,
    pub(crate) now: SimTime,
    pub(crate) stats: NetStats,
    pub(crate) interceptor: Option<Interceptor>,
}

impl<A: Actor> ShardState<A> {
    /// Builds shard `index` of `shards` over the shared config, owning
    /// `actors` (local order: ascending global id within the residue
    /// class). Seeds each owned node's Start event at t = 0.
    pub(crate) fn new(cfg: Arc<NetConfig>, index: u32, shards: u32, actors: Vec<A>) -> Self {
        assert!(shards >= 1 && index < shards);
        assert!(
            cfg.topology.n() < (1 << SEQ_NODE_BITS),
            "the seq key encoding caps systems at 2^20 nodes"
        );
        let local_n = actors.len();
        let queue = EventQueue::new(cfg.scheduler);
        let tracers = (0..local_n)
            .map(|local| Tracer::new(cfg.trace, index + (local as u32) * shards))
            .collect();
        let recorders = (0..local_n).map(|_| MetricsRecorder::new(&cfg.metrics)).collect();
        let owned = (0..local_n as u32).map(|local| index + local * shards);
        let fan_out = FanOut::new(&cfg.topology, owned, shards);
        let mut shard = ShardState {
            cfg,
            shards,
            index,
            actors,
            meters: vec![EnergyMeter::new(); local_n],
            tracers,
            recorders,
            seen_floods: SeenFloods::new(local_n),
            on_air: OnAirTable::new(),
            scan_until: vec![0; local_n],
            push_ctr: vec![0; local_n],
            draw_ctr: vec![0; local_n],
            drop_ctr: vec![0; local_n],
            timer_ctr: vec![0; local_n],
            cancelled_timers: KeySet::default(),
            fan_out,
            queue,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            event_buffers: FreeList::new(2 * shards as usize),
            effect_buffers: FreeList::new(2),
            now: SimTime::ZERO,
            stats: NetStats::default(),
            interceptor: None,
        };
        for local in 0..local_n {
            let node = Owned { id: shard.global(local), local };
            shard.push_own(node, SimTime::ZERO, EventKind::Start);
        }
        shard
    }

    /// The local slot of an owned global node id.
    pub(crate) fn local(&self, node: NodeId) -> usize {
        debug_assert!(node % self.shards == self.index, "a shard only handles its own nodes");
        (node / self.shards) as usize
    }

    /// The global node id of a local slot.
    pub(crate) fn global(&self, local: usize) -> NodeId {
        self.index + (local as u32) * self.shards
    }

    /// An owned node's meter.
    pub(crate) fn meter(&self, node: NodeId) -> &EnergyMeter {
        &self.meters[self.local(node)]
    }

    /// Drains an owned node's trace ring buffer.
    pub(crate) fn take_trace(&mut self, node: NodeId) -> NodeTrace {
        let local = self.local(node);
        self.tracers[local].drain()
    }

    /// Takes an owned node's sampled metrics series, leaving a disabled
    /// recorder behind.
    pub(crate) fn take_metrics_node(&mut self, node: NodeId) -> NodeSeries {
        let local = self.local(node);
        let off = MetricsRecorder::new(&MetricsConfig::off());
        std::mem::replace(&mut self.recorders[local], off).finish()
    }

    /// The earliest pending local event time, µs.
    pub(crate) fn next_time(&self) -> Option<u64> {
        self.queue.peek_time()
    }

    /// Accepts cross-shard deliveries (already keyed by their origin),
    /// each with a slot of its own. The drained buffer is recycled into
    /// the local pool.
    pub(crate) fn ingest(&mut self, mut deliveries: Vec<ForeignDelivery<A::Msg>>) {
        for (time, seq, to, record) in deliveries.drain(..) {
            let slot = self.admit(record);
            self.queue.push(time, seq, (to, EventKind::Deliver { slot, loopback: false }));
        }
        self.event_buffers.put(deliveries);
    }

    /// Drains the outbox destined for shard `dst`, replacing it with a
    /// recycled buffer.
    pub(crate) fn take_outbox(&mut self, dst: usize) -> Vec<ForeignDelivery<A::Msg>> {
        let replacement = self.event_buffers.get();
        std::mem::replace(&mut self.outbox[dst], replacement)
    }

    /// Processes every local event with `time < horizon_us` (exclusive —
    /// events at exactly the horizon belong to the next window).
    pub(crate) fn run_window(&mut self, horizon_us: u64) {
        while self.step_if(|time| time < horizon_us).is_some() {}
    }

    /// Processes the next event, if any, returning its timestamp.
    pub(crate) fn step(&mut self) -> Option<SimTime> {
        self.step_if(|_| true)
    }

    /// Processes the next event if `due` accepts its time (µs), returning
    /// its timestamp; `None` when the queue is empty or its head not due.
    pub(crate) fn step_if(&mut self, due: impl FnOnce(u64) -> bool) -> Option<SimTime> {
        let popped = {
            let _t = ProfTimer::start(ProfPhase::SchedPop);
            self.queue.pop_if(due)
        };
        let (time, _seq, (id, kind)) = popped?;
        let node = Owned { id, local: self.local(id) };
        let local = node.local;
        self.now = SimTime::from_micros(time);
        // Lazy boundary-crossing sampling: before dispatching an event
        // that reached the node's next cadence boundary, record one
        // sample per elapsed boundary from node-local state only.
        // Same per-node event stream on every shard layout ⇒ same
        // boundary crossings ⇒ bit-identical series.
        if self.recorders[local].due(time) {
            let gauges = self.actors[local].gauges();
            let total = self.meters[local].total_mj();
            self.recorders[local].sample_up_to(time, &gauges, total);
        }
        self.recorders[local].note_event();
        match kind {
            EventKind::Start => {
                self.invoke(node, EnergyPhase::Other, |actor, ctx| actor.on_start(ctx))
            }
            EventKind::Timer { id, token } => {
                if self.cancelled_timers.remove(&id.0) {
                    return Some(self.now);
                }
                self.tracers[local].record(time, TraceEventKind::TimerFire { id: id.0 });
                self.invoke(node, EnergyPhase::Timer, |actor, ctx| actor.on_timer(token, ctx));
            }
            EventKind::Deliver { slot, loopback } => {
                let air = self.on_air.record(slot);
                let (from, size, phase, flood) = (air.from, air.size, air.phase, air.flood);
                // Duplicate-aware receive pricing: a flood the node has
                // already decoded once is recognized from the first
                // advertisement of the train and the rest is abandoned
                // ([`ChannelCost::dup_recv_mj`]), so relay storms charge
                // each node one full reception per distinct message, not
                // per in-edge.
                let fresh = match flood {
                    Some(_) => self.seen_floods.insert(self.on_air.row(slot), local),
                    None => true,
                };
                if !loopback {
                    let scanning = self.cfg.channel.scanning_receiver();
                    let (mj, class) = if !fresh {
                        (self.cfg.channel.dup_recv_mj(size), EnergyClass::DupAbandoned)
                    } else if time >= self.scan_until[local] {
                        // First reception in a fresh scan window: price the
                        // whole radio-on window. Anything else landing
                        // within one hop-delay quantum shares that scan.
                        self.scan_until[local] = time + self.cfg.hop_delay_max.as_micros();
                        let class =
                            if scanning { EnergyClass::RecvScan } else { EnergyClass::RecvDecode };
                        (self.cfg.channel.recv_mj(size), class)
                    } else {
                        let class = if scanning {
                            EnergyClass::SharedScan
                        } else {
                            EnergyClass::RecvDecode
                        };
                        (self.cfg.channel.shared_recv_mj(size), class)
                    };
                    self.meters[local].charge_as(EnergyCategory::Recv, class, phase, mj);
                } else {
                    self.stats.loopbacks += 1;
                }
                if let Some(meta) = flood {
                    if !fresh {
                        self.on_air.release(slot);
                        return Some(self.now); // duplicate: scanned, not processed
                    }
                    // Relay once on all out-edges (network-layer gossip).
                    // The next hops hold the slot before this delivery
                    // lets go of it.
                    self.transmit(node, slot, true);
                    if meta.target.is_some_and(|t| t != node.id) {
                        self.on_air.release(slot);
                        return Some(self.now); // relayed on, addressed elsewhere
                    }
                }
                self.stats.deliveries += 1;
                let flood = flood.is_some();
                self.tracers[local]
                    .record(time, TraceEventKind::MsgDeliver { from, bytes: size as u64, flood });
                let msg = self.on_air.take_msg(slot);
                self.invoke(node, phase, |actor, ctx| actor.on_message(from, msg, ctx));
            }
        }
        Some(self.now)
    }

    /// The next sequence key of events `origin` generates: its private
    /// push counter above its id.
    fn next_seq(&mut self, origin: Owned) -> u64 {
        let counter = &mut self.push_ctr[origin.local];
        debug_assert!(*counter < 1 << (64 - SEQ_NODE_BITS), "per-node push counter overflow");
        let seq = (*counter << SEQ_NODE_BITS) | origin.id as u64;
        *counter += 1;
        seq
    }

    /// Queues an event `node` generates for itself (start, loopback,
    /// timer) under its next sequence key.
    fn push_own(&mut self, node: Owned, time: SimTime, kind: EventKind<A::Timer>) {
        let seq = self.next_seq(node);
        self.queue.push(time.as_micros(), seq, (node.id, kind));
    }

    /// The next hop delay for a transmission by `from`: a counter-keyed
    /// draw in `[hop_delay_min, hop_delay_max]`, advancing only the
    /// sender's private draw counter.
    fn hop_delay(&mut self, from: Owned) -> SimDuration {
        let lo = self.cfg.hop_delay_min.as_micros();
        let hi = self.cfg.hop_delay_max.as_micros().max(lo);
        let counter = &mut self.draw_ctr[from.local];
        let draw = keyed_draw(self.cfg.seed, from.id, *counter);
        *counter += 1;
        SimDuration::from_micros(lo + draw % (hi - lo + 1))
    }

    /// Gives `record` a slot holding one queued delivery, resolving its
    /// flood's `SeenFloods` row here, once per record that enters the
    /// shard.
    fn admit(&mut self, record: Arc<OnAir<A::Msg>>) -> u32 {
        let row = record.flood.map_or(NO_ROW, |meta| self.seen_floods.row(meta.key));
        self.on_air.insert(record, row)
    }

    /// Puts the record in `slot` on the air from `node` (its sender, or a
    /// relayer of the flood) on all the node's out-edges; charges the
    /// sender, samples per-receiver delays, and consults the interceptor.
    /// Each local receiver adds a hold on the slot; a foreign one gets a
    /// handle to the record.
    fn transmit(&mut self, node: Owned, slot: u32, relay: bool) {
        let _prof = ProfTimer::start(ProfPhase::Transmit);
        let air = self.on_air.record(slot);
        let (size, phase, is_flood) = (air.size, air.phase, air.flood.is_some());
        let mut holds = 0;
        let now_us = self.now.as_micros();
        // One event per transmit (k-cast), not per receiver.
        self.tracers[node.local]
            .record(now_us, TraceEventKind::MsgSend { bytes: size as u64, flood: relay });
        let faulty_links = !self.cfg.link_faults.is_empty();
        // By index, so the meters and counters below can take mutable
        // borrows while the fan-out is walked in place.
        for edge in self.fan_out.edges_of(node.local) {
            let receivers = self.fan_out.receivers_of(edge);
            let mj = self.cfg.channel.send_mj(size, receivers.len());
            self.meters[node.local].charge_as(EnergyCategory::Send, EnergyClass::Send, phase, mj);
            self.stats.kcasts += 1;
            if relay {
                self.stats.flood_relays += 1;
            }
            self.stats.bytes_on_air += size as u64;
            for at in receivers {
                let to = self.fan_out.receivers[at];
                // The link-fault schedule first: partitions sever the
                // link outright; selective drop rules consume one keyed
                // draw from the sender's private drop counter per
                // matching delivery. Both decisions are pure functions
                // of sender-local state, so sharding cannot change them.
                if faulty_links {
                    if self.cfg.link_faults.severed(now_us, node.id, to.node) {
                        self.stats.dropped += 1;
                        continue;
                    }
                    let rule = self.cfg.link_faults.drop_permille(now_us, node.id, to.node);
                    if let Some(permille) = rule {
                        let counter = &mut self.drop_ctr[node.local];
                        let draw = keyed_draw(self.cfg.seed ^ DROP_SALT, node.id, *counter);
                        *counter += 1;
                        if draw % 1000 < permille as u64 {
                            self.stats.dropped += 1;
                            continue;
                        }
                    }
                }
                let delivery = Delivery { from: node.id, to: to.node, size, is_flood };
                let fate = match self.interceptor.as_mut() {
                    Some(i) => i(&delivery),
                    None => Fate::Deliver,
                };
                let extra = match fate {
                    Fate::Drop => {
                        self.stats.dropped += 1;
                        continue;
                    }
                    Fate::Deliver => SimDuration::ZERO,
                    Fate::DelayBy(d) => d,
                };
                let due = (self.now + self.hop_delay(node) + extra).as_micros();
                let seq = self.next_seq(node);
                // Local receivers go straight into the queue, foreign
                // ones into their shard's outbox.
                if to.shard == self.index {
                    holds += 1;
                    let event = (to.node, EventKind::Deliver { slot, loopback: false });
                    self.queue.push(due, seq, event);
                } else {
                    let record = Arc::clone(self.on_air.record(slot));
                    self.outbox[to.shard as usize].push((due, seq, to.node, record));
                }
            }
        }
        self.on_air.hold(slot, holds);
    }

    fn invoke(
        &mut self,
        node: Owned,
        phase: EnergyPhase,
        f: impl FnOnce(&mut A, &mut Context<'_, A::Msg, A::Timer>),
    ) {
        let local = node.local;
        // Stamp the meter with the phase of the event being handled, so
        // every compute charge the actor makes (sign/verify/hash) is
        // attributed to the message kind that caused it — no tagging at
        // the protocol's charge sites.
        self.meters[local].set_phase(phase);
        let mut ctx = Context {
            node: node.id,
            now: self.now,
            meter: &mut self.meters[local],
            next_timer_id: &mut self.timer_ctr[local],
            tracer: &mut self.tracers[local],
            effects: self.effect_buffers.get(),
        };
        {
            let _prof = ProfTimer::start(ProfPhase::ReplicaStep);
            f(&mut self.actors[local], &mut ctx);
        }
        // Invocations never nest (effects are applied here, outside the
        // actor), so draining into the pool and recycling is safe.
        let mut effects = ctx.effects;
        self.meters[local].set_phase(EnergyPhase::Other);
        for effect in effects.drain(..) {
            match effect {
                Effect::Multicast(msg) => {
                    // Loopback first so the sender processes its own
                    // message through the uniform path, then the real hops.
                    let slot = self.admit(OnAir::new(node.id, msg, None));
                    self.push_own(node, self.now, EventKind::Deliver { slot, loopback: true });
                    self.transmit(node, slot, false);
                }
                Effect::Flood { msg, target } => {
                    // Flood origination is a loopback delivery carrying the
                    // flood metadata: the origin marks it seen, relays on
                    // its out-edges, and (if targeted elsewhere) skips its
                    // own actor.
                    let seq = self.next_seq(node);
                    // A broadcast is keyed by content, so re-flooding what
                    // the network has seen goes nowhere. A `send_to` is a
                    // communication of its own every time — the same
                    // forward retried, or one reply sent to two requesters
                    // — as the unicast `ProcNet` makes of it: it is keyed
                    // by its origination, the loopback's sequence key.
                    let key = match target {
                        None => msg.flood_key(),
                        Some(_) => keyed_draw(SEND_TO_SALT, node.id, seq),
                    };
                    let air = OnAir::new(node.id, msg, Some(FloodMeta { key, target }));
                    let slot = self.admit(air);
                    let event = (node.id, EventKind::Deliver { slot, loopback: true });
                    self.queue.push(self.now.as_micros(), seq, event);
                }
                Effect::SetTimer { id, delay, token } => {
                    self.push_own(node, self.now + delay, EventKind::Timer { id, token });
                }
                Effect::CancelTimer(id) => {
                    self.cancelled_timers.insert(id.0);
                }
            }
        }
        self.effect_buffers.put(effects);
    }
}

/// The single-threaded simulation: one shard (`ShardState`) owning every node,
/// behind the historical per-event API. For sharding one simulation
/// across worker threads, see [`crate::shard::ShardedNet`] — both
/// runtimes produce bit-identical traces by construction (all
/// nondeterminism is keyed by node-local counters; see the module docs).
pub struct SimNet<A: Actor> {
    shard: ShardState<A>,
}

impl<A: Actor> SimNet<A> {
    /// Builds a simulation over `cfg.topology` with one actor per node.
    ///
    /// # Panics
    ///
    /// Panics if `actors.len() != cfg.topology.n()`.
    pub fn new(cfg: NetConfig, actors: Vec<A>) -> Self {
        assert_eq!(actors.len(), cfg.topology.n(), "one actor per topology node");
        SimNet { shard: ShardState::new(Arc::new(cfg), 0, 1, actors) }
    }

    /// Installs an adversarial scheduling hook (replaces any previous one).
    pub fn set_interceptor(&mut self, interceptor: Interceptor) {
        self.shard.interceptor = Some(interceptor);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shard.now
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.shard.cfg
    }

    /// Immutable view of an actor.
    pub fn actor(&self, id: NodeId) -> &A {
        &self.shard.actors[id as usize]
    }

    /// All actors.
    pub fn actors(&self) -> &[A] {
        &self.shard.actors
    }

    /// A node's energy meter.
    pub fn meter(&self, id: NodeId) -> &EnergyMeter {
        &self.shard.meters[id as usize]
    }

    /// All meters.
    pub fn meters(&self) -> &[EnergyMeter] {
        &self.shard.meters
    }

    /// Aggregate energy over a subset of nodes (e.g. the correct ones).
    pub fn energy_of(&self, nodes: impl IntoIterator<Item = NodeId>) -> EnergyMeter {
        let mut total = EnergyMeter::new();
        for id in nodes {
            total.absorb(&self.shard.meters[id as usize]);
        }
        total
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.shard.stats
    }

    /// Drains every node's trace ring buffer into a [`TraceSet`]
    /// (node-id order). Empty when the config's
    /// [`trace`](NetConfig::trace) level is [`TraceLevel::Off`].
    pub fn take_traces(&mut self) -> TraceSet {
        let n = self.shard.cfg.topology.n() as NodeId;
        TraceSet { nodes: (0..n).map(|id| self.shard.take_trace(id)).collect() }
    }

    /// Takes every node's sampled metrics series as a [`MetricsSet`]
    /// (node-id order). Empty series when the config's
    /// [`metrics`](NetConfig::metrics) sampling is disabled.
    pub fn take_metrics(&mut self) -> MetricsSet {
        let n = self.shard.cfg.topology.n() as NodeId;
        MetricsSet {
            dt_us: self.shard.cfg.metrics.dt_us,
            nodes: (0..n).map(|id| self.shard.take_metrics_node(id)).collect(),
        }
    }

    /// Processes the next event, if any, returning its timestamp.
    pub fn step(&mut self) -> Option<SimTime> {
        self.shard.step()
    }

    /// Runs until the queue is exhausted or virtual time would pass `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.shard.step_if(|head| head <= t.as_micros()).is_some() {}
        self.shard.now = self.shard.now.max(t);
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.shard.now + d;
        self.run_until(target);
    }

    /// Runs until `pred` holds over the actors or `deadline` passes.
    /// Returns `true` if the predicate was met.
    pub fn run_until_pred(
        &mut self,
        deadline: SimTime,
        mut pred: impl FnMut(&[A]) -> bool,
    ) -> bool {
        loop {
            if pred(&self.shard.actors) {
                return true;
            }
            if self.shard.step_if(|head| head <= deadline.as_micros()).is_none() {
                self.shard.now = self.shard.now.max(deadline);
                return pred(&self.shard.actors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eesmr_hypergraph::topology;
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::rc::Rc;

    /// Tiny test protocol: node 0 floods one "ping"; everyone records what
    /// they saw; node 0 also exercises timers and multicast.
    #[derive(Debug, Clone)]
    enum TMsg {
        Ping(u64),
        Hop(u64),
    }

    impl Message for TMsg {
        fn wire_size(&self) -> usize {
            64
        }
        fn flood_key(&self) -> u64 {
            match self {
                TMsg::Ping(x) => *x,
                TMsg::Hop(x) => 1_000_000 + *x,
            }
        }
    }

    #[derive(Debug, Default)]
    struct TActor {
        pings: Vec<u64>,
        hops: Vec<u64>,
        timer_fired: bool,
        cancelled_fired: bool,
    }

    impl Actor for TActor {
        type Msg = TMsg;
        type Timer = &'static str;

        fn on_start(&mut self, ctx: &mut Context<'_, TMsg, &'static str>) {
            if ctx.id() == 0 {
                ctx.flood(TMsg::Ping(7));
                ctx.multicast(TMsg::Hop(1));
                ctx.set_timer(SimDuration::from_millis(5), "fire");
                let doomed = ctx.set_timer(SimDuration::from_millis(1), "doomed");
                ctx.cancel_timer(doomed);
            }
        }

        fn on_message(
            &mut self,
            _from: NodeId,
            msg: TMsg,
            _ctx: &mut Context<'_, TMsg, &'static str>,
        ) {
            match msg {
                TMsg::Ping(x) => self.pings.push(x),
                TMsg::Hop(x) => self.hops.push(x),
            }
        }

        fn on_timer(&mut self, token: &'static str, _ctx: &mut Context<'_, TMsg, &'static str>) {
            match token {
                "fire" => self.timer_fired = true,
                _ => self.cancelled_fired = true,
            }
        }
    }

    fn net(n: usize, k: usize, seed: u64) -> SimNet<TActor> {
        let cfg = NetConfig::ble(topology::ring_kcast(n, k), seed);
        let actors = (0..n).map(|_| TActor::default()).collect();
        SimNet::new(cfg, actors)
    }

    #[test]
    fn flood_reaches_every_node_exactly_once() {
        let mut net = net(8, 2, 1);
        net.run_for(SimDuration::from_millis(50));
        for id in 0..8 {
            assert_eq!(net.actor(id).pings, vec![7], "node {id}");
        }
    }

    #[test]
    fn flood_respects_delta_bound() {
        let mut net = net(9, 2, 2);
        let delta = net.config().delta();
        net.run_until(SimTime::ZERO + delta);
        for id in 0..9 {
            assert_eq!(net.actor(id).pings, vec![7], "node {id} must have the ping within Δ");
        }
    }

    #[test]
    fn multicast_is_single_hop_plus_loopback() {
        let mut net = net(8, 2, 3);
        net.run_for(SimDuration::from_millis(50));
        // Node 0's Hop reaches its two ring neighbours 1, 2 — and itself.
        for id in 0..8u32 {
            let expect = matches!(id, 0..=2);
            assert_eq!(!net.actor(id).hops.is_empty(), expect, "node {id}");
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut net = net(4, 2, 4);
        net.run_for(SimDuration::from_millis(50));
        assert!(net.actor(0).timer_fired);
        assert!(!net.actor(0).cancelled_fired);
    }

    #[test]
    fn energy_is_charged_for_transmissions() {
        let mut net = net(6, 2, 5);
        net.run_for(SimDuration::from_millis(50));
        // The flood relays once per node: everyone paid send energy.
        for id in 0..6 {
            assert!(net.meter(id).mj(EnergyCategory::Send) > 0.0, "node {id} sent");
            assert!(net.meter(id).mj(EnergyCategory::Recv) > 0.0, "node {id} received");
        }
        // Loopbacks are free: a 1-node... (smallest ring is 3; skip)
        let stats = net.stats();
        assert!(stats.kcasts >= 6, "each node relayed the flood");
        assert!(stats.loopbacks >= 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut n = net(7, 3, seed);
            n.run_for(SimDuration::from_millis(20));
            (n.stats().clone(), n.energy_of(0..7).total_mj(), n.now())
        };
        assert_eq!(run(42), run(42));
        let (s1, e1, _) = run(42);
        let (s2, e2, _) = run(43);
        // Different seeds may reorder deliveries, but conservation holds.
        assert_eq!(s1.deliveries, s2.deliveries);
        assert!((e1 - e2).abs() < 1e-9, "energy is schedule-independent here");
    }

    #[test]
    fn targeted_flood_only_delivers_to_target() {
        #[derive(Debug, Default)]
        struct Target(Vec<u64>);
        impl Actor for Target {
            type Msg = TMsg;
            type Timer = ();
            fn on_start(&mut self, ctx: &mut Context<'_, TMsg, ()>) {
                if ctx.id() == 0 {
                    ctx.send_to(3, TMsg::Ping(9));
                }
            }
            fn on_message(&mut self, _f: NodeId, msg: TMsg, _c: &mut Context<'_, TMsg, ()>) {
                if let TMsg::Ping(x) = msg {
                    self.0.push(x);
                }
            }
            fn on_timer(&mut self, _t: (), _c: &mut Context<'_, TMsg, ()>) {}
        }
        let cfg = NetConfig::ble(topology::ring_kcast(6, 2), 9);
        let mut net = SimNet::new(cfg, (0..6).map(|_| Target::default()).collect::<Vec<_>>());
        net.run_for(SimDuration::from_millis(50));
        for id in 0..6u32 {
            assert_eq!(!net.actor(id).0.is_empty(), id == 3, "node {id}");
        }
    }

    #[test]
    fn interceptor_can_drop_everything() {
        let mut net = net(5, 2, 10);
        net.set_interceptor(Box::new(|_| Fate::Drop));
        net.run_for(SimDuration::from_millis(50));
        // Only loopbacks arrive: node 0 sees its own ping, nobody else does.
        assert_eq!(net.actor(0).pings, vec![7]);
        for id in 1..5 {
            assert!(net.actor(id).pings.is_empty(), "node {id}");
        }
        assert!(net.stats().dropped > 0);
    }

    #[test]
    fn interceptor_delay_still_delivers() {
        let mut net = net(5, 2, 11);
        net.set_interceptor(Box::new(|d| {
            if d.from == 0 {
                Fate::DelayBy(SimDuration::from_millis(2))
            } else {
                Fate::Deliver
            }
        }));
        net.run_for(SimDuration::from_millis(100));
        for id in 0..5 {
            assert_eq!(net.actor(id).pings, vec![7], "node {id}");
        }
    }

    #[test]
    fn run_until_pred_stops_early() {
        let mut net = net(8, 2, 12);
        let deadline = SimTime::from_micros(10_000_000);
        let ok = net.run_until_pred(deadline, |actors| {
            actors.iter().filter(|a| !a.pings.is_empty()).count() >= 4
        });
        assert!(ok);
        assert!(net.now() < deadline, "stopped well before the deadline");
    }

    #[test]
    #[should_panic(expected = "one actor per topology node")]
    fn wrong_actor_count_panics() {
        let cfg = NetConfig::ble(topology::ring_kcast(4, 2), 1);
        let _ = SimNet::new(cfg, vec![TActor::default()]);
    }

    #[test]
    fn wire_tracing_records_sends_delivers_and_timers() {
        let mut cfg = NetConfig::ble(topology::ring_kcast(4, 2), 4);
        cfg.trace = TraceLevel::All;
        let mut net = SimNet::new(cfg, (0..4).map(|_| TActor::default()).collect::<Vec<_>>());
        net.run_for(SimDuration::from_millis(50));
        let traces = net.take_traces();
        assert_eq!(traces.nodes.len(), 4);
        let merged = traces.merged();
        let has = |f: fn(&TraceEventKind) -> bool| merged.iter().any(|e| f(&e.kind));
        assert!(has(|k| matches!(k, TraceEventKind::MsgSend { .. })));
        assert!(has(|k| matches!(k, TraceEventKind::MsgDeliver { flood: true, .. })));
        assert!(has(|k| matches!(k, TraceEventKind::TimerFire { .. })));
        assert_eq!(traces.total_dropped(), 0);
        // Draining leaves the buffers empty.
        assert_eq!(net.take_traces().total_events(), 0);
    }

    #[test]
    fn partition_severs_and_heals() {
        // Island {0} partitioned for the first 20 ms: node 0's flood at
        // t=0 never escapes. After healing, a re-flood would cross — we
        // approximate by checking drops were counted and nobody but 0
        // heard the ping while the window covered the whole run.
        let mut cfg = NetConfig::ble(topology::ring_kcast(6, 2), 21);
        cfg.link_faults.partitions.push(Partition { start_us: 0, end_us: 20_000, island: vec![0] });
        let mut net = SimNet::new(cfg, (0..6).map(|_| TActor::default()).collect::<Vec<_>>());
        net.run_for(SimDuration::from_millis(10));
        assert_eq!(net.actor(0).pings, vec![7], "origin loopback still delivers");
        for id in 1..6 {
            assert!(net.actor(id).pings.is_empty(), "node {id} is behind the partition");
        }
        assert!(net.stats().dropped > 0);
    }

    #[test]
    fn partition_is_island_internal_only() {
        // Island {0, 1}: node 0's flood reaches node 1 (in-island link)
        // but not nodes 2..5.
        let mut cfg = NetConfig::ble(topology::ring_kcast(6, 2), 22);
        cfg.link_faults.partitions.push(Partition {
            start_us: 0,
            end_us: u64::MAX,
            island: vec![0, 1],
        });
        let mut net = SimNet::new(cfg, (0..6).map(|_| TActor::default()).collect::<Vec<_>>());
        net.run_for(SimDuration::from_millis(20));
        assert_eq!(net.actor(1).pings, vec![7]);
        for id in 2..6 {
            assert!(net.actor(id).pings.is_empty(), "node {id}");
        }
    }

    #[test]
    fn selective_drop_is_deterministic_and_total_at_1000_permille() {
        let run = |permille: u16, seed: u64| {
            let mut cfg = NetConfig::ble(topology::ring_kcast(6, 2), seed);
            cfg.link_faults.drops.push(LinkDrop {
                from: 0,
                to: None,
                permille,
                start_us: 0,
                end_us: u64::MAX,
            });
            let mut net = SimNet::new(cfg, (0..6).map(|_| TActor::default()).collect::<Vec<_>>());
            net.run_for(SimDuration::from_millis(20));
            (net.stats().clone(), (0..6).map(|i| net.actor(i).pings.clone()).collect::<Vec<_>>())
        };
        // 1000‰ = everything node 0 sends is dropped: its ping never
        // escapes its own loopback.
        let (stats, pings) = run(1000, 23);
        assert!(stats.dropped > 0);
        assert_eq!(pings[0], vec![7]);
        assert!(pings[1..].iter().all(Vec::is_empty));
        // Same seed, same rule ⇒ bit-identical outcome.
        assert_eq!(run(700, 24), run(700, 24));
        // 0‰ matches but never drops.
        let (stats, pings) = run(0, 25);
        assert_eq!(stats.dropped, 0);
        assert!(pings.iter().all(|p| p == &vec![7]));
    }

    #[test]
    fn link_fault_windows_match_schedule_helpers() {
        let lf = LinkFaults {
            partitions: vec![Partition { start_us: 10, end_us: 50, island: vec![1, 2] }],
            drops: vec![LinkDrop { from: 0, to: Some(3), permille: 500, start_us: 0, end_us: 80 }],
        };
        assert!(!lf.is_empty());
        assert!(lf.severed(10, 1, 3));
        assert!(lf.severed(49, 0, 2));
        assert!(!lf.severed(50, 1, 3), "healed at end_us");
        assert!(!lf.severed(20, 1, 2), "island-internal link survives");
        assert!(!lf.severed(20, 0, 3), "outside-outside link survives");
        assert_eq!(lf.drop_permille(0, 0, 3), Some(500));
        assert_eq!(lf.drop_permille(0, 0, 4), None);
        assert_eq!(lf.drop_permille(80, 0, 3), None, "rule expired");
        assert_eq!(lf.heal_time_us(), 80);
        assert!(LinkFaults::default().is_empty());
    }

    #[test]
    fn seen_floods_agree_with_one_key_set_per_node() {
        // More than 64 owned nodes, so rows span several words, and far
        // more keys than any initial capacity, so both the map and the
        // bit rows grow mid-stream. Keys come from a small pool (repeat
        // probes are the common case) in the two shapes the runtime
        // sees: digests and node-tagged counters.
        let nodes = 150;
        let mut table = SeenFloods::new(nodes);
        let mut model = vec![HashSet::new(); nodes];
        for step in 0..40_000u64 {
            let draw = keyed_draw(7, 0, step);
            let key = match draw % 3 {
                0 => keyed_draw(11, 1, draw % 300),
                1 => ((draw % 16) << 32) | ((draw >> 8) % 20),
                _ => (draw >> 8) % 50,
            };
            let local = (keyed_draw(13, 2, step) % nodes as u64) as usize;
            let row = table.row(key);
            assert_eq!(table.row(key), row, "step {step}: a key keeps its row");
            assert_eq!(table.insert(row, local), model[local].insert(key), "step {step}");
        }
        let distinct: HashSet<u64> = model.iter().flatten().copied().collect();
        assert_eq!(table.rows.len(), distinct.len());
        assert_eq!(table.bits.len(), distinct.len() * nodes.div_ceil(64));
    }

    /// The deliveries queued on `table`, checking on the way that a slot
    /// holds its record exactly while deliveries name it, and is on the
    /// free list exactly when it does not.
    fn queued_holds<M: Message>(table: &OnAirTable<M>) -> u64 {
        for (at, slot) in table.slots.iter().enumerate() {
            assert_eq!(slot.record.is_some(), slot.queued > 0, "slot {at}");
            assert_eq!(table.free.contains(&(at as u32)), slot.record.is_none(), "slot {at}");
        }
        table.slots.iter().map(|slot| slot.queued as u64).sum()
    }

    /// A message that counts its own clones.
    #[derive(Debug)]
    struct Tally {
        id: u64,
        clones: Rc<Cell<u64>>,
    }

    impl Clone for Tally {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            Tally { id: self.id, clones: Rc::clone(&self.clones) }
        }
    }

    impl Message for Tally {
        fn wire_size(&self) -> usize {
            32
        }
        fn flood_key(&self) -> u64 {
            self.id
        }
    }

    /// Node 0 multicasts `Tally(0..5)`, one every 2 ms; everyone records
    /// the ids it hears.
    #[derive(Debug, Default)]
    struct Ticker {
        clones: Rc<Cell<u64>>,
        sent: u64,
        heard: Vec<u64>,
    }

    impl Actor for Ticker {
        type Msg = Tally;
        type Timer = ();

        fn on_start(&mut self, ctx: &mut Context<'_, Tally, ()>) {
            if ctx.id() == 0 {
                ctx.set_timer(SimDuration::from_millis(2), ());
            }
        }

        fn on_message(&mut self, _: NodeId, msg: Tally, _: &mut Context<'_, Tally, ()>) {
            self.heard.push(msg.id);
        }

        fn on_timer(&mut self, _: (), ctx: &mut Context<'_, Tally, ()>) {
            ctx.multicast(Tally { id: self.sent, clones: Rc::clone(&self.clones) });
            self.sent += 1;
            if self.sent < 5 {
                ctx.set_timer(SimDuration::from_millis(2), ());
            }
        }
    }

    #[test]
    fn a_slot_is_released_by_its_last_delivery_and_reused_for_the_next_message() {
        let clones = Rc::new(Cell::new(0));
        let actors: Vec<Ticker> =
            (0..4).map(|_| Ticker { clones: Rc::clone(&clones), ..Ticker::default() }).collect();
        let mut net = SimNet::new(NetConfig::ble(topology::ring_kcast(4, 2), 17), actors);
        while net.step().is_some() {
            // A multicast is three deliveries: the loopback and the two
            // ring successors. Each holds the slot until it pops.
            let sent = net.actor(0).sent;
            let heard: u64 = net.actors().iter().map(|a| a.heard.len() as u64).sum();
            assert_eq!(queued_holds(&net.shard.on_air), 3 * sent - heard, "at {}", net.now());
        }
        for id in 0..4 {
            let expected: Vec<u64> = if id < 3 { (0..5).collect() } else { vec![] };
            assert_eq!(net.actor(id).heard, expected, "node {id}");
        }
        // The multicasts never overlap on the air, so each one reused the
        // slot its predecessor released — and handed out its own payload.
        assert_eq!(net.shard.on_air.slots.len(), 1);
        // The first two deliveries of each message copy it; the last
        // takes it.
        assert_eq!(clones.get(), 2 * 5);
    }

    #[test]
    fn a_flood_relayed_by_its_last_holder_reaches_the_next_hop() {
        // On a k = 1 ring every delivery of a flood is the only one queued
        // when it pops: the relay must hold the slot before it is let go.
        // The routed message passes three nodes that only relay it.
        let mut actors: Vec<Scripted> = (0..5).map(|_| Scripted::default()).collect();
        actors[0].script = vec![(0, None, 7), (10_000, Some(4), 9)];
        let mut net = SimNet::new(NetConfig::ble(topology::ring_kcast(5, 1), 31), actors);
        while net.step().is_some() {
            assert!(queued_holds(&net.shard.on_air) <= 1, "at {}", net.now());
        }
        for id in 0..5u32 {
            let expected = if id == 4 { vec![(0, 7), (0, 9)] } else { vec![(0, 7)] };
            assert_eq!(net.actor(id).heard, expected, "node {id}");
        }
        assert_eq!(net.stats().flood_relays, 10);
        assert_eq!(queued_holds(&net.shard.on_air), 0);
        assert_eq!(net.shard.on_air.slots.len(), 1);
    }

    /// Floods or routes what its script says: `(at µs, target, payload)`.
    #[derive(Debug, Default)]
    struct Scripted {
        script: Vec<(u64, Option<NodeId>, u64)>,
        heard: Vec<(NodeId, u64)>,
    }

    impl Actor for Scripted {
        type Msg = TMsg;
        type Timer = (Option<NodeId>, u64);

        fn on_start(&mut self, ctx: &mut Context<'_, TMsg, Self::Timer>) {
            for &(at, target, payload) in &self.script {
                ctx.set_timer(SimDuration::from_micros(at), (target, payload));
            }
        }

        fn on_message(&mut self, from: NodeId, msg: TMsg, _: &mut Context<'_, TMsg, Self::Timer>) {
            if let TMsg::Ping(x) = msg {
                self.heard.push((from, x));
            }
        }

        fn on_timer(
            &mut self,
            (target, payload): Self::Timer,
            ctx: &mut Context<'_, TMsg, Self::Timer>,
        ) {
            match target {
                Some(to) => ctx.send_to(to, TMsg::Ping(payload)),
                None => ctx.flood(TMsg::Ping(payload)),
            }
        }
    }

    /// A 6-node k = 2 ring on which node 0 runs `script`.
    fn scripted(script: Vec<(u64, Option<NodeId>, u64)>) -> SimNet<Scripted> {
        let mut actors: Vec<Scripted> = (0..6).map(|_| Scripted::default()).collect();
        actors[0].script = script;
        SimNet::new(NetConfig::ble(topology::ring_kcast(6, 2), 31), actors)
    }

    #[test]
    fn reflooding_a_seen_key_goes_nowhere() {
        let mut net = scripted(vec![(0, None, 7), (20_000, None, 7)]);
        net.run_for(SimDuration::from_millis(10));
        let settled = net.stats().clone();
        assert_eq!((settled.deliveries, settled.kcasts), (6, 6));
        net.run_for(SimDuration::from_millis(30));
        // The second origination is one more loopback, recognised there:
        // nothing goes on the air and no actor hears it again.
        let expected = NetStats { loopbacks: settled.loopbacks + 1, ..settled };
        assert_eq!(net.stats(), &expected);
        for id in 0..6 {
            assert_eq!(net.actor(id).heard, vec![(0, 7)], "node {id}");
        }
    }

    #[test]
    fn one_payload_routed_to_two_targets_reaches_both() {
        let mut net = scripted(vec![(0, Some(2), 9), (0, Some(4), 9)]);
        net.run_for(SimDuration::from_millis(20));
        for id in 0..6u32 {
            let expected = if id == 2 || id == 4 { vec![(0, 9)] } else { vec![] };
            assert_eq!(net.actor(id).heard, expected, "node {id}");
        }
        // Each is a flood of its own: relayed once per node.
        assert_eq!(net.stats().flood_relays, 12);
    }

    #[test]
    fn routing_the_same_payload_again_reaches_the_target_again() {
        // A retry is a new communication, not a duplicate of the first try
        // (ProcNet sends it as a second unicast): it goes on the air again.
        let mut net = scripted(vec![(0, Some(3), 9), (20_000, Some(3), 9)]);
        net.run_for(SimDuration::from_millis(40));
        for id in 0..6u32 {
            let expected = if id == 3 { vec![(0, 9), (0, 9)] } else { vec![] };
            assert_eq!(net.actor(id).heard, expected, "node {id}");
        }
        assert_eq!(net.stats().flood_relays, 12);
    }

    #[test]
    fn a_duplicate_reception_is_charged_as_an_abandoned_train() {
        let mut net = scripted(vec![(0, None, 7)]);
        net.run_for(SimDuration::from_millis(20));
        // Every node relays once to its two successors, so every node
        // hears the flood on both its in-edges: one of them fresh — none
        // at the origin, which saw it first on its own loopback.
        let dup = net.config().channel.dup_recv_mj(64);
        assert!(dup > 0.0 && dup < net.config().channel.shared_recv_mj(64));
        for id in 0..6u32 {
            let duplicates = if id == 0 { 2 } else { 1 };
            let meter = net.meter(id);
            assert_eq!(meter.count(EnergyCategory::Recv), 2, "node {id}");
            assert_eq!(
                meter.attribution().class_mj(EnergyClass::DupAbandoned),
                dup * duplicates as f64,
                "node {id}"
            );
        }
    }

    #[test]
    fn tracing_off_records_nothing_and_default_is_off() {
        let mut net = net(4, 2, 4);
        net.run_for(SimDuration::from_millis(50));
        assert_eq!(net.take_traces().total_events(), 0);
    }
}
