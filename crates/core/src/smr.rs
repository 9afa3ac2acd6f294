//! One synchronous-SMR replica, generic over its commit rule.
//!
//! EESMR, Sync HotStuff, OptSync and the §5.1 trusted baseline are the
//! same machine around one differing decision — when a proposal commits
//! (the baseline: as soon as the trusted hub signed it). [`Smr<R>`] is that
//! machine, written once: it signs and verifies envelopes, blames a
//! stalled or equivocating leader, certifies `f+1` blames and quits the
//! view, forwards and re-routes client commands, synchronises missing
//! chain segments, restarts and repairs after a crash, commits a chain
//! segment, gates every handler on the injected fault, and reports
//! gauges. A [`Rule`] supplies only what the papers say differs: when a
//! proposal is acceptable and what accepting it emits, what triggers the
//! commit, and the status exchange of its view change — plus, as data in
//! [`Params`], a handful of decisions the families make differently
//! without the papers asking for it (see ARCHITECTURE.md, "One replica
//! skeleton, four commit rules").
//!
//! Handlers are monomorphised per rule, so the message path keeps static
//! dispatch. Rust allows inherent impls only in the crate that defines a
//! type (E0116): the EESMR rule extends `Smr<EesmrRule>` with inherent
//! methods in this crate, a rule in another crate writes its handlers as
//! free functions over `&mut Smr<R>` — which is why the fields below are
//! `pub`, all but the parked input, which only the skeleton's methods touch.

use std::collections::BTreeMap;
use std::sync::Arc;

use eesmr_crypto::sha256::Sha256;
use eesmr_crypto::{Digest, Hashable, KeyMap, KeySet, KeyStore, Signature};
use eesmr_net::codec::WireEnum;
use eesmr_net::{
    Actor, ActorGauges, Context, NodeId, SimDuration, SimTime, TimerId, TraceClass, TraceEventKind,
};

use crate::block::{Block, BlockStore, Command, Commands};
use crate::config::{BatchPolicy, FaultMode};
use crate::message::{block_ids_digest, first_sigs, Envelope, MsgKind, QuorumCert, SignedPayload};
use crate::metrics::Metrics;
use crate::txpool::{AdaptiveBatcher, TxPool, WorkloadSource};
use crate::window::WindowMap;

/// Timer tokens (all carry the view they were armed in; stale timers are
/// ignored). `ShareQc` and `EnterNew` are armed by the EESMR rule only,
/// `Order` by the trusted hub only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimerToken {
    /// `T_blame(v)` — no progress within the rule's steady timeout (8Δ and
    /// 6Δ while a new view starts).
    Blame {
        /// View the timer guards.
        view: u64,
    },
    /// `T_commit(block)` — the rule's equivocation-free wait before
    /// committing (EESMR 4Δ after relaying, Sync HotStuff 2Δ after voting).
    Commit {
        /// View in which the block was accepted.
        view: u64,
        /// The block to commit.
        block: Digest,
    },
    /// Δ wait after a blame certificate before quitting the view.
    QuitWait {
        /// The view being quit.
        view: u64,
    },
    /// 5Δ wait inside `QuitView` to collect a commit certificate.
    ShareQc {
        /// The view being quit.
        view: u64,
    },
    /// Δ wait after sharing commit certificates before the new view.
    EnterNew {
        /// The view being quit (the new view is `view + 1`).
        view: u64,
    },
    /// The new leader's status-collection window.
    LeaderStatus {
        /// The new view.
        view: u64,
    },
    /// The next client-transaction arrival from the attached
    /// [`WorkloadSource`] (view-independent: client traffic doesn't stop
    /// for view changes).
    Arrival,
    /// Δ flush deadline for a sub-threshold forward batch (see
    /// [`Config::forward_batch`](crate::Config)).
    ForwardFlush,
    /// Periodic check for forwarded commands that never resolved: a
    /// forward flood is fire-and-forget, so a partition (or a silently
    /// absent leader) can swallow it without any view change to trigger
    /// the usual re-queue. The retry requeues and re-forwards anything
    /// still unresolved after [`Params::forward_retry_window`].
    ForwardRetry,
    /// A crashed node's restart point ([`FaultMode::Crash`] with a
    /// `restart_at_us`): re-arm timers and run the repair protocol.
    Restart,
    /// The trusted hub's 2Δ ordering tick (the trusted-baseline rule).
    Order,
}

/// A signed message of rule `R`'s payload family.
pub type Msg<R> = Envelope<<R as Rule>::Payload>;

/// The network context of a replica running rule `R`.
pub type Ctx<'a, R> = Context<'a, Msg<R>, TimerToken>;

/// The payload variants every rule's family shares, declared once: the
/// blames, chain sync, forwarding and repair the skeleton runs for every
/// rule. A family carries them in one `Shared(Shared<Self>)` variant; on
/// the wire each keeps its own [`MsgKind`] as the kind byte (the table is
/// in [`crate::codec`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Shared<P: SmrPayload> {
    /// Blame; optionally carrying an equivocation proof (two conflicting
    /// leader-signed proposals for one view and slot).
    Blame {
        /// `Some((p1, p2))` for equivocation blames.
        proof: Option<Box<(Envelope<P>, Envelope<P>)>>,
    },
    /// A certificate of f+1 blames.
    BlameQc(QuorumCert),
    /// Request for a missing block (chain synchronization).
    SyncRequest {
        /// The wanted block id.
        want: Digest,
    },
    /// A segment of blocks answering a `SyncRequest`.
    SyncResponse {
        /// The blocks, nearest descendant first.
        blocks: Vec<Block>,
    },
    /// Client commands relayed from a non-leading node to the current
    /// proposer (command forwarding — without it, a transaction injected
    /// at a node that never leads waits in that node's pool forever).
    Forward {
        /// The forwarded commands, in injection order.
        commands: Commands,
    },
    /// A restarted replica's catch-up request: "send me the committed
    /// chain above `from_height`" (crash-recovery repair protocol).
    Repair {
        /// The requester's last durable committed height.
        from_height: u64,
    },
    /// A committed-chain suffix answering a `Repair`. The blocks are
    /// hash-chained (oldest first), so the reply is self-certifying once
    /// the requester checks the links; `view` tells the recovering node
    /// which view the network has reached.
    RepairReply {
        /// Committed blocks above the requested height, oldest first.
        blocks: Vec<Block>,
        /// The responder's current view.
        view: u64,
    },
}

impl<P: SmrPayload> Shared<P> {
    /// The digest the sender signs: one formula per variant, its names in
    /// the family's [`SmrPayload::DOMAIN`]. Every blame of a view signs
    /// the same digest, so blames aggregate into a certificate.
    pub fn signing_digest(&self, view: u64) -> Digest {
        match self {
            Shared::Blame { .. } => named::<P>(b"blame", view),
            Shared::BlameQc(qc) => qc.digest(),
            Shared::SyncRequest { want } => *want,
            Shared::SyncResponse { blocks } => block_ids_digest(Sha256::new(), blocks),
            Shared::Forward { commands } => {
                let mut h = domain::<P>(b"fwd");
                commands.iter().for_each(|c| c.encode_into(&mut h));
                h.finalize()
            }
            Shared::Repair { from_height } => named::<P>(b"repair", *from_height),
            Shared::RepairReply { blocks, view } => {
                let mut h = domain::<P>(b"repair-reply");
                h.update(&view.to_le_bytes());
                block_ids_digest(h, blocks)
            }
        }
    }
}

/// A hasher fed `DOMAIN ‖ name`.
fn domain<P: SmrPayload>(name: &[u8]) -> Sha256 {
    let mut h = Sha256::new();
    h.update(P::DOMAIN);
    h.update(name);
    h
}

/// [`Digest::of_parts`] over `DOMAIN ‖ name` and `n`, without building the
/// first part.
fn named<P: SmrPayload>(name: &[u8], n: u64) -> Digest {
    let mut h = Sha256::new();
    h.update(&((P::DOMAIN.len() + name.len()) as u64).to_le_bytes());
    h.update(P::DOMAIN);
    h.update(name);
    h.update(&8u64.to_le_bytes());
    h.update(&n.to_le_bytes());
    h.finalize()
}

/// A payload family the skeleton can run: its `Propose`, its own
/// variants, and one variant carrying [`Shared`].
pub trait SmrPayload: SignedPayload {
    /// Prefixed to every name the shared variants' signing digests hash.
    const DOMAIN: &'static [u8];
    /// The shared variant this payload carries, if any.
    fn shared(&self) -> Option<&Shared<Self>>;
    /// The payload carrying `shared`.
    fn from_shared(shared: Shared<Self>) -> Self;
    /// A proposal's block and its *slot* — the coordinate at which a
    /// leader may propose once per view (EESMR: the round; Sync HotStuff
    /// and the trusted hub: the height). Dedup and equivocation proofs are
    /// keyed by `(view, slot)`.
    fn proposal(&self) -> Option<(&Block, u64)>;
}

/// What the skeleton reads off a rule's configuration, once, at
/// construction. From `steady_blame_multiple` on, the fields are
/// decisions the protocol families make differently for no reason their
/// papers give; each rule states its side here and nowhere else, and
/// changing one is a behaviour change with pins of its own
/// (ARCHITECTURE.md has the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Node count `n` (the key store must cover it).
    pub n: usize,
    /// The synchrony bound Δ.
    pub delta: SimDuration,
    /// Blames that certify a view quit: `f + 1`. Also the threshold a
    /// received blame certificate is verified against; a rule's own
    /// certificates pass their own threshold to [`Smr::verify_qc`].
    pub blame_quorum: usize,
    /// Forward-batching threshold (`1` forwards on every arrival).
    pub forward_batch: usize,
    /// How the proposer sizes each batch.
    pub batch_policy: BatchPolicy,
    /// Synthetic payload bytes per command.
    pub payload_bytes: usize,
    /// Synthetic commands fabricated per proposal when the pool is empty.
    pub offered_load: usize,
    /// The steady-state no-progress timeout, in Δ.
    pub steady_blame_multiple: u64,
    /// Drop the equivocation handlers (EESMR's crash-only variant).
    pub ignores_equivocation: bool,
    /// Quit the view on an equivocation proof alone, without waiting for a
    /// blame certificate (EESMR's §3.5 speedup).
    pub quits_on_equivocation: bool,
    /// Most ancestors one `SyncResponse` carries.
    pub sync_cap: usize,
    /// How long, in Δ, a forwarded command may stay unresolved before its
    /// origin re-forwards it; `None` never arms the retry timer.
    pub forward_retry_window: Option<u64>,
    /// Replay messages unblocked by a sync or repair through
    /// [`Actor::on_message`] (the fault gate runs again) rather than
    /// straight into the proposal handler.
    pub replays_through_gate: bool,
    /// The trusted node of a star, if the rule has one. Then no blame
    /// timer is armed and no backlog forwarded, a view target holds at
    /// once, the restart repair request is a k-cast (on the star, a flood
    /// or a `send_to` from a spoke is re-broadcast by the hub to every
    /// spoke), and only the hub serves a `Repair` or is taken at its word
    /// in a `RepairReply`.
    pub hub: Option<NodeId>,
}

/// The bookkeeping window `W`, 64 heights, the same for every rule: every
/// per-height table drops what lies below the floor `b_com_height − W`
/// ([`Smr::floor`]), and every proposal, vote or upload below it is
/// dropped unread. Below `b_com_height` every height is final, so the
/// floor only has to stay below the heights a message still in flight can
/// be about: a flood lands within Δ, and no pacing here commits more than
/// its [`PIPELINE`] per Δ, which leaves an 8-fold margin. Nothing
/// below the floor is served from these tables: sync and repair read the
/// block store, which keeps every block.
pub const WINDOW: u64 = 64;

/// The streaming pipeline, 8 blocks: the most uncommitted proposals a
/// streaming EESMR leader keeps in flight ([`Pacing::Streaming`](crate::Pacing)).
pub const PIPELINE: usize = 8;

/// A commit rule: the configuration, private state and handlers that make
/// the skeleton one particular protocol.
pub trait Rule: Sized {
    /// The rule's payload family.
    type Payload: SmrPayload;
    /// The rule's public configuration.
    type Config;

    /// The replica's name in `Debug` output.
    const NAME: &'static str;

    /// Builds the rule's state over `genesis`, asserting whatever the
    /// configuration must satisfy.
    fn new(config: Self::Config, genesis: Digest) -> Self;
    /// What the skeleton needs from the configuration.
    fn params(&self) -> Params;
    /// Whether a proposal for `slot` gets its signature checked (EESMR's
    /// checkpoint optimisation skips most). Default: every one.
    fn verifies_proposal(&self, _slot: u64) -> bool {
        true
    }
    /// Whether the leader should try to propose right after a commit
    /// timer committed.
    fn proposes_after_commit(&self) -> bool;
    /// Whether the rule is past its view-change rounds — with the view
    /// number, what [`Smr::resumed_in_view`] reports. Default: it has none.
    fn in_steady_state(&self) -> bool {
        true
    }
    /// Whether a proposal already seen for `(view, slot)` with this block
    /// id has been fully handled, so that another copy needs no work.
    fn processed(smr: &Smr<Self>, view: u64, slot: u64, block: &Digest) -> bool;

    /// Leader: propose if the rule's pacing allows.
    fn try_propose(smr: &mut Smr<Self>, ctx: &mut Ctx<'_, Self>);
    /// A leader-signed, non-equivocating `Propose` of the current view:
    /// accept it or not, and emit what accepting means.
    fn on_proposal(smr: &mut Smr<Self>, from: NodeId, msg: Msg<Self>, ctx: &mut Ctx<'_, Self>);
    /// A payload of the rule's own variants: neither a proposal nor one
    /// of the [`Shared`] variants.
    fn on_message(smr: &mut Smr<Self>, from: NodeId, msg: Msg<Self>, ctx: &mut Ctx<'_, Self>);
    /// `QuitWait`, `ShareQc`, `EnterNew` and `LeaderStatus`: the view
    /// change from the Δ quit wait on.
    fn on_timer(smr: &mut Smr<Self>, token: TimerToken, ctx: &mut Ctx<'_, Self>);
    /// A restart wiped the rule's volatile state. Default: it keeps none.
    fn wipe_volatile(&mut self) {}
    /// A repair moved the replica into a later view without a view
    /// change: reset the rule's per-view state. Default: it keeps none.
    fn on_view_adopted(_smr: &mut Smr<Self>, _ctx: &mut Ctx<'_, Self>) {}
    /// A repair committed up to `tip`: move the rule's proposing point.
    fn on_repaired(smr: &mut Smr<Self>, tip: &Block, ctx: &mut Ctx<'_, Self>);
    /// Whether this node has already verified `sig` as `signer`'s
    /// signature over `qc`'s `(kind, view, data)`, so that quoting it in a
    /// certificate needs no second HMAC (the check is still charged).
    fn verified(&self, _qc: &QuorumCert, _signer: NodeId, _sig: &Signature) -> bool {
        false
    }
    /// The commit floor rose to `floor`: drop the rule's per-height
    /// entries below it. Default: it keeps none.
    fn prune_below(&mut self, _floor: u64) {}
    /// The entries held by each of the rule's per-height tables, by name.
    /// Default: it keeps none.
    fn bookkeeping(&self) -> Vec<(&'static str, usize)> {
        Vec::new()
    }
}

/// Input that came too early to be judged, parked by [`Smr::park_later`] or
/// [`Smr::park_orphan`] until the replica enters its view or stores its block.
struct Parked<R: Rule> {
    /// Envelopes for later views, in arrival order.
    later: Vec<(NodeId, Msg<R>)>,
    /// Envelopes waiting for a missing ancestor, by the missing block.
    orphans: KeyMap<Digest, Vec<(NodeId, Msg<R>)>>,
    /// Blocks already asked for.
    asked: KeySet<Digest>,
}

impl<R: Rule> Parked<R> {
    /// Takes the later-view envelopes due at `view`, in arrival order.
    fn release_due(&mut self, view: u64) -> Vec<(NodeId, Msg<R>)> {
        let (due, later) = self.later.drain(..).partition(|(_, m)| m.view <= view);
        self.later = later;
        due
    }

    /// Settles the request for block `id`, now stored, and takes its orphans.
    fn release_unblocked(&mut self, id: &Digest) -> Option<Vec<(NodeId, Msg<R>)>> {
        self.asked.remove(id);
        self.orphans.remove(id)
    }

    /// Later-view envelopes, orphaned envelopes and outstanding requests.
    fn sizes(&self) -> [(&'static str, usize); 3] {
        let (later, asked) = (self.later.len(), self.asked.len());
        let orphans = self.orphans.values().map(Vec::len).sum();
        [("parked_later", later), ("orphans", orphans), ("sync_requested", asked)]
    }
}

/// A synchronous-SMR replica running commit rule `R`.
pub struct Smr<R: Rule> {
    /// This replica's node id.
    pub id: NodeId,
    /// What the rule's configuration says about the shared machine.
    pub params: Params,
    /// The public keys of all nodes, and this node's key pair.
    pub pki: Arc<KeyStore>,
    /// The injected fault behaviour.
    pub fault: FaultMode,
    /// The rule: its configuration and private state.
    pub rule: R,

    /// Current view `v_cur`.
    pub v_cur: u64,
    /// Every block this replica has seen.
    pub store: BlockStore,
    /// The highest committed block `B_com`.
    pub b_com: Digest,
    /// Its height.
    pub b_com_height: u64,
    /// Pending client commands.
    pub txpool: TxPool,
    /// The batch-size controller.
    pub batcher: AdaptiveBatcher,
    /// The attached client-workload stream, if any.
    pub workload: Option<Box<dyn WorkloadSource>>,

    /// First proposal seen per `(view, slot)`, filed at its block's
    /// height: dedup, and the first half of an equivocation proof.
    pub proposals_seen: WindowMap<(u64, u64), (Digest, Msg<R>)>,
    /// Armed commit timers.
    pub commit_timers: Vec<(Digest, TimerId)>,
    /// The armed blame timer.
    pub blame_timer: Option<TimerId>,
    /// Accepted, uncommitted proposals (what pacing counts).
    pub outstanding: usize,
    /// When each uncommitted block was first accepted.
    pub first_seen: WindowMap<Digest, SimTime>,
    /// Whether a `ForwardFlush` timer is pending.
    pub forward_flush_armed: bool,
    /// Whether a `ForwardRetry` timer is pending.
    pub forward_retry_armed: bool,

    /// Blames collected for the current view.
    pub blames: BTreeMap<NodeId, Signature>,
    /// The current view is over (equivocation or blame certificate): no
    /// proposal, vote or commit happens in it any more.
    pub view_aborted: bool,
    /// The Δ quit wait has been scheduled (idempotence guard).
    pub quit_scheduled: bool,

    /// Envelopes that arrived before they can be judged.
    parked: Parked<R>,

    /// The committed log, in commit order: handles to the blocks the
    /// store holds.
    pub committed_log: Vec<Block>,
    /// Protocol counters.
    pub metrics: Metrics,
}

impl<R: Rule> core::fmt::Debug for Smr<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct(R::NAME)
            .field("id", &self.id)
            .field("view", &self.v_cur)
            .field("committed_height", &self.b_com_height)
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

impl<R: Rule> Smr<R> {
    /// Creates a replica with the given identity and fault behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the key store does not cover `n` nodes, or the rule
    /// rejects the configuration.
    pub fn new(id: NodeId, config: R::Config, pki: Arc<KeyStore>, fault: FaultMode) -> Self {
        let store = BlockStore::new();
        let genesis = store.genesis_id();
        let rule = R::new(config, genesis);
        let params = rule.params();
        assert!(pki.n() >= params.n, "key store must cover all nodes");
        Smr {
            id,
            params,
            pki,
            fault,
            rule,
            v_cur: 1,
            store,
            b_com: genesis,
            b_com_height: 0,
            txpool: TxPool::synthetic(params.payload_bytes).with_offered_load(params.offered_load),
            batcher: AdaptiveBatcher::new(),
            workload: None,
            proposals_seen: WindowMap::default(),
            commit_timers: Vec::new(),
            blame_timer: None,
            outstanding: 0,
            first_seen: WindowMap::default(),
            forward_flush_armed: false,
            forward_retry_armed: false,
            blames: BTreeMap::new(),
            view_aborted: false,
            quit_scheduled: false,
            parked: Parked { later: vec![], orphans: KeyMap::default(), asked: KeySet::default() },
            committed_log: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    // ------------------------------------------------------------------
    // Public inspection API.
    // ------------------------------------------------------------------

    /// Current view `v_cur`.
    pub fn current_view(&self) -> u64 {
        self.v_cur
    }

    /// Whether the replica has entered view `v` and resumed steady state
    /// there.
    pub fn resumed_in_view(&self, v: u64) -> bool {
        self.params.hub.is_some() || (self.v_cur >= v && self.rule.in_steady_state())
    }

    /// The committed log (blocks in commit order, excluding genesis).
    pub fn committed(&self) -> &[Block] {
        &self.committed_log
    }

    /// Height of the highest committed block.
    pub fn committed_height(&self) -> u64 {
        self.b_com_height
    }

    /// Protocol metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The entries held by each per-height bookkeeping table, the
    /// skeleton's and the rule's, by name: however long the run, they lie
    /// in the bands from the floor's up, about 2·[`WINDOW`] heights; then the
    /// parked envelopes and the outstanding sync requests.
    pub fn bookkeeping(&self) -> Vec<(&'static str, usize)> {
        let mut tables = vec![
            ("proposals_seen", self.proposals_seen.len()),
            ("first_seen", self.first_seen.len()),
        ];
        tables.extend(self.rule.bookkeeping());
        tables.extend(self.parked.sizes());
        tables
    }

    /// The commit floor `b_com_height − W`: per-height entries below it
    /// are dropped, and so is every proposal, vote or upload below it.
    pub fn floor(&self) -> u64 {
        self.b_com_height.saturating_sub(WINDOW)
    }

    /// Looks up a block (committed or not).
    pub fn block(&self, id: &Digest) -> Option<&Block> {
        self.store.get(id)
    }

    /// Queues a client command for inclusion in a future block.
    pub fn submit(&mut self, cmd: Command) {
        self.txpool.submit(cmd);
    }

    /// Attaches a client-workload stream: the replica schedules its
    /// arrival events as first-class timers, injects each transaction
    /// with a birth timestamp, and disables the pool's synthetic
    /// fallback (the workload *replaces* the `offered_load` knob).
    pub fn attach_workload(&mut self, source: Box<dyn WorkloadSource>) {
        self.txpool.client_only();
        self.workload = Some(source);
    }

    /// Histogram of end-to-end (birth → local commit) latencies of
    /// workload transactions injected at this node, in microseconds.
    pub fn tx_latencies(&self) -> &eesmr_trace::hist::LogHistogram {
        self.txpool.tx_latencies()
    }

    /// High-water mark of the pending-command backlog over the run.
    pub fn peak_backlog(&self) -> usize {
        self.txpool.peak_backlog()
    }

    /// `Leader(v)` for every rule: the hub on a star, else round-robin,
    /// `(v − 1) mod n` for views `v ≥ 1` ("can be round-robin for
    /// simplicity", Algorithm 2).
    pub fn leader_of(&self, view: u64) -> NodeId {
        match self.params.hub {
            Some(hub) => hub,
            None => (((view - 1) as usize) % self.params.n) as NodeId,
        }
    }

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.leader_of(self.v_cur) == self.id
    }

    // ------------------------------------------------------------------
    // Gates, signatures, timers.
    // ------------------------------------------------------------------

    /// Whether the injected fault lets the node act in the current view.
    pub fn active(&self) -> bool {
        self.fault.is_active_in(self.v_cur)
    }

    /// Whether the node is powered on (false inside a
    /// [`FaultMode::Crash`] outage window).
    pub fn online(&self, ctx: &Ctx<'_, R>) -> bool {
        self.fault.online(ctx.now().as_micros())
    }

    /// Signs a payload for the current view, charging signing + hashing
    /// energy.
    pub fn sign(&self, payload: R::Payload, ctx: &mut Ctx<'_, R>) -> Msg<R> {
        let msg = Envelope::new(payload, self.v_cur, self.pki.keypair(self.id));
        ctx.meter().charge_sign(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        msg
    }

    /// Signs one of the [`Shared`] variants, like [`sign`](Self::sign).
    fn sign_shared(&self, shared: Shared<R::Payload>, ctx: &mut Ctx<'_, R>) -> Msg<R> {
        self.sign(R::Payload::from_shared(shared), ctx)
    }

    /// Verifies a message envelope, charging verification + hashing energy.
    pub fn verify_envelope(&self, msg: &Msg<R>, ctx: &mut Ctx<'_, R>) -> bool {
        ctx.meter().charge_verify(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        msg.verify_sig(&self.pki)
    }

    /// Verifies a quorum certificate at `threshold` distinct signers,
    /// charging for the signature checks performed. A signature the rule
    /// has already verified ([`Rule::verified`]) is charged, not recomputed.
    pub fn verify_qc(&self, qc: &QuorumCert, threshold: usize, ctx: &mut Ctx<'_, R>) -> bool {
        let known = |signer, sig: &Signature| self.rule.verified(qc, signer, sig);
        let (ok, checks) = qc.verify(&self.pki, threshold, known);
        for _ in 0..checks {
            ctx.meter().charge_verify(self.pki.scheme());
        }
        ok
    }

    /// Re-arms the blame timer at `multiple`Δ for the current view.
    pub fn reset_blame_timer(&mut self, multiple: u64, ctx: &mut Ctx<'_, R>) {
        if self.params.hub.is_some() {
            return;
        }
        if let Some(t) = self.blame_timer.take() {
            ctx.cancel_timer(t);
        }
        let id =
            ctx.set_timer(self.params.delta * multiple, TimerToken::Blame { view: self.v_cur });
        self.blame_timer = Some(id);
    }

    /// Cancels every armed commit timer (the view is over, or the process
    /// died).
    pub fn cancel_commit_timers(&mut self, ctx: &mut Ctx<'_, R>) {
        for (_, t) in self.commit_timers.drain(..) {
            ctx.cancel_timer(t);
        }
        self.outstanding = 0;
    }

    // ------------------------------------------------------------------
    // Client workload arrivals and command forwarding.
    // ------------------------------------------------------------------

    /// Arms the first arrival timer if a workload stream is attached.
    fn schedule_first_arrival(&mut self, ctx: &mut Ctx<'_, R>) {
        if let Some(source) = &mut self.workload {
            if let Some(delay) = source.next_arrival_in(ctx.now().as_micros()) {
                ctx.set_timer(SimDuration::from_micros(delay), TimerToken::Arrival);
            }
        }
    }

    /// One arrival event: inject the transaction (unless the closed-loop
    /// bound suppresses it), re-arm the next arrival, and either propose
    /// the fresh backlog (leader) or forward it to whoever can
    /// (everyone else).
    fn on_arrival(&mut self, ctx: &mut Ctx<'_, R>) {
        let Some(source) = &mut self.workload else { return };
        let now_us = ctx.now().as_micros();
        let traced = ctx.traces(TraceClass::Commit);
        let delay = self.txpool.drive_arrival(source.as_mut(), &mut self.metrics, now_us, |cmd| {
            if traced {
                ctx.trace(TraceEventKind::TxInject { tx: cmd.fingerprint() });
            }
        });
        if let Some(delay) = delay {
            ctx.set_timer(SimDuration::from_micros(delay), TimerToken::Arrival);
        }
        R::try_propose(self, ctx);
        self.maybe_forward_backlog(ctx);
    }

    /// Whether this node holds commands it should hand to the leader.
    fn should_forward(&self) -> bool {
        self.params.hub.is_none()
            && !self.is_leader()
            && self.active()
            && !self.view_aborted
            && !self.txpool.is_empty()
    }

    /// Forward batching: flush the backlog immediately once it holds
    /// [`Params::forward_batch`] commands; below the threshold, hold the
    /// commands and arm a Δ flush timer instead, so several arrivals
    /// share one signed forward flood. With `forward_batch ≤ 1` this
    /// degenerates to forward-per-arrival.
    fn maybe_forward_backlog(&mut self, ctx: &mut Ctx<'_, R>) {
        if !self.should_forward() {
            return;
        }
        let threshold = self.params.forward_batch;
        if threshold <= 1 || self.txpool.backlog() >= threshold {
            self.forward_backlog(ctx);
        } else if !self.forward_flush_armed {
            self.forward_flush_armed = true;
            ctx.set_timer(self.params.delta, TimerToken::ForwardFlush);
        }
    }

    /// Command forwarding: a node that is not the current proposer
    /// relays its queued client commands to the leader, so closed-loop
    /// workloads cannot strand a transaction at a node that never leads.
    /// Births stay here — latency settles at the origin when the block
    /// commits — and a view change re-queues anything the dead leader
    /// dropped, so the commands are re-forwarded to its successor.
    pub fn forward_backlog(&mut self, ctx: &mut Ctx<'_, R>) {
        // No workload gate: a node may also hold commands *forwarded to
        // it* while it led a view that has since ended — those must be
        // re-routed to the current leader too, or they strand here.
        // Synthetic pools never populate `pending`, so non-workload
        // runs stay forward-free.
        if !self.should_forward() {
            return;
        }
        let commands = self.txpool.take_pending();
        self.metrics.tx_forwarded += commands.len() as u64;
        let leader = self.leader_of(self.v_cur);
        if ctx.traces(TraceClass::Commit) {
            for cmd in &commands {
                ctx.trace(TraceEventKind::TxForward { tx: cmd.fingerprint(), leader });
            }
        }
        let msg = self.sign_shared(Shared::Forward { commands: commands.into() }, ctx);
        ctx.send_to(leader, msg);
        self.arm_forward_retry(ctx);
    }

    /// Arms the retry timer if the rule retries at all, any birth-tracked
    /// command is unresolved and no retry is already pending, for the
    /// instant the earliest unresolved command becomes retry-eligible
    /// (its age crosses the window, or its per-command cooldown from a
    /// previous retry expires). The window is well past the healthy commit
    /// path *and* past a full view change — ages are measured from birth,
    /// and a command born just before a blame quorum rides the
    /// quit/status/new-view sequence before its re-forward can even land
    /// — so live runs never retry; but it is bounded, so a partition that
    /// swallowed the forward heals into re-delivery instead of a stranded
    /// client. Node-local state only — the timer's schedule depends on
    /// nothing another node's events could reorder.
    fn arm_forward_retry(&mut self, ctx: &mut Ctx<'_, R>) {
        let Some(window) = self.params.forward_retry_window else { return };
        if self.forward_retry_armed {
            return;
        }
        let window_us = self.params.delta.as_micros() * window;
        let Some(due_us) = self.txpool.next_retry_due_us(window_us) else {
            return;
        };
        let delay_us = due_us.saturating_sub(ctx.now().as_micros()).max(1);
        self.forward_retry_armed = true;
        ctx.set_timer(SimDuration::from_micros(delay_us), TimerToken::ForwardRetry);
    }

    /// The retry timer: requeue commands that have been unresolved for a
    /// full retry window (younger in-flight commands are presumed to be
    /// riding a block toward commit) and forward them to the current
    /// leader again. Re-arms itself while anything is still in flight.
    fn on_forward_retry(&mut self, ctx: &mut Ctx<'_, R>) {
        self.forward_retry_armed = false;
        let Some(window) = self.params.forward_retry_window else { return };
        if !self.active() || self.view_aborted {
            return;
        }
        let age_us = self.params.delta.as_micros() * window;
        if self.txpool.requeue_stale(ctx.now().as_micros(), age_us) {
            self.metrics.forward_retries += 1;
            self.propose_or_forward(ctx);
        }
        self.arm_forward_retry(ctx);
    }

    fn propose_or_forward(&mut self, ctx: &mut Ctx<'_, R>) {
        if self.is_leader() {
            R::try_propose(self, ctx);
        } else {
            self.forward_backlog(ctx);
        }
    }

    /// Receives forwarded client commands: queue them and, if this node
    /// is the proposer, get them into a block. A forward that raced a
    /// view change (addressed to a leader that no longer leads) is
    /// re-routed straight to the current leader instead of stranding —
    /// each hop targets the receiver's *current* leader, so the chain
    /// settles as soon as views converge.
    fn on_forward(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        if !self.verify_envelope(&msg, ctx) {
            return;
        }
        let Some(Shared::Forward { commands }) = msg.payload.shared() else { return };
        for cmd in commands.iter().cloned() {
            self.txpool.submit(cmd);
        }
        self.propose_or_forward(ctx);
    }

    // ------------------------------------------------------------------
    // Proposals: cutting, admitting, committing.
    // ------------------------------------------------------------------

    /// The next batch from the pool, sized by the batch policy, its fill
    /// recorded.
    pub fn next_batch(&mut self) -> Vec<Command> {
        let policy = self.params.batch_policy;
        let want = self.batcher.next_size(self.txpool.backlog(), policy);
        let batch = self.txpool.next_batch(want);
        self.metrics.record_batch_fill(batch.len(), policy.max_size());
        batch
    }

    /// Leader: cuts `batch` into a block on `parent` for `round`, charges
    /// its hash, traces it and stores it. The rule signs and sends it.
    pub fn cut_block(
        &mut self,
        parent: &Block,
        round: u64,
        batch: Vec<Command>,
        ctx: &mut Ctx<'_, R>,
    ) -> Block {
        let block = Block::extending(parent, self.v_cur, round, batch);
        ctx.meter().charge_hash(block.wire_size());
        if ctx.traces(TraceClass::Commit) {
            let block_fp = block.fingerprint();
            for cmd in &block.payload {
                ctx.trace(TraceEventKind::TxBatched { tx: cmd.fingerprint(), block: block_fp });
            }
            ctx.trace(TraceEventKind::Propose { block: block_fp, view: self.v_cur, round });
        }
        self.store.insert(block.clone());
        block
    }

    /// An equivocating leader's conflicting sibling of the block it just
    /// cut on `parent` for `round`, stored.
    pub fn cut_twin(&mut self, parent: &Block, round: u64) -> Block {
        let filler = vec![Command::synthetic(u64::MAX, self.params.payload_bytes)];
        let twin = Block::extending(parent, self.v_cur, round, filler);
        self.store.insert(twin.clone());
        twin
    }

    /// Handles a `Propose` of a view the replica has reached, up to the
    /// point where the rules part ways: drops an exact duplicate unverified
    /// (relay-once flooding delivers each proposal up to `D_in` times),
    /// insists on the leader's signature, and turns a second block for an
    /// occupied `(view, slot)` into an equivocation blame — for any slot
    /// of the current view, "not just the latest round" (Algorithm 2,
    /// lines 220–226). What survives goes to [`Rule::on_proposal`].
    fn on_propose(&mut self, from: NodeId, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some((block, slot)) = msg.payload.proposal() else { return };
        if block.height < self.floor() {
            return; // stale: its slot's entry may be pruned, so it is not read
        }
        let block_id = block.id();
        let key = (msg.view, slot);
        // The slot alone finds the first proposal, whatever height either
        // copy names: a twin may name any height.
        let seen = self.proposals_seen.get(&key).map(|(seen_id, _)| *seen_id);
        if seen == Some(block_id)
            && (msg.view < self.v_cur || R::processed(self, msg.view, slot, &block_id))
        {
            return;
        }
        if msg.signer != self.leader_of(msg.view)
            || (self.rule.verifies_proposal(slot) && !self.verify_envelope(&msg, ctx))
        {
            self.metrics.proposals_rejected += 1;
            return;
        }
        match seen {
            None => self.proposals_seen.insert(block.height, key, (block_id, msg.clone())),
            Some(seen_id) if seen_id != block_id => {
                if msg.view == self.v_cur {
                    let (_, first) = self.proposals_seen.get(&key).expect("seen above");
                    let first = first.clone();
                    self.on_equivocation(first, msg, ctx);
                }
                return;
            }
            Some(_) => {}
        }
        if msg.view < self.v_cur {
            return;
        }
        // A block sits one height above its parent. An orphan is judged
        // when it replays; the slot stays filed above, so a twin is still
        // blamed.
        if self.store.get(&block.parent).is_some_and(|p| block.height != p.height + 1) {
            self.metrics.proposals_rejected += 1;
            return;
        }
        R::on_proposal(self, from, msg, ctx);
    }

    /// A commit timer expired without equivocation: commit the block and
    /// its ancestors.
    fn on_commit_timer(&mut self, view: u64, block_id: Digest, ctx: &mut Ctx<'_, R>) {
        self.commit_timers.retain(|(b, _)| *b != block_id);
        if view != self.v_cur || self.view_aborted {
            return;
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        self.commit_block(block_id, ctx);
        if self.rule.proposes_after_commit() {
            R::try_propose(self, ctx);
        }
    }

    /// Commits `block_id` and all uncommitted ancestors.
    pub fn commit_block(&mut self, block_id: Digest, ctx: &mut Ctx<'_, R>) {
        let now = ctx.now();
        let Some(block) = self.store.get(&block_id) else { return };
        if block.height <= self.b_com_height {
            return; // already covered
        }
        let Some(segment) = self.store.segment(&self.b_com, &block_id) else {
            // Gap or fork relative to B_com — cannot happen for correct
            // replicas (commit safety); refuse rather than fork.
            return;
        };
        for id in segment {
            let block = self.store.get(&id).expect("segment blocks are stored").clone();
            self.metrics.blocks_committed += 1;
            if let Some(seen) = self.first_seen.remove(&id) {
                self.metrics.record_commit_latency(now.since(seen));
            }
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::Commit {
                    block: crate::block::fingerprint(&id),
                    height: block.height,
                });
            }
            self.txpool.remove_committed(&block, now);
            self.committed_log.push(block);
        }
        self.b_com = block_id;
        self.b_com_height = self.store.get(&block_id).expect("committed block stored").height;
        self.metrics.committed_height = self.b_com_height;
        self.prune_bookkeeping();
    }

    /// Drops the per-height entries below the commit floor, the skeleton's
    /// and the rule's. `store` and `committed_log` stay whole: repair and
    /// sync serve blocks from the store, and the reports read the log.
    fn prune_bookkeeping(&mut self) {
        let floor = self.floor();
        self.proposals_seen.prune_below(floor);
        self.first_seen.prune_below(floor);
        self.rule.prune_below(floor);
    }

    /// Records when `block` was first accepted, unless it already was.
    pub fn mark_first_seen(&mut self, block: &Block, now: SimTime) {
        self.first_seen.insert_new(block.height, block.id(), now);
    }

    // ------------------------------------------------------------------
    // Blames: timeout, equivocation, certificate, quit.
    // ------------------------------------------------------------------

    /// `T_blame` expired: no progress in the current view (line 216).
    fn on_blame_timeout(&mut self, view: u64, ctx: &mut Ctx<'_, R>) {
        if view != self.v_cur || self.view_aborted {
            return;
        }
        self.blame_timer = None;
        self.metrics.blames_sent += 1;
        ctx.trace(TraceEventKind::Blame { view: self.v_cur });
        let blame = self.sign_shared(Shared::Blame { proof: None }, ctx);
        ctx.flood(blame);
    }

    /// Two conflicting leader-signed proposals for the same view and slot
    /// (lines 220–226): abort the view and flood the proof.
    fn on_equivocation(&mut self, first: Msg<R>, second: Msg<R>, ctx: &mut Ctx<'_, R>) {
        if self.view_aborted || self.params.ignores_equivocation {
            return;
        }
        self.metrics.equivocations_detected += 1;
        self.view_aborted = true;
        self.cancel_commit_timers(ctx);
        self.metrics.blames_sent += 1;
        ctx.trace(TraceEventKind::Equivocation { view: self.v_cur });
        ctx.trace(TraceEventKind::Blame { view: self.v_cur });
        let blame = self.sign_shared(Shared::Blame { proof: Some(Box::new((first, second))) }, ctx);
        ctx.flood(blame);
        if self.params.quits_on_equivocation {
            self.schedule_quit(ctx);
        }
    }

    /// Validates an equivocation proof: two valid leader signatures on
    /// conflicting proposals for the same view and slot.
    fn proof_is_valid(&self, view: u64, proof: &(Msg<R>, Msg<R>), ctx: &mut Ctx<'_, R>) -> bool {
        let (a, b) = proof;
        let leader = self.leader_of(view);
        let (Some((_, slot_a)), Some((_, slot_b))) = (a.payload.proposal(), b.payload.proposal())
        else {
            return false;
        };
        a.view == view
            && b.view == view
            && a.signer == leader
            && b.signer == leader
            && slot_a == slot_b
            && a.signing_digest() != b.signing_digest()
            && self.verify_envelope(a, ctx)
            && self.verify_envelope(b, ctx)
    }

    /// Handles a `Blame` (possibly carrying an equivocation proof).
    fn on_blame(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::Blame { proof }) = msg.payload.shared() else { return };
        if msg.view < self.v_cur || !self.verify_envelope(&msg, ctx) {
            return;
        }
        // Equivocation proof: cancel commit timers and join the blaming
        // (lines 224–226).
        if let Some(p) = proof {
            if !self.params.ignores_equivocation
                && !self.view_aborted
                && self.proof_is_valid(msg.view, p, ctx)
            {
                let (first, second) = (**p).clone();
                self.on_equivocation(first, second, ctx);
            }
        }
        self.blames.insert(msg.signer, msg.sig.clone());
        let quorum = self.params.blame_quorum;
        if self.blames.len() >= quorum && !self.quit_scheduled {
            // f+1 blames: certificate, broadcast, quit (lines 227–234).
            let data = Shared::<R::Payload>::Blame { proof: None }.signing_digest(self.v_cur);
            let sigs = first_sigs(&self.blames, quorum);
            let qc = QuorumCert { kind: MsgKind::Blame, view: self.v_cur, data, height: 0, sigs };
            let msg = self.sign_shared(Shared::BlameQc(qc), ctx);
            ctx.flood(msg);
            self.view_aborted = true;
            self.cancel_commit_timers(ctx);
            self.schedule_quit(ctx);
        }
    }

    /// Handles a received blame certificate (line 231).
    fn on_blame_qc(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::BlameQc(qc)) = msg.payload.shared() else { return };
        if msg.view < self.v_cur || self.quit_scheduled {
            return;
        }
        if qc.kind != MsgKind::Blame
            || qc.view != self.v_cur
            || !self.verify_qc(qc, self.params.blame_quorum, ctx)
        {
            return;
        }
        self.view_aborted = true;
        self.cancel_commit_timers(ctx);
        self.schedule_quit(ctx);
    }

    /// Wait Δ so all correct nodes quit the view together (line 233); the
    /// rule takes over when `QuitWait` fires.
    fn schedule_quit(&mut self, ctx: &mut Ctx<'_, R>) {
        if self.quit_scheduled {
            return;
        }
        self.quit_scheduled = true;
        ctx.trace(TraceEventKind::VcQuit { view: self.v_cur });
        if let Some(t) = self.blame_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.set_timer(self.params.delta, TimerToken::QuitWait { view: self.v_cur });
    }

    // ------------------------------------------------------------------
    // Entering a view.
    // ------------------------------------------------------------------

    /// Moves to `view` with the skeleton's per-view state cleared.
    fn start_view(&mut self, view: u64) {
        self.v_cur = view;
        self.view_aborted = false;
        self.quit_scheduled = false;
        self.blames.clear();
    }

    /// The rule quit view `v`: enter `v + 1` with the blame state cleared
    /// and the dead view's drained transactions back in the pool, under
    /// the 8Δ new-view patience. Returns `false` if the node goes silent
    /// starting this view (fault injection) — the rule then stops there;
    /// otherwise it reports its status and calls
    /// [`settle_into_view`](Self::settle_into_view).
    pub fn advance_view(&mut self, ctx: &mut Ctx<'_, R>) -> bool {
        self.start_view(self.v_cur + 1);
        self.metrics.view_changes += 1;
        ctx.trace(TraceEventKind::ViewEnter { view: self.v_cur });
        self.txpool.requeue_unresolved();
        if !self.active() {
            return false;
        }
        self.reset_blame_timer(8, ctx);
        true
    }

    /// Last step of entering a view: commands the dead view's proposer
    /// drained and dropped are pending again — hand them straight to the
    /// new leader — and parked traffic for this view replays.
    pub fn settle_into_view(&mut self, ctx: &mut Ctx<'_, R>) {
        self.forward_backlog(ctx);
        for (from, msg) in self.parked.release_due(self.v_cur) {
            self.on_message(from, msg, ctx);
        }
    }

    /// Jump straight to `view` after a repair (no view-change ceremony —
    /// the network already ran it while this node was down).
    fn adopt_view(&mut self, view: u64, ctx: &mut Ctx<'_, R>) {
        if view <= self.v_cur {
            return;
        }
        self.start_view(view);
        R::on_view_adopted(self, ctx);
        self.txpool.requeue_unresolved();
        self.reset_blame_timer(self.params.steady_blame_multiple, ctx);
        self.settle_into_view(ctx);
    }

    // ------------------------------------------------------------------
    // Chain synchronization.
    // ------------------------------------------------------------------

    /// Parks `msg`, of a view this replica has not reached, until it enters
    /// that view ([`Actor::on_message`] does so for every kind that waits).
    pub fn park_later(&mut self, from: NodeId, msg: Msg<R>) {
        self.parked.later.push((from, msg));
    }

    /// Parks `msg` (received from `from`) until block `missing` is stored,
    /// and asks `ask` for that block.
    pub fn park_orphan(
        &mut self,
        missing: Digest,
        ask: NodeId,
        from: NodeId,
        msg: Msg<R>,
        ctx: &mut Ctx<'_, R>,
    ) {
        self.parked.orphans.entry(missing).or_default().push((from, msg));
        self.request_sync(missing, ask, ctx);
    }

    /// Requests a missing block from `from` (chain synchronization, §3.2).
    pub fn request_sync(&mut self, want: Digest, from: NodeId, ctx: &mut Ctx<'_, R>) {
        if from == self.id || !self.parked.asked.insert(want) {
            return;
        }
        self.metrics.sync_requests += 1;
        let msg = self.sign_shared(Shared::SyncRequest { want }, ctx);
        ctx.send_to(from, msg);
    }

    fn on_sync_request(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(&Shared::SyncRequest { want }) = msg.payload.shared() else { return };
        if !self.verify_envelope(&msg, ctx) {
            return;
        }
        let blocks: Vec<Block> =
            self.store.ancestors(&want, self.params.sync_cap).into_iter().cloned().collect();
        if blocks.is_empty() {
            return;
        }
        let reply = self.sign_shared(Shared::SyncResponse { blocks }, ctx);
        ctx.send_to(msg.signer, reply);
    }

    /// Stores received blocks (charging their hashes) and returns the
    /// parked envelopes that were waiting for any of them.
    fn store_blocks(&mut self, blocks: &[Block], ctx: &mut Ctx<'_, R>) -> Vec<(NodeId, Msg<R>)> {
        let mut unblocked = Vec::new();
        for block in blocks {
            ctx.meter().charge_hash(block.wire_size());
            let id = self.store.insert(block.clone());
            if let Some(waiting) = self.parked.release_unblocked(&id) {
                unblocked.extend(waiting);
            }
        }
        unblocked
    }

    fn replay(&mut self, unblocked: Vec<(NodeId, Msg<R>)>, ctx: &mut Ctx<'_, R>) {
        for (from, msg) in unblocked {
            if self.params.replays_through_gate {
                self.on_message(from, msg, ctx);
            } else {
                // An orphan's view is at most `v_cur`, which never falls.
                self.on_propose(from, msg, ctx);
            }
        }
    }

    fn on_sync_response(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::SyncResponse { blocks }) = msg.payload.shared() else { return };
        // Blocks are self-certifying (hash-linked); no signature needed.
        let unblocked = self.store_blocks(blocks, ctx);
        self.replay(unblocked, ctx);
    }

    // ------------------------------------------------------------------
    // Crash-recovery repair protocol.
    // ------------------------------------------------------------------

    /// The restart point of a recovering crash fault: the outage wiped
    /// volatile per-view state (in-flight timers died with the process),
    /// but the committed prefix is durable. Re-arm the protocol timers
    /// and ask the network for everything above the durable height.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, R>) {
        self.cancel_commit_timers(ctx);
        self.rule.wipe_volatile();
        self.forward_flush_armed = false;
        self.forward_retry_armed = false;
        self.reset_blame_timer(self.params.steady_blame_multiple, ctx);
        self.schedule_first_arrival(ctx);
        self.request_repair(ctx);
    }

    /// Asks for the committed chain above the durable height: a flood, or
    /// a k-cast to the hub of a star.
    pub fn request_repair(&mut self, ctx: &mut Ctx<'_, R>) {
        self.metrics.repair_requests += 1;
        let msg = self.sign_shared(Shared::Repair { from_height: self.b_com_height }, ctx);
        match self.params.hub {
            Some(_) => ctx.multicast(msg),
            None => ctx.flood(msg),
        }
    }

    /// Serves a recovering peer: reply with the committed-chain suffix
    /// above its durable height, plus our current view so it can rejoin.
    fn on_repair(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(&Shared::Repair { from_height }) = msg.payload.shared() else { return };
        if self.params.hub.is_some_and(|hub| hub != self.id)
            || !self.verify_envelope(&msg, ctx)
            || self.b_com_height <= from_height
        {
            return;
        }
        // Walk the committed chain down to the requested height, capped;
        // a still-lagging requester re-requests.
        let mut blocks = Vec::new();
        let mut cur = self.b_com;
        while let Some(b) = self.store.get(&cur) {
            if b.height <= from_height || blocks.len() >= 256 {
                break;
            }
            blocks.push(b.clone());
            cur = b.parent;
        }
        blocks.reverse();
        if blocks.is_empty() {
            return;
        }
        self.metrics.repairs_served += 1;
        let reply = self.sign_shared(Shared::RepairReply { blocks, view: self.v_cur }, ctx);
        ctx.send_to(msg.signer, reply);
    }

    /// A committed-chain suffix from a peer: authenticate the responder,
    /// verify the hash links, commit the suffix, and adopt the network's
    /// view so steady state can resume here.
    fn on_repair_reply(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::RepairReply { blocks, view }) = msg.payload.shared() else { return };
        // The hash links below prove the blocks form a chain, not that
        // anybody committed it: only a member's word (a star's: the hub's)
        // is taken for that.
        if self.params.hub.is_some_and(|hub| hub != msg.signer) || !self.verify_envelope(&msg, ctx)
        {
            return;
        }
        // The suffix must be hash-linked, oldest first, and rooted in a
        // block we already hold. Reject anything else.
        let (Some(first), Some(tip)) = (blocks.first(), blocks.last()) else { return };
        if !self.store.contains(&first.parent)
            || blocks.windows(2).any(|w| w[1].parent != w[0].id())
        {
            return;
        }
        let unblocked = self.store_blocks(blocks, ctx);
        self.commit_block(tip.id(), ctx);
        R::on_repaired(self, tip, ctx);
        self.adopt_view(*view, ctx);
        self.replay(unblocked, ctx);
    }
}

impl<R: Rule> Actor for Smr<R> {
    type Msg = Msg<R>;
    type Timer = TimerToken;

    fn on_start(&mut self, ctx: &mut Ctx<'_, R>) {
        // Arm the restart point before any liveness gate: a node that is
        // crashed (or crashes later) must still wake up at its restart
        // time even though every other handler ignores it while offline.
        if let Some(restart) = self.fault.restart_at_us() {
            ctx.set_timer(SimDuration::from_micros(restart), TimerToken::Restart);
        }
        if !self.active() || !self.online(ctx) {
            return;
        }
        self.reset_blame_timer(self.params.steady_blame_multiple, ctx);
        self.schedule_first_arrival(ctx);
        R::try_propose(self, ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        // No honest replica signs view 0 (`v_cur` starts at 1), and
        // `Leader(v)` is defined for `v ≥ 1` only: drop it before dispatch.
        if msg.view == 0 || !self.active() || !self.online(ctx) {
            return;
        }
        // The shared variants carry the same tag in every family.
        match msg.payload.tag() {
            // The kinds that wait for their view (`LockStatus` also tags Sync
            // HotStuff's `Status`; its `Vote` parks past its own window check).
            MsgKind::Propose
            | MsgKind::Blame
            | MsgKind::BlameQc
            | MsgKind::CommitUpdate
            | MsgKind::CommitQc
            | MsgKind::NewViewProposal
            | MsgKind::LockStatus
                if msg.view > self.v_cur =>
            {
                self.park_later(from, msg)
            }
            MsgKind::Propose => self.on_propose(from, msg, ctx),
            MsgKind::Blame => self.on_blame(msg, ctx),
            MsgKind::BlameQc => self.on_blame_qc(msg, ctx),
            MsgKind::SyncRequest => self.on_sync_request(msg, ctx),
            MsgKind::SyncResponse => self.on_sync_response(msg, ctx),
            MsgKind::Forward => self.on_forward(msg, ctx),
            MsgKind::Repair => self.on_repair(msg, ctx),
            MsgKind::RepairReply => self.on_repair_reply(msg, ctx),
            _ => R::on_message(self, from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, R>) {
        // The restart timer fires exactly when the outage ends, so the
        // online gate below admits it; every timer armed before the crash
        // that fires *during* the outage dies here, like a real process.
        if !self.active() || !self.online(ctx) {
            return;
        }
        match token {
            TimerToken::Blame { view } => self.on_blame_timeout(view, ctx),
            TimerToken::Commit { view, block } => self.on_commit_timer(view, block, ctx),
            TimerToken::Arrival => self.on_arrival(ctx),
            TimerToken::ForwardFlush => {
                self.forward_flush_armed = false;
                self.forward_backlog(ctx);
            }
            TimerToken::ForwardRetry => self.on_forward_retry(ctx),
            TimerToken::Restart => self.on_restart(ctx),
            TimerToken::QuitWait { .. }
            | TimerToken::ShareQc { .. }
            | TimerToken::EnterNew { .. }
            | TimerToken::LeaderStatus { .. }
            | TimerToken::Order => R::on_timer(self, token, ctx),
        }
    }

    fn gauges(&self) -> ActorGauges {
        // Every value is read from this replica's own state, so the
        // sampled series is invariant across worker counts
        // (the telemetry determinism contract).
        ActorGauges {
            tx_in_flight: self.txpool.in_flight() as u64,
            pool_backlog: self.txpool.backlog() as u64,
            forward_retries: self.metrics.forward_retries,
            batch_fill_pct: self.metrics.last_batch_fill_pct as f64,
            view: self.v_cur,
        }
    }
}
