//! One synchronous-SMR replica, generic over its commit rule.
//!
//! EESMR, Sync HotStuff and OptSync are the same machine around one
//! differing decision — when a proposal commits. [`Smr<R>`] is that
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
//! skeleton, three commit rules").
//!
//! Handlers are monomorphised per rule, so the message path keeps static
//! dispatch. Rust allows inherent impls only in the crate that defines a
//! type (E0116): the EESMR rule extends `Smr<EesmrRule>` with inherent
//! methods in this crate, a rule in another crate writes its handlers as
//! free functions over `&mut Smr<R>` — which is why the fields below are
//! `pub`.

use std::collections::BTreeMap;
use std::sync::Arc;

use eesmr_crypto::{Digest, KeyMap, KeySet, KeyStore, Signature};
use eesmr_net::codec::WireEnum;
use eesmr_net::{
    Actor, ActorGauges, Context, NodeId, SimDuration, SimTime, TimerId, TraceClass, TraceEventKind,
};

use crate::block::{Block, BlockStore, Command, Commands};
use crate::config::{BatchPolicy, FaultMode};
use crate::message::{Envelope, MsgKind, QuorumCert, SignedPayload};
use crate::metrics::Metrics;
use crate::txpool::{AdaptiveBatcher, TxPool, WorkloadSource};

/// Timer tokens (all carry the view they were armed in; stale timers are
/// ignored). `ShareQc` and `EnterNew` are armed by the EESMR rule only.
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
}

/// A signed message of rule `R`'s payload family.
pub type Msg<R> = Envelope<<R as Rule>::Payload>;

/// The network context of a replica running rule `R`.
pub type Ctx<'a, R> = Context<'a, Msg<R>, TimerToken>;

/// A borrowed view of the payload variants every rule's family has under
/// the same name, the same [`MsgKind`] tag and (but for the proposal's
/// slot) the same fields, in the fields' order.
#[derive(Debug)]
pub enum Shared<'a, P> {
    /// A proposal: the block and its *slot* — the coordinate at which a
    /// leader may propose once per view (EESMR: the round; Sync HotStuff:
    /// the height). Dedup and equivocation proofs are keyed by
    /// `(view, slot)`.
    Propose(&'a Block, u64),
    /// A blame, with two conflicting leader-signed proposals for one slot
    /// if it reports an equivocation.
    Blame(Option<&'a (Envelope<P>, Envelope<P>)>),
    /// A certificate of `f+1` blames.
    BlameQc(&'a QuorumCert),
    /// Chain sync: the wanted block.
    SyncRequest(Digest),
    /// Chain sync: blocks, nearest descendant first.
    SyncResponse(&'a [Block]),
    /// Client commands relayed to the proposer, in injection order.
    Forward(&'a Commands),
    /// A restarted replica's catch-up request from its durable height.
    Repair(u64),
    /// A committed-chain suffix, oldest first, and the responder's view.
    RepairReply(&'a [Block], u64),
}

/// A payload family the skeleton can run: it reads the shared variants
/// through [`Shared`] and builds the seven it sends itself. Implemented
/// by one [`smr_payload!`](crate::smr_payload) line per family.
pub trait SmrPayload: SignedPayload {
    /// The shared variant this payload is, if any.
    fn shared(&self) -> Option<Shared<'_, Self>>;
    /// `Blame { proof }`.
    fn blame(proof: Option<Box<(Envelope<Self>, Envelope<Self>)>>) -> Self;
    /// `BlameQc(qc)`.
    fn blame_qc(qc: QuorumCert) -> Self;
    /// `SyncRequest { want }`.
    fn sync_request(want: Digest) -> Self;
    /// `SyncResponse { blocks }`.
    fn sync_response(blocks: Vec<Block>) -> Self;
    /// `Forward { commands }`.
    fn forward(commands: Commands) -> Self;
    /// `Repair { from_height }`.
    fn repair(from_height: u64) -> Self;
    /// `RepairReply { blocks, view }`.
    fn repair_reply(blocks: Vec<Block>, view: u64) -> Self;
}

/// Implements [`SmrPayload`] for a payload enum whose shared variants are
/// spelled like [`Payload`](crate::Payload)'s. The one argument that
/// differs per family is how a `Propose` names its slot:
/// `smr_payload!(Payload { block, round } => *round)`.
#[macro_export]
macro_rules! smr_payload {
    ($P:ident { $block:ident $(, $field:ident)* } => $slot:expr) => {
        impl $crate::smr::SmrPayload for $P {
            fn shared(&self) -> Option<$crate::smr::Shared<'_, Self>> {
                use $crate::smr::Shared;
                Some(match self {
                    $P::Propose { $block $(, $field)*, .. } => Shared::Propose($block, $slot),
                    $P::Blame { proof } => Shared::Blame(proof.as_deref()),
                    $P::BlameQc(qc) => Shared::BlameQc(qc),
                    $P::SyncRequest { want } => Shared::SyncRequest(*want),
                    $P::SyncResponse { blocks } => Shared::SyncResponse(blocks),
                    $P::Forward { commands } => Shared::Forward(commands),
                    $P::Repair { from_height } => Shared::Repair(*from_height),
                    $P::RepairReply { blocks, view } => Shared::RepairReply(blocks, *view),
                    _ => return None,
                })
            }
            fn blame(proof: Option<Box<($crate::Envelope<Self>, $crate::Envelope<Self>)>>) -> Self {
                $P::Blame { proof }
            }
            fn blame_qc(qc: $crate::QuorumCert) -> Self {
                $P::BlameQc(qc)
            }
            fn sync_request(want: eesmr_crypto::Digest) -> Self {
                $P::SyncRequest { want }
            }
            fn sync_response(blocks: Vec<$crate::Block>) -> Self {
                $P::SyncResponse { blocks }
            }
            fn forward(commands: $crate::Commands) -> Self {
                $P::Forward { commands }
            }
            fn repair(from_height: u64) -> Self {
                $P::Repair { from_height }
            }
            fn repair_reply(blocks: Vec<$crate::Block>, view: u64) -> Self {
                $P::RepairReply { blocks, view }
            }
        }
    };
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
}

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
    /// `Leader(v)`.
    fn leader_of(&self, view: u64) -> NodeId;
    /// Whether a proposal for `slot` gets its signature checked (EESMR's
    /// checkpoint optimisation skips most).
    fn verifies_proposal(&self, slot: u64) -> bool;
    /// Whether the leader should try to propose right after a commit
    /// timer committed.
    fn proposes_after_commit(&self) -> bool;
    /// Whether the rule is past its view-change rounds — with the view
    /// number, what [`Smr::resumed_in_view`] reports.
    fn in_steady_state(&self) -> bool;
    /// Whether a proposal already seen for `(view, slot)` with this block
    /// id has been fully handled, so that another copy needs no work.
    fn processed(smr: &Smr<Self>, view: u64, slot: u64, block: &Digest) -> bool;

    /// Leader: propose if the rule's pacing allows.
    fn try_propose(smr: &mut Smr<Self>, ctx: &mut Ctx<'_, Self>);
    /// A leader-signed, non-equivocating `Propose` of the current view:
    /// accept it or not, and emit what accepting means.
    fn on_proposal(smr: &mut Smr<Self>, from: NodeId, msg: Msg<Self>, ctx: &mut Ctx<'_, Self>);
    /// A payload that is not one of the [`Shared`] variants.
    fn on_message(smr: &mut Smr<Self>, from: NodeId, msg: Msg<Self>, ctx: &mut Ctx<'_, Self>);
    /// `QuitWait`, `ShareQc`, `EnterNew` and `LeaderStatus`: the view
    /// change from the Δ quit wait on.
    fn on_timer(smr: &mut Smr<Self>, token: TimerToken, ctx: &mut Ctx<'_, Self>);
    /// A restart wiped the rule's volatile state.
    fn wipe_volatile(&mut self);
    /// A repair moved the replica into a later view without a view
    /// change: reset the rule's per-view state.
    fn on_view_adopted(smr: &mut Smr<Self>, ctx: &mut Ctx<'_, Self>);
    /// A repair committed up to `tip`: move the rule's proposing point.
    fn on_repaired(&mut self, tip: &Block);
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

    /// First proposal seen per `(view, slot)`: dedup, and the first half
    /// of an equivocation proof.
    pub proposals_seen: KeyMap<(u64, u64), (Digest, Msg<R>)>,
    /// Armed commit timers.
    pub commit_timers: Vec<(Digest, TimerId)>,
    /// The armed blame timer.
    pub blame_timer: Option<TimerId>,
    /// Accepted, uncommitted proposals (what pacing counts).
    pub outstanding: usize,
    /// When each uncommitted block was first accepted.
    pub first_seen: KeyMap<Digest, SimTime>,
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

    /// Messages for views this replica has not reached yet.
    pub future_views: Vec<(NodeId, Msg<R>)>,
    /// Messages waiting for a missing ancestor, by the missing block.
    pub orphans: KeyMap<Digest, Vec<(NodeId, Msg<R>)>>,
    /// Blocks already asked for.
    pub sync_requested: KeySet<Digest>,

    /// The committed log, in commit order.
    pub committed_log: Vec<Digest>,
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
            proposals_seen: KeyMap::default(),
            commit_timers: Vec::new(),
            blame_timer: None,
            outstanding: 0,
            first_seen: KeyMap::default(),
            forward_flush_armed: false,
            forward_retry_armed: false,
            blames: BTreeMap::new(),
            view_aborted: false,
            quit_scheduled: false,
            future_views: Vec::new(),
            orphans: KeyMap::default(),
            sync_requested: KeySet::default(),
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
        self.v_cur >= v && self.rule.in_steady_state()
    }

    /// The committed log (block ids in commit order, excluding genesis).
    pub fn committed(&self) -> &[Digest] {
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

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.rule.leader_of(self.v_cur) == self.id
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

    /// Verifies a message envelope, charging verification + hashing energy.
    pub fn verify_envelope(&self, msg: &Msg<R>, ctx: &mut Ctx<'_, R>) -> bool {
        ctx.meter().charge_verify(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        msg.verify_sig(&self.pki)
    }

    /// Verifies a quorum certificate at `threshold` distinct signers,
    /// charging for the signature checks performed.
    pub fn verify_qc(&self, qc: &QuorumCert, threshold: usize, ctx: &mut Ctx<'_, R>) -> bool {
        let (ok, checks) = qc.verify(&self.pki, threshold);
        for _ in 0..checks {
            ctx.meter().charge_verify(self.pki.scheme());
        }
        ok
    }

    /// Re-arms the blame timer at `multiple`Δ for the current view.
    pub fn reset_blame_timer(&mut self, multiple: u64, ctx: &mut Ctx<'_, R>) {
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
        !self.is_leader() && self.active() && !self.view_aborted && !self.txpool.is_empty()
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
        let leader = self.rule.leader_of(self.v_cur);
        if ctx.traces(TraceClass::Commit) {
            for cmd in &commands {
                ctx.trace(TraceEventKind::TxForward { tx: cmd.fingerprint(), leader });
            }
        }
        let msg = self.sign(R::Payload::forward(commands.into()), ctx);
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
    /// nothing a shard boundary could reorder.
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
        let Some(Shared::Forward(commands)) = msg.payload.shared() else { return };
        for cmd in commands.iter().cloned() {
            self.txpool.submit(cmd);
        }
        self.propose_or_forward(ctx);
    }

    // ------------------------------------------------------------------
    // Proposals: cutting, admitting, committing.
    // ------------------------------------------------------------------

    /// Leader: cuts the next batch into a block on `parent` for `round`,
    /// charges its hash, traces it and stores it. The rule signs and
    /// sends it.
    pub fn cut_block(&mut self, parent: &Block, round: u64, ctx: &mut Ctx<'_, R>) -> Block {
        let policy = self.params.batch_policy;
        let want = self.batcher.next_size(self.txpool.backlog(), policy);
        let batch = self.txpool.next_batch(want);
        self.metrics.record_batch_fill(batch.len(), policy.max_size());
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

    /// Handles a `Propose` up to the point where the rules part ways:
    /// buffers it if it is early, drops an exact duplicate unverified
    /// (relay-once flooding delivers each proposal up to `D_in` times),
    /// insists on the leader's signature, and turns a second block for an
    /// occupied `(view, slot)` into an equivocation blame — for any slot
    /// of the current view, "not just the latest round" (Algorithm 2,
    /// lines 220–226). What survives goes to [`Rule::on_proposal`].
    pub fn on_propose(&mut self, from: NodeId, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::Propose(block, slot)) = msg.payload.shared() else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        let block_id = block.id();
        let key = (msg.view, slot);
        if let Some((seen_id, _)) = self.proposals_seen.get(&key) {
            let processed = msg.view < self.v_cur || R::processed(self, msg.view, slot, &block_id);
            if *seen_id == block_id && processed {
                return;
            }
        }
        if msg.signer != self.rule.leader_of(msg.view)
            || (self.rule.verifies_proposal(slot) && !self.verify_envelope(&msg, ctx))
        {
            self.metrics.proposals_rejected += 1;
            return;
        }
        if let Some((seen_id, seen_msg)) = self.proposals_seen.get(&key) {
            if *seen_id != block_id {
                if msg.view == self.v_cur {
                    let first = seen_msg.clone();
                    self.on_equivocation(first, msg, ctx);
                }
                return;
            }
        } else {
            self.proposals_seen.insert(key, (block_id, msg.clone()));
        }
        if msg.view < self.v_cur {
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
            self.committed_log.push(id);
            self.metrics.blocks_committed += 1;
            if let Some(seen) = self.first_seen.remove(&id) {
                self.metrics.record_commit_latency(now.since(seen));
            }
            let block = self.store.get(&id).expect("segment blocks are stored").clone();
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::Commit {
                    block: crate::block::fingerprint(&id),
                    height: block.height,
                });
            }
            self.txpool.remove_committed(&block, now);
        }
        self.b_com = block_id;
        self.b_com_height = self.store.get(&block_id).expect("committed block stored").height;
        self.metrics.committed_height = self.b_com_height;
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
        let blame = self.sign(R::Payload::blame(None), ctx);
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
        let blame = self.sign(R::Payload::blame(Some(Box::new((first, second)))), ctx);
        ctx.flood(blame);
        if self.params.quits_on_equivocation {
            self.schedule_quit(ctx);
        }
    }

    /// Validates an equivocation proof: two valid leader signatures on
    /// conflicting proposals for the same view and slot.
    fn proof_is_valid(&self, view: u64, proof: &(Msg<R>, Msg<R>), ctx: &mut Ctx<'_, R>) -> bool {
        let (a, b) = proof;
        let leader = self.rule.leader_of(view);
        let (Some(Shared::Propose(_, slot_a)), Some(Shared::Propose(_, slot_b))) =
            (a.payload.shared(), b.payload.shared())
        else {
            return false;
        };
        a.view == view
            && b.view == view
            && a.signer == leader
            && b.signer == leader
            && slot_a == slot_b
            && a.payload.signing_digest(view) != b.payload.signing_digest(view)
            && self.verify_envelope(a, ctx)
            && self.verify_envelope(b, ctx)
    }

    /// Handles a `Blame` (possibly carrying an equivocation proof).
    fn on_blame(&mut self, from: NodeId, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::Blame(proof)) = msg.payload.shared() else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
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
                let (first, second) = p.clone();
                self.on_equivocation(first, second, ctx);
            }
        }
        self.blames.insert(msg.signer, msg.sig.clone());
        let quorum = self.params.blame_quorum;
        if self.blames.len() >= quorum && !self.quit_scheduled {
            // f+1 blames: certificate, broadcast, quit (lines 227–234).
            let data = R::Payload::blame(None).signing_digest(self.v_cur);
            let sigs = self.blames.iter().take(quorum).map(|(n, s)| (*n, s.clone())).collect();
            let qc = QuorumCert { kind: MsgKind::Blame, view: self.v_cur, data, height: 0, sigs };
            let msg = self.sign(R::Payload::blame_qc(qc), ctx);
            ctx.flood(msg);
            self.view_aborted = true;
            self.cancel_commit_timers(ctx);
            self.schedule_quit(ctx);
        }
    }

    /// Handles a received blame certificate (line 231).
    fn on_blame_qc(&mut self, from: NodeId, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::BlameQc(qc)) = msg.payload.shared() else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
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
    /// new leader — and buffered traffic for this view replays.
    pub fn settle_into_view(&mut self, ctx: &mut Ctx<'_, R>) {
        self.forward_backlog(ctx);
        let (current, later): (Vec<_>, Vec<_>) =
            self.future_views.drain(..).partition(|(_, m)| m.view <= self.v_cur);
        self.future_views = later;
        for (from, msg) in current {
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

    /// Requests a missing block from `from` (chain synchronization, §3.2).
    pub fn request_sync(&mut self, want: Digest, from: NodeId, ctx: &mut Ctx<'_, R>) {
        if from == self.id || !self.sync_requested.insert(want) {
            return;
        }
        self.metrics.sync_requests += 1;
        let msg = self.sign(R::Payload::sync_request(want), ctx);
        ctx.send_to(from, msg);
    }

    fn on_sync_request(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::SyncRequest(want)) = msg.payload.shared() else { return };
        if !self.verify_envelope(&msg, ctx) {
            return;
        }
        let blocks: Vec<Block> =
            self.store.ancestors(&want, self.params.sync_cap).into_iter().cloned().collect();
        if blocks.is_empty() {
            return;
        }
        let reply = self.sign(R::Payload::sync_response(blocks), ctx);
        ctx.send_to(msg.signer, reply);
    }

    /// Stores received blocks (charging their hashes) and returns the
    /// buffered messages that were waiting for any of them.
    fn store_blocks(&mut self, blocks: &[Block], ctx: &mut Ctx<'_, R>) -> Vec<(NodeId, Msg<R>)> {
        let mut unblocked = Vec::new();
        for block in blocks {
            ctx.meter().charge_hash(block.wire_size());
            let id = self.store.insert(block.clone());
            self.sync_requested.remove(&id);
            if let Some(waiting) = self.orphans.remove(&id) {
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
                self.on_propose(from, msg, ctx);
            }
        }
    }

    fn on_sync_response(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::SyncResponse(blocks)) = msg.payload.shared() else { return };
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
        self.metrics.repair_requests += 1;
        let msg = self.sign(R::Payload::repair(self.b_com_height), ctx);
        ctx.flood(msg);
    }

    /// Serves a recovering peer: reply with the committed-chain suffix
    /// above its durable height, plus our current view so it can rejoin.
    fn on_repair(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::Repair(from_height)) = msg.payload.shared() else { return };
        if !self.verify_envelope(&msg, ctx) || self.b_com_height <= from_height {
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
        let reply = self.sign(R::Payload::repair_reply(blocks, self.v_cur), ctx);
        ctx.send_to(msg.signer, reply);
    }

    /// A committed-chain suffix from a peer: authenticate the responder,
    /// verify the hash links, commit the suffix, and adopt the network's
    /// view so steady state can resume here.
    fn on_repair_reply(&mut self, msg: Msg<R>, ctx: &mut Ctx<'_, R>) {
        let Some(Shared::RepairReply(blocks, view)) = msg.payload.shared() else { return };
        // The hash links below prove the blocks form a chain, not that
        // anybody committed it: only a member's word is taken for that.
        if !self.verify_envelope(&msg, ctx) {
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
        self.rule.on_repaired(tip);
        self.adopt_view(view, ctx);
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
        if !self.active() || !self.online(ctx) {
            return;
        }
        // The shared variants carry the same tag in every family.
        match msg.payload.tag() {
            MsgKind::Propose => self.on_propose(from, msg, ctx),
            MsgKind::Blame => self.on_blame(from, msg, ctx),
            MsgKind::BlameQc => self.on_blame_qc(from, msg, ctx),
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
            | TimerToken::LeaderStatus { .. } => R::on_timer(self, token, ctx),
        }
    }

    fn gauges(&self) -> ActorGauges {
        // Every value is read from this replica's own state, so the
        // sampled series is invariant across shard/worker/scheduler
        // choices (the telemetry determinism contract).
        ActorGauges {
            tx_in_flight: self.txpool.in_flight() as u64,
            pool_backlog: self.txpool.backlog() as u64,
            forward_retries: self.metrics.forward_retries,
            batch_fill_pct: self.metrics.last_batch_fill_pct as f64,
            view: self.v_cur,
        }
    }
}
