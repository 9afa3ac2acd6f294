//! Sync HotStuff (Abraham et al., S&P 2020) and OptSync (Shrestha et al.,
//! CCS 2020) — the certificate-based synchronous SMR baselines the paper
//! compares EESMR against (§5.7, Fig. 2f, Fig. 3).
//!
//! Both protocols share one replica here, differing in the commit rule:
//!
//! * **Sync HotStuff** — every node *votes explicitly* on every proposal;
//!   a quorum certificate of `n/2+1` votes locks the block; commit happens
//!   2Δ after voting if no equivocation was heard. Per block, the system
//!   performs `n+1` signatures and `Θ(n)` verifications per node — the
//!   certificate work EESMR's "voting in the head" avoids.
//! * **OptSync** — adds the optimistically responsive fast path: `3n/4+1`
//!   votes commit immediately (no 2Δ wait), at the cost of verifying more
//!   votes.
//!
//! The view change follows the Sync HotStuff pattern: blame on
//! no-progress/equivocation, a blame certificate quits the view, nodes
//! report their highest certificate to the next leader, which re-proposes
//! extending the highest one.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use eesmr_core::message::block_ids_digest;
use eesmr_core::{
    AdaptiveBatcher, BatchPolicy, Block, BlockStore, CertifiedBlock, Command, Commands, Envelope,
    Metrics, MsgKind, QuorumCert, SignedPayload, TxPool, WorkloadSource,
};
use eesmr_crypto::sha256::Sha256;
use eesmr_crypto::{Digest, Hashable, KeyStore, Signature};
use eesmr_net::codec::family;
use eesmr_net::{
    Actor, Context, NodeId, SimDuration, SimTime, TimerId, TraceClass, TraceEventKind,
};

/// Which commit rule the replica runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsVariant {
    /// Sync HotStuff: `n/2+1` certificates, 2Δ synchronous commit.
    SyncHotStuff,
    /// OptSync: additionally commit responsively at `3n/4+1` votes.
    OptSync,
}

/// Proposal pacing (mirrors `eesmr_core::Pacing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsPacing {
    /// One uncommitted proposal at a time (comparable to the paper's
    /// blocking EESMR variant).
    Blocking,
    /// Propose as soon as the previous block is certified.
    Streaming,
}

/// Static configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HsConfig {
    /// Node count.
    pub n: usize,
    /// Fault bound `f < n/2`.
    pub f: usize,
    /// The synchrony bound Δ.
    pub delta: SimDuration,
    /// Synthetic payload bytes per block.
    pub payload_bytes: usize,
    /// How the leader sizes each batch (mirrors
    /// `eesmr_core::BatchPolicy`).
    pub batch_policy: BatchPolicy,
    /// Synthetic offered load: commands fabricated per proposal when the
    /// pool is empty.
    pub offered_load: usize,
    /// Forward-batching threshold (mirrors
    /// `eesmr_core::Config::forward_batch`): relay the backlog once it
    /// holds this many commands or a Δ flush timer fires; `1` forwards
    /// on every arrival.
    pub forward_batch: usize,
    /// Commit rule.
    pub variant: HsVariant,
    /// Pacing.
    pub pacing: HsPacing,
}

impl HsConfig {
    /// Defaults matching the paper's comparison setup.
    pub fn new(n: usize, delta: SimDuration, variant: HsVariant) -> Self {
        assert!(n >= 2, "SMR needs at least two nodes");
        HsConfig {
            n,
            f: n.div_ceil(2) - 1,
            delta,
            payload_bytes: 16,
            batch_policy: BatchPolicy::DEFAULT,
            offered_load: 1,
            forward_batch: 1,
            variant,
            pacing: HsPacing::Blocking,
        }
    }

    /// Certificate quorum: `n/2 + 1`.
    pub fn cert_quorum(&self) -> usize {
        self.n / 2 + 1
    }

    /// Responsive-commit quorum: `⌊3n/4⌋ + 1` (OptSync only).
    pub fn fast_quorum(&self) -> usize {
        3 * self.n / 4 + 1
    }

    /// Blame quorum: `f + 1`.
    pub fn blame_quorum(&self) -> usize {
        self.f + 1
    }

    /// Round-robin leader.
    pub fn leader_of(&self, view: u64) -> NodeId {
        (((view - 1) as usize) % self.n) as NodeId
    }

    fn steady_blame_multiple(&self) -> u64 {
        match self.pacing {
            HsPacing::Blocking => 5, // 2Δ commit + Δ propagation + margin
            HsPacing::Streaming => 4,
        }
    }
}

/// Message payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum HsPayload {
    /// A proposal; `justify` certifies the parent (absent only for the
    /// first block after genesis).
    Propose {
        /// Proposed block.
        block: Block,
        /// Certificate for the parent.
        justify: Option<QuorumCert>,
    },
    /// An explicit vote.
    Vote {
        /// Voted block.
        block_id: Digest,
        /// Its height.
        height: u64,
    },
    /// Blame (optionally with an equivocation proof).
    Blame {
        /// Two conflicting proposals, if equivocation was observed.
        proof: Option<Box<(HsMsg, HsMsg)>>,
    },
    /// Certificate of f+1 blames.
    BlameQc(QuorumCert),
    /// Status for the new leader: the sender's highest certificate.
    Status {
        /// Highest certified block, if any was ever certified.
        cert: Option<CertifiedBlock>,
    },
    /// Chain sync request.
    SyncRequest {
        /// Wanted block.
        want: Digest,
    },
    /// Chain sync response.
    SyncResponse {
        /// Blocks, nearest first.
        blocks: Vec<Block>,
    },
    /// Client commands relayed from a non-leading node to the current
    /// proposer (command forwarding, mirroring `eesmr_core`'s
    /// `Payload::Forward`).
    Forward {
        /// The forwarded commands, in injection order (Arc-backed so
        /// per-hop clones are refcount bumps).
        commands: Commands,
    },
    /// A restarted replica's catch-up request (crash-recovery repair).
    Repair {
        /// The requester's last durable committed height.
        from_height: u64,
    },
    /// A committed-chain suffix answering a [`HsPayload::Repair`]
    /// (hash-chained oldest first, so it is self-certifying), plus the
    /// responder's current view.
    RepairReply {
        /// Committed blocks above the requested height, oldest first.
        blocks: Vec<Block>,
        /// The responder's current view.
        view: u64,
    },
}

impl SignedPayload for HsPayload {
    const FAMILY: u8 = family::HS_MSG;

    fn signing_digest(&self, view: u64) -> Digest {
        match self {
            HsPayload::Propose { block, .. } => {
                Digest::of_parts(&[b"hs-prop", block.id().as_bytes(), &block.height.to_le_bytes()])
            }
            HsPayload::Vote { block_id, .. } => *block_id,
            HsPayload::Blame { .. } => Digest::of_parts(&[b"hs-blame", &view.to_le_bytes()]),
            HsPayload::BlameQc(qc) => qc.digest(),
            HsPayload::Status { cert } => match cert {
                Some(c) => c.qc.digest(),
                None => Digest::of(b"hs-status-none"),
            },
            HsPayload::SyncRequest { want } => *want,
            HsPayload::SyncResponse { blocks } => block_ids_digest(Sha256::new(), blocks),
            HsPayload::Forward { commands } => {
                let mut h = Sha256::new();
                h.update(b"hs-fwd");
                for c in commands {
                    c.encode_into(&mut h);
                }
                h.finalize()
            }
            HsPayload::Repair { from_height } => {
                Digest::of_parts(&[b"hs-repair", &from_height.to_le_bytes()])
            }
            HsPayload::RepairReply { blocks, view } => {
                let mut h = Sha256::new();
                h.update(b"hs-repair-reply");
                h.update(&view.to_le_bytes());
                block_ids_digest(h, blocks)
            }
        }
    }
}

/// A signed Sync HotStuff / OptSync message.
pub type HsMsg = Envelope<HsPayload>;

/// `ShardedNet` moves messages between shard threads.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<HsMsg>();
};

/// Timer tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HsTimer {
    /// No-progress blame timer.
    Blame {
        /// Guarded view.
        view: u64,
    },
    /// 2Δ synchronous commit timer for a block.
    Commit {
        /// View in which the vote was cast.
        view: u64,
        /// The block.
        block: Digest,
    },
    /// Δ wait after a blame certificate before the new view.
    QuitWait {
        /// The view being quit.
        view: u64,
    },
    /// The new leader's status-collection window.
    LeaderStatus {
        /// The new view.
        view: u64,
    },
    /// The next client-transaction arrival from the attached
    /// `WorkloadSource`.
    Arrival,
    /// Δ flush deadline for a sub-threshold forward batch (armed when
    /// `forward_batch > 1` and the backlog is below the threshold).
    ForwardFlush,
    /// A crashed node's restart point ([`HsFault::Crash`] with a
    /// `restart_at_us`): re-arm timers and run the repair protocol.
    Restart,
}

/// Injected fault behaviour: the same adversary model as EESMR's.
pub use eesmr_core::FaultMode as HsFault;

type Ctx<'a> = Context<'a, HsMsg, HsTimer>;

/// A Sync HotStuff / OptSync replica.
pub struct HsReplica {
    id: NodeId,
    config: HsConfig,
    pki: Arc<KeyStore>,
    fault: HsFault,

    v_cur: u64,
    store: BlockStore,
    tip: Digest,
    tip_height: u64,
    highest_cert: Option<CertifiedBlock>,
    b_com: Digest,
    b_com_height: u64,
    txpool: TxPool,
    batcher: AdaptiveBatcher,
    workload: Option<Box<dyn WorkloadSource>>,

    proposals_seen: HashMap<(u64, u64), (Digest, HsMsg)>,
    voted: HashSet<(u64, u64)>,
    votes: HashMap<Digest, BTreeMap<NodeId, Signature>>,
    relayed_votes: HashSet<(Digest, NodeId)>,
    certified: HashSet<Digest>,
    fast_committed: HashSet<Digest>,
    commit_timers: Vec<(Digest, TimerId)>,
    blame_timer: Option<TimerId>,
    outstanding: usize,
    first_seen: HashMap<Digest, SimTime>,
    forward_flush_armed: bool,

    blames: BTreeMap<NodeId, Signature>,
    view_aborted: bool,
    quit_scheduled: bool,
    statuses: BTreeMap<NodeId, Option<CertifiedBlock>>,
    new_view_proposed: bool,

    future_views: Vec<(NodeId, HsMsg)>,
    orphans: HashMap<Digest, Vec<(NodeId, HsMsg)>>,
    sync_requested: HashSet<Digest>,

    committed_log: Vec<Digest>,
    metrics: Metrics,
}

impl core::fmt::Debug for HsReplica {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HsReplica")
            .field("id", &self.id)
            .field("view", &self.v_cur)
            .field("committed_height", &self.b_com_height)
            .field("variant", &self.config.variant)
            .finish()
    }
}

impl HsReplica {
    /// Creates a replica.
    pub fn new(id: NodeId, config: HsConfig, pki: Arc<KeyStore>, fault: HsFault) -> Self {
        assert!(pki.n() >= config.n, "key store must cover all nodes");
        let store = BlockStore::new();
        let genesis = store.genesis_id();
        let payload = config.payload_bytes;
        let offered = config.offered_load;
        HsReplica {
            id,
            config,
            pki,
            fault,
            v_cur: 1,
            store,
            tip: genesis,
            tip_height: 0,
            highest_cert: None,
            b_com: genesis,
            b_com_height: 0,
            txpool: TxPool::synthetic(payload).with_offered_load(offered),
            batcher: AdaptiveBatcher::new(),
            workload: None,
            proposals_seen: HashMap::new(),
            voted: HashSet::new(),
            votes: HashMap::new(),
            relayed_votes: HashSet::new(),
            certified: HashSet::new(),
            fast_committed: HashSet::new(),
            commit_timers: Vec::new(),
            blame_timer: None,
            outstanding: 0,
            first_seen: HashMap::new(),
            forward_flush_armed: false,
            blames: BTreeMap::new(),
            view_aborted: false,
            quit_scheduled: false,
            statuses: BTreeMap::new(),
            new_view_proposed: false,
            future_views: Vec::new(),
            orphans: HashMap::new(),
            sync_requested: HashSet::new(),
            committed_log: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Committed log.
    pub fn committed(&self) -> &[Digest] {
        &self.committed_log
    }

    /// Highest committed height.
    pub fn committed_height(&self) -> u64 {
        self.b_com_height
    }

    /// Current view.
    pub fn current_view(&self) -> u64 {
        self.v_cur
    }

    /// Metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The configuration.
    pub fn config(&self) -> &HsConfig {
        &self.config
    }

    /// Looks up a block.
    pub fn block(&self, id: &Digest) -> Option<&Block> {
        self.store.get(id)
    }

    /// Attaches a client-workload stream (mirrors
    /// `eesmr_core::Replica::attach_workload`): arrival timers inject
    /// timestamped transactions and the synthetic fallback is disabled.
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

    /// One arrival event: inject, re-arm, and either propose the fresh
    /// backlog (leader) or forward it to the proposer (everyone else).
    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        let Some(source) = &mut self.workload else { return };
        let now_us = ctx.now().as_micros();
        let traced = ctx.traces(TraceClass::Commit);
        let delay = self.txpool.drive_arrival(source.as_mut(), &mut self.metrics, now_us, |cmd| {
            if traced {
                ctx.trace(TraceEventKind::TxInject { tx: cmd.fingerprint() });
            }
        });
        if let Some(delay) = delay {
            ctx.set_timer(SimDuration::from_micros(delay), HsTimer::Arrival);
        }
        self.try_propose(ctx);
        self.maybe_forward_backlog(ctx);
    }

    /// Forward immediately once the backlog reaches the
    /// `forward_batch` threshold; below it, arm a single Δ flush timer
    /// so sub-threshold commands never strand. `forward_batch <= 1`
    /// preserves the historical forward-per-arrival behaviour.
    fn maybe_forward_backlog(&mut self, ctx: &mut Ctx<'_>) {
        if self.is_leader() || !self.active() || self.view_aborted || self.txpool.is_empty() {
            return;
        }
        if self.config.forward_batch <= 1 || self.txpool.backlog() >= self.config.forward_batch {
            self.forward_backlog(ctx);
        } else if !self.forward_flush_armed {
            self.forward_flush_armed = true;
            ctx.set_timer(self.config.delta, HsTimer::ForwardFlush);
        }
    }

    /// Command forwarding (mirrors `eesmr_core::Replica::forward_backlog`):
    /// a non-leading node relays its queued client commands to the
    /// current leader so they cannot strand in a pool that never
    /// proposes. Births stay at the origin (latency settles there on
    /// commit), and the new-view path re-forwards whatever a dead
    /// leader dropped.
    fn forward_backlog(&mut self, ctx: &mut Ctx<'_>) {
        // No workload gate: commands forwarded to an ex-leader must be
        // re-routed onward too (synthetic pools never populate
        // `pending`, so non-workload runs stay forward-free).
        if self.is_leader() || !self.active() || self.view_aborted || self.txpool.is_empty() {
            return;
        }
        let commands = self.txpool.take_pending();
        self.metrics.tx_forwarded += commands.len() as u64;
        let leader = self.config.leader_of(self.v_cur);
        if ctx.traces(TraceClass::Commit) {
            for cmd in &commands {
                ctx.trace(TraceEventKind::TxForward { tx: cmd.fingerprint(), leader });
            }
        }
        let msg = self.sign(HsPayload::Forward { commands: commands.into() }, ctx);
        ctx.send_to(leader, msg);
    }

    /// Receives forwarded client commands: queue them and, if leading,
    /// get them into a block; a forward that raced a view change is
    /// re-routed to the receiver's current leader instead of stranding.
    fn on_forward(&mut self, msg: HsMsg, ctx: &mut Ctx<'_>) {
        if !self.verify_envelope(&msg, ctx) {
            return;
        }
        let HsPayload::Forward { commands } = &msg.payload else { return };
        for cmd in commands.iter().cloned() {
            self.txpool.submit(cmd);
        }
        if self.is_leader() {
            self.try_propose(ctx);
        } else {
            self.forward_backlog(ctx);
        }
    }

    fn active(&self) -> bool {
        self.fault.is_active_in(self.v_cur)
    }

    fn is_leader(&self) -> bool {
        self.config.leader_of(self.v_cur) == self.id
    }

    fn sign(&self, payload: HsPayload, ctx: &mut Ctx<'_>) -> HsMsg {
        let msg = HsMsg::new(payload, self.v_cur, self.pki.keypair(self.id));
        ctx.meter().charge_sign(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        msg
    }

    fn verify_envelope(&self, msg: &HsMsg, ctx: &mut Ctx<'_>) -> bool {
        ctx.meter().charge_verify(self.pki.scheme());
        ctx.meter().charge_hash(msg.wire_size());
        msg.verify_sig(&self.pki)
    }

    fn verify_qc(&self, qc: &QuorumCert, threshold: usize, ctx: &mut Ctx<'_>) -> bool {
        let (ok, checks) = qc.verify(&self.pki, threshold);
        for _ in 0..checks {
            ctx.meter().charge_verify(self.pki.scheme());
        }
        ok
    }

    fn reset_blame_timer(&mut self, multiple: u64, ctx: &mut Ctx<'_>) {
        if let Some(t) = self.blame_timer.take() {
            ctx.cancel_timer(t);
        }
        let id = ctx.set_timer(self.config.delta * multiple, HsTimer::Blame { view: self.v_cur });
        self.blame_timer = Some(id);
    }

    fn cancel_commit_timers(&mut self, ctx: &mut Ctx<'_>) {
        for (_, t) in self.commit_timers.drain(..) {
            ctx.cancel_timer(t);
        }
        self.outstanding = 0;
    }

    // ------------------------------------------------------------------
    // Steady state.
    // ------------------------------------------------------------------

    fn try_propose(&mut self, ctx: &mut Ctx<'_>) {
        if !self.is_leader() || !self.active() || self.view_aborted {
            return;
        }
        let allowed = match self.config.pacing {
            HsPacing::Blocking => self.outstanding == 0,
            HsPacing::Streaming => true,
        };
        if !allowed {
            return;
        }
        let parent = self.store.get(&self.tip).expect("tip block stored").clone();
        let justify = if parent.height == 0 {
            None
        } else {
            match &self.highest_cert {
                Some(c) if c.block.id() == parent.id() => Some(c.qc.clone()),
                _ => return, // parent not certified yet — wait for votes
            }
        };
        let want = self.batcher.next_size(self.txpool.backlog(), self.config.batch_policy);
        let batch = self.txpool.next_batch(want);
        self.metrics.record_batch_fill(batch.len(), self.config.batch_policy.max_size());
        let block = Block::extending(&parent, self.v_cur, parent.height + 1, batch);
        ctx.meter().charge_hash(block.wire_size());
        if ctx.traces(TraceClass::Commit) {
            let block_fp = block.fingerprint();
            for cmd in &block.payload {
                ctx.trace(TraceEventKind::TxBatched { tx: cmd.fingerprint(), block: block_fp });
            }
            ctx.trace(TraceEventKind::Propose {
                block: block_fp,
                view: self.v_cur,
                round: block.height,
            });
        }
        self.store.insert(block.clone());
        let msg = self.sign(HsPayload::Propose { block: block.clone(), justify }, ctx);
        ctx.flood(msg);

        if let HsFault::Equivocate { in_view } = self.fault {
            if in_view == self.v_cur {
                let twin = Block::extending(
                    &parent,
                    self.v_cur,
                    parent.height + 1,
                    vec![Command::synthetic(u64::MAX, self.config.payload_bytes)],
                );
                self.store.insert(twin.clone());
                let justify2 = match &self.highest_cert {
                    Some(c) if c.block.id() == parent.id() => Some(c.qc.clone()),
                    _ => None,
                };
                let twin_msg =
                    self.sign(HsPayload::Propose { block: twin, justify: justify2 }, ctx);
                ctx.flood(twin_msg);
            }
        }
    }

    fn on_propose(&mut self, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::Propose { block, justify } = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        let block_id = block.id();
        let key = (msg.view, block.height);
        if let Some((seen_id, _)) = self.proposals_seen.get(&key) {
            let processed = self.voted.contains(&(msg.view, block.height)) || msg.view < self.v_cur;
            if *seen_id == block_id && processed {
                return; // exact duplicate — no fresh signature check
            }
        }
        if msg.signer != self.config.leader_of(msg.view) || !self.verify_envelope(&msg, ctx) {
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
        if msg.view < self.v_cur || self.view_aborted {
            return;
        }
        if !self.store.contains(&block.parent) {
            let parent = block.parent;
            self.orphans.entry(parent).or_default().push((from, msg));
            self.request_sync(parent, from, ctx);
            return;
        }
        // Insert before the lock check so lineage walks see the block.
        self.store.insert(block.clone());
        // Certificate rule: non-initial blocks need a certified parent.
        if block.height > 1 {
            let Some(qc) = justify else {
                self.metrics.proposals_rejected += 1;
                return;
            };
            if qc.kind != MsgKind::HsVote
                || qc.data != block.parent
                || !self.verify_qc(qc, self.config.cert_quorum(), ctx)
            {
                self.metrics.proposals_rejected += 1;
                return;
            }
        }
        // Lock rule: must extend the highest certified block.
        if let Some(c) = &self.highest_cert {
            if !self.store.extends(&block_id, &c.block.id()) {
                self.metrics.proposals_rejected += 1;
                return;
            }
        }
        if !self.voted.insert((msg.view, block.height)) {
            return; // vote once per height per view
        }
        let block = block.clone();
        ctx.meter().charge_hash(block.wire_size());
        self.first_seen.entry(block_id).or_insert(ctx.now());
        self.metrics.proposals_relayed += 1;
        if block.height > self.tip_height {
            self.tip = block_id;
            self.tip_height = block.height;
        }
        // Votes use partial forwarding (the paper's §5.7 setup favouring
        // Sync HotStuff): one k-cast per node, relayed hop-by-hop only by
        // nodes that have not yet formed the certificate. Our own vote
        // counts towards our certificate immediately (the loopback copy is
        // swallowed by the relay dedup).
        let height = block.height;
        // A withholding node accepts the proposal (timers, tip, commit
        // path all run) but never emits its vote — the quorum-starving
        // adversary; a storming node repeats its vote, which the
        // receivers' dedup absorbs while traffic inflates.
        if self.fault.relays_in(self.v_cur) {
            if ctx.traces(TraceClass::Proto) {
                ctx.trace(TraceEventKind::Vote {
                    block: eesmr_core::block::fingerprint(&block_id),
                    view: self.v_cur,
                });
            }
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::Relay {
                    block: eesmr_core::block::fingerprint(&block_id),
                });
            }
            let vote = self.sign(HsPayload::Vote { block_id, height }, ctx);
            self.relayed_votes.insert((block_id, self.id));
            self.votes.entry(block_id).or_default().insert(self.id, vote.sig.clone());
            for _ in 0..self.fault.storm_repeats_in(self.v_cur) {
                ctx.multicast(vote.clone());
            }
            ctx.multicast(vote);
        }
        self.try_form_cert(block_id, height, self.v_cur, ctx);
        self.try_fast_commit(block_id, ctx);
        let t = ctx.set_timer(
            self.config.delta * 2,
            HsTimer::Commit { view: self.v_cur, block: block_id },
        );
        self.commit_timers.push((block_id, t));
        self.outstanding += 1;
        self.reset_blame_timer(self.config.steady_blame_multiple(), ctx);
    }

    fn on_vote(&mut self, _from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::Vote { block_id, height } = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((_from, msg));
            return;
        }
        if msg.view < self.v_cur || self.view_aborted {
            return;
        }
        let needs_more = !self.certified.contains(block_id)
            || (self.config.variant == HsVariant::OptSync
                && !self.fast_committed.contains(block_id));
        if !needs_more {
            return; // enough votes verified already — skip the crypto work
        }
        if self.relayed_votes.contains(&(*block_id, msg.signer)) {
            return; // duplicate copy of a vote we already processed
        }
        if !self.verify_envelope(&msg, ctx) {
            return;
        }
        // Partial vote forwarding: relay each distinct vote once while our
        // own certificate is still incomplete. Every node relays at least
        // the quorum-completing vote, so downstream nodes always gather a
        // quorum too.
        self.relayed_votes.insert((*block_id, msg.signer));
        ctx.multicast(msg.clone());
        let (block_id, height) = (*block_id, *height);
        self.votes.entry(block_id).or_default().insert(msg.signer, msg.sig.clone());
        self.try_form_cert(block_id, height, msg.view, ctx);
        self.try_fast_commit(block_id, ctx);
    }

    /// Forms the `n/2+1` certificate once enough votes are in.
    fn try_form_cert(&mut self, block_id: Digest, height: u64, view: u64, ctx: &mut Ctx<'_>) {
        let count = self.votes.get(&block_id).map_or(0, BTreeMap::len);
        if count < self.config.cert_quorum() || !self.certified.insert(block_id) {
            return;
        }
        let sigs: Vec<(NodeId, Signature)> = self
            .votes
            .get(&block_id)
            .expect("entry exists")
            .iter()
            .take(self.config.cert_quorum())
            .map(|(n, s)| (*n, s.clone()))
            .collect();
        let qc = QuorumCert { kind: MsgKind::HsVote, view, data: block_id, height, sigs };
        if let Some(block) = self.store.get(&block_id).cloned() {
            let higher = self.highest_cert.as_ref().is_none_or(|c| height > c.block.height);
            if higher {
                self.highest_cert = Some(CertifiedBlock { qc, block });
            }
        }
        if self.config.pacing == HsPacing::Streaming {
            self.try_propose(ctx);
        }
    }

    /// OptSync's responsive commit at `3n/4+1` votes (no 2Δ wait).
    fn try_fast_commit(&mut self, block_id: Digest, ctx: &mut Ctx<'_>) {
        if self.config.variant != HsVariant::OptSync {
            return;
        }
        let count = self.votes.get(&block_id).map_or(0, BTreeMap::len);
        if count < self.config.fast_quorum() || !self.fast_committed.insert(block_id) {
            return;
        }
        if let Some(pos) = self.commit_timers.iter().position(|(b, _)| *b == block_id) {
            let (_, t) = self.commit_timers.remove(pos);
            ctx.cancel_timer(t);
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        self.commit_block(block_id, ctx);
        self.try_propose(ctx);
    }

    fn on_commit_timer(&mut self, view: u64, block_id: Digest, ctx: &mut Ctx<'_>) {
        self.commit_timers.retain(|(b, _)| *b != block_id);
        if view != self.v_cur || self.view_aborted {
            return;
        }
        self.outstanding = self.outstanding.saturating_sub(1);
        self.commit_block(block_id, ctx);
        self.try_propose(ctx);
    }

    fn commit_block(&mut self, block_id: Digest, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(block) = self.store.get(&block_id) else { return };
        if block.height <= self.b_com_height {
            return;
        }
        let Some(segment) = self.store.segment(&self.b_com, &block_id) else { return };
        for id in segment {
            self.committed_log.push(id);
            self.metrics.blocks_committed += 1;
            if let Some(seen) = self.first_seen.remove(&id) {
                self.metrics.record_commit_latency(now.since(seen));
            }
            let b = self.store.get(&id).expect("segment stored").clone();
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::Commit {
                    block: eesmr_core::block::fingerprint(&id),
                    height: b.height,
                });
            }
            self.txpool.remove_committed(&b, now);
        }
        self.b_com = block_id;
        self.b_com_height = self.store.get(&block_id).expect("stored").height;
        self.metrics.committed_height = self.b_com_height;
    }

    // ------------------------------------------------------------------
    // Blames and view change.
    // ------------------------------------------------------------------

    fn on_blame_timeout(&mut self, view: u64, ctx: &mut Ctx<'_>) {
        if view != self.v_cur || self.view_aborted {
            return;
        }
        self.blame_timer = None;
        self.metrics.blames_sent += 1;
        ctx.trace(TraceEventKind::Blame { view: self.v_cur });
        let blame = self.sign(HsPayload::Blame { proof: None }, ctx);
        ctx.flood(blame);
    }

    fn on_equivocation(&mut self, first: HsMsg, second: HsMsg, ctx: &mut Ctx<'_>) {
        if self.view_aborted {
            return;
        }
        self.metrics.equivocations_detected += 1;
        self.view_aborted = true;
        self.cancel_commit_timers(ctx);
        self.metrics.blames_sent += 1;
        ctx.trace(TraceEventKind::Equivocation { view: self.v_cur });
        ctx.trace(TraceEventKind::Blame { view: self.v_cur });
        let blame = self.sign(HsPayload::Blame { proof: Some(Box::new((first, second))) }, ctx);
        ctx.flood(blame);
    }

    fn proof_is_valid(&self, view: u64, proof: &(HsMsg, HsMsg), ctx: &mut Ctx<'_>) -> bool {
        let (a, b) = proof;
        let leader = self.config.leader_of(view);
        let heights = match (&a.payload, &b.payload) {
            (HsPayload::Propose { block: ba, .. }, HsPayload::Propose { block: bb, .. }) => {
                (ba.height, bb.height)
            }
            _ => return false,
        };
        a.view == view
            && b.view == view
            && a.signer == leader
            && b.signer == leader
            && heights.0 == heights.1
            && a.payload.signing_digest(view) != b.payload.signing_digest(view)
            && self.verify_envelope(a, ctx)
            && self.verify_envelope(b, ctx)
    }

    fn on_blame(&mut self, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::Blame { proof } = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        if msg.view < self.v_cur || !self.verify_envelope(&msg, ctx) {
            return;
        }
        if let Some(p) = proof {
            if !self.view_aborted && self.proof_is_valid(msg.view, p, ctx) {
                let (first, second) = (**p).clone();
                self.on_equivocation(first, second, ctx);
            }
        }
        self.blames.insert(msg.signer, msg.sig.clone());
        if self.blames.len() >= self.config.blame_quorum() && !self.quit_scheduled {
            let data = HsPayload::Blame { proof: None }.signing_digest(self.v_cur);
            let sigs: Vec<(NodeId, Signature)> = self
                .blames
                .iter()
                .take(self.config.blame_quorum())
                .map(|(n, s)| (*n, s.clone()))
                .collect();
            let qc = QuorumCert { kind: MsgKind::Blame, view: self.v_cur, data, height: 0, sigs };
            let msg = self.sign(HsPayload::BlameQc(qc), ctx);
            ctx.flood(msg);
            self.view_aborted = true;
            self.cancel_commit_timers(ctx);
            self.schedule_quit(ctx);
        }
    }

    fn on_blame_qc(&mut self, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::BlameQc(qc) = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        if msg.view < self.v_cur || self.quit_scheduled {
            return;
        }
        if qc.kind != MsgKind::Blame
            || qc.view != self.v_cur
            || !self.verify_qc(qc, self.config.blame_quorum(), ctx)
        {
            return;
        }
        self.view_aborted = true;
        self.cancel_commit_timers(ctx);
        self.schedule_quit(ctx);
    }

    fn schedule_quit(&mut self, ctx: &mut Ctx<'_>) {
        if self.quit_scheduled {
            return;
        }
        self.quit_scheduled = true;
        ctx.trace(TraceEventKind::VcQuit { view: self.v_cur });
        if let Some(t) = self.blame_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.set_timer(self.config.delta, HsTimer::QuitWait { view: self.v_cur });
    }

    fn on_quit_wait(&mut self, view: u64, ctx: &mut Ctx<'_>) {
        if view != self.v_cur {
            return;
        }
        // Enter the new view and report status to the new leader.
        self.v_cur += 1;
        self.view_aborted = false;
        self.quit_scheduled = false;
        self.blames.clear();
        self.statuses.clear();
        self.new_view_proposed = false;
        self.metrics.view_changes += 1;
        ctx.trace(TraceEventKind::ViewEnter { view: self.v_cur });
        // Workload transactions drained into the dead view's discarded
        // proposals go back in the pool for the new view.
        self.txpool.requeue_unresolved();
        // The proposing tip must be a *certified* block: votes cast for
        // never-certified blocks of the dead view cannot be justified by
        // the next leader. Fall back to the highest certificate (or
        // genesis).
        match &self.highest_cert {
            Some(c) => {
                self.tip = c.block.id();
                self.tip_height = c.block.height;
            }
            None => {
                self.tip = self.store.genesis_id();
                self.tip_height = 0;
            }
        }
        if !self.active() {
            return;
        }
        self.reset_blame_timer(8, ctx);
        let leader = self.config.leader_of(self.v_cur);
        if leader == self.id {
            self.statuses.insert(self.id, self.highest_cert.clone());
            ctx.set_timer(self.config.delta * 2, HsTimer::LeaderStatus { view: self.v_cur });
        } else {
            let msg = self.sign(HsPayload::Status { cert: self.highest_cert.clone() }, ctx);
            ctx.send_to(leader, msg);
        }
        // Commands the dead view's proposer drained and dropped are
        // pending again (requeued above) — hand them to the new leader.
        self.forward_backlog(ctx);
        let pending: Vec<(NodeId, HsMsg)> = {
            let (now, later): (Vec<_>, Vec<_>) =
                self.future_views.drain(..).partition(|(_, m)| m.view <= self.v_cur);
            self.future_views = later;
            now
        };
        for (f, m) in pending {
            self.on_message(f, m, ctx);
        }
    }

    fn on_status(&mut self, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::Status { cert } = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        if msg.view < self.v_cur || !self.is_leader() || !self.verify_envelope(&msg, ctx) {
            return;
        }
        if let Some(c) = cert {
            if c.qc.kind != MsgKind::HsVote
                || c.qc.data != c.block.id()
                || !self.verify_qc(&c.qc, self.config.cert_quorum(), ctx)
            {
                return;
            }
            self.store.insert(c.block.clone());
        }
        self.statuses.insert(msg.signer, cert.clone());
    }

    fn on_leader_status(&mut self, view: u64, ctx: &mut Ctx<'_>) {
        if view != self.v_cur || !self.is_leader() || self.new_view_proposed || !self.active() {
            return;
        }
        // Pick the highest certificate among the statuses (ours included).
        let best = self.statuses.values().flatten().max_by_key(|c| c.block.height).cloned();
        if let Some(best) = &best {
            let higher =
                self.highest_cert.as_ref().is_none_or(|c| best.block.height > c.block.height);
            if higher {
                self.highest_cert = Some(best.clone());
            }
            if best.block.height > self.tip_height {
                self.tip = best.block.id();
                self.tip_height = best.block.height;
            }
        }
        self.new_view_proposed = true;
        self.try_propose(ctx);
    }

    fn request_sync(&mut self, want: Digest, from: NodeId, ctx: &mut Ctx<'_>) {
        if from == self.id || !self.sync_requested.insert(want) {
            return;
        }
        self.metrics.sync_requests += 1;
        let msg = self.sign(HsPayload::SyncRequest { want }, ctx);
        ctx.send_to(from, msg);
    }

    fn on_sync_request(&mut self, _from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::SyncRequest { want } = &msg.payload else { return };
        if !self.verify_envelope(&msg, ctx) {
            return;
        }
        let blocks: Vec<Block> = self.store.ancestors(want, 32).into_iter().cloned().collect();
        if blocks.is_empty() {
            return;
        }
        let reply = self.sign(HsPayload::SyncResponse { blocks }, ctx);
        ctx.send_to(msg.signer, reply);
    }

    fn on_sync_response(&mut self, _from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::SyncResponse { blocks } = msg.payload else { return };
        let mut unblocked = Vec::new();
        for block in blocks {
            ctx.meter().charge_hash(block.wire_size());
            let id = self.store.insert(block);
            self.sync_requested.remove(&id);
            if let Some(waiting) = self.orphans.remove(&id) {
                unblocked.extend(waiting);
            }
        }
        for (from, m) in unblocked {
            self.on_propose(from, m, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Crash-recovery repair protocol (mirrors `eesmr_core`'s).
    // ------------------------------------------------------------------

    fn online(&self, ctx: &Ctx<'_>) -> bool {
        self.fault.online(ctx.now().as_micros())
    }

    /// Restart after an outage: volatile timers died with the process,
    /// the committed prefix is durable — re-arm and ask for the rest.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.cancel_commit_timers(ctx);
        self.forward_flush_armed = false;
        self.reset_blame_timer(self.config.steady_blame_multiple(), ctx);
        if let Some(source) = &mut self.workload {
            if let Some(delay) = source.next_arrival_in(ctx.now().as_micros()) {
                ctx.set_timer(SimDuration::from_micros(delay), HsTimer::Arrival);
            }
        }
        self.metrics.repair_requests += 1;
        let msg = self.sign(HsPayload::Repair { from_height: self.b_com_height }, ctx);
        ctx.flood(msg);
    }

    fn on_repair(&mut self, _from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::Repair { from_height } = msg.payload else { return };
        if !self.verify_envelope(&msg, ctx) || self.b_com_height <= from_height {
            return;
        }
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
        let reply = self.sign(HsPayload::RepairReply { blocks, view: self.v_cur }, ctx);
        ctx.send_to(msg.signer, reply);
    }

    fn on_repair_reply(&mut self, _from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::RepairReply { blocks, view } = msg.payload else { return };
        // Self-certifying: hash-linked oldest first, rooted in a block we
        // already hold.
        let Some(first) = blocks.first() else { return };
        if !self.store.contains(&first.parent)
            || blocks.windows(2).any(|w| w[1].parent != w[0].id())
        {
            return;
        }
        let tip = blocks.last().expect("non-empty").clone();
        let mut unblocked = Vec::new();
        for block in blocks {
            ctx.meter().charge_hash(block.wire_size());
            let id = self.store.insert(block);
            self.sync_requested.remove(&id);
            if let Some(waiting) = self.orphans.remove(&id) {
                unblocked.extend(waiting);
            }
        }
        let tip_id = tip.id();
        self.commit_block(tip_id, ctx);
        if tip.height > self.tip_height {
            self.tip = tip_id;
            self.tip_height = tip.height;
        }
        // Jump straight to the network's view — it ran any view changes
        // while this node was down.
        if view > self.v_cur {
            self.v_cur = view;
            self.view_aborted = false;
            self.quit_scheduled = false;
            self.blames.clear();
            self.statuses.clear();
            self.new_view_proposed = false;
            self.txpool.requeue_unresolved();
            self.reset_blame_timer(self.config.steady_blame_multiple(), ctx);
            self.forward_backlog(ctx);
            let pending: Vec<(NodeId, HsMsg)> = {
                let (now, later): (Vec<_>, Vec<_>) =
                    self.future_views.drain(..).partition(|(_, m)| m.view <= self.v_cur);
                self.future_views = later;
                now
            };
            for (f, m) in pending {
                self.on_message(f, m, ctx);
            }
        }
        for (f, m) in unblocked {
            self.on_propose(f, m, ctx);
        }
    }
}

impl Actor for HsReplica {
    type Msg = HsMsg;
    type Timer = HsTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // The restart point must be armed even for a node that will be
        // offline when it fires — that is the whole point of it.
        if let Some(restart) = self.fault.restart_at_us() {
            ctx.set_timer(SimDuration::from_micros(restart), HsTimer::Restart);
        }
        if !self.active() || !self.online(ctx) {
            return;
        }
        self.reset_blame_timer(self.config.steady_blame_multiple(), ctx);
        if let Some(source) = &mut self.workload {
            if let Some(delay) = source.next_arrival_in(ctx.now().as_micros()) {
                ctx.set_timer(SimDuration::from_micros(delay), HsTimer::Arrival);
            }
        }
        self.try_propose(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        if !self.active() || !self.online(ctx) {
            return;
        }
        match msg.payload {
            HsPayload::Propose { .. } => self.on_propose(from, msg, ctx),
            HsPayload::Vote { .. } => self.on_vote(from, msg, ctx),
            HsPayload::Blame { .. } => self.on_blame(from, msg, ctx),
            HsPayload::BlameQc(_) => self.on_blame_qc(from, msg, ctx),
            HsPayload::Status { .. } => self.on_status(from, msg, ctx),
            HsPayload::SyncRequest { .. } => self.on_sync_request(from, msg, ctx),
            HsPayload::SyncResponse { .. } => self.on_sync_response(from, msg, ctx),
            HsPayload::Forward { .. } => self.on_forward(msg, ctx),
            HsPayload::Repair { .. } => self.on_repair(from, msg, ctx),
            HsPayload::RepairReply { .. } => self.on_repair_reply(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: HsTimer, ctx: &mut Ctx<'_>) {
        // The restart timer fires exactly when the outage ends, so the
        // online gate admits it; timers that fire mid-outage die here.
        if !self.active() || !self.online(ctx) {
            return;
        }
        match token {
            HsTimer::Blame { view } => self.on_blame_timeout(view, ctx),
            HsTimer::Commit { view, block } => self.on_commit_timer(view, block, ctx),
            HsTimer::QuitWait { view } => self.on_quit_wait(view, ctx),
            HsTimer::LeaderStatus { view } => self.on_leader_status(view, ctx),
            HsTimer::Arrival => self.on_arrival(ctx),
            HsTimer::ForwardFlush => {
                self.forward_flush_armed = false;
                self.forward_backlog(ctx);
            }
            HsTimer::Restart => self.on_restart(ctx),
        }
    }

    fn gauges(&self) -> eesmr_net::ActorGauges {
        // Node-local state only — the telemetry determinism contract.
        // Sync HotStuff has no forward-retry timer, so that gauge stays 0.
        eesmr_net::ActorGauges {
            tx_in_flight: self.txpool.in_flight() as u64,
            pool_backlog: self.txpool.backlog() as u64,
            forward_retries: self.metrics.forward_retries,
            batch_fill_pct: self.metrics.last_batch_fill_pct as f64,
            view: self.v_cur,
        }
    }
}

impl crate::status::SmrStatus for HsReplica {
    fn committed_log(&self) -> &[Digest] {
        &self.committed_log
    }

    fn committed_block_height(&self) -> u64 {
        self.b_com_height
    }

    fn view(&self) -> u64 {
        self.v_cur
    }
}

/// Builds a system of replicas sharing a PKI.
pub fn build_hs_replicas(
    config: &HsConfig,
    pki: &Arc<KeyStore>,
    faults: impl Fn(NodeId) -> HsFault,
) -> Vec<HsReplica> {
    (0..config.n as NodeId)
        .map(|id| HsReplica::new(id, config.clone(), pki.clone(), faults(id)))
        .collect()
}
