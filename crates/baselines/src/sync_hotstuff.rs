//! Sync HotStuff (Abraham et al., S&P 2020) and OptSync (Shrestha et al.,
//! CCS 2020) — the certificate-based synchronous SMR baselines the paper
//! compares EESMR against (§5.7, Fig. 2f, Fig. 3).
//!
//! Both are one commit rule here ([`HsRule`], switched by [`HsVariant`])
//! over the replica skeleton EESMR runs on too (`eesmr_core::smr`): the
//! blame, forwarding, chain-sync, repair and commit machine is that
//! crate's, so what is compared against EESMR is only what follows.
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

use std::collections::BTreeMap;
use std::sync::Arc;

use eesmr_core::message::block_ids_digest;
use eesmr_core::{
    BatchPolicy, Block, CertifiedBlock, Commands, Envelope, MsgKind, Params, QuorumCert, Rule,
    SignedPayload, Smr, TimerToken,
};
use eesmr_crypto::sha256::Sha256;
use eesmr_crypto::{Digest, Hashable, KeyMap, KeySet, KeyStore, Signature};
use eesmr_net::codec::family;
use eesmr_net::{NodeId, SimDuration, TraceClass, TraceEventKind};

/// Which commit rule the replica runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsVariant {
    /// Sync HotStuff: `n/2+1` certificates, 2Δ synchronous commit.
    SyncHotStuff,
    /// OptSync: additionally commit responsively at `3n/4+1` votes.
    OptSync,
}

/// Proposal pacing.
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
    /// How the leader sizes each batch.
    pub batch_policy: BatchPolicy,
    /// Synthetic offered load: commands fabricated per proposal when the
    /// pool is empty.
    pub offered_load: usize,
    /// Forward-batching threshold: relay the backlog once it holds this
    /// many commands or a Δ flush timer fires; `1` forwards on every
    /// arrival.
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
    /// proposer (command forwarding).
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

eesmr_core::smr_payload!(HsPayload { block } => block.height);

/// A signed Sync HotStuff / OptSync message.
pub type HsMsg = Envelope<HsPayload>;

/// `ShardedNet` moves messages between shard threads.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<HsMsg>();
};

/// One pointer wide, like `SignedMsg`: the envelope is a shared handle.
const _: () = assert!(std::mem::size_of::<HsMsg>() == std::mem::size_of::<usize>());

/// Injected fault behaviour: the same adversary model as EESMR's.
pub use eesmr_core::FaultMode as HsFault;

type Ctx<'a> = eesmr_core::smr::Ctx<'a, HsRule>;

/// The Sync HotStuff / OptSync rule: configuration, the proposing tip,
/// and the vote and certificate book-keeping EESMR does without.
#[derive(Debug)]
pub struct HsRule {
    /// The configuration.
    pub config: HsConfig,
    tip: Digest,
    tip_height: u64,
    highest_cert: Option<CertifiedBlock>,
    voted: KeySet<(u64, u64)>,
    votes: KeyMap<Digest, VoteBook>,
    statuses: BTreeMap<NodeId, Option<CertifiedBlock>>,
    new_view_proposed: bool,
}

/// A Sync HotStuff / OptSync replica.
pub type HsReplica = Smr<HsRule>;

impl Rule for HsRule {
    type Payload = HsPayload;
    type Config = HsConfig;

    const NAME: &'static str = "HsReplica";

    fn new(config: HsConfig, genesis: Digest) -> Self {
        HsRule {
            config,
            tip: genesis,
            tip_height: 0,
            highest_cert: None,
            voted: KeySet::default(),
            votes: KeyMap::default(),
            statuses: BTreeMap::new(),
            new_view_proposed: false,
        }
    }

    fn params(&self) -> Params {
        let c = &self.config;
        Params {
            n: c.n,
            delta: c.delta,
            blame_quorum: c.blame_quorum(),
            forward_batch: c.forward_batch,
            batch_policy: c.batch_policy,
            payload_bytes: c.payload_bytes,
            offered_load: c.offered_load,
            steady_blame_multiple: match c.pacing {
                HsPacing::Blocking => 5, // 2Δ commit + Δ propagation + margin
                HsPacing::Streaming => 4,
            },
            ignores_equivocation: false,
            quits_on_equivocation: false,
            sync_cap: 32,
            forward_retry_window: None,
            replays_through_gate: false,
        }
    }

    fn leader_of(&self, view: u64) -> NodeId {
        self.config.leader_of(view)
    }

    fn verifies_proposal(&self, _height: u64) -> bool {
        true
    }

    fn proposes_after_commit(&self) -> bool {
        true
    }

    fn in_steady_state(&self) -> bool {
        true
    }

    fn processed(r: &HsReplica, view: u64, height: u64, _block: &Digest) -> bool {
        r.rule.voted.contains(&(view, height))
    }

    fn try_propose(r: &mut HsReplica, ctx: &mut Ctx<'_>) {
        if !r.is_leader() || !r.active() || r.view_aborted {
            return;
        }
        if r.rule.config.pacing == HsPacing::Blocking && r.outstanding != 0 {
            return;
        }
        let parent = r.store.get(&r.rule.tip).expect("tip block stored").clone();
        let justify = match &r.rule.highest_cert {
            _ if parent.height == 0 => None,
            Some(c) if c.block.id() == parent.id() => Some(c.qc.clone()),
            _ => return, // parent not certified yet — wait for votes
        };
        let twin_justify =
            (r.fault == HsFault::Equivocate { in_view: r.v_cur }).then(|| justify.clone());
        let height = parent.height + 1;
        let block = r.cut_block(&parent, height, ctx);
        let msg = r.sign(HsPayload::Propose { block, justify }, ctx);
        ctx.flood(msg);
        if let Some(justify) = twin_justify {
            let block = r.cut_twin(&parent, height);
            let twin = r.sign(HsPayload::Propose { block, justify }, ctx);
            ctx.flood(twin);
        }
    }

    /// A leader-signed, non-equivocating proposal of the current view: check
    /// the certificate and lock rules, vote, and arm the 2Δ commit timer.
    fn on_proposal(r: &mut HsReplica, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        let HsPayload::Propose { block, justify } = &msg.payload else { return };
        if r.view_aborted {
            return;
        }
        if !r.store.contains(&block.parent) {
            let parent = block.parent;
            r.orphans.entry(parent).or_default().push((from, msg));
            r.request_sync(parent, from, ctx);
            return;
        }
        // Insert before the lock check so lineage walks see the block.
        let block_id = r.store.insert(block.clone());
        // Certificate rule: non-initial blocks need a certified parent.
        if block.height > 1 {
            let certified = justify.as_ref().is_some_and(|qc| {
                qc.kind == MsgKind::HsVote
                    && qc.data == block.parent
                    && r.verify_qc(qc, r.rule.config.cert_quorum(), ctx)
            });
            if !certified {
                r.metrics.proposals_rejected += 1;
                return;
            }
        }
        // Lock rule: must extend the highest certified block.
        if let Some(c) = &r.rule.highest_cert {
            if !r.store.extends(&block_id, &c.block.id()) {
                r.metrics.proposals_rejected += 1;
                return;
            }
        }
        let height = block.height;
        if !r.rule.voted.insert((msg.view, height)) {
            return; // vote once per height per view
        }
        ctx.meter().charge_hash(block.wire_size());
        r.first_seen.entry(block_id).or_insert(ctx.now());
        r.metrics.proposals_relayed += 1;
        if height > r.rule.tip_height {
            r.rule.tip = block_id;
            r.rule.tip_height = height;
        }
        // Votes use partial forwarding (the paper's §5.7 setup favouring
        // Sync HotStuff): one k-cast per node, relayed hop-by-hop only by
        // nodes that have not yet formed the certificate. Our own vote
        // counts towards our certificate immediately (the loopback copy is
        // swallowed by the relay dedup).
        //
        // A withholding node accepts the proposal (timers, tip, commit
        // path all run) but never emits its vote — the quorum-starving
        // adversary; a storming node repeats its vote, which the
        // receivers' dedup absorbs while traffic inflates.
        let mut tally = Tally::default();
        if r.fault.relays_in(r.v_cur) {
            let block = eesmr_core::block::fingerprint(&block_id);
            if ctx.traces(TraceClass::Proto) {
                ctx.trace(TraceEventKind::Vote { block, view: r.v_cur });
            }
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::Relay { block });
            }
            let vote = r.sign(HsPayload::Vote { block_id, height }, ctx);
            tally = r.rule.record_vote(block_id, r.id, vote.sig.clone());
            for _ in 0..r.fault.storm_repeats_in(r.v_cur) {
                ctx.multicast(vote.clone());
            }
            ctx.multicast(vote);
        }
        on_tally(r, block_id, height, r.v_cur, tally, ctx);
        let t = ctx
            .set_timer(r.params.delta * 2, TimerToken::Commit { view: r.v_cur, block: block_id });
        r.commit_timers.push((block_id, t));
        r.outstanding += 1;
        r.reset_blame_timer(r.params.steady_blame_multiple, ctx);
    }

    fn on_message(r: &mut HsReplica, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
        match msg.payload {
            HsPayload::Vote { .. } => on_vote(r, from, msg, ctx),
            HsPayload::Status { .. } => on_status(r, from, msg, ctx),
            _ => {} // the shared variants never leave the skeleton
        }
    }

    fn on_timer(r: &mut HsReplica, token: TimerToken, ctx: &mut Ctx<'_>) {
        match token {
            TimerToken::QuitWait { view } => on_quit_wait(r, view, ctx),
            TimerToken::LeaderStatus { view } => on_leader_status(r, view, ctx),
            _ => {} // the skeleton's own timers, and EESMR's
        }
    }

    fn wipe_volatile(&mut self) {}

    fn on_view_adopted(r: &mut HsReplica, _ctx: &mut Ctx<'_>) {
        r.rule.statuses.clear();
        r.rule.new_view_proposed = false;
    }

    fn on_repaired(&mut self, tip: &Block) {
        if tip.height > self.tip_height {
            self.tip = tip.id();
            self.tip_height = tip.height;
        }
    }
}

// Rust allows inherent methods on `Smr` only in `eesmr-core` (E0116), so
// the rule's handlers are free functions over the replica.

// ----------------------------------------------------------------------
// Votes and certificates.
// ----------------------------------------------------------------------

/// One block's vote book: the verified votes by signer while the block
/// still needs votes, and what they have completed. One record per block
/// is all a vote touches — one probe to decide whether a copy is worth
/// verifying, one to record it.
#[derive(Debug)]
struct VoteBook {
    /// `sigs[i]` is node `i`'s verified vote. Grown on demand (a signer
    /// has passed the key store's check before it gets a slot) and
    /// released once the block needs no more votes: nothing reads a
    /// signature after that.
    sigs: Vec<Option<Signature>>,
    /// Distinct votes recorded.
    count: usize,
    /// The `n/2+1` certificate has been formed.
    certified: bool,
    /// OptSync's `3n/4+1` responsive commit is still to come.
    fast_pending: bool,
}

/// What one recorded vote completed.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    /// The certificate's signatures, if this vote completed `n/2+1`.
    cert: Option<Vec<(NodeId, Signature)>>,
    /// Whether this vote completed OptSync's `3n/4+1`.
    fast_commit: bool,
}

impl VoteBook {
    fn new(config: &HsConfig) -> Self {
        VoteBook {
            sigs: Vec::new(),
            count: 0,
            certified: false,
            fast_pending: config.variant == HsVariant::OptSync,
        }
    }

    /// Whether the block still needs votes: until it is certified, and as
    /// OptSync until it is fast-committed too.
    fn open(&self) -> bool {
        !self.certified || self.fast_pending
    }

    /// Whether a copy of `signer`'s vote is worth verifying: the block
    /// still needs votes and this signer's is not in yet.
    fn wants(&self, signer: NodeId) -> bool {
        self.open() && self.sigs.get(signer as usize).is_none_or(Option::is_none)
    }

    /// Records `signer`'s verified vote and reports what it completed.
    /// The certificate is the first `n/2+1` signers in ascending id order.
    fn record(&mut self, signer: NodeId, sig: Signature, config: &HsConfig) -> Tally {
        let mut tally = Tally::default();
        if !self.wants(signer) {
            return tally;
        }
        let slot = signer as usize;
        if self.sigs.len() <= slot {
            self.sigs.resize(slot + 1, None);
        }
        self.sigs[slot] = Some(sig);
        self.count += 1;
        let quorum = config.cert_quorum();
        if !self.certified && self.count >= quorum {
            self.certified = true;
            let signed = self.sigs.iter().enumerate();
            let sigs = signed.filter_map(|(i, s)| Some((i as NodeId, s.clone()?)));
            tally.cert = Some(sigs.take(quorum).collect());
        }
        if self.fast_pending && self.count >= config.fast_quorum() {
            self.fast_pending = false;
            tally.fast_commit = true;
        }
        if !self.open() {
            self.sigs = Vec::new();
        }
        tally
    }
}

impl HsRule {
    /// Whether a copy of `signer`'s vote for `block_id` is worth
    /// verifying: one probe of the block's book.
    fn wants_vote(&self, block_id: &Digest, signer: NodeId) -> bool {
        self.votes.get(block_id).is_none_or(|book| book.wants(signer))
    }

    /// Records `signer`'s verified vote for `block_id` in its book.
    fn record_vote(&mut self, block_id: Digest, signer: NodeId, sig: Signature) -> Tally {
        let book = self.votes.entry(block_id).or_insert_with(|| VoteBook::new(&self.config));
        book.record(signer, sig, &self.config)
    }
}

fn on_vote(r: &mut HsReplica, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
    let HsPayload::Vote { block_id, height } = msg.payload else { return };
    if msg.view > r.v_cur {
        r.future_views.push((from, msg));
        return;
    }
    if msg.view < r.v_cur || r.view_aborted {
        return;
    }
    if !r.rule.wants_vote(&block_id, msg.signer) {
        return; // enough votes, or a copy of one already counted: no crypto work
    }
    if !r.verify_envelope(&msg, ctx) {
        return;
    }
    // Partial vote forwarding: relay each distinct vote once while our
    // own certificate is still incomplete. Every node relays at least
    // the quorum-completing vote, so downstream nodes always gather a
    // quorum too.
    let tally = r.rule.record_vote(block_id, msg.signer, msg.sig.clone());
    let view = msg.view;
    ctx.multicast(msg);
    on_tally(r, block_id, height, view, tally, ctx);
}

/// Acts on what a vote completed: the `n/2+1` certificate locks the block
/// (and, streaming, lets the leader extend it); OptSync's `3n/4+1`
/// commits it without the 2Δ wait.
fn on_tally(
    r: &mut HsReplica,
    block_id: Digest,
    height: u64,
    view: u64,
    tally: Tally,
    ctx: &mut Ctx<'_>,
) {
    if let Some(sigs) = tally.cert {
        let qc = QuorumCert { kind: MsgKind::HsVote, view, data: block_id, height, sigs };
        if let Some(block) = r.store.get(&block_id).cloned() {
            if r.rule.highest_cert.as_ref().is_none_or(|c| height > c.block.height) {
                r.rule.highest_cert = Some(CertifiedBlock { qc, block });
            }
        }
        if r.rule.config.pacing == HsPacing::Streaming {
            HsRule::try_propose(r, ctx);
        }
    }
    if tally.fast_commit {
        if let Some(pos) = r.commit_timers.iter().position(|(b, _)| *b == block_id) {
            let (_, t) = r.commit_timers.remove(pos);
            ctx.cancel_timer(t);
            r.outstanding = r.outstanding.saturating_sub(1);
        }
        r.commit_block(block_id, ctx);
        HsRule::try_propose(r, ctx);
    }
}

// ----------------------------------------------------------------------
// View change: highest-certificate status.
// ----------------------------------------------------------------------

/// The Δ quit wait is over: enter the new view and report the highest
/// certificate to its leader.
fn on_quit_wait(r: &mut HsReplica, view: u64, ctx: &mut Ctx<'_>) {
    if view != r.v_cur {
        return;
    }
    r.rule.statuses.clear();
    r.rule.new_view_proposed = false;
    // The proposing tip must be a *certified* block: votes cast for
    // never-certified blocks of the dead view cannot be justified by
    // the next leader. Fall back to the highest certificate (or
    // genesis).
    (r.rule.tip, r.rule.tip_height) = match &r.rule.highest_cert {
        Some(c) => (c.block.id(), c.block.height),
        None => (r.store.genesis_id(), 0),
    };
    if !r.advance_view(ctx) {
        return;
    }
    let leader = r.rule.config.leader_of(r.v_cur);
    let cert = r.rule.highest_cert.clone();
    if leader == r.id {
        r.rule.statuses.insert(r.id, cert);
        ctx.set_timer(r.params.delta * 2, TimerToken::LeaderStatus { view: r.v_cur });
    } else {
        let msg = r.sign(HsPayload::Status { cert }, ctx);
        ctx.send_to(leader, msg);
    }
    r.settle_into_view(ctx);
}

fn on_status(r: &mut HsReplica, from: NodeId, msg: HsMsg, ctx: &mut Ctx<'_>) {
    let HsPayload::Status { cert } = &msg.payload else { return };
    if msg.view > r.v_cur {
        r.future_views.push((from, msg));
        return;
    }
    if msg.view < r.v_cur || !r.is_leader() || !r.verify_envelope(&msg, ctx) {
        return;
    }
    if let Some(c) = cert {
        if c.qc.kind != MsgKind::HsVote
            || c.qc.data != c.block.id()
            || !r.verify_qc(&c.qc, r.rule.config.cert_quorum(), ctx)
        {
            return;
        }
        r.store.insert(c.block.clone());
    }
    r.rule.statuses.insert(msg.signer, cert.clone());
}

fn on_leader_status(r: &mut HsReplica, view: u64, ctx: &mut Ctx<'_>) {
    if view != r.v_cur || !r.is_leader() || r.rule.new_view_proposed || !r.active() {
        return;
    }
    // Pick the highest certificate among the statuses (ours included).
    let best = r.rule.statuses.values().flatten().max_by_key(|c| c.block.height).cloned();
    if let Some(best) = best {
        if best.block.height > r.rule.tip_height {
            r.rule.tip = best.block.id();
            r.rule.tip_height = best.block.height;
        }
        if r.rule.highest_cert.as_ref().is_none_or(|c| best.block.height > c.block.height) {
            r.rule.highest_cert = Some(best);
        }
    }
    r.rule.new_view_proposed = true;
    HsRule::try_propose(r, ctx);
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

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use eesmr_crypto::SigScheme;
    use proptest::prelude::*;

    use super::*;

    /// The vote bookkeeping the [`VoteBook`] replaced, kept as the model it
    /// is checked against: four tables per replica, and the certificate
    /// read off a `BTreeMap` in key order.
    #[derive(Default)]
    struct FourTables {
        votes: HashMap<Digest, BTreeMap<NodeId, Signature>>,
        relayed_votes: HashSet<(Digest, NodeId)>,
        certified: HashSet<Digest>,
        fast_committed: HashSet<Digest>,
    }

    impl FourTables {
        /// `on_vote` up to `verify_envelope`: whether a copy is verified.
        fn verifies(&self, block: Digest, signer: NodeId, config: &HsConfig) -> bool {
            let needs_more = !self.certified.contains(&block)
                || (config.variant == HsVariant::OptSync && !self.fast_committed.contains(&block));
            needs_more && !self.relayed_votes.contains(&(block, signer))
        }

        /// The two inserts, then the certificate and fast-commit checks.
        fn record(&mut self, block: Digest, signer: NodeId, sig: Signature, c: &HsConfig) -> Tally {
            self.relayed_votes.insert((block, signer));
            let votes = self.votes.entry(block).or_default();
            votes.insert(signer, sig);
            let quorum = c.cert_quorum();
            let cert = (votes.len() >= quorum && self.certified.insert(block))
                .then(|| votes.iter().take(quorum).map(|(n, s)| (*n, s.clone())).collect());
            let fast_commit = c.variant == HsVariant::OptSync
                && votes.len() >= c.fast_quorum()
                && self.fast_committed.insert(block);
            Tally { cert, fast_commit }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arrivals in random order over three blocks: copies of votes
        /// (duplicates, forged ones that fail verification) and this
        /// replica's own vote, cast once per block at a random point —
        /// before or after the certificate. The vote book asks for exactly
        /// the verifications the four tables did and completes the same
        /// certificate (signers, order, signatures) and fast commit on the
        /// same vote; once released it asks for none.
        #[test]
        fn the_vote_book_matches_the_four_tables_it_replaced(
            n in 2usize..=16,
            optsync: bool,
            me in 0u32..16,
            arrivals in prop::collection::vec(any::<u64>(), 0..160),
        ) {
            let variant = if optsync { HsVariant::OptSync } else { HsVariant::SyncHotStuff };
            let config = HsConfig::new(n, SimDuration::from_millis(10), variant);
            let pki = KeyStore::generate(n, SigScheme::Rsa1024, 3);
            let me = me % n as NodeId;
            let blocks: Vec<Digest> = (0..3u8).map(|b| Digest::of(&[b])).collect();
            let mut rule = HsRule::new(config.clone(), Digest::ZERO);
            let mut model = FourTables::default();
            let mut own_cast = [false; 3];
            let (mut certs, mut fast) = ([0; 3], [0; 3]);
            for draw in arrivals {
                // Which block, which signer's vote, and what kind of copy.
                let (b, kind) = ((draw % 3) as usize, (draw >> 8) % 8);
                let signer = ((draw >> 16) % n as u64) as NodeId;
                let block = blocks[b];
                let sig = pki.keypair(signer).sign(block.as_bytes());
                let tally = if kind == 0 && !own_cast[b] {
                    // `on_proposal`: our own vote goes straight in.
                    own_cast[b] = true;
                    let sig = pki.keypair(me).sign(block.as_bytes());
                    let new = rule.record_vote(block, me, sig.clone());
                    prop_assert_eq!(&new, &model.record(block, me, sig, &config));
                    new
                } else {
                    let asked = rule.wants_vote(&block, signer);
                    prop_assert_eq!(asked, model.verifies(block, signer, &config));
                    if !asked || kind == 1 {
                        continue; // skipped, or forged: `verify_envelope` says no
                    }
                    let new = rule.record_vote(block, signer, sig.clone());
                    prop_assert_eq!(&new, &model.record(block, signer, sig, &config));
                    new
                };
                certs[b] += usize::from(tally.cert.is_some());
                fast[b] += usize::from(tally.fast_commit);
                let books = blocks.iter().filter_map(|block| rule.votes.get(block));
                for book in books.filter(|book| !book.open()) {
                    prop_assert!(book.sigs.is_empty(), "a released book holds no signatures");
                    prop_assert!((0..n as NodeId).all(|s| !book.wants(s)), "nor asks for any");
                }
            }
            for (i, block) in blocks.iter().enumerate() {
                let distinct = model.votes.get(block).map_or(0, BTreeMap::len);
                prop_assert_eq!(certs[i], usize::from(distinct >= config.cert_quorum()));
                let fast_due = optsync && distinct >= config.fast_quorum();
                prop_assert_eq!(fast[i], usize::from(fast_due));
            }
        }
    }
}
