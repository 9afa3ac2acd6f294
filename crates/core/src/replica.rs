//! The EESMR commit rule — the event-driven form of Algorithm 2's steady
//! state, over the shared replica skeleton ([`crate::smr`]).
//!
//! The skeleton owns everything EESMR does like any synchronous SMR
//! protocol (blames, forwarding, chain sync, repair, the commit of a chain
//! segment). This module is what makes it EESMR: the leader's proposal,
//! "voting in the head" (relay once, lock, wait 4Δ in silence, commit),
//! and — in the private `view_change` module — the quit-view / new-view
//! rounds that turn the implicit votes into certificates.
//!
//! ## Mapping to Algorithm 2
//!
//! | Paper | Here |
//! |---|---|
//! | lines 203–208 (leader proposes)      | `Replica::try_propose` |
//! | lines 209–215 (relay, lock, commit timer, next round) | `Replica::accept_proposal` |
//! | line 216 (blame on timeout)          | `Smr::on_blame_timeout` |
//! | lines 220–226 (equivocation)         | `Smr::on_propose` → `Smr::on_equivocation` |
//! | lines 227–234 (blame QC, quit view)  | `Smr::on_blame` / `on_blame_qc` |
//! | lines 235–250 (QuitView)             | `view_change::on_quit_wait` … |
//! | lines 251–277 (NewView)              | `view_change::enter_new_view` … |
//! | lines 278–280 (commit rule)          | `Smr::on_commit_timer` |

use std::collections::BTreeMap;

use eesmr_crypto::{Digest, Signature};
use eesmr_net::{NodeId, TraceClass, TraceEventKind};

use crate::block::Block;
use crate::config::{Config, FaultMode, Pacing};
use crate::message::{CertifiedBlock, Payload, SignedMsg};
use crate::smr::{Params, Rule, Smr, TimerToken, PIPELINE};
use crate::window::WindowSet;

/// The EESMR replica's network context.
pub(crate) type Ctx<'a> = crate::smr::Ctx<'a, EesmrRule>;

/// View-change progress for the view currently being quit.
#[derive(Debug, Clone, Default)]
pub(crate) struct VcState {
    /// Certify signatures collected for *my* announced `B_com`.
    pub certifies: BTreeMap<NodeId, Signature>,
    /// The best (highest) commit certificate known.
    pub best_qc: Option<CertifiedBlock>,
    /// Whether the commit QC was already shared.
    pub shared: bool,
}

/// New-view bookkeeping (round 1–2 of the current view).
#[derive(Debug, Clone, Default)]
pub(crate) struct NewViewState {
    /// Status entries collected by the new leader, keyed by sender.
    pub status_qcs: BTreeMap<NodeId, CertifiedBlock>,
    /// Lock-status entries (optimized path), keyed by sender.
    pub status_locks: BTreeMap<NodeId, crate::message::SignedBlock>,
    /// Votes on the leader's round-1 proposal.
    pub votes: BTreeMap<NodeId, Signature>,
    /// The round-1 proposal hash this node voted for / proposed.
    pub prop_hash: Option<Digest>,
    /// The round-1 block.
    pub round1_block: Option<Digest>,
    /// Whether the leader already issued the round-2 proposal.
    pub round2_sent: bool,
}

/// The EESMR rule: configuration plus the book-keeping variables of §3.1
/// that the skeleton does not already hold.
#[derive(Debug)]
pub struct EesmrRule {
    /// The configuration.
    pub config: Config,
    pub(crate) r_cur: u64,
    pub(crate) b_lock: Digest,
    pub(crate) b_lock_height: u64,
    pub(crate) relayed: WindowSet<Digest>,
    pub(crate) want_propose: bool,
    pub(crate) vc: VcState,
    pub(crate) nv: NewViewState,
}

/// An EESMR replica.
pub type Replica = Smr<EesmrRule>;

impl Rule for EesmrRule {
    type Payload = Payload;
    type Config = Config;

    const NAME: &'static str = "Replica";

    /// # Panics
    ///
    /// Panics if the fault bound `f < n/2` is violated.
    fn new(config: Config, genesis: Digest) -> Self {
        assert!(config.check_fault_bound(), "EESMR requires f < n/2");
        EesmrRule {
            config,
            r_cur: 3,
            b_lock: genesis,
            b_lock_height: 0,
            relayed: WindowSet::default(),
            want_propose: false,
            vc: VcState::default(),
            nv: NewViewState::default(),
        }
    }

    fn params(&self) -> Params {
        let c = &self.config;
        Params {
            n: c.n,
            delta: c.delta,
            blame_quorum: c.quorum(),
            forward_batch: c.forward_batch,
            batch_policy: c.batch_policy,
            payload_bytes: c.payload_bytes,
            offered_load: c.offered_load,
            // Algorithm 2 uses 4Δ for the streaming variant (the leader
            // proposes continuously). In the blocking variant (§5.6) the
            // leader only proposes after its 4Δ commit wait, so the next
            // proposal legitimately arrives up to 4Δ + Δ after the previous
            // one; 6Δ keeps an honest margin.
            steady_blame_multiple: match c.pacing {
                Pacing::Blocking => 6,
                Pacing::Streaming => 4,
            },
            // The crash-only variant removes the equivocation handlers
            // (Algorithm 2 lines 220/224 — see §3.2).
            ignores_equivocation: c.crash_only,
            quits_on_equivocation: c.opt_equivocation_speedup,
            sync_cap: 256,
            forward_retry_window: Some(32),
            replays_through_gate: true,
            hub: None,
        }
    }

    /// Under the §3.5 checkpoint optimization, non-checkpoint rounds are
    /// accepted optimistically without the signature check — the
    /// hash-chained checkpoint round authenticates them retroactively.
    fn verifies_proposal(&self, round: u64) -> bool {
        self.config.round_needs_verification(round)
    }

    fn proposes_after_commit(&self) -> bool {
        self.want_propose
    }

    /// Steady state resumes in round 3: rounds 1–2 of a view carry the
    /// view change itself.
    fn in_steady_state(&self) -> bool {
        self.r_cur >= 3
    }

    fn processed(smr: &Replica, _view: u64, round: u64, block: &Digest) -> bool {
        smr.rule.relayed.contains(block) || round < smr.rule.r_cur
    }

    fn try_propose(smr: &mut Replica, ctx: &mut Ctx<'_>) {
        smr.try_propose(ctx);
    }

    /// Steady-state rounds ≥ 3, or new-view round 2.
    fn on_proposal(smr: &mut Replica, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::Propose { block, round, justify } = &msg.payload else { return };
        if *round == 1 {
            // Round-1 content travels as NewViewProposal, never Propose.
            smr.metrics.proposals_rejected += 1;
            return;
        }
        if *round == 2 {
            smr.on_round2_propose(from, msg.clone(), ctx);
            return;
        }

        // Steady state (round ≥ 3). Proposals for rounds ahead of r_cur are
        // processed as soon as their parent chain is known: relaying a
        // block implicitly votes for all its ancestors (§3.3), so a node
        // that missed a round catches up via chain sync instead of
        // stalling.
        if *round < smr.rule.r_cur || smr.view_aborted || smr.rule.r_cur < 3 {
            return;
        }
        if justify.is_some() {
            smr.metrics.proposals_rejected += 1;
            return; // steady proposals carry no certificate
        }
        if !smr.store.contains(&block.parent) {
            smr.park_orphan(block.parent, from, from, msg, ctx);
            return;
        }
        // LockCompare (line 121): only accept extensions of the lock.
        let block = block.clone();
        let block_id = smr.store.insert(block.clone());
        if !smr.store.extends(&block_id, &smr.rule.b_lock) {
            smr.metrics.proposals_rejected += 1;
            return;
        }
        smr.accept_proposal(block, msg, ctx);
    }

    fn on_message(smr: &mut Replica, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        match msg.payload {
            Payload::CommitUpdate { .. } => smr.on_commit_update(msg, ctx),
            Payload::Certify { .. } => smr.on_certify(msg, ctx),
            Payload::CommitQc(_) => smr.on_commit_qc(msg, ctx),
            Payload::NewViewProposal { .. } => smr.on_new_view_proposal(from, msg, ctx),
            Payload::NewViewVote { .. } => smr.on_new_view_vote(msg, ctx),
            Payload::LockStatus { .. } => smr.on_lock_status(msg, ctx),
            _ => {} // the shared variants never leave the skeleton
        }
    }

    fn on_timer(smr: &mut Replica, token: TimerToken, ctx: &mut Ctx<'_>) {
        match token {
            TimerToken::QuitWait { view } => smr.on_quit_wait(view, ctx),
            TimerToken::ShareQc { view } => smr.on_share_qc(view, ctx),
            TimerToken::EnterNew { view } if view == smr.v_cur => smr.enter_new_view(ctx),
            TimerToken::LeaderStatus { view } => smr.on_leader_status(view, ctx),
            _ => {} // the skeleton's own timers
        }
    }

    fn wipe_volatile(&mut self) {
        self.want_propose = false;
    }

    /// Steady state resumes at once (`r_cur = 3`), and nothing accepted in
    /// the abandoned view may commit here any more.
    fn on_view_adopted(smr: &mut Replica, ctx: &mut Ctx<'_>) {
        smr.rule.r_cur = 3;
        smr.rule.vc = Default::default();
        smr.rule.nv = Default::default();
        smr.rule.want_propose = false;
        smr.cancel_commit_timers(ctx);
    }

    fn on_repaired(smr: &mut Replica, tip: &Block, _ctx: &mut Ctx<'_>) {
        let rule = &mut smr.rule;
        if tip.height > rule.b_lock_height {
            rule.b_lock = tip.id();
            rule.b_lock_height = tip.height;
        }
    }

    fn prune_below(&mut self, floor: u64) {
        self.relayed.prune_below(floor);
    }

    fn bookkeeping(&self) -> Vec<(&'static str, usize)> {
        vec![("relayed", self.relayed.len())]
    }
}

impl Replica {
    /// Current round `r_cur`.
    pub fn current_round(&self) -> u64 {
        self.rule.r_cur
    }

    /// Walks parent links from `from_block` towards genesis and returns the
    /// first missing block id, if any. Acceptance rules keep every
    /// replica's accepted chain gap-free (the induction the commit rule's
    /// `segment` walk relies on); this detects boundary gaps introduced by
    /// view-change status blocks so they can be repaired before voting.
    pub(crate) fn chain_gap(&self, from_block: &Digest) -> Option<Digest> {
        let mut cur = *from_block;
        loop {
            match self.store.get(&cur) {
                Some(b) if b.height == 0 => return None,
                Some(b) => cur = b.parent,
                None => return Some(cur),
            }
        }
    }

    // ------------------------------------------------------------------
    // Steady state.
    // ------------------------------------------------------------------

    /// Leader: propose for the current round if pacing allows
    /// (Algorithm 2, lines 203–208).
    pub(crate) fn try_propose(&mut self, ctx: &mut Ctx<'_>) {
        if !self.is_leader() || !self.active() || self.view_aborted || self.rule.r_cur < 3 {
            return;
        }
        let allowed = match self.rule.config.pacing {
            Pacing::Blocking => self.outstanding == 0,
            Pacing::Streaming => self.outstanding < PIPELINE,
        };
        if !allowed {
            self.rule.want_propose = true;
            return;
        }
        self.rule.want_propose = false;
        let round = self.rule.r_cur;
        let parent = self
            .store
            .get(&self.rule.b_lock)
            .expect("locked block is always present locally")
            .clone();
        let batch = self.next_batch();
        let block = self.cut_block(&parent, round, batch, ctx);
        self.rule.relayed.insert_new(block.height, block.id(), ());
        let msg = self.sign(Payload::Propose { block, round, justify: None }, ctx);
        ctx.multicast(msg);

        if let FaultMode::Equivocate { in_view } = self.fault {
            if in_view == self.v_cur && !self.rule.config.crash_only {
                // Conflicting sibling for the same round: equivocation.
                let block = self.cut_twin(&parent, round);
                let twin = self.sign(Payload::Propose { block, round, justify: None }, ctx);
                ctx.multicast(twin);
            }
        }
    }

    /// Lines 209–215: vote in the head — relay once, lock, arm the commit
    /// timer, advance the round.
    fn accept_proposal(&mut self, block: Block, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let block_id = block.id();
        ctx.meter().charge_hash(block.wire_size());
        self.mark_first_seen(&block, ctx.now());

        // Relay once (line 213) — the implicit vote. A withholding node
        // processes and commits but never relays (starving quorum-less
        // EESMR of nothing, but starving the vote-counting baselines); a
        // storming node re-multicasts extra copies that the receivers'
        // content dedup absorbs while traffic and energy inflate.
        if self.rule.relayed.insert_new(block.height, block_id, ())
            && self.fault.relays_in(self.v_cur)
        {
            self.metrics.proposals_relayed += 1;
            if ctx.traces(TraceClass::Commit) {
                ctx.trace(TraceEventKind::Relay { block: crate::block::fingerprint(&block_id) });
            }
            for _ in 0..self.fault.storm_repeats_in(self.v_cur) {
                ctx.multicast(msg.clone());
            }
            ctx.multicast(msg);
        }

        // Update the lock (line 212).
        self.rule.b_lock = block_id;
        self.rule.b_lock_height = block.height;

        // Arm T_commit(B) = 4Δ (line 214).
        let t = ctx.set_timer(
            self.params.delta * 4,
            TimerToken::Commit { view: self.v_cur, block: block_id },
        );
        self.commit_timers.push((block_id, t));
        self.outstanding += 1;

        // NextRound (line 215) — jumps over any rounds this node missed.
        self.rule.r_cur = self.rule.r_cur.max(block.round + 1);
        self.reset_blame_timer(self.params.steady_blame_multiple, ctx);
        self.try_propose(ctx);
    }
}
