//! The EESMR view change from the quit wait on (Algorithm 2, lines
//! 235–277).
//!
//! The steady state pushes all certificate work here: when a leader stalls
//! or equivocates, the nodes convert their implicit "votes in the head"
//! into explicit certificates, agree on the highest committed block, and
//! hand the next leader a justified starting point.
//!
//! Timeline (all correct nodes, full path). Steps 1–2 are the skeleton's
//! ([`crate::smr`]) — every rule blames alike; this module starts when its
//! `QuitWait` timer fires:
//!
//! 1. blame timeout (4Δ) or equivocation proof → flood `Blame`;
//! 2. f+1 blames → flood `BlameQc`, cancel commit timers, wait Δ;
//! 3. `QuitView`: flood `CommitUpdate(B_com)`; certify others' updates;
//!    wait 5Δ to collect a commit certificate;
//! 4. flood the certificate, wait Δ, enter view v+1 (rounds 1–2);
//! 5. nodes send status to the new leader (8Δ patience), the leader
//!    proposes with f+1 status entries, collects f+1 votes (6Δ patience),
//!    issues the certified round-2 proposal, and steady state resumes.
//!
//! Optimizations (§3.5, §5.6), both config-gated: the equivocation speedup
//! quits on the proof alone, and the lock-only status replaces fresh
//! commit certificates with signed locked blocks.

use eesmr_net::NodeId;

use crate::block::Block;
use crate::config::FaultMode;
use crate::message::{
    CertifiedBlock, MsgKind, Payload, QuorumCert, SignedBlock, SignedMsg, SignedPayload, Status,
};
use crate::replica::{Ctx, Replica};
use crate::smr::TimerToken;

impl Replica {
    // ------------------------------------------------------------------
    // QuitView (lines 235–250).
    // ------------------------------------------------------------------

    pub(crate) fn on_quit_wait(&mut self, view: u64, ctx: &mut Ctx<'_>) {
        if view != self.v_cur {
            return;
        }
        if self.rule.config.opt_lock_only_status || self.rule.config.opt_equivocation_speedup {
            // Optimized path (§5.6): skip certificate construction; the
            // status will carry signed locked blocks instead.
            self.enter_new_view(ctx);
            return;
        }
        // Announce B_com and self-certify it.
        let block = self.store.get(&self.b_com).expect("highest committed block is stored").clone();
        let update = self.sign(Payload::CommitUpdate { block }, ctx);
        ctx.flood(update);
        let certify_bytes =
            crate::message::signing_bytes(MsgKind::Certify, self.v_cur, &self.b_com);
        let own = self.pki.keypair(self.id).sign(&certify_bytes);
        ctx.meter().charge_sign(self.pki.scheme());
        self.rule.vc.certifies.insert(self.id, own);
        self.maybe_form_commit_qc(ctx);
        ctx.set_timer(self.params.delta * 5, TimerToken::ShareQc { view: self.v_cur });
    }

    /// Certify another node's committed block if it does not conflict with
    /// our lock (lines 242–244).
    pub(crate) fn on_commit_update(&mut self, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::CommitUpdate { block } = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        if msg.view < self.v_cur || !self.verify_envelope(&msg, ctx) {
            return;
        }
        let block = block.clone();
        ctx.meter().charge_hash(block.wire_size());
        let id = self.store.insert(block);
        if self.store.lineage(&id, &self.rule.b_lock).is_fork() {
            return; // provably conflicting: never certify
        }
        let height = self.store.get(&id).expect("just inserted").height;
        let certify = self.sign(Payload::Certify { block_id: id, height }, ctx);
        ctx.send_to(msg.signer, certify);
    }

    /// Collect certify votes for our own B_com (line 245).
    pub(crate) fn on_certify(&mut self, _from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::Certify { block_id, .. } = &msg.payload else { return };
        if msg.view != self.v_cur || *block_id != self.b_com || !self.verify_envelope(&msg, ctx) {
            return;
        }
        self.rule.vc.certifies.insert(msg.signer, msg.sig.clone());
        self.maybe_form_commit_qc(ctx);
    }

    fn maybe_form_commit_qc(&mut self, _ctx: &mut Ctx<'_>) {
        if self.rule.vc.certifies.len() < self.rule.config.quorum() {
            return;
        }
        let already_higher =
            self.rule.vc.best_qc.as_ref().is_some_and(|c| c.block.height >= self.b_com_height);
        if already_higher {
            return;
        }
        let sigs: Vec<(NodeId, _)> = self
            .rule
            .vc
            .certifies
            .iter()
            .take(self.rule.config.quorum())
            .map(|(n, s)| (*n, s.clone()))
            .collect();
        let qc = QuorumCert {
            kind: MsgKind::Certify,
            view: self.v_cur,
            data: self.b_com,
            height: self.b_com_height,
            sigs,
        };
        let block = self.store.get(&self.b_com).expect("committed block stored").clone();
        self.rule.vc.best_qc = Some(CertifiedBlock { qc, block });
    }

    /// Adopt a higher commit certificate (lines 248–250), or — as the new
    /// leader in round 1 — record it as a status entry (line 256).
    pub(crate) fn on_commit_qc(&mut self, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::CommitQc(cert) = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        if msg.view < self.v_cur || !self.verify_envelope(&msg, ctx) {
            return;
        }
        let cert = cert.clone();
        if cert.qc.kind != MsgKind::Certify
            || cert.qc.data != cert.block.id()
            || cert.qc.height != cert.block.height
            || cert.qc.view > msg.view
            || !self.verify_qc(&cert.qc, self.rule.config.quorum(), ctx)
        {
            return;
        }
        let id = self.store.insert(cert.block.clone());

        if self.rule.r_cur == 1 && self.is_leader() {
            // Status entry for the new-view proposal. The sender holds the
            // full chain of its own certified block, so repair any local
            // gap from it before the 4Δ proposal window closes.
            if let Some(missing) = self.chain_gap(&id) {
                self.request_sync(missing, msg.signer, ctx);
            }
            self.rule.nv.status_qcs.insert(msg.signer, cert);
            return;
        }
        // Quitting phase: adopt if strictly higher and not provably
        // conflicting with our lock.
        let higher =
            self.rule.vc.best_qc.as_ref().is_none_or(|c| cert.block.height > c.block.height);
        if higher && !self.store.lineage(&id, &self.rule.b_lock).is_fork() {
            self.rule.vc.best_qc = Some(cert);
        }
    }

    /// 5Δ after QuitView: share the best certificate and schedule entry
    /// into the new view (lines 239–241).
    pub(crate) fn on_share_qc(&mut self, view: u64, ctx: &mut Ctx<'_>) {
        if view != self.v_cur || self.rule.vc.shared {
            return;
        }
        self.rule.vc.shared = true;
        if let Some(best) = self.rule.vc.best_qc.clone() {
            let msg = self.sign(Payload::CommitQc(best), ctx);
            ctx.flood(msg);
        }
        ctx.set_timer(self.params.delta, TimerToken::EnterNew { view });
    }

    pub(crate) fn on_enter_new(&mut self, view: u64, ctx: &mut Ctx<'_>) {
        if view != self.v_cur {
            return;
        }
        self.enter_new_view(ctx);
    }

    // ------------------------------------------------------------------
    // NewView (lines 251–277).
    // ------------------------------------------------------------------

    /// Transition into view v+1, round 1 (line 251).
    pub(crate) fn enter_new_view(&mut self, ctx: &mut Ctx<'_>) {
        let best = self.rule.vc.best_qc.take();
        self.rule.r_cur = 1;
        self.rule.vc = Default::default();
        self.rule.nv = Default::default();
        self.rule.want_propose = false;
        if !self.advance_view(ctx) {
            return;
        }

        let leader = self.rule.config.leader_of(self.v_cur);
        if leader == self.id {
            // Seed the status with our own entry and open the 4Δ window.
            if let Some(best) = best {
                self.rule.nv.status_qcs.insert(self.id, best);
            }
            let lock_block =
                self.store.get(&self.rule.b_lock).expect("locked block stored").clone();
            let bytes =
                crate::message::signing_bytes(MsgKind::LockStatus, self.v_cur, &lock_block.id());
            let sig = self.pki.keypair(self.id).sign(&bytes);
            ctx.meter().charge_sign(self.pki.scheme());
            self.rule
                .nv
                .status_locks
                .insert(self.id, SignedBlock { block: lock_block, signer: self.id, sig });
            ctx.set_timer(self.params.delta * 4, TimerToken::LeaderStatus { view: self.v_cur });
        } else {
            // Send our status to the new leader (line 265).
            match best {
                Some(cert) if !self.rule.config.opt_lock_only_status => {
                    let msg = self.sign(Payload::CommitQc(cert), ctx);
                    ctx.send_to(leader, msg);
                }
                _ => {
                    let lock_block =
                        self.store.get(&self.rule.b_lock).expect("locked block stored").clone();
                    let msg = self.sign(Payload::LockStatus { block: lock_block }, ctx);
                    ctx.send_to(leader, msg);
                }
            }
        }
        self.settle_into_view(ctx);
    }

    /// Optimized status entry (§5.6): a node's signed locked block.
    pub(crate) fn on_lock_status(&mut self, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::LockStatus { block } = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        if msg.view < self.v_cur
            || self.rule.r_cur != 1
            || !self.is_leader()
            || !self.verify_envelope(&msg, ctx)
        {
            return;
        }
        let block = block.clone();
        let id = self.store.insert(block.clone());
        if let Some(missing) = self.chain_gap(&id) {
            // Locked blocks have fully-known chains at their holder.
            self.request_sync(missing, msg.signer, ctx);
        }
        self.rule
            .nv
            .status_locks
            .insert(msg.signer, SignedBlock { block, signer: msg.signer, sig: msg.sig.clone() });
    }

    /// The new leader's 4Δ status window closed: propose round 1
    /// (lines 255–258).
    pub(crate) fn on_leader_status(&mut self, view: u64, ctx: &mut Ctx<'_>) {
        if view != self.v_cur
            || self.rule.r_cur != 1
            || !self.is_leader()
            || self.rule.nv.prop_hash.is_some()
        {
            return;
        }
        let quorum = self.rule.config.quorum();
        let status = if self.rule.nv.status_qcs.len() >= quorum {
            let mut entries: Vec<CertifiedBlock> =
                self.rule.nv.status_qcs.values().cloned().collect();
            entries.sort_by_key(|c| core::cmp::Reverse(c.block.height));
            entries.truncate(quorum);
            Status::CommitQcs(entries)
        } else if self.rule.nv.status_locks.len() >= quorum {
            let mut entries: Vec<SignedBlock> =
                self.rule.nv.status_locks.values().cloned().collect();
            entries.sort_by_key(|s| core::cmp::Reverse(s.block.height));
            entries.truncate(quorum);
            Status::Locks(entries)
        } else {
            // Not enough status yet — extend the window; if the system is
            // truly stuck the other nodes' 8Δ blame timers handle it.
            ctx.set_timer(self.params.delta * 2, TimerToken::LeaderStatus { view });
            return;
        };
        let (highest_id, _) = status.highest().expect("status has at least one entry");
        if self.chain_gap(&highest_id).is_some() {
            // Ancestry still syncing; the Δ retry stays well inside the
            // other nodes' 8Δ patience.
            ctx.set_timer(self.params.delta, TimerToken::LeaderStatus { view });
            return;
        }
        let parent =
            self.store.get(&highest_id).expect("status blocks were inserted on receipt").clone();
        let block = Block::extending(&parent, self.v_cur, 1, Vec::new());
        ctx.meter().charge_hash(block.wire_size());
        self.store.insert(block.clone());
        let payload = Payload::NewViewProposal { status, block };
        self.rule.nv.prop_hash = Some(payload.signing_digest(self.v_cur));
        let msg = self.sign(payload, ctx);
        ctx.flood(msg);
    }

    fn status_is_valid(&mut self, view: u64, status: &Status, ctx: &mut Ctx<'_>) -> bool {
        if status.len() < self.rule.config.quorum() {
            return false;
        }
        match status {
            Status::CommitQcs(entries) => {
                let mut senders = std::collections::BTreeSet::new();
                for e in entries {
                    if e.qc.kind != MsgKind::Certify
                        || e.qc.data != e.block.id()
                        || e.qc.height != e.block.height
                        || e.qc.view > view
                        || !self.verify_qc(&e.qc, self.rule.config.quorum(), ctx)
                    {
                        return false;
                    }
                    // Entries must certify distinct announcements; dedup by
                    // the first signer of each certificate.
                    let first = e.qc.sigs.first().map(|(n, _)| *n);
                    senders.insert((e.block.id(), first));
                }
                true
            }
            Status::Locks(entries) => {
                let mut signers = std::collections::BTreeSet::new();
                for e in entries {
                    if !signers.insert(e.signer) {
                        return false;
                    }
                    let bytes =
                        crate::message::signing_bytes(MsgKind::LockStatus, view, &e.block.id());
                    ctx.meter().charge_verify(self.pki.scheme());
                    if e.sig.signer() != e.signer || !self.pki.verify(&bytes, &e.sig) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Round-1 proposal from the new leader (lines 267–274).
    pub(crate) fn on_new_view_proposal(&mut self, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::NewViewProposal { status, block } = &msg.payload else { return };
        if msg.view > self.v_cur {
            self.future_views.push((from, msg));
            return;
        }
        if msg.view < self.v_cur || self.rule.r_cur != 1 {
            return;
        }
        if msg.signer != self.rule.config.leader_of(msg.view) || !self.verify_envelope(&msg, ctx) {
            return;
        }
        let (status, block) = (status.clone(), block.clone());
        if !self.status_is_valid(msg.view, &status, ctx) {
            return;
        }
        // Insert the status blocks so lineage checks and later commits see
        // them.
        match &status {
            Status::CommitQcs(entries) => {
                for e in entries {
                    self.store.insert(e.block.clone());
                }
            }
            Status::Locks(entries) => {
                for e in entries {
                    self.store.insert(e.block.clone());
                }
            }
        }
        let Some((highest_id, highest_height)) = status.highest() else { return };
        // Vote only if the proposal extends the highest status block
        // (line 269) and is not a provable fork from our committed prefix.
        if block.parent != highest_id
            || block.height != highest_height + 1
            || block.view != msg.view
            || block.round != 1
        {
            return;
        }
        let block_id = self.store.insert(block.clone());
        ctx.meter().charge_hash(block.wire_size());
        if self.store.lineage(&block_id, &self.b_com).is_fork() {
            return;
        }
        if let Some(missing) = self.chain_gap(&block_id) {
            // Vote only once the whole chain is known, so the commit
            // rule's ancestor walk never hits a gap. Ask the proposal's
            // *signer* — the leader synced the status ancestry before
            // proposing, whereas a flood relayer may not hold the blocks.
            // The 6Δ/8Δ timers absorb the round trip.
            let leader = msg.signer;
            self.orphans.entry(missing).or_default().push((from, msg.clone()));
            self.request_sync(missing, leader, ctx);
            return;
        }
        self.rule.b_lock = block_id;
        self.rule.b_lock_height = block.height;
        self.rule.nv.prop_hash = Some(msg.payload.signing_digest(msg.view));
        self.rule.nv.round1_block = Some(block_id);
        let vote = self
            .sign(Payload::NewViewVote { prop_hash: msg.payload.signing_digest(msg.view) }, ctx);
        ctx.flood(vote);
        self.rule.r_cur = 2;
        self.reset_blame_timer(6, ctx);
    }

    /// Votes arriving at the new leader (line 259).
    pub(crate) fn on_new_view_vote(&mut self, _from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::NewViewVote { prop_hash } = &msg.payload else { return };
        if msg.view != self.v_cur || !self.is_leader() || self.rule.nv.round2_sent {
            return;
        }
        if self.rule.nv.prop_hash != Some(*prop_hash) || !self.verify_envelope(&msg, ctx) {
            return;
        }
        self.rule.nv.votes.insert(msg.signer, msg.sig.clone());
        if self.rule.nv.votes.len() < self.rule.config.quorum() {
            return;
        }
        // f+1 votes: certify round 1 and propose round 2 (lines 260–263).
        let round1 = self.rule.nv.round1_block.expect("voted proposals record their block");
        let parent = self.store.get(&round1).expect("round-1 block stored").clone();
        let sigs: Vec<(NodeId, _)> = self
            .rule
            .nv
            .votes
            .iter()
            .take(self.rule.config.quorum())
            .map(|(n, s)| (*n, s.clone()))
            .collect();
        let qc = QuorumCert {
            kind: MsgKind::NewViewVote,
            view: self.v_cur,
            data: self.rule.nv.prop_hash.expect("checked above"),
            height: parent.height,
            sigs,
        };
        let block = Block::extending(&parent, self.v_cur, 2, Vec::new());
        ctx.meter().charge_hash(block.wire_size());
        self.store.insert(block.clone());
        let msg = self.sign(Payload::Propose { block, round: 2, justify: Some(qc) }, ctx);
        self.rule.nv.round2_sent = true;
        ctx.flood(msg);
    }

    /// Round-2 proposal carrying the vote certificate (lines 275–277).
    pub(crate) fn on_round2_propose(&mut self, from: NodeId, msg: SignedMsg, ctx: &mut Ctx<'_>) {
        let Payload::Propose { block, justify, .. } = &msg.payload else { return };
        if self.rule.r_cur > 2 {
            return;
        }
        let Some(qc) = justify else { return };
        if qc.kind != MsgKind::NewViewVote
            || qc.view != msg.view
            || !self.verify_qc(qc, self.rule.config.quorum(), ctx)
        {
            return;
        }
        // If we voted in round 1, the certificate must match our vote.
        if let Some(h) = self.rule.nv.prop_hash {
            if qc.data != h || Some(block.parent) != self.rule.nv.round1_block {
                return;
            }
        } else if !self.store.contains(&block.parent) {
            // We missed round 1 entirely: fetch the chain, then retry.
            let parent = block.parent;
            self.orphans.entry(parent).or_default().push((from, msg.clone()));
            self.request_sync(parent, from, ctx);
            return;
        }
        let block = block.clone();
        ctx.meter().charge_hash(block.wire_size());
        let id = self.store.insert(block.clone());
        if self.store.lineage(&id, &self.b_com).is_fork() {
            return;
        }
        if let Some(missing) = self.chain_gap(&id) {
            let leader = msg.signer;
            self.orphans.entry(missing).or_default().push((from, msg.clone()));
            self.request_sync(missing, leader, ctx);
            return;
        }
        self.rule.b_lock = id;
        self.rule.b_lock_height = block.height;
        self.first_seen.entry(id).or_insert(ctx.now());
        // Steady state resumes (line 277).
        self.rule.r_cur = 3;
        self.reset_blame_timer(self.params.steady_blame_multiple, ctx);
        self.try_propose(ctx);
    }
}

/// Builds a set of replicas sharing a PKI, with per-node fault modes.
///
/// Convenience for tests and the simulation harness.
pub fn build_replicas(
    config: &crate::config::Config,
    pki: &std::sync::Arc<eesmr_crypto::KeyStore>,
    faults: impl Fn(NodeId) -> FaultMode,
) -> Vec<Replica> {
    (0..config.n as NodeId)
        .map(|id| Replica::new(id, config.clone(), pki.clone(), faults(id)))
        .collect()
}
