//! Hostile inputs against the machine every synchronous-SMR replica shares
//! (`eesmr_core::smr`): blames and equivocation proofs, blame
//! certificates, chain sync, early input, command forwarding, repair. Each
//! case is written once and run against both rules through the single-actor
//! harness (or, where the network's flood dedup is part of the case, on
//! `SimNet`), so a line broken in the skeleton fails here for EESMR and for
//! Sync HotStuff alike — and the two places where the rules are *meant* to
//! differ on this path (the sync cap, the proposal slot) are pinned as
//! such. The trusted baseline runs the cases that apply on its star (it
//! never blames, syncs or forwards), plus three of its own.

use std::sync::Arc;

use eesmr_baselines::sync_hotstuff::{HsConfig, HsPayload, HsRule, HsVariant};
use eesmr_baselines::trusted::{tb_config, TbConfig, TbPayload, TbReplica, TrustedRule, HUB};
use eesmr_core::smr::{Msg, Shared, WINDOW};
use eesmr_core::{
    Block, Command, Config, EesmrRule, Envelope, FaultMode, MsgKind, Payload, QuorumCert, Rule,
    SignedPayload, Smr, SmrPayload, TimerToken, WorkloadSource,
};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::codec::WireEnum;
use eesmr_net::harness::{Harness, Output};
use eesmr_net::{Actor, Context, NetConfig, NodeId, SimDuration, SimNet};

const N: usize = 4; // f = 1: two blames certify; node 0 leads view 1
const DELTA_US: u64 = 2_000;

/// What a case needs to know about a rule beyond [`Rule`]: a
/// configuration, and how its family spells a proposal.
trait Family: Rule + 'static {
    /// Ancestors one `SyncResponse` carries — the rules differ, on record.
    const SYNC_CAP: usize;
    /// The member whose `RepairReply` a replica takes: any peer, or a
    /// star's hub.
    const REPAIRER: NodeId = 2;
    fn config(forward_batch: usize) -> Self::Config;
    /// A proposal of a block on `parent`, in the slot after `parent`'s,
    /// carrying one command derived from `tag`.
    fn proposal(parent: &Block, tag: u64) -> (Block, Self::Payload);
    /// The family's proposal of `block`, as it stands.
    fn propose(block: Block) -> Self::Payload;
    /// An explicit vote for `block`, if the family has one.
    fn vote(_block: &Block) -> Option<Self::Payload> {
        None
    }
}

impl Family for EesmrRule {
    const SYNC_CAP: usize = 256;
    fn config(forward_batch: usize) -> Config {
        let mut config = Config::new(N, SimDuration::from_micros(DELTA_US));
        config.forward_batch = forward_batch;
        config
    }
    fn proposal(parent: &Block, tag: u64) -> (Block, Payload) {
        let round = parent.round.max(2) + 1; // steady state starts in round 3
        let block = Block::extending(parent, 1, round, vec![Command::synthetic(tag, 16)]);
        (block.clone(), Payload::Propose { block, round, justify: None })
    }
    fn propose(block: Block) -> Payload {
        Payload::Propose { round: block.round, block, justify: None }
    }
}

impl Family for HsRule {
    const SYNC_CAP: usize = 32;
    fn config(forward_batch: usize) -> HsConfig {
        let mut config =
            HsConfig::new(N, SimDuration::from_micros(DELTA_US), HsVariant::SyncHotStuff);
        config.forward_batch = forward_batch;
        config
    }
    fn proposal(parent: &Block, tag: u64) -> (Block, HsPayload) {
        let height = parent.height + 1; // the slot *is* the height
        let block = Block::extending(parent, 1, height, vec![Command::synthetic(tag, 16)]);
        (block.clone(), HsPayload::Propose { block, justify: None })
    }
    /// Above height 1 the block carries a certificate of its parent, as
    /// its height names it.
    fn propose(block: Block) -> HsPayload {
        let justify = (block.height > 1).then(|| {
            let (view, data) = (block.view, block.parent);
            let bytes = eesmr_core::message::signing_bytes(MsgKind::HsVote, view, &data);
            let sigs = (0..3).map(|n| (n, pki().keypair(n).sign(&bytes))).collect();
            QuorumCert { kind: MsgKind::HsVote, view, data, height: block.height - 1, sigs }
        });
        HsPayload::Propose { block, justify }
    }
    fn vote(block: &Block) -> Option<HsPayload> {
        Some(HsPayload::Vote { block_id: block.id(), height: block.height })
    }
}

impl Family for TrustedRule {
    const SYNC_CAP: usize = 0;
    const REPAIRER: NodeId = HUB;
    fn config(_forward_batch: usize) -> TbConfig {
        tb_config(N, SimDuration::from_micros(DELTA_US))
    }
    fn proposal(parent: &Block, tag: u64) -> (Block, TbPayload) {
        let height = parent.height + 1; // the slot is the height
        let block = Block::extending(parent, 1, height, vec![Command::synthetic(tag, 16)]);
        (block.clone(), TbPayload::Propose { block })
    }
    fn propose(block: Block) -> TbPayload {
        TbPayload::Propose { block }
    }
}

fn pki() -> Arc<KeyStore> {
    Arc::new(KeyStore::generate(N, SigScheme::Rsa1024, 11))
}

/// Keys for the same node ids from outside the PKI.
fn outsiders() -> KeyStore {
    KeyStore::generate(N, SigScheme::Rsa1024, 999)
}

fn replica<R: Family>(id: NodeId, pki: &Arc<KeyStore>, forward_batch: usize) -> Harness<Smr<R>> {
    let mut h = Harness::new(
        id,
        Smr::<R>::new(id, R::config(forward_batch), pki.clone(), FaultMode::Honest),
    );
    h.start();
    h
}

fn signed<R: Family>(payload: R::Payload, view: u64, keys: &KeyStore, signer: NodeId) -> Msg<R> {
    Envelope::new(payload, view, keys.keypair(signer))
}

type Out<R> = Output<Msg<R>, TimerToken>;

/// The messages in `out` whose payload `pick` accepts, with their target.
fn sent<'a, R: Family, T>(
    out: &'a [Out<R>],
    pick: impl Fn(&'a R::Payload) -> Option<T>,
) -> Vec<(Option<NodeId>, T)> {
    out.iter()
        .filter_map(|o| match o {
            Output::Multicast(m) => Some((None, m)),
            Output::Flood { msg, target } => Some((*target, msg)),
            _ => None,
        })
        .filter_map(|(target, m)| Some((target, pick(&m.payload)?)))
        .collect()
}

fn quit_scheduled<R: Family>(out: &[Out<R>]) -> bool {
    out.iter().any(|o| {
        matches!(o, Output::SetTimer { token: TimerToken::QuitWait { view: 1 }, delay, .. }
            if delay.as_micros() == DELTA_US)
    })
}

// ----------------------------------------------------------------------
// Dispatch.
// ----------------------------------------------------------------------

/// The skeleton routes a message by its `MsgKind` tag and then reads it
/// through `shared()`: both must name the same variant, in every family.
fn shared_variants_carry_the_shared_tags<R: Family>() {
    let b1 = R::proposal(&Block::genesis(), 1).0;
    let payloads = [
        (MsgKind::Propose, R::proposal(&Block::genesis(), 1).1),
        (MsgKind::Blame, R::Payload::from_shared(Shared::Blame { proof: None })),
        (
            MsgKind::BlameQc,
            R::Payload::from_shared(Shared::BlameQc(blame_qc::<R>(1, &[2, 3], &pki()))),
        ),
        (MsgKind::SyncRequest, R::Payload::from_shared(Shared::SyncRequest { want: b1.id() })),
        (
            MsgKind::SyncResponse,
            R::Payload::from_shared(Shared::SyncResponse { blocks: vec![b1.clone()] }),
        ),
        (
            MsgKind::Forward,
            R::Payload::from_shared(Shared::Forward {
                commands: vec![Command::synthetic(1, 16)].into(),
            }),
        ),
        (MsgKind::Repair, R::Payload::from_shared(Shared::Repair { from_height: 0 })),
        (
            MsgKind::RepairReply,
            R::Payload::from_shared(Shared::RepairReply { blocks: vec![b1], view: 1 }),
        ),
    ];
    for (kind, payload) in payloads {
        assert_eq!(payload.tag(), kind, "{}: {payload:?}", R::NAME);
        let same_variant = matches!(
            (kind, payload.shared()),
            (MsgKind::Propose, None)
                | (MsgKind::Blame, Some(Shared::Blame { .. }))
                | (MsgKind::BlameQc, Some(Shared::BlameQc(..)))
                | (MsgKind::SyncRequest, Some(Shared::SyncRequest { .. }))
                | (MsgKind::SyncResponse, Some(Shared::SyncResponse { .. }))
                | (MsgKind::Forward, Some(Shared::Forward { .. }))
                | (MsgKind::Repair, Some(Shared::Repair { .. }))
                | (MsgKind::RepairReply, Some(Shared::RepairReply { .. }))
        );
        assert!(same_variant, "{}: {kind:?} reads as {:?}", R::NAME, payload.shared());
        assert_eq!(payload.proposal().is_some(), kind == MsgKind::Propose, "{}", R::NAME);
    }
}

#[test]
fn the_shared_variants_carry_the_shared_tags_in_both_families() {
    shared_variants_carry_the_shared_tags::<EesmrRule>();
    shared_variants_carry_the_shared_tags::<HsRule>();
}

/// `Leader(v) = (v − 1) mod n` on a ring.
fn round_robin_cycles<R: Family>() {
    let r = Smr::<R>::new(1, R::config(1), pki(), FaultMode::Honest);
    let leaders: Vec<NodeId> = (1..=5).map(|view| r.leader_of(view)).collect();
    assert_eq!(leaders, [0, 1, 2, 3, 0], "{}", R::NAME);
}

#[test]
fn the_leader_is_round_robin_on_the_ring_and_the_hub_on_the_star() {
    round_robin_cycles::<EesmrRule>();
    round_robin_cycles::<HsRule>();
    let spoke = Smr::<TrustedRule>::new(1, TrustedRule::config(1), pki(), FaultMode::Honest);
    assert!((1..=9).all(|view| spoke.leader_of(view) == HUB), "every view is the hub's");
}

/// No honest replica signs view 0 (`v_cur` starts at 1, and `Leader(v)` is
/// defined from view 1 on): a validly signed view-0 proposal from node 0 is
/// dropped at the front door, before any handler reads its view.
fn view_zero_is_dropped<R: Family>() {
    let pki = pki();
    let mut h = replica::<R>(1, &pki, 1);
    let (_, p1) = R::proposal(&Block::genesis(), 1);
    assert_ignored(&mut h, 0, signed::<R>(p1, 0, &pki, 0), "a proposal signed for view 0");
    assert_eq!(h.actor().current_view(), 1, "{}: the view stays", R::NAME);
}

#[test]
fn a_proposal_signed_for_view_zero_causes_nothing() {
    view_zero_is_dropped::<EesmrRule>();
    view_zero_is_dropped::<HsRule>();
    view_zero_is_dropped::<TrustedRule>();
}

// ----------------------------------------------------------------------
// Equivocation proofs.
// ----------------------------------------------------------------------

fn valid_third_party_proof_aborts_the_view<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let mut h = replica::<R>(1, &pki, 1);
    let genesis = Block::genesis();
    let (_, first) = R::proposal(&genesis, 1);
    let (_, twin) = R::proposal(&genesis, 2);
    let (first, twin) = (signed::<R>(first, 1, &pki, 0), signed::<R>(twin, 1, &pki, 0));
    // This node saw only one of the two proposals…
    let accepted = h.deliver(0, first.clone());
    assert!(
        accepted
            .iter()
            .any(|o| matches!(o, Output::SetTimer { token: TimerToken::Commit { .. }, .. })),
        "{rule}: the first proposal is accepted"
    );
    // …and learns of the other from node 2's blame.
    let blame = signed::<R>(
        R::Payload::from_shared(Shared::Blame { proof: Some(Box::new((first, twin))) }),
        1,
        &pki,
        2,
    );
    let out = h.deliver(2, blame);
    assert_eq!(h.actor().metrics().equivocations_detected, 1, "{rule}");
    assert!(out.iter().any(|o| matches!(o, Output::CancelTimer(_))), "{rule}: commits cancelled");
    let relayed = sent::<R, _>(&out, |p| match p.shared()? {
        Shared::Blame { proof } => Some(proof.is_some()),
        _ => None,
    });
    assert_eq!(relayed, vec![(None, true)], "{rule}: the proof is flooded on, once");
    // The view is over: its commit timer would commit nothing any more.
    assert!(h.actor().view_aborted, "{rule}");
}

fn invalid_proofs_abort_nothing<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let genesis = Block::genesis();
    let (b1, first) = R::proposal(&genesis, 1);
    let (_, twin) = R::proposal(&genesis, 2);
    let (_, next_slot) = R::proposal(&b1, 2);
    let first = signed::<R>(first, 1, &pki, 0);
    let cases = [
        ("second proposal not leader-signed", signed::<R>(twin.clone(), 1, &pki, 2)),
        ("different slots", signed::<R>(next_slot, 1, &pki, 0)),
        ("bad signature", signed::<R>(twin.clone(), 1, &outsiders(), 0)),
        ("another view's proposal", signed::<R>(twin, 2, &pki, 1)),
        ("the same proposal twice", first.clone()),
    ];
    for (what, second) in cases {
        let mut h = replica::<R>(1, &pki, 1);
        let blame = signed::<R>(
            R::Payload::from_shared(Shared::Blame {
                proof: Some(Box::new((first.clone(), second))),
            }),
            1,
            &pki,
            2,
        );
        let out = h.deliver(2, blame);
        assert_eq!(h.actor().metrics().equivocations_detected, 0, "{rule}: {what}");
        assert!(!h.actor().view_aborted, "{rule}: {what}");
        assert!(out.is_empty(), "{rule}: {what}: nothing flooded, nothing cancelled");
    }
}

#[test]
fn a_valid_third_party_equivocation_proof_aborts_the_view() {
    valid_third_party_proof_aborts_the_view::<EesmrRule>();
    valid_third_party_proof_aborts_the_view::<HsRule>();
}

#[test]
fn an_invalid_equivocation_proof_aborts_nothing() {
    invalid_proofs_abort_nothing::<EesmrRule>();
    invalid_proofs_abort_nothing::<HsRule>();
}

/// EESMR's slot is the round, and a block's height is only the leader's
/// word: a same-round twin naming another height — the next one, or one a
/// band of `W` away — is an equivocation all the same, whichever copy
/// comes first. (A HotStuff-family slot *is* the height, so there another
/// height is another slot.)
#[test]
fn a_same_round_twin_with_a_forged_height_is_blamed() {
    let pki = pki();
    let (b1, first) = EesmrRule::proposal(&Block::genesis(), 1);
    let first = signed::<EesmrRule>(first, 1, &pki, 0);
    for forged in [b1.height + 1, b1.height + WINDOW] {
        let block = Block::new(b1.parent, forged, 1, b1.round, vec![Command::synthetic(2, 16)]);
        let twin = Payload::Propose { block, round: b1.round, justify: None };
        let twin = signed::<EesmrRule>(twin, 1, &pki, 0);
        for (a, b) in [(first.clone(), twin.clone()), (twin, first.clone())] {
            let mut h = replica::<EesmrRule>(1, &pki, 1);
            h.deliver(0, a);
            h.deliver(0, b);
            assert_eq!(h.actor().metrics().equivocations_detected, 1, "twin at height {forged}");
            assert!(h.actor().view_aborted, "twin at height {forged}");
        }
    }
}

/// A leader-signed block two heights above its held parent is dropped
/// before the rule sees it: no relay, vote or upload, no commit timer, no
/// commit. The same block one height up is acted on.
fn a_gapped_height_is_rejected<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let (b1, _) = R::proposal(&Block::genesis(), 1);
    for (height, acted_on) in [(b1.height + 1, false), (b1.height, true)] {
        let block = Block::new(b1.parent, height, 1, b1.round, b1.payload.clone());
        let mut h = replica::<R>(1, &pki, 1);
        let out = h.deliver(0, signed::<R>(R::propose(block), 1, &pki, 0));
        let rejected = h.actor().metrics().proposals_rejected;
        assert_eq!(!out.is_empty(), acted_on, "{rule}: height {height}: {out:?}");
        assert_eq!(rejected, u64::from(!acted_on), "{rule}: height {height}");
        if !acted_on {
            assert_eq!(h.actor().committed_height(), 0, "{rule}: height {height} not committed");
        }
    }
}

#[test]
fn a_block_two_heights_above_its_parent_causes_nothing() {
    a_gapped_height_is_rejected::<EesmrRule>();
    a_gapped_height_is_rejected::<HsRule>();
    a_gapped_height_is_rejected::<TrustedRule>();
}

// ----------------------------------------------------------------------
// Blames and blame certificates.
// ----------------------------------------------------------------------

fn duplicate_blames_count_once<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let mut h = replica::<R>(1, &pki, 1);
    let blame = |signer| {
        signed::<R>(R::Payload::from_shared(Shared::Blame { proof: None }), 1, &pki, signer)
    };
    for _ in 0..3 {
        let out = h.deliver(2, blame(2));
        assert!(out.is_empty(), "{rule}: one signer, however often, is one blame");
    }
    // A second signer completes f + 1 = 2.
    let out = h.deliver(3, blame(3));
    let certs = sent::<R, _>(&out, |p| match p.shared()? {
        Shared::BlameQc(qc) => Some(qc.sigs.iter().map(|(n, _)| *n).collect::<Vec<_>>()),
        _ => None,
    });
    assert_eq!(certs, vec![(None, vec![2, 3])], "{rule}: the certificate is flooded");
    assert!(quit_scheduled::<R>(&out), "{rule}: the Δ quit wait is armed");
}

fn blame_qc<R: Family>(view: u64, signers: &[NodeId], pki: &KeyStore) -> QuorumCert {
    let data = R::Payload::from_shared(Shared::Blame { proof: None }).signing_digest(view);
    let bytes = eesmr_core::message::signing_bytes(MsgKind::Blame, view, &data);
    let sigs = signers.iter().map(|&n| (n, pki.keypair(n).sign(&bytes))).collect();
    QuorumCert { kind: MsgKind::Blame, view, data, height: 0, sigs }
}

fn weak_or_foreign_blame_certificates_are_ignored<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let cases = [
        ("below the threshold", blame_qc::<R>(1, &[2], &pki)),
        ("one signer twice", blame_qc::<R>(1, &[2, 2], &pki)),
        ("for another view", blame_qc::<R>(2, &[2, 3], &pki)),
        ("signed outside the PKI", blame_qc::<R>(1, &[2, 3], &outsiders())),
        (
            "not a blame certificate",
            QuorumCert { kind: MsgKind::Certify, ..blame_qc::<R>(1, &[2, 3], &pki) },
        ),
    ];
    for (what, qc) in cases {
        let mut h = replica::<R>(1, &pki, 1);
        let out =
            h.deliver(2, signed::<R>(R::Payload::from_shared(Shared::BlameQc(qc)), 1, &pki, 2));
        assert!(out.is_empty(), "{rule}: {what}");
        assert!(!h.actor().view_aborted, "{rule}: {what}");
    }
    let mut h = replica::<R>(1, &pki, 1);
    let valid = blame_qc::<R>(1, &[2, 3], &pki);
    let out =
        h.deliver(2, signed::<R>(R::Payload::from_shared(Shared::BlameQc(valid)), 1, &pki, 2));
    assert!(quit_scheduled::<R>(&out), "{rule}: f + 1 valid blames for this view quit it");
}

/// A replica handed a script of inputs at start through its own handlers,
/// so that what it emits meets the real runtime's flood dedup.
struct Scripted<R: Rule> {
    replica: Smr<R>,
    script: Vec<Input<R>>,
}

enum Input<R: Rule> {
    Fire(TimerToken),
    Deliver(NodeId, Msg<R>),
}

impl<R: Rule> Actor for Scripted<R> {
    type Msg = Msg<R>;
    type Timer = TimerToken;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg<R>, TimerToken>) {
        self.replica.on_start(ctx);
        for input in std::mem::take(&mut self.script) {
            match input {
                Input::Fire(token) => self.replica.on_timer(token, ctx),
                Input::Deliver(from, msg) => self.replica.on_message(from, msg, ctx),
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg<R>, ctx: &mut Context<'_, Msg<R>, TimerToken>) {
        self.replica.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg<R>, TimerToken>) {
        self.replica.on_timer(token, ctx);
    }
}

/// Node 1 blames view 1 on timeout, then sees the silent leader's two
/// proposals for one slot: its equivocation blame is a second blame of
/// the same view by the same signer, and it must still reach every honest
/// node — the only way nodes 2 and 3 learn of the equivocation here.
fn a_timeout_blamer_floods_its_proof<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let node = |id: NodeId| {
        let fault = if id == 0 { FaultMode::Silent { from_view: 1 } } else { FaultMode::Honest };
        let mut script = Vec::new();
        if id == 1 {
            let (_, first) = R::proposal(&Block::genesis(), 1);
            let (_, twin) = R::proposal(&Block::genesis(), 2);
            script = vec![
                Input::Fire(TimerToken::Blame { view: 1 }),
                Input::Deliver(0, signed::<R>(first, 1, &pki, 0)),
                Input::Deliver(0, signed::<R>(twin, 1, &pki, 0)),
            ];
        }
        Scripted { replica: Smr::<R>::new(id, R::config(1), pki.clone(), fault), script }
    };
    let net_cfg = NetConfig::ble(ring_kcast(N, 2), 5);
    assert_eq!(net_cfg.delta().as_micros(), DELTA_US, "the replicas' Δ is the network's");
    let mut net = SimNet::new(net_cfg, (0..N as NodeId).map(node).collect());
    net.run_for(SimDuration::from_micros(2 * DELTA_US));
    let blamer = net.actor(1).replica.metrics();
    assert_eq!(blamer.blames_sent, 2, "{rule}: a timeout blame, then the proof");
    for id in 1..N as NodeId {
        let detected = net.actor(id).replica.metrics().equivocations_detected;
        assert_eq!(detected, 1, "{rule}: node {id} learnt of the equivocation");
    }
}

#[test]
fn a_node_that_blamed_on_timeout_still_floods_its_equivocation_proof() {
    a_timeout_blamer_floods_its_proof::<EesmrRule>();
    a_timeout_blamer_floods_its_proof::<HsRule>();
}

#[test]
fn duplicate_blames_from_one_signer_never_reach_the_quorum() {
    duplicate_blames_count_once::<EesmrRule>();
    duplicate_blames_count_once::<HsRule>();
}

#[test]
fn a_blame_certificate_below_threshold_or_for_another_view_is_ignored() {
    weak_or_foreign_blame_certificates_are_ignored::<EesmrRule>();
    weak_or_foreign_blame_certificates_are_ignored::<HsRule>();
}

// ----------------------------------------------------------------------
// Chain sync.
// ----------------------------------------------------------------------

fn sync_response_is_capped<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let mut h = replica::<R>(1, &pki, 1);
    // Genesis plus 39 descendants: the tip has 40 blocks to offer.
    let mut tip = Block::genesis();
    for tag in 0..39 {
        tip = R::proposal(&tip, tag).0;
        h.actor_mut().store.insert(tip.clone());
    }
    let out = h.deliver(
        3,
        signed::<R>(R::Payload::from_shared(Shared::SyncRequest { want: tip.id() }), 1, &pki, 3),
    );
    let replies = sent::<R, _>(&out, |p| match p.shared()? {
        Shared::SyncResponse { blocks } => Some(blocks.to_vec()),
        _ => None,
    });
    let [(Some(3), blocks)] = replies.as_slice() else {
        panic!("{rule}: one reply, to the requester: {replies:?}")
    };
    assert_eq!(blocks.len(), 40.min(R::SYNC_CAP), "{rule}");
    assert_eq!(blocks[0].id(), tip.id(), "{rule}: nearest first");
    assert!(blocks.windows(2).all(|w| w[0].parent == w[1].id()), "{rule}: a gap-free walk");

    let forged = signed::<R>(
        R::Payload::from_shared(Shared::SyncRequest { want: tip.id() }),
        1,
        &outsiders(),
        3,
    );
    assert!(h.deliver(3, forged).is_empty(), "{rule}: strangers are not served");
}

#[test]
fn a_sync_request_is_answered_up_to_the_rules_cap() {
    assert_ne!(EesmrRule::SYNC_CAP, HsRule::SYNC_CAP, "the drift, on record");
    sync_response_is_capped::<EesmrRule>();
    sync_response_is_capped::<HsRule>();
}

// ----------------------------------------------------------------------
// Command forwarding.
// ----------------------------------------------------------------------

/// A client that submits one command at t = 0 and falls silent.
struct OneShot(Option<Command>);

impl WorkloadSource for OneShot {
    fn next_arrival_in(&mut self, _now_us: u64) -> Option<u64> {
        self.0.as_ref().map(|_| 1)
    }
    fn arrival(&mut self, _now_us: u64, _in_flight: usize) -> Option<Command> {
        self.0.take()
    }
}

fn forwards<R: Family>(out: &[Out<R>]) -> Vec<(Option<NodeId>, Vec<Command>)> {
    sent::<R, _>(out, |p| match p.shared()? {
        Shared::Forward { commands } => Some(commands.iter().cloned().collect()),
        _ => None,
    })
}

fn sub_threshold_backlog_waits_for_the_flush<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let cmd = Command::new(b"reading".to_vec());
    let mut replica = Smr::<R>::new(1, R::config(4), pki.clone(), FaultMode::Honest);
    replica.attach_workload(Box::new(OneShot(Some(cmd.clone()))));
    let mut h = Harness::new(1, replica);
    h.start();
    let out = h.fire(TimerToken::Arrival);
    assert!(forwards::<R>(&out).is_empty(), "{rule}: one command of four is held back");
    assert!(
        out.iter()
            .any(|o| matches!(o, Output::SetTimer { token: TimerToken::ForwardFlush, delay, .. }
            if delay.as_micros() == DELTA_US)),
        "{rule}: the Δ flush is armed instead: {out:?}"
    );
    let out = h.fire(TimerToken::ForwardFlush);
    assert_eq!(forwards::<R>(&out), vec![(Some(0), vec![cmd])], "{rule}: flushed to the leader");
    assert_eq!(h.actor().metrics().tx_forwarded, 1, "{rule}");
}

fn a_stray_forward_is_re_routed<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let mut h = replica::<R>(1, &pki, 1);
    let cmd = Command::new(b"lost".to_vec());
    let stray = |keys: &KeyStore| {
        signed::<R>(
            R::Payload::from_shared(Shared::Forward { commands: vec![cmd.clone()].into() }),
            1,
            keys,
            3,
        )
    };
    assert!(h.deliver(3, stray(&outsiders())).is_empty(), "{rule}: unsigned commands are dropped");
    // Node 1 does not lead view 1; node 0 does.
    let out = h.deliver(3, stray(&pki));
    assert_eq!(forwards::<R>(&out), vec![(Some(0), vec![cmd])], "{rule}");
}

#[test]
fn a_sub_threshold_backlog_is_forwarded_when_the_flush_timer_fires_and_not_before() {
    sub_threshold_backlog_waits_for_the_flush::<EesmrRule>();
    sub_threshold_backlog_waits_for_the_flush::<HsRule>();
}

#[test]
fn a_forward_delivered_to_a_non_leader_is_re_routed_to_its_leader() {
    a_stray_forward_is_re_routed::<EesmrRule>();
    a_stray_forward_is_re_routed::<HsRule>();
}

// ----------------------------------------------------------------------
// Repair.
// ----------------------------------------------------------------------

fn assert_untouched<R: Family>(h: &Harness<Smr<R>>, out: &[Out<R>], what: &str) {
    let rule = R::NAME;
    assert_eq!(h.actor().committed_height(), 0, "{rule}: {what}");
    assert_eq!(h.actor().current_view(), 1, "{rule}: {what}");
    assert!(out.is_empty(), "{rule}: {what}: {out:?}");
}

fn broken_repair_chains_change_nothing<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let genesis = Block::genesis();
    let (b1, _) = R::proposal(&genesis, 1);
    let (b2, _) = R::proposal(&b1, 2);
    let (b3, _) = R::proposal(&b2, 3);
    let cases = [
        ("not hash-linked", vec![b1.clone(), b3.clone()]),
        ("newest first", vec![b2.clone(), b1.clone()]),
        ("not rooted in a held block", vec![b2.clone(), b3.clone()]),
        ("empty", vec![]),
    ];
    let from = R::REPAIRER;
    for (what, blocks) in cases {
        let mut h = replica::<R>(1, &pki, 1);
        let out = h.deliver(
            from,
            signed::<R>(
                R::Payload::from_shared(Shared::RepairReply { blocks, view: 7 }),
                1,
                &pki,
                from,
            ),
        );
        assert_untouched(&h, &out, what);
    }
    // Control: the same blocks, linked and rooted, are committed.
    let mut h = replica::<R>(1, &pki, 1);
    h.deliver(
        from,
        signed::<R>(
            R::Payload::from_shared(Shared::RepairReply { blocks: vec![b1, b2], view: 1 }),
            1,
            &pki,
            from,
        ),
    );
    assert_eq!(h.actor().committed_height(), 2, "{rule}: a sound suffix is adopted");
}

fn forged_repair_reply_is_rejected<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let mut h = replica::<R>(1, &pki, 1);
    // Two fabricated blocks on genesis and a far-future view, signed with
    // a key that is not in the PKI.
    let (b1, _) = R::proposal(&Block::genesis(), 1);
    let (b2, _) = R::proposal(&b1, 2);
    let from = R::REPAIRER;
    let reply =
        R::Payload::from_shared(Shared::RepairReply { blocks: vec![b1, b2], view: 1_000_000 });
    let out = h.deliver(from, signed::<R>(reply, 1, &outsiders(), from));
    assert_untouched(&h, &out, "forged reply");
    assert!(h.meter().count(eesmr_energy::EnergyCategory::Verify) > 0, "{rule}: it was checked");
}

#[test]
fn a_repair_reply_that_is_not_a_rooted_hash_chain_changes_nothing() {
    broken_repair_chains_change_nothing::<EesmrRule>();
    broken_repair_chains_change_nothing::<HsRule>();
}

#[test]
fn a_repair_reply_signed_outside_the_pki_changes_nothing() {
    forged_repair_reply_is_rejected::<EesmrRule>();
    forged_repair_reply_is_rejected::<HsRule>();
}

// ----------------------------------------------------------------------
// Messages below the commit floor.
// ----------------------------------------------------------------------

/// Node 1 accepts the view-1 proposal of height 1 (relays it, votes for it
/// or commits it), then repairs `2·W + 1` blocks past it: the floor is
/// `W + 2`, past the first band, and everything the node kept about
/// height 1 is pruned.
fn past_the_floor<R: Family>(pki: &Arc<KeyStore>) -> (Harness<Smr<R>>, Block, Msg<R>) {
    let rule = R::NAME;
    let mut h = replica::<R>(1, pki, 1);
    let (b1, p1) = R::proposal(&Block::genesis(), 1);
    let p1 = signed::<R>(p1, 1, pki, 0);
    assert!(!h.deliver(0, p1.clone()).is_empty(), "{rule}: height 1 is acted on");
    let mut tip = b1.clone();
    let tags = 2..2 * WINDOW + 3;
    let blocks = tags.map(|tag| {
        tip = R::proposal(&tip, tag).0;
        tip.clone()
    });
    let blocks = blocks.collect();
    let reply = R::Payload::from_shared(Shared::RepairReply { blocks, view: 1 });
    h.deliver(R::REPAIRER, signed::<R>(reply, 1, pki, R::REPAIRER));
    assert_eq!(h.actor().floor(), WINDOW + 2, "{rule}: the repair committed past the window");
    (h, b1, p1)
}

/// Delivers `msg` and asserts that it caused nothing: no output, no
/// verify or hash charge, no change to the commit or the view.
fn assert_ignored<R: Family>(h: &mut Harness<Smr<R>>, from: NodeId, msg: Msg<R>, what: &str) {
    use eesmr_energy::EnergyCategory::{Hash, Verify};
    let rule = R::NAME;
    let charged = |h: &Harness<Smr<R>>| [Verify, Hash].map(|c| h.meter().count(c));
    let (charges, log) = (charged(h), h.actor().committed().to_vec());
    let out = h.deliver(from, msg);
    assert!(out.is_empty(), "{rule}: {what}: {out:?}");
    assert_eq!(charged(h), charges, "{rule}: {what}: no verify or hash charge");
    assert_eq!(h.actor().committed(), log, "{rule}: {what}: the commit is unchanged");
    assert!(!h.actor().view_aborted, "{rule}: {what}: the view goes on");
    assert_eq!(h.actor().metrics().equivocations_detected, 0, "{rule}: {what}: no blame");
}

fn stale_messages_cause_nothing<R: Family>() {
    let pki = pki();
    let (mut h, b1, p1) = past_the_floor::<R>(&pki);
    assert_ignored(&mut h, 0, p1, "a copy of the pruned proposal");
    let (_, twin) = R::proposal(&Block::genesis(), 99);
    assert_ignored(&mut h, 0, signed::<R>(twin, 1, &pki, 0), "a twin below the floor");
    if let Some(vote) = R::vote(&b1) {
        assert_ignored(&mut h, 2, signed::<R>(vote, 1, &pki, 2), "a vote below the floor");
    }
    // A vote's height is not signed: a relay may rewrite it.
    let (unknown, _) = R::proposal(&Block::genesis(), 98);
    let far = Block::new(unknown.parent, u64::MAX, 1, unknown.round, unknown.payload.clone());
    if let Some(vote) = R::vote(&far) {
        let vote = signed::<R>(vote, 1, &pki, 2);
        assert_ignored(&mut h, 2, vote, "a vote for an unknown block far above the window");
    }
}

#[test]
fn a_proposal_or_vote_below_the_commit_floor_causes_nothing() {
    stale_messages_cause_nothing::<EesmrRule>();
    stale_messages_cause_nothing::<HsRule>();
    stale_messages_cause_nothing::<TrustedRule>();
}

#[test]
fn an_upload_below_the_hubs_floor_is_not_taken_again() {
    let pki = pki();
    let upload = |spoke: NodeId, seq: u64| {
        let batch = vec![Command::synthetic(u64::from(spoke) * 1_000 + seq, 16)];
        signed::<TrustedRule>(TbPayload::Upload { batch: batch.into(), seq }, 1, &pki, spoke)
    };
    let config = TrustedRule::config(1);
    let mut h = Harness::new(HUB, TbReplica::new(HUB, config, pki.clone(), FaultMode::Honest));
    h.start();
    // The commands of the block a tick cuts, if it cuts one.
    let tick = |h: &mut Harness<TbReplica>| {
        let out = h.fire(TimerToken::Order);
        sent::<TrustedRule, _>(&out, |p| Some(p.proposal()?.0.payload.len()))
    };
    // Spoke 2's uploads carry the hub to height W − 1 (what it takes below
    // W it keeps for the run), spoke 1's goes into height W, and spoke 2's
    // carry the floor past it.
    for seq in 0..WINDOW - 1 {
        h.deliver(2, upload(2, seq));
        tick(&mut h);
    }
    h.deliver(1, upload(1, 0));
    assert_eq!(tick(&mut h), vec![(None, 1)], "spoke 1's upload goes into height W");
    for seq in WINDOW - 1..2 * WINDOW {
        h.deliver(2, upload(2, seq));
        tick(&mut h);
    }
    assert_eq!(h.actor().floor(), WINDOW + 1, "the hub committed past the window");
    let verifies = h.meter().count(eesmr_energy::EnergyCategory::Verify);
    assert!(h.deliver(1, upload(1, 0)).is_empty());
    assert_eq!(h.meter().count(eesmr_energy::EnergyCategory::Verify), verifies, "not checked");
    assert_eq!(tick(&mut h), vec![], "a stormed copy below the floor is not taken again");
    h.deliver(1, upload(1, 1));
    assert_eq!(tick(&mut h), vec![(None, 1)], "the spoke's next upload is");
}

// ----------------------------------------------------------------------
// Early input: parked until it can be judged.
// ----------------------------------------------------------------------

/// What accepting a proposal emits: EESMR relays it, Sync HotStuff votes.
fn acceptance<R: Family>(block: &Block) -> MsgKind {
    R::vote(block).map_or(MsgKind::Propose, |vote| vote.tag())
}

/// How many entries the replica's bookkeeping table `table` holds.
fn held<R: Family>(h: &Harness<Smr<R>>, table: &str) -> usize {
    let tables = h.actor().bookkeeping();
    tables.iter().find(|(name, _)| *name == table).unwrap_or_else(|| panic!("{table}")).1
}

/// A fresh view-1 replica parks view 2's proposal and the two blames that
/// quit view 2 unread: no output, no verify or hash charge. A repair that
/// moves it into view 2 replays them in arrival order: the proposal is
/// accepted, then the blames certify and quit the view. (Replayed blames
/// first, the view would be over before the proposal is judged.)
fn later_views_wait_for_their_view<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let mut h = replica::<R>(3, &pki, 1);
    let (b1, _) = R::proposal(&Block::genesis(), 1);
    let (b2, _) = R::proposal(&b1, 2);
    // As view 2's leader, node 1, cuts it.
    let b2 = Block::new(b2.parent, b2.height, 2, b2.round, b2.payload.clone());
    let proposal = signed::<R>(R::propose(b2.clone()), 2, &pki, 1);
    assert_ignored(&mut h, 1, proposal, "a view-2 proposal");
    for signer in [0, 2] {
        let blame = R::Payload::from_shared(Shared::Blame { proof: None });
        assert_ignored(&mut h, signer, signed::<R>(blame, 2, &pki, signer), "a view-2 blame");
    }
    assert_eq!(held(&h, "parked_later"), 3, "{rule}");
    let reply = R::Payload::from_shared(Shared::RepairReply { blocks: vec![b1], view: 2 });
    let out = h.deliver(R::REPAIRER, signed::<R>(reply, 1, &pki, R::REPAIRER));
    assert_eq!(h.actor().current_view(), 2, "{rule}: the repair adopted view 2");
    let replayed = sent::<R, _>(&out, |p| Some(p.tag()));
    let expected = vec![(None, acceptance::<R>(&b2)), (None, MsgKind::BlameQc)];
    assert_eq!(replayed, expected, "{rule}: in arrival order");
    assert_eq!(held(&h, "parked_later"), 0, "{rule}");
}

/// A proposal of the current view whose parent the replica lacks asks the
/// node it came from for the parent, once, and emits nothing else: no
/// relay, vote or timer. Another copy from another node, and another slot's
/// proposal naming the same parent, ask nothing more. The response that
/// carries the parent replays all three: the proposal is accepted once,
/// the copy is a duplicate, and the other slot's block, two heights above
/// its parent, is refused.
fn an_orphan_waits_for_its_parent<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let mut h = replica::<R>(1, &pki, 1);
    let (b1, _) = R::proposal(&Block::genesis(), 1);
    let (b2, _) = R::proposal(&b1, 2);
    let proposal = signed::<R>(R::propose(b2.clone()), 1, &pki, 0);
    let out = h.deliver(2, proposal.clone());
    let asked = sent::<R, _>(&out, |p| match p.shared()? {
        Shared::SyncRequest { want } => Some(*want),
        _ => None,
    });
    assert_eq!(asked, vec![(Some(2), b1.id())], "{rule}: one request, to the sender");
    assert_eq!(out.len(), 1, "{rule}: no relay, vote or timer: {out:?}");
    let other =
        Block::new(b1.id(), b2.height + 1, 1, b2.round + 1, vec![Command::synthetic(9, 16)]);
    let other = signed::<R>(R::propose(other), 1, &pki, 0);
    for (what, msg) in [("a copy", proposal), ("another slot's proposal", other)] {
        let out = h.deliver(3, msg);
        assert!(out.is_empty(), "{rule}: {what} on the same parent asks nothing more: {out:?}");
    }
    assert_eq!((held(&h, "orphans"), held(&h, "sync_requested")), (3, 1), "{rule}");
    let rejected = h.actor().metrics().proposals_rejected;
    let response = R::Payload::from_shared(Shared::SyncResponse { blocks: vec![b1] });
    let out = h.deliver(2, signed::<R>(response, 1, &pki, 2));
    let replayed = sent::<R, _>(&out, |p| Some(p.tag()));
    assert_eq!(replayed, vec![(None, acceptance::<R>(&b2))], "{rule}: accepted once");
    assert_eq!(h.actor().metrics().proposals_rejected, rejected + 1, "{rule}: the gapped one");
    assert_eq!((held(&h, "orphans"), held(&h, "sync_requested")), (0, 0), "{rule}");
}

#[test]
fn an_envelope_of_a_later_view_replays_in_arrival_order_once_its_view_is_entered() {
    later_views_wait_for_their_view::<EesmrRule>();
    later_views_wait_for_their_view::<HsRule>();
}

#[test]
fn an_orphan_asks_its_sender_once_and_replays_when_its_parent_is_stored() {
    an_orphan_waits_for_its_parent::<EesmrRule>();
    an_orphan_waits_for_its_parent::<HsRule>();
}

// ----------------------------------------------------------------------
// The trusted baseline.
// ----------------------------------------------------------------------

#[test]
fn the_trusted_rule_runs_the_dispatch_and_repair_cases() {
    shared_variants_carry_the_shared_tags::<TrustedRule>();
    broken_repair_chains_change_nothing::<TrustedRule>();
    forged_repair_reply_is_rejected::<TrustedRule>();
}

#[test]
fn a_repair_reply_signed_by_a_spoke_changes_nothing() {
    let pki = pki();
    let mut h = replica::<TrustedRule>(1, &pki, 1);
    let (b1, _) = TrustedRule::proposal(&Block::genesis(), 1);
    let (b2, _) = TrustedRule::proposal(&b1, 2);
    // A sound suffix, validly signed — by spoke 2, whose word is not taken.
    let reply = signed::<TrustedRule>(
        TbPayload::from_shared(Shared::RepairReply { blocks: vec![b1, b2], view: 1 }),
        1,
        &pki,
        2,
    );
    let out = h.deliver(2, reply);
    assert_untouched(&h, &out, "a spoke's reply");
    assert_eq!(h.meter().count(eesmr_energy::EnergyCategory::Verify), 0, "not even checked");
}

#[test]
fn the_hub_orders_a_ticks_uploads_by_seq_and_spoke_not_by_arrival() {
    let pki = pki();
    let upload = |spoke: NodeId, seq: u64| {
        let batch = vec![Command::synthetic(u64::from(spoke) * 100 + seq, 16)];
        signed::<TrustedRule>(TbPayload::Upload { batch: batch.into(), seq }, 1, &pki, spoke)
    };
    let uploads: Vec<(NodeId, u64)> = vec![(3, 0), (1, 1), (2, 0), (1, 0), (3, 1)];
    let block_after = |arrivals: &[(NodeId, u64)]| {
        let config = TrustedRule::config(1);
        let mut h = Harness::new(HUB, TbReplica::new(HUB, config, pki.clone(), FaultMode::Honest));
        h.start();
        for &(spoke, seq) in arrivals {
            h.deliver(spoke, upload(spoke, seq));
        }
        let out = h.fire(TimerToken::Order);
        let blocks = sent::<TrustedRule, _>(&out, |p| Some(p.proposal()?.0.clone()));
        let [(None, block)] = blocks.as_slice() else { panic!("one block, k-cast: {out:?}") };
        block.clone()
    };
    let mut reversed = uploads.clone();
    reversed.reverse();
    reversed.push((2, 0)); // a stormed copy is taken once
    let (a, b) = (block_after(&uploads), block_after(&reversed));
    assert_eq!(a, b, "the same uploads make the same block");
    let ordered: [(u64, u64); 5] = [(1, 0), (2, 0), (3, 0), (1, 1), (3, 1)];
    let expected: Vec<Command> =
        ordered.iter().map(|&(spoke, seq)| Command::synthetic(spoke * 100 + seq, 16)).collect();
    assert_eq!(a.payload.iter().cloned().collect::<Vec<_>>(), expected, "(seq, spoke) order");
}
