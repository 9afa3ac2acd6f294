//! Hostile inputs against the machine every synchronous-SMR replica shares
//! (`eesmr_core::smr`): blames and equivocation proofs, blame
//! certificates, chain sync, command forwarding, repair. Each case is
//! written once and run against both rules through the single-actor
//! harness, so a line broken in the skeleton fails here for EESMR and for
//! Sync HotStuff alike — and the two places where the rules are *meant* to
//! differ on this path (the sync cap, the proposal slot) are pinned as
//! such.

use std::sync::Arc;

use eesmr_baselines::sync_hotstuff::{HsConfig, HsPayload, HsRule, HsVariant};
use eesmr_core::smr::{Msg, Shared};
use eesmr_core::{
    Block, Command, Config, EesmrRule, Envelope, FaultMode, MsgKind, Payload, QuorumCert, Rule,
    SignedPayload, Smr, SmrPayload, TimerToken, WorkloadSource,
};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_net::codec::WireEnum;
use eesmr_net::harness::{Harness, Output};
use eesmr_net::{NodeId, SimDuration};

const N: usize = 4; // f = 1: two blames certify; node 0 leads view 1
const DELTA_US: u64 = 2_000;

/// What a case needs to know about a rule beyond [`Rule`]: a
/// configuration, and how its family spells a proposal.
trait Family: Rule + 'static {
    /// Ancestors one `SyncResponse` carries — the rules differ, on record.
    const SYNC_CAP: usize;
    fn config(forward_batch: usize) -> Self::Config;
    /// A proposal of a block on `parent`, in the slot after `parent`'s,
    /// carrying one command derived from `tag`.
    fn proposal(parent: &Block, tag: u64) -> (Block, Self::Payload);
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
    pick: impl Fn(Shared<'a, R::Payload>) -> Option<T>,
) -> Vec<(Option<NodeId>, T)> {
    out.iter()
        .filter_map(|o| match o {
            Output::Multicast(m) => Some((None, m)),
            Output::Flood { msg, target } => Some((*target, msg)),
            _ => None,
        })
        .filter_map(|(target, m)| Some((target, pick(m.payload.shared()?)?)))
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
        (MsgKind::Blame, R::Payload::blame(None)),
        (MsgKind::BlameQc, R::Payload::blame_qc(blame_qc::<R>(1, &[2, 3], &pki()))),
        (MsgKind::SyncRequest, R::Payload::sync_request(b1.id())),
        (MsgKind::SyncResponse, R::Payload::sync_response(vec![b1.clone()])),
        (MsgKind::Forward, R::Payload::forward(vec![Command::synthetic(1, 16)].into())),
        (MsgKind::Repair, R::Payload::repair(0)),
        (MsgKind::RepairReply, R::Payload::repair_reply(vec![b1], 1)),
    ];
    for (kind, payload) in payloads {
        assert_eq!(payload.tag(), kind, "{}: {payload:?}", R::NAME);
        let same_variant = matches!(
            (kind, payload.shared()),
            (MsgKind::Propose, Some(Shared::Propose(..)))
                | (MsgKind::Blame, Some(Shared::Blame(..)))
                | (MsgKind::BlameQc, Some(Shared::BlameQc(..)))
                | (MsgKind::SyncRequest, Some(Shared::SyncRequest(..)))
                | (MsgKind::SyncResponse, Some(Shared::SyncResponse(..)))
                | (MsgKind::Forward, Some(Shared::Forward(..)))
                | (MsgKind::Repair, Some(Shared::Repair(..)))
                | (MsgKind::RepairReply, Some(Shared::RepairReply(..)))
        );
        assert!(same_variant, "{}: {kind:?} reads as {:?}", R::NAME, payload.shared());
    }
}

#[test]
fn the_shared_variants_carry_the_shared_tags_in_both_families() {
    shared_variants_carry_the_shared_tags::<EesmrRule>();
    shared_variants_carry_the_shared_tags::<HsRule>();
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
    let blame = signed::<R>(R::Payload::blame(Some(Box::new((first, twin)))), 1, &pki, 2);
    let out = h.deliver(2, blame);
    assert_eq!(h.actor().metrics().equivocations_detected, 1, "{rule}");
    assert!(out.iter().any(|o| matches!(o, Output::CancelTimer(_))), "{rule}: commits cancelled");
    let relayed = sent::<R, _>(&out, |p| match p {
        Shared::Blame(proof) => Some(proof.is_some()),
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
        let blame =
            signed::<R>(R::Payload::blame(Some(Box::new((first.clone(), second)))), 1, &pki, 2);
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

// ----------------------------------------------------------------------
// Blames and blame certificates.
// ----------------------------------------------------------------------

fn duplicate_blames_count_once<R: Family>() {
    let rule = R::NAME;
    let pki = pki();
    let mut h = replica::<R>(1, &pki, 1);
    let blame = |signer| signed::<R>(R::Payload::blame(None), 1, &pki, signer);
    for _ in 0..3 {
        let out = h.deliver(2, blame(2));
        assert!(out.is_empty(), "{rule}: one signer, however often, is one blame");
    }
    // A second signer completes f + 1 = 2.
    let out = h.deliver(3, blame(3));
    let certs = sent::<R, _>(&out, |p| match p {
        Shared::BlameQc(qc) => Some(qc.sigs.iter().map(|(n, _)| *n).collect::<Vec<_>>()),
        _ => None,
    });
    assert_eq!(certs, vec![(None, vec![2, 3])], "{rule}: the certificate is flooded");
    assert!(quit_scheduled::<R>(&out), "{rule}: the Δ quit wait is armed");
}

fn blame_qc<R: Family>(view: u64, signers: &[NodeId], pki: &KeyStore) -> QuorumCert {
    let data = R::Payload::blame(None).signing_digest(view);
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
        let out = h.deliver(2, signed::<R>(R::Payload::blame_qc(qc), 1, &pki, 2));
        assert!(out.is_empty(), "{rule}: {what}");
        assert!(!h.actor().view_aborted, "{rule}: {what}");
    }
    let mut h = replica::<R>(1, &pki, 1);
    let valid = blame_qc::<R>(1, &[2, 3], &pki);
    let out = h.deliver(2, signed::<R>(R::Payload::blame_qc(valid), 1, &pki, 2));
    assert!(quit_scheduled::<R>(&out), "{rule}: f + 1 valid blames for this view quit it");
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
    let out = h.deliver(3, signed::<R>(R::Payload::sync_request(tip.id()), 1, &pki, 3));
    let replies = sent::<R, _>(&out, |p| match p {
        Shared::SyncResponse(blocks) => Some(blocks.to_vec()),
        _ => None,
    });
    let [(Some(3), blocks)] = replies.as_slice() else {
        panic!("{rule}: one reply, to the requester: {replies:?}")
    };
    assert_eq!(blocks.len(), 40.min(R::SYNC_CAP), "{rule}");
    assert_eq!(blocks[0].id(), tip.id(), "{rule}: nearest first");
    assert!(blocks.windows(2).all(|w| w[0].parent == w[1].id()), "{rule}: a gap-free walk");

    let forged = signed::<R>(R::Payload::sync_request(tip.id()), 1, &outsiders(), 3);
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
    sent::<R, _>(out, |p| match p {
        Shared::Forward(commands) => Some(commands.iter().cloned().collect()),
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
    let stray =
        |keys: &KeyStore| signed::<R>(R::Payload::forward(vec![cmd.clone()].into()), 1, keys, 3);
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
    for (what, blocks) in cases {
        let mut h = replica::<R>(1, &pki, 1);
        let out = h.deliver(2, signed::<R>(R::Payload::repair_reply(blocks, 7), 1, &pki, 2));
        assert_untouched(&h, &out, what);
    }
    // Control: the same blocks, linked and rooted, are committed.
    let mut h = replica::<R>(1, &pki, 1);
    h.deliver(2, signed::<R>(R::Payload::repair_reply(vec![b1, b2], 1), 1, &pki, 2));
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
    let forged = signed::<R>(R::Payload::repair_reply(vec![b1, b2], 1_000_000), 1, &outsiders(), 2);
    let out = h.deliver(2, forged);
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
