//! The vote book of a Sync HotStuff / OptSync replica, driven through the
//! single-actor harness: the certificate a leader justifies its next
//! proposal with (which signers it carries and in which order, whatever
//! order their votes arrive in), and the book as the memo a replica checks
//! that certificate against — a quoted vote it already verified costs no
//! second HMAC, and nothing else about the check changes.

use std::sync::Arc;

use eesmr_baselines::sync_hotstuff::{HsConfig, HsFault, HsMsg, HsPayload, HsReplica, HsVariant};
use eesmr_core::message::signing_bytes;
use eesmr_core::{Block, Command, Envelope, MsgKind, QuorumCert, TimerToken};
use eesmr_crypto::sha256::compressions;
use eesmr_crypto::{Digest, KeyStore, SigScheme, Signature};
use eesmr_energy::EnergyCategory;
use eesmr_net::harness::{Harness, Output};
use eesmr_net::{NodeId, SimDuration};

const N: usize = 7; // certificate quorum 4, OptSync's fast quorum 6; node 0 leads view 1

/// The proposals among `out`.
fn proposals(out: &[Output<HsMsg, TimerToken>]) -> Vec<HsMsg> {
    out.iter()
        .filter_map(Output::message)
        .filter(|m| matches!(m.payload, HsPayload::Propose { .. }))
        .cloned()
        .collect()
}

fn next_proposal_justifies_with_the_lowest_signers(variant: HsVariant) {
    let pki = Arc::new(KeyStore::generate(N, SigScheme::Rsa1024, 17));
    let config = HsConfig::new(N, SimDuration::from_millis(10), variant);
    let quorum = config.cert_quorum();
    let mut h = Harness::new(0, HsReplica::new(0, config, pki.clone(), HsFault::Honest));
    let [first] = proposals(&h.start()).try_into().expect("the leader proposes on start");
    let HsPayload::Propose { block, .. } = &first.payload else { unreachable!() };
    let (block_id, height) = (block.id(), block.height);
    // The loopback copy: the leader votes for its own block.
    h.deliver(0, first);
    // Every other node's vote, those completing the quorum in descending
    // id order: arrival order is not the certificate's order.
    let mut out = Vec::new();
    for signer in [3, 2, 1, 6, 5, 4] {
        let vote = Envelope::new(HsPayload::Vote { block_id, height }, 1, pki.keypair(signer));
        out.extend(h.deliver(signer, vote));
    }
    if variant == HsVariant::SyncHotStuff {
        // No responsive path: the next proposal waits for the 2Δ commit.
        assert!(proposals(&out).is_empty(), "{variant:?}: the leader waits for its commit");
        out = h.fire(TimerToken::Commit { view: 1, block: block_id });
    }
    let [next] = proposals(&out).try_into().expect("one next proposal");
    let HsPayload::Propose { block, justify: Some(qc) } = &next.payload else {
        panic!("{variant:?}: the next proposal carries its parent's certificate: {next:?}")
    };
    assert_eq!((block.parent, qc.data), (block_id, block_id), "{variant:?}");
    let signers: Vec<NodeId> = qc.sigs.iter().map(|(n, _)| *n).collect();
    let lowest: Vec<NodeId> = (0..quorum as NodeId).collect();
    assert_eq!(signers, lowest, "{variant:?}: the first n/2+1 signers, ascending");
}

#[test]
fn the_next_proposal_is_justified_by_signers_zero_to_quorum_in_ascending_order() {
    next_proposal_justifies_with_the_lowest_signers(HsVariant::SyncHotStuff);
    next_proposal_justifies_with_the_lowest_signers(HsVariant::OptSync);
}

// ----------------------------------------------------------------------
// The vote book as the memo a certificate is checked against.
// ----------------------------------------------------------------------

const VARIANTS: [HsVariant; 2] = [HsVariant::SyncHotStuff, HsVariant::OptSync];

/// Node 1 of view 1, holding the leader's first proposal `b1`, having voted
/// for it and having been handed the votes of `voters` in that order.
fn voter(
    variant: HsVariant,
    pki: &Arc<KeyStore>,
    voters: &[NodeId],
) -> (Harness<HsReplica>, Block) {
    let config = HsConfig::new(N, SimDuration::from_millis(10), variant);
    let mut leader =
        Harness::new(0, HsReplica::new(0, config.clone(), pki.clone(), HsFault::Honest));
    let [first] = proposals(&leader.start()).try_into().expect("the leader proposes on start");
    let HsPayload::Propose { block, .. } = &first.payload else { unreachable!() };
    let b1 = block.clone();
    let mut h = Harness::new(1, HsReplica::new(1, config, pki.clone(), HsFault::Honest));
    h.start();
    h.deliver(0, first);
    for &signer in voters {
        let vote = HsPayload::Vote { block_id: b1.id(), height: b1.height };
        h.deliver(signer, Envelope::new(vote, 1, pki.keypair(signer)));
    }
    (h, b1)
}

/// `signer`'s vote signature for `b1` in `view`.
fn vote_sig(pki: &KeyStore, signer: NodeId, view: u64, b1: &Block) -> (NodeId, Signature) {
    (signer, pki.keypair(signer).sign(&signing_bytes(MsgKind::HsVote, view, &b1.id())))
}

/// The leader's view-1 proposal of a block on `b1`, justified by `sigs`
/// claimed as a certificate of `view`.
fn justified(pki: &KeyStore, b1: &Block, view: u64, sigs: Vec<(NodeId, Signature)>) -> HsMsg {
    let qc = QuorumCert { kind: MsgKind::HsVote, view, data: b1.id(), height: b1.height, sigs };
    let block = Block::extending(b1, 1, b1.height + 1, vec![Command::synthetic(7, 8)]);
    Envelope::new(HsPayload::Propose { block, justify: Some(qc) }, 1, pki.keypair(0))
}

/// Delivers `proposal` and returns whether it was accepted, the signature
/// checks charged for it and the SHA-256 compressions it cost.
fn check(h: &mut Harness<HsReplica>, proposal: HsMsg) -> (bool, u64, u64) {
    let (rejected, charged) =
        (h.actor().metrics().proposals_rejected, h.meter().count(EnergyCategory::Verify));
    let at = compressions();
    h.deliver(0, proposal);
    let cost = compressions() - at;
    let accepted = h.actor().metrics().proposals_rejected == rejected;
    (accepted, h.meter().count(EnergyCategory::Verify) - charged, cost)
}

/// Certificates built from votes node 1 verified, each wrong in one way.
/// Every one is rejected, and charged the signature checks the check
/// without a memo performs: one for the proposal's envelope, then one per
/// certificate signature up to the first that fails (a repeated signer
/// fails before it is checked, a short certificate after all are).
#[test]
fn a_certificate_that_misquotes_verified_votes_is_rejected_at_the_same_charge() {
    let pki = Arc::new(KeyStore::generate(N, SigScheme::Rsa1024, 17));
    for variant in VARIANTS {
        let (_, b1) = voter(variant, &pki, &[]);
        let sig = |signer| vote_sig(&pki, signer, 1, &b1);
        let retagged = (0, Signature::from_wire(0, SigScheme::Rsa1024, Digest::of(b"retagged")));
        let cases = [
            (
                "a verified vote's exact tag, claimed for view 2",
                (0..4).map(sig).collect::<Vec<_>>(),
                2,
                1 + 1,
            ),
            (
                "a verified signer with a different tag",
                vec![sig(1), sig(2), retagged, sig(3)],
                1,
                1 + 3,
            ),
            ("a repeated signer", vec![sig(0), sig(1), sig(1), sig(2)], 1, 1 + 2),
            ("one signature short of n/2+1", vec![sig(0), sig(1), sig(2)], 1, 1 + 3),
            ("control: a sound certificate", (0..4).map(sig).collect(), 1, 1 + 4),
        ];
        for (what, sigs, view, charges) in cases {
            let (mut h, b1) = voter(variant, &pki, &[3, 2, 0, 6, 5, 4]);
            let (accepted, charged, _) = check(&mut h, justified(&pki, &b1, view, sigs));
            assert_eq!(accepted, what.starts_with("control"), "{variant:?}: {what}");
            assert_eq!(charged, charges, "{variant:?}: {what}: signature checks charged");
        }
    }
}

/// The same sound certificate, checked by a replica that verified the
/// quoted votes and by one that only cast its own: both accept it and are
/// charged alike, and the first recomputes no HMAC of a vote it verified —
/// two compressions for each of the three.
#[test]
fn a_quoted_vote_verified_before_costs_no_second_hmac() {
    let pki = Arc::new(KeyStore::generate(N, SigScheme::Rsa1024, 17));
    for variant in VARIANTS {
        let (mut informed, b1) = voter(variant, &pki, &[3, 2, 0]);
        let (mut unaware, _) = voter(variant, &pki, &[]);
        let sigs = || (0..4).map(|signer| vote_sig(&pki, signer, 1, &b1)).collect();
        let (ok_informed, charged_informed, cost_informed) =
            check(&mut informed, justified(&pki, &b1, 1, sigs()));
        let (ok_unaware, charged_unaware, cost_unaware) =
            check(&mut unaware, justified(&pki, &b1, 1, sigs()));
        assert!(ok_informed && ok_unaware, "{variant:?}");
        assert_eq!(charged_informed, charged_unaware, "{variant:?}: the same energy");
        assert_eq!(cost_unaware - cost_informed, 3 * 2, "{variant:?}: votes 0, 2, 3");
    }
}
