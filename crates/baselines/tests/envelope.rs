//! The signed envelope's contract, checked once, generically, for both
//! payload families that ride in it (`SignedMsg` and `HsMsg`).

use eesmr_baselines::sync_hotstuff::HsPayload;
use eesmr_core::message::signing_bytes;
use eesmr_core::{Block, Command, Envelope, MsgKind, Payload, QuorumCert, SignedPayload};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_net::{Message, NodeId, WireCodec};

fn pki() -> KeyStore {
    KeyStore::generate(4, SigScheme::Rsa1024, 99)
}

/// A payload family that can make a proposal for `(view, round)`.
trait Family: SignedPayload + PartialEq {
    /// The kind a certificate over this family's votes carries.
    const VOTE: MsgKind;
    fn proposal(block: Block, round: u64) -> Self;
    fn justified(block: Block, round: u64, justify: QuorumCert) -> Self;
    fn blame(proof: (Envelope<Self>, Envelope<Self>)) -> Self;
}

impl Family for Payload {
    const VOTE: MsgKind = MsgKind::Certify;
    fn proposal(block: Block, round: u64) -> Self {
        Payload::Propose { block, round, justify: None }
    }
    fn justified(block: Block, round: u64, justify: QuorumCert) -> Self {
        Payload::Propose { block, round, justify: Some(justify) }
    }
    fn blame(proof: (Envelope<Self>, Envelope<Self>)) -> Self {
        Payload::Blame { proof: Some(Box::new(proof)) }
    }
}

impl Family for HsPayload {
    const VOTE: MsgKind = MsgKind::HsVote;
    fn proposal(block: Block, _round: u64) -> Self {
        HsPayload::Propose { block, justify: None }
    }
    fn justified(block: Block, _round: u64, justify: QuorumCert) -> Self {
        HsPayload::Propose { block, justify: Some(justify) }
    }
    fn blame(proof: (Envelope<Self>, Envelope<Self>)) -> Self {
        HsPayload::Blame { proof: Some(Box::new(proof)) }
    }
}

fn propose<P: Family>(view: u64, round: u64, pki: &KeyStore, signer: NodeId) -> Envelope<P> {
    let block = Block::extending(&Block::genesis(), view, round, vec![]);
    Envelope::new(P::proposal(block, round), view, pki.keypair(signer))
}

/// Node 0's view-1 proposal of a one-command block, justified by a
/// three-signature certificate over its parent.
fn justified<P: Family>(pki: &KeyStore) -> Envelope<P> {
    let parent = Block::extending(&Block::genesis(), 1, 3, vec![]);
    let block = Block::extending(&parent, 1, 4, vec![Command::synthetic(1, 8)]);
    let bytes = signing_bytes(P::VOTE, 1, &parent.id());
    let sigs = (0..3u32).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
    let justify = QuorumCert { kind: P::VOTE, view: 1, data: parent.id(), height: 1, sigs };
    Envelope::new(P::justified(block, 4, justify), 1, pki.keypair(0))
}

/// Node 2's view-1 blame proving that node 0 proposed two blocks for one
/// round.
fn blame_with_proof<P: Family>(pki: &KeyStore) -> Envelope<P> {
    let first = propose::<P>(1, 3, pki, 0);
    let other = Block::extending(&Block::genesis(), 1, 3, vec![Command::synthetic(2, 8)]);
    let second = Envelope::new(P::proposal(other, 3), 1, pki.keypair(0));
    Envelope::new(P::blame((first, second)), 1, pki.keypair(2))
}

#[test]
fn sign_verify_round_trip() {
    fn check<P: Family>(pki: &KeyStore) {
        let msg = propose::<P>(1, 3, pki, 0);
        assert!(msg.verify_sig(pki));
        assert!(msg.matches(MsgKind::Propose, 1));
        assert!(!msg.matches(MsgKind::Blame, 1));
        assert!(!msg.matches(MsgKind::Propose, 2));
    }
    check::<Payload>(&pki());
    check::<HsPayload>(&pki());
}

#[test]
fn tampered_signer_fails() {
    fn check<P: Family>(pki: &KeyStore) {
        let msg = propose::<P>(1, 3, pki, 0);
        let msg = Envelope::from_parts(msg.payload.clone(), msg.view, 1, msg.sig.clone());
        assert!(!msg.verify_sig(pki));
    }
    check::<Payload>(&pki());
    check::<HsPayload>(&pki());
}

#[test]
fn flood_keys_distinguish_messages() {
    fn check<P: Family>(pki: &KeyStore) {
        let m1 = propose::<P>(1, 3, pki, 0);
        let m2 = propose::<P>(1, 4, pki, 0);
        let m3 = propose::<P>(2, 3, pki, 0);
        let m4 = propose::<P>(1, 3, pki, 1);
        assert_ne!(m1.flood_key(), m2.flood_key());
        assert_ne!(m1.flood_key(), m3.flood_key());
        assert_ne!(m1.flood_key(), m4.flood_key());
        assert_eq!(m1.flood_key(), m1.clone().flood_key());
    }
    check::<Payload>(&pki());
    check::<HsPayload>(&pki());
}

#[test]
fn envelope_clones_share_one_allocation() {
    fn check<P: Family>(pki: &KeyStore) {
        for msg in [justified::<P>(pki), blame_with_proof::<P>(pki)] {
            let copy = msg.clone();
            assert!(std::ptr::eq(&*msg, &*copy), "a clone is the same message, not a copy");
            // The decoder builds a new handle with equal content, which
            // still verifies.
            let back = Envelope::<P>::decode(&msg.encode()).expect("decodes");
            assert!(!std::ptr::eq(&*msg, &*back));
            assert_eq!(back, msg);
            assert!(back.verify_sig(pki));
        }
    }
    check::<Payload>(&pki());
    check::<HsPayload>(&pki());
}

#[test]
fn debug_prints_the_message_not_the_handle() {
    // Reports and failure messages print messages through `{:?}`: the
    // handle is invisible there, exactly as the plain struct printed.
    let pki = pki();
    assert_eq!(
        format!("{:?}", justified::<Payload>(&pki)),
        "Envelope { payload: Propose { block: Block(BlockInner { id: Digest(d3327e88), \
         parent: Digest(591e8d13), height: 2, view: 1, round: 4, payload: \
         Commands([Command([1, 0, 0, 0, 0, 0, 0, 0])]) }), round: 4, justify: \
         Some(QuorumCert { kind: Certify, view: 1, data: Digest(591e8d13), height: 1, sigs: \
         [(0, Sig(by=0, RSA 1024-bit, 918f569d)), (1, Sig(by=1, RSA 1024-bit, 19218c43)), \
         (2, Sig(by=2, RSA 1024-bit, 53919aa9))] }) }, view: 1, signer: 0, sig: \
         Sig(by=0, RSA 1024-bit, 68a60a3b) }"
    );
    assert_eq!(
        format!("{:?}", blame_with_proof::<Payload>(&pki)),
        "Envelope { payload: Blame { proof: Some((Envelope { payload: Propose { block: \
         Block(BlockInner { id: Digest(591e8d13), parent: Digest(b2eee420), height: 1, view: \
         1, round: 3, payload: Commands([]) }), round: 3, justify: None }, view: 1, signer: 0, \
         sig: Sig(by=0, RSA 1024-bit, f0814861) }, Envelope { payload: Propose { block: \
         Block(BlockInner { id: Digest(09b1f4fe), parent: Digest(b2eee420), height: 1, view: \
         1, round: 3, payload: Commands([Command([2, 0, 0, 0, 0, 0, 0, 0])]) }), round: 3, \
         justify: None }, view: 1, signer: 0, sig: Sig(by=0, RSA 1024-bit, ea701fd5) })) }, \
         view: 1, signer: 2, sig: Sig(by=2, RSA 1024-bit, 15d0b33c) }"
    );
    assert_eq!(
        format!("{:?}", justified::<HsPayload>(&pki)),
        "Envelope { payload: Propose { block: Block(BlockInner { id: Digest(d3327e88), \
         parent: Digest(591e8d13), height: 2, view: 1, round: 4, payload: \
         Commands([Command([1, 0, 0, 0, 0, 0, 0, 0])]) }), justify: Some(QuorumCert { kind: \
         HsVote, view: 1, data: Digest(591e8d13), height: 1, sigs: [(0, Sig(by=0, RSA \
         1024-bit, 2e3ff59e)), (1, Sig(by=1, RSA 1024-bit, d1ab31d6)), (2, Sig(by=2, RSA \
         1024-bit, aad162ea))] }) }, view: 1, signer: 0, sig: Sig(by=0, RSA 1024-bit, \
         b26f9631) }"
    );
    assert_eq!(
        format!("{:?}", blame_with_proof::<HsPayload>(&pki)),
        "Envelope { payload: Blame { proof: Some((Envelope { payload: Propose { block: \
         Block(BlockInner { id: Digest(591e8d13), parent: Digest(b2eee420), height: 1, view: \
         1, round: 3, payload: Commands([]) }), justify: None }, view: 1, signer: 0, sig: \
         Sig(by=0, RSA 1024-bit, 29b86871) }, Envelope { payload: Propose { block: \
         Block(BlockInner { id: Digest(09b1f4fe), parent: Digest(b2eee420), height: 1, view: \
         1, round: 3, payload: Commands([Command([2, 0, 0, 0, 0, 0, 0, 0])]) }), justify: None \
         }, view: 1, signer: 0, sig: Sig(by=0, RSA 1024-bit, 174cd7fd) })) }, view: 1, \
         signer: 2, sig: Sig(by=2, RSA 1024-bit, 8dc8c478) }"
    );
}
