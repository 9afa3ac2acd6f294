//! The signed envelope's contract, checked once, generically, for the
//! payload families that ride in it (`SignedMsg`, `HsMsg`, and for the
//! shared variants' digests `TbMsg`).

use eesmr_baselines::sync_hotstuff::HsPayload;
use eesmr_baselines::trusted::TbPayload;
use eesmr_core::message::signing_bytes;
use eesmr_core::{Block, Command, Envelope, MsgKind, Payload, QuorumCert, Shared, SmrPayload};
use eesmr_crypto::{Digest, KeyStore, SigScheme};
use eesmr_net::{Message, NodeId, WireCodec};

fn pki() -> KeyStore {
    KeyStore::generate(4, SigScheme::Rsa1024, 99)
}

/// A payload family that can make a proposal for `(view, round)`.
trait Family: SmrPayload + PartialEq {
    /// The kind a certificate over this family's votes carries.
    const VOTE: MsgKind;
    fn unjustified(block: Block, round: u64) -> Self;
    fn justified(block: Block, round: u64, justify: QuorumCert) -> Self;
}

impl Family for Payload {
    const VOTE: MsgKind = MsgKind::Certify;
    fn unjustified(block: Block, round: u64) -> Self {
        Payload::Propose { block, round, justify: None }
    }
    fn justified(block: Block, round: u64, justify: QuorumCert) -> Self {
        Payload::Propose { block, round, justify: Some(justify) }
    }
}

impl Family for HsPayload {
    const VOTE: MsgKind = MsgKind::HsVote;
    fn unjustified(block: Block, _round: u64) -> Self {
        HsPayload::Propose { block, justify: None }
    }
    fn justified(block: Block, _round: u64, justify: QuorumCert) -> Self {
        HsPayload::Propose { block, justify: Some(justify) }
    }
}

fn propose<P: Family>(view: u64, round: u64, pki: &KeyStore, signer: NodeId) -> Envelope<P> {
    let block = Block::extending(&Block::genesis(), view, round, vec![]);
    Envelope::new(P::unjustified(block, round), view, pki.keypair(signer))
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
    let second = Envelope::new(P::unjustified(other, 3), 1, pki.keypair(0));
    let proof = Some(Box::new((first, second)));
    Envelope::new(P::from_shared(Shared::Blame { proof }), 1, pki.keypair(2))
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
         [(0, Sig(by=0, RSA 1024-bit, c7f91773)), (1, Sig(by=1, RSA 1024-bit, 7d19dae2)), \
         (2, Sig(by=2, RSA 1024-bit, 69093ac0))] }) }, view: 1, signer: 0, sig: \
         Sig(by=0, RSA 1024-bit, a48d5367) }"
    );
    assert_eq!(
        format!("{:?}", blame_with_proof::<Payload>(&pki)),
        "Envelope { payload: Blame { proof: Some((Envelope { payload: Propose { block: \
         Block(BlockInner { id: Digest(591e8d13), parent: Digest(b2eee420), height: 1, view: \
         1, round: 3, payload: Commands([]) }), round: 3, justify: None }, view: 1, signer: 0, \
         sig: Sig(by=0, RSA 1024-bit, dc9dc4ab) }, Envelope { payload: Propose { block: \
         Block(BlockInner { id: Digest(09b1f4fe), parent: Digest(b2eee420), height: 1, view: \
         1, round: 3, payload: Commands([Command([2, 0, 0, 0, 0, 0, 0, 0])]) }), round: 3, \
         justify: None }, view: 1, signer: 0, sig: Sig(by=0, RSA 1024-bit, 2ef619cd) })) }, \
         view: 1, signer: 2, sig: Sig(by=2, RSA 1024-bit, 7e5392aa) }"
    );
    assert_eq!(
        format!("{:?}", justified::<HsPayload>(&pki)),
        "Envelope { payload: Propose { block: Block(BlockInner { id: Digest(d3327e88), \
         parent: Digest(591e8d13), height: 2, view: 1, round: 4, payload: \
         Commands([Command([1, 0, 0, 0, 0, 0, 0, 0])]) }), justify: Some(QuorumCert { kind: \
         HsVote, view: 1, data: Digest(591e8d13), height: 1, sigs: [(0, Sig(by=0, RSA \
         1024-bit, 93801cfb)), (1, Sig(by=1, RSA 1024-bit, a41fc0da)), (2, Sig(by=2, RSA \
         1024-bit, f5bce9b0))] }) }, view: 1, signer: 0, sig: Sig(by=0, RSA 1024-bit, \
         b60ace8e) }"
    );
    assert_eq!(
        format!("{:?}", blame_with_proof::<HsPayload>(&pki)),
        "Envelope { payload: Blame { proof: Some((Envelope { payload: Propose { block: \
         Block(BlockInner { id: Digest(591e8d13), parent: Digest(b2eee420), height: 1, view: \
         1, round: 3, payload: Commands([]) }), justify: None }, view: 1, signer: 0, sig: \
         Sig(by=0, RSA 1024-bit, 56e771bd) }, Envelope { payload: Propose { block: \
         Block(BlockInner { id: Digest(09b1f4fe), parent: Digest(b2eee420), height: 1, view: \
         1, round: 3, payload: Commands([Command([2, 0, 0, 0, 0, 0, 0, 0])]) }), justify: None \
         }, view: 1, signer: 0, sig: Sig(by=0, RSA 1024-bit, 25aa2681) })) }, view: 1, \
         signer: 2, sig: Sig(by=2, RSA 1024-bit, b03cb524) }"
    );
}

/// The signing digest of every shared variant, per family, over fixed
/// fields in view 7. EESMR and Sync HotStuff sign the same formulas in
/// the domains `""` and `"hs-"`; the trusted baseline's in `"tb-"`.
#[test]
fn shared_signing_digests_are_pinned() {
    fn digests<P: SmrPayload>() -> Vec<String> {
        let b1 = Block::extending(&Block::genesis(), 1, 3, vec![Command::synthetic(1, 8)]);
        let b2 = Block::extending(&b1, 1, 4, vec![]);
        let data = Digest::of(b"qc");
        let qc = QuorumCert { kind: MsgKind::Blame, view: 7, data, height: 0, sigs: vec![] };
        let commands = vec![Command::synthetic(2, 8), Command::synthetic(3, 8)].into();
        [
            Shared::<P>::Blame { proof: None },
            Shared::BlameQc(qc),
            Shared::SyncRequest { want: b1.id() },
            Shared::SyncResponse { blocks: vec![b2.clone(), b1.clone()] },
            Shared::Forward { commands },
            Shared::Repair { from_height: 4 },
            Shared::RepairReply { blocks: vec![b1, b2], view: 6 },
        ]
        .into_iter()
        .map(|shared| P::from_shared(shared).signing_digest(7).to_hex())
        .collect()
    }
    let (qc, want, blocks) = (
        "11a12ca5356a6b4cd6a16055e4101b63bf813f973c707d0b0dfb051ac473acca",
        "c5fc75cea4a812a3c4e74a4040904a6e5a29ab08428de4a08efdd4c3de14380a",
        "e761365db1eb90cc7b2a8756ac47b92e06973a6b8b504aaebd2d85fd165fbee4",
    );
    assert_eq!(
        digests::<Payload>(),
        [
            "4f13177cc3dde7b5f39a8346cd92647737a07c667ec14629b2b8bd1c0f51bd05",
            qc,
            want,
            blocks,
            "0cf923d3bbb17b8721992550d45142465303c5487563e6a10e6f50fbe715de78",
            "09b2da83a77d7d79a332c4f112990729bf3a1c5da77da6ffb0fe5b9d1ccc64e9",
            "33a4b0a393c72a8d8018ad3a8d4ae0d24f48cd6b480a74b5ee8eb282d387d30a",
        ]
    );
    assert_eq!(
        digests::<HsPayload>(),
        [
            "03e48039edbd6e78765ad10ee184e0a6354964c4dd3a0cdf743dcb00b4e5e8a5",
            qc,
            want,
            blocks,
            "99c7128449bd4655568710623d81689e419197b9da38c27ef1dfd14be0c5ee70",
            "d4359413fb8fa8f8f02f7437a602b07d27ed6b6caf5ca355c7713e347fbd7bf7",
            "cc304a7b6daf52b306691ac272da0a4816036641b3301c01183e8d74d4c4c0a6",
        ]
    );
    assert_eq!(
        digests::<TbPayload>(),
        [
            "333cd437e97d59fcecbf66c94f27cc58f5ac09ed0fe5c6c5eef0d991e13debc8",
            qc,
            want,
            blocks,
            "577c93d1070cf128f4e59c4e3e3c2699ac4adbdf9d990f5ecfba63e660a5c75a",
            "9287e9a90027a88e142f12f52c836cb36424a345efe1c9782f02547424dbead8",
            "ccb4670dc63beb0c7f948c7690918a203b2beff4d9c185ee68e335958c4f3044",
        ]
    );
}
