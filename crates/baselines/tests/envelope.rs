//! The signed envelope's contract, checked once, generically, for both
//! payload families that ride in it (`SignedMsg` and `HsMsg`).

use eesmr_baselines::sync_hotstuff::HsPayload;
use eesmr_core::{Block, Envelope, MsgKind, Payload, SignedPayload};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_net::{Message, NodeId};

fn pki() -> KeyStore {
    KeyStore::generate(4, SigScheme::Rsa1024, 99)
}

/// A payload family that can make a proposal for `(view, round)`.
trait Family: SignedPayload {
    fn proposal(block: Block, round: u64) -> Self;
}

impl Family for Payload {
    fn proposal(block: Block, round: u64) -> Self {
        Payload::Propose { block, round, justify: None }
    }
}

impl Family for HsPayload {
    fn proposal(block: Block, _round: u64) -> Self {
        HsPayload::Propose { block, justify: None }
    }
}

fn propose<P: Family>(view: u64, round: u64, pki: &KeyStore, signer: NodeId) -> Envelope<P> {
    let block = Block::extending(&Block::genesis(), view, round, vec![]);
    Envelope::new(P::proposal(block, round), view, pki.keypair(signer))
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
        let mut msg = propose::<P>(1, 3, pki, 0);
        msg.signer = 1;
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
