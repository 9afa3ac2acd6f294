//! v1 wire encodings for the baseline protocol messages.
//!
//! Each payload's layout is its table below (header, conventions and
//! table forms in `eesmr_net::codec`; the nested `Block`/`Commands`/
//! `QuorumCert`/`CertifiedBlock` encodings and the `HsMsg`/`TbMsg`
//! envelope — `header(family) | kind | view | signer | payload fields |
//! signature` — come from `eesmr_core::codec`). Adding a message is one
//! row.
//!
//! The blame equivocation proof embeds the two conflicting messages as
//! full frames, exactly like `SignedMsg` blames.

use eesmr_core::{Block, CertifiedBlock, Commands, MsgKind, QuorumCert, Shared};
use eesmr_crypto::Digest;
use eesmr_net::wire_enum;

use crate::sync_hotstuff::HsPayload;
use crate::trusted::TbPayload;

wire_enum! { HsPayload: MsgKind = "sync-hotstuff kind" {
    MsgKind::Propose => Propose { block: Block, justify: Option<QuorumCert> },
    MsgKind::HsVote => Vote { block_id: Digest, height: u64 },
    MsgKind::LockStatus => Status { cert: Option<CertifiedBlock> },
    _ => Shared(Shared<HsPayload>),
} }

wire_enum! { TbPayload: MsgKind = "trusted-baseline kind" {
    MsgKind::Propose => Propose { block: Block },
    MsgKind::Upload => Upload { batch: Commands, seq: u64 },
    _ => Shared(Shared<TbPayload>),
} }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync_hotstuff::HsMsg;
    use crate::trusted::TbMsg;
    use eesmr_core::message::signing_bytes;
    use eesmr_core::Command;
    use eesmr_crypto::{KeyStore, SigScheme};
    use eesmr_net::codec::{CodecError, WireCodec};

    fn pki() -> KeyStore {
        KeyStore::generate(4, SigScheme::Rsa1024, 99)
    }

    fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.encode();
        assert_eq!(bytes.len(), v.encoded_len());
        let back = T::decode(&bytes).expect("decodes");
        assert_eq!(&back, v);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn every_hs_payload_kind_round_trips() {
        let pki = pki();
        let kp = pki.keypair(0);
        let g = Block::genesis();
        let b1 = Block::extending(&g, 1, 1, vec![Command::synthetic(1, 16)]);
        let bytes = signing_bytes(MsgKind::HsVote, 1, &b1.id());
        let sigs: Vec<_> = (0..2u32).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
        let qc = QuorumCert { kind: MsgKind::HsVote, view: 1, data: b1.id(), height: 1, sigs };
        let cert = CertifiedBlock { qc: qc.clone(), block: b1.clone() };
        let sig = kp.sign(b"m");
        let mk = |payload| HsMsg::from_parts(payload, 2, 0, sig.clone());
        let p1 = mk(HsPayload::Propose { block: b1.clone(), justify: None });
        let p2 = mk(HsPayload::Propose { block: g.clone(), justify: Some(qc.clone()) });
        let payloads = vec![
            HsPayload::Propose { block: b1.clone(), justify: Some(qc.clone()) },
            HsPayload::Propose { block: b1.clone(), justify: None },
            HsPayload::Vote { block_id: b1.id(), height: 1 },
            HsPayload::Shared(Shared::Blame { proof: None }),
            HsPayload::Shared(Shared::Blame { proof: Some(Box::new((p1, p2))) }),
            HsPayload::Shared(Shared::BlameQc(qc)),
            HsPayload::Status { cert: Some(cert) },
            HsPayload::Status { cert: None },
            HsPayload::Shared(Shared::SyncRequest { want: b1.id() }),
            HsPayload::Shared(Shared::SyncResponse { blocks: vec![g.clone(), b1.clone()] }),
            HsPayload::Shared(Shared::Forward {
                commands: Commands::from(vec![Command::synthetic(3, 12)]),
            }),
            HsPayload::Shared(Shared::Repair { from_height: 2 }),
            HsPayload::Shared(Shared::RepairReply { blocks: vec![b1.clone()], view: 3 }),
        ];
        for payload in payloads {
            roundtrip(&mk(payload));
        }
    }

    #[test]
    fn every_tb_payload_tag_round_trips() {
        let pki = pki();
        let g = Block::genesis();
        let b1 = Block::extending(&g, 1, 1, vec![Command::synthetic(1, 16)]);
        let sig = pki.keypair(1).sign(b"m");
        let mk = |payload| TbMsg::from_parts(payload, 1, 0, sig.clone());
        let (p1, p2) = (
            mk(TbPayload::Propose { block: b1.clone() }),
            mk(TbPayload::Propose { block: g.clone() }),
        );
        let bytes = signing_bytes(MsgKind::Blame, 1, &Digest::of(b"b"));
        let sigs: Vec<_> = (0..2u32).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
        let qc =
            QuorumCert { kind: MsgKind::Blame, view: 1, data: Digest::of(b"b"), height: 0, sigs };
        let payloads = vec![
            TbPayload::Propose { block: b1.clone() },
            TbPayload::Upload { batch: Commands::from(vec![Command::synthetic(0, 8)]), seq: 4 },
            TbPayload::Shared(Shared::Blame { proof: None }),
            TbPayload::Shared(Shared::Blame { proof: Some(Box::new((p1, p2))) }),
            TbPayload::Shared(Shared::BlameQc(qc)),
            TbPayload::Shared(Shared::SyncRequest { want: b1.id() }),
            TbPayload::Shared(Shared::SyncResponse { blocks: vec![g.clone(), b1.clone()] }),
            TbPayload::Shared(Shared::Forward {
                commands: Commands::from(vec![Command::synthetic(3, 12)]),
            }),
            TbPayload::Shared(Shared::Repair { from_height: 1 }),
            TbPayload::Shared(Shared::RepairReply { blocks: vec![b1], view: 1 }),
        ];
        for payload in payloads {
            roundtrip(&mk(payload));
        }
    }

    #[test]
    fn cross_family_decode_is_rejected() {
        let pki = pki();
        let sig = pki.keypair(0).sign(b"m");
        let hs = HsMsg::from_parts(HsPayload::Shared(Shared::Repair { from_height: 0 }), 1, 0, sig);
        let bytes = hs.encode();
        assert!(matches!(
            TbMsg::decode(&bytes),
            Err(CodecError::UnknownTag { what: "message family", .. })
        ));
    }

    /// A kind neither the family's rows nor the shared table name is
    /// reported under the family's label, not the shared table's.
    #[test]
    fn unknown_kinds_carry_the_family_label() {
        let sig = pki().keypair(0).sign(b"m");
        let hs = HsPayload::Shared(Shared::Repair { from_height: 0 });
        let tb = TbPayload::Shared(Shared::Repair { from_height: 0 });
        let mut hs = HsMsg::from_parts(hs, 1, 0, sig.clone()).encode();
        let mut tb = TbMsg::from_parts(tb, 1, 0, sig).encode();
        (hs[4], tb[4]) = (MsgKind::Certify as u8, MsgKind::HsVote as u8); // the kind byte
        let unknown = |what, tag| CodecError::UnknownTag { what, tag };
        assert_eq!(HsMsg::decode(&hs).unwrap_err(), unknown("sync-hotstuff kind", hs[4]));
        assert_eq!(TbMsg::decode(&tb).unwrap_err(), unknown("trusted-baseline kind", tb[4]));
    }
}
