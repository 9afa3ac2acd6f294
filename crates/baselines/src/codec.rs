//! v1 wire encodings for the baseline protocol messages.
//!
//! Each payload's layout is its table below (header, conventions and
//! table forms in `eesmr_net::codec`; the nested `Block`/`Commands`/
//! `QuorumCert`/`CertifiedBlock` encodings and the `HsMsg` envelope —
//! `header(HS_MSG) | kind | view | signer | payload fields | signature`
//! — come from `eesmr_core::codec`). Adding a message is one row.
//!
//! The blame equivocation proof embeds the two conflicting `HsMsg`s as
//! full frames, exactly like `SignedMsg` blames.

use eesmr_core::{Block, CertifiedBlock, Commands, MsgKind, QuorumCert};
use eesmr_crypto::{Digest, Signature};
use eesmr_net::codec::family;
use eesmr_net::{wire_enum, wire_struct, NodeId};

use crate::sync_hotstuff::{HsMsg, HsPayload};
use crate::trusted::{TbMsg, TbPayload};

wire_enum! { HsPayload: MsgKind = "sync-hotstuff kind" {
    MsgKind::Propose => Propose { block: Block, justify: Option<QuorumCert> },
    MsgKind::HsVote => Vote { block_id: Digest, height: u64 },
    MsgKind::Blame => Blame { proof: Option<Box<(HsMsg, HsMsg)>> },
    MsgKind::BlameQc => BlameQc(qc: QuorumCert),
    MsgKind::LockStatus => Status { cert: Option<CertifiedBlock> },
    MsgKind::SyncRequest => SyncRequest { want: Digest },
    MsgKind::SyncResponse => SyncResponse { blocks: Vec<Block> = "sync-response blocks" },
    MsgKind::Forward => Forward { commands: Commands },
    MsgKind::Repair => Repair { from_height: u64 },
    MsgKind::RepairReply => RepairReply { blocks: Vec<Block> = "repair-reply blocks", view: u64 },
} }

// The trusted baseline has no `MsgKind` analogue, so its tags are a
// namespace of their own.
wire_enum! { TbPayload: u8 = "trusted-baseline tag" {
    1 => Request { batch: Commands, seq: u64 },
    2 => Ordered { block: Block },
    3 => Repair { from_height: u64 },
    4 => RepairReply { blocks: Vec<Block> = "tb repair blocks" },
} }

wire_struct! { frame(family::TB_MSG) TbMsg { payload: TbPayload; signer: NodeId; sig: Signature } }

#[cfg(test)]
mod tests {
    use super::*;
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
            HsPayload::Blame { proof: None },
            HsPayload::Blame { proof: Some(Box::new((p1, p2))) },
            HsPayload::BlameQc(qc),
            HsPayload::Status { cert: Some(cert) },
            HsPayload::Status { cert: None },
            HsPayload::SyncRequest { want: b1.id() },
            HsPayload::SyncResponse { blocks: vec![g.clone(), b1.clone()] },
            HsPayload::Forward { commands: Commands::from(vec![Command::synthetic(3, 12)]) },
            HsPayload::Repair { from_height: 2 },
            HsPayload::RepairReply { blocks: vec![b1.clone()], view: 3 },
        ];
        for payload in payloads {
            roundtrip(&mk(payload));
        }
    }

    #[test]
    fn every_tb_payload_tag_round_trips() {
        let pki = pki();
        let g = Block::genesis();
        let b1 = Block::extending(&g, 0, 0, vec![Command::synthetic(1, 16)]);
        let sig = pki.keypair(1).sign(b"m");
        let payloads = vec![
            TbPayload::Request { batch: Commands::from(vec![Command::synthetic(0, 8)]), seq: 4 },
            TbPayload::Ordered { block: b1.clone() },
            TbPayload::Repair { from_height: 1 },
            TbPayload::RepairReply { blocks: vec![b1] },
        ];
        for payload in payloads {
            roundtrip(&TbMsg { payload, signer: 1, sig: sig.clone() });
        }
    }

    #[test]
    fn cross_family_decode_is_rejected() {
        let pki = pki();
        let sig = pki.keypair(0).sign(b"m");
        let hs = HsMsg::from_parts(HsPayload::Repair { from_height: 0 }, 1, 0, sig);
        let bytes = hs.encode();
        assert!(matches!(
            TbMsg::decode(&bytes),
            Err(CodecError::UnknownTag { what: "message family", .. })
        ));
    }
}
