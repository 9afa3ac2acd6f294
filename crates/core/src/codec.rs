//! v1 wire encodings for the EESMR protocol messages.
//!
//! Each type's layout is its table below, read top to bottom (see
//! `eesmr_net::codec` for the header, the conventions and the table
//! forms): size, encoding and decoding all expand from that one field
//! list. Adding a message is one row in its payload table plus one
//! [`MsgKind`] tag; `Command` and `Commands` are the only encodings
//! written by hand.
//!
//! The equivocation proof inside a `Blame` embeds the two conflicting
//! messages as full frames (headers included), so the nested decoder is
//! exactly the top-level one.

use eesmr_crypto::{Digest, Signature};
use eesmr_net::codec::{family, put_seq, read_seq, ByteSink, CodecError, Reader, WireCodec};
use eesmr_net::{wire_enum, wire_struct, NodeId};

use crate::block::{Block, Command, Commands};
use crate::broadcast::{BbMsg, BbPayload};
use crate::message::{
    CertifiedBlock, Envelope, MsgKind, Payload, QuorumCert, SignedBlock, SignedPayload, Status,
};
use crate::smr::{Shared, SmrPayload};

/// `len u32 | bytes`: a `u8` sequence, moved as one slice.
impl WireCodec for Command {
    const MIN_LEN: usize = 4;

    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.bytes());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.u32()? as usize;
        if len > r.remaining() {
            return Err(CodecError::BadLength { what: "command bytes", len: len as u64 });
        }
        Ok(Command::new(r.bytes(len)?.to_vec()))
    }
}

/// `count u32 | Command*`: a sequence behind a shared handle.
impl WireCodec for Commands {
    const MIN_LEN: usize = 4;

    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        put_seq(out, self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_seq(r, "commands").map(Commands::from)
    }
}

// The id is not on the wire: `Block::new` derives it from the decoded
// content, so a peer cannot claim one.
wire_struct! { Block => Block::new {
    parent: Digest,
    height: u64,
    view: u64,
    round: u64,
    payload: Commands,
} }

impl From<MsgKind> for u8 {
    fn from(kind: MsgKind) -> u8 {
        kind as u8
    }
}

// One byte: the `repr(u8)` discriminant. Tags are never reused or reordered.
wire_enum! { inline MsgKind: u8 = "message kind" {
    1 => Propose,
    2 => Blame,
    3 => BlameQc,
    4 => CommitUpdate,
    5 => Certify,
    6 => CommitQc,
    7 => NewViewProposal,
    8 => NewViewVote,
    9 => LockStatus,
    10 => SyncRequest,
    11 => SyncResponse,
    12 => HsVote,
    13 => Forward,
    14 => Repair,
    15 => RepairReply,
    16 => Upload,
} }

wire_struct! { QuorumCert {
    kind: MsgKind,
    view: u64,
    data: Digest,
    height: u64,
    sigs: Vec<(NodeId, Signature)> = "certificate signatures",
} }

wire_struct! { CertifiedBlock { qc: QuorumCert, block: Block } }

wire_struct! { SignedBlock { block: Block, signer: NodeId, sig: Signature } }

wire_enum! { inline Status: u8 = "status" {
    1 => CommitQcs(entries: Vec<CertifiedBlock> = "commit-qc status entries"),
    2 => Locks(entries: Vec<SignedBlock> = "locked-block status entries"),
} }

// The variants every family shares. A family table's last row hands them
// every tag its own rows do not name, so each keeps its `MsgKind` as the
// frame's kind byte.
wire_enum! { Shared<P: SmrPayload>: MsgKind = "shared kind" {
    MsgKind::Blame => Blame { proof: Option<Box<(Envelope<P>, Envelope<P>)>> },
    MsgKind::BlameQc => BlameQc(qc: QuorumCert),
    MsgKind::SyncRequest => SyncRequest { want: Digest },
    MsgKind::SyncResponse => SyncResponse { blocks: Vec<Block> = "sync-response blocks" },
    MsgKind::Forward => Forward { commands: Commands },
    MsgKind::Repair => Repair { from_height: u64 },
    MsgKind::RepairReply => RepairReply { blocks: Vec<Block> = "repair-reply blocks", view: u64 },
} }

// `HsVote` and `Upload` are baseline kinds; no `Payload` variant carries them.
wire_enum! { Payload: MsgKind = "payload kind" {
    MsgKind::Propose => Propose { block: Block, round: u64, justify: Option<QuorumCert> },
    MsgKind::CommitUpdate => CommitUpdate { block: Block },
    MsgKind::Certify => Certify { block_id: Digest, height: u64 },
    MsgKind::CommitQc => CommitQc(cert: CertifiedBlock),
    MsgKind::NewViewProposal => NewViewProposal { status: Status, block: Block },
    MsgKind::NewViewVote => NewViewVote { prop_hash: Digest },
    MsgKind::LockStatus => LockStatus { block: Block },
    _ => Shared(Shared<Payload>),
} }

// The signed envelope of the replica families (`SignedMsg`, `HsMsg`, `TbMsg`):
// `header | kind | view | signer | payload fields | signature`. A shared
// handle, so it decodes through its constructor.
wire_struct! { frame(P::FAMILY) Envelope<P> => Envelope::from_parts where P: SignedPayload {
    payload: P; view: u64, signer: NodeId; sig: Signature
} }

// The broadcast payload reuses `MsgKind` values as its tags.
wire_enum! { BbPayload: MsgKind = "broadcast kind" {
    MsgKind::Propose => Value { value: Vec<u8> = "bb value" },
    MsgKind::Certify => CommitVote { value_digest: Digest },
    MsgKind::CommitQc => Terminate { cert: QuorumCert, value: Vec<u8> = "bb value" },
} }

wire_struct! { frame(family::BB_MSG) BbMsg { payload: BbPayload; signer: NodeId; sig: Signature } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SignedMsg;
    use eesmr_crypto::{KeyStore, SigScheme};

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
    fn kind_tags_are_the_discriminants() {
        // The tag table and the `repr(u8)` discriminants (which signatures
        // and flood keys cover) list the same numbers.
        let mut kinds = 0;
        for tag in 0..=u8::MAX {
            if let Ok(kind) = MsgKind::decode(&[tag]) {
                assert_eq!(kind as u8, tag);
                assert_eq!(kind.encode(), [tag]);
                kinds += 1;
            }
        }
        assert_eq!(kinds, 16);
        assert_eq!(
            MsgKind::decode(&[0]),
            Err(CodecError::UnknownTag { what: "message kind", tag: 0 })
        );
    }

    #[test]
    fn every_payload_kind_round_trips() {
        let pki = pki();
        let kp = pki.keypair(0);
        let g = Block::genesis();
        let b1 = Block::extending(&g, 1, 3, vec![Command::synthetic(1, 16)]);
        let bytes = crate::message::signing_bytes(MsgKind::Certify, 1, &b1.id());
        let sigs: Vec<_> = (0..2u32).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
        let qc = QuorumCert { kind: MsgKind::Certify, view: 1, data: b1.id(), height: 1, sigs };
        let cert = CertifiedBlock { qc: qc.clone(), block: b1.clone() };
        let locked = SignedBlock { block: b1.clone(), signer: 2, sig: kp.sign(b1.id().as_bytes()) };
        let p1 = SignedMsg::new(
            Payload::Propose { block: b1.clone(), round: 3, justify: Some(qc.clone()) },
            1,
            kp,
        );
        let p2 = SignedMsg::new(
            Payload::Propose { block: g.clone(), round: 3, justify: None },
            1,
            pki.keypair(1),
        );
        let payloads = vec![
            Payload::Propose { block: b1.clone(), round: 7, justify: Some(qc.clone()) },
            Payload::Shared(Shared::Blame { proof: None }),
            Payload::Shared(Shared::Blame { proof: Some(Box::new((p1, p2))) }),
            Payload::Shared(Shared::BlameQc(qc.clone())),
            Payload::CommitUpdate { block: b1.clone() },
            Payload::Certify { block_id: b1.id(), height: 1 },
            Payload::CommitQc(cert.clone()),
            Payload::NewViewProposal {
                status: Status::CommitQcs(vec![cert.clone()]),
                block: b1.clone(),
            },
            Payload::NewViewProposal { status: Status::Locks(vec![locked]), block: b1.clone() },
            Payload::NewViewVote { prop_hash: b1.id() },
            Payload::LockStatus { block: b1.clone() },
            Payload::Shared(Shared::SyncRequest { want: b1.id() }),
            Payload::Shared(Shared::SyncResponse { blocks: vec![g.clone(), b1.clone()] }),
            Payload::Shared(Shared::Forward {
                commands: Commands::from(vec![Command::synthetic(9, 8), Command::new(vec![])]),
            }),
            Payload::Shared(Shared::Repair { from_height: 4 }),
            Payload::Shared(Shared::RepairReply { blocks: vec![b1.clone()], view: 2 }),
        ];
        for payload in payloads {
            roundtrip(&SignedMsg::new(payload, 3, pki.keypair(2)));
        }
    }

    #[test]
    fn every_broadcast_kind_round_trips() {
        let pki = pki();
        let value = b"broadcast value".to_vec();
        let digest = Digest::of(&value);
        let bytes = crate::message::signing_bytes(MsgKind::Certify, 0, &digest);
        let sigs: Vec<_> = (0..2u32).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
        let cert = QuorumCert { kind: MsgKind::Certify, view: 0, data: digest, height: 0, sigs };
        let sig = pki.keypair(1).sign(b"m");
        let msgs = vec![
            BbMsg {
                payload: BbPayload::Value { value: value.clone() },
                signer: 1,
                sig: sig.clone(),
            },
            BbMsg {
                payload: BbPayload::CommitVote { value_digest: digest },
                signer: 1,
                sig: sig.clone(),
            },
            BbMsg { payload: BbPayload::Terminate { cert, value }, signer: 1, sig },
        ];
        for m in msgs {
            roundtrip(&m);
        }
    }

    #[test]
    fn signature_survives_the_wire() {
        // The decoded message still verifies: encoding is faithful to the
        // signed content, not just structurally invertible.
        let pki = pki();
        let g = Block::genesis();
        let msg = SignedMsg::new(
            Payload::Propose { block: g, round: 3, justify: None },
            1,
            pki.keypair(0),
        );
        let back = SignedMsg::decode(&msg.encode()).unwrap();
        assert!(back.verify_sig(&pki));
    }

    #[test]
    fn wrong_family_is_rejected() {
        let pki = pki();
        let msg = SignedMsg::new(Payload::Shared(Shared::Blame { proof: None }), 1, pki.keypair(0));
        let bytes = msg.encode();
        assert!(matches!(
            BbMsg::decode(&bytes),
            Err(CodecError::UnknownTag { what: "message family", .. })
        ));
    }
}
