//! v1 wire encodings for the EESMR protocol messages.
//!
//! Layouts (see `eesmr_net::codec` for the header and the conventions):
//!
//! ```text
//! SignedMsg  = header(SIGNED_MSG) | kind u8 | view u64 | signer u32
//!            | payload body (per kind) | Signature
//! BbMsg      = header(BB_MSG) | kind u8 | signer u32
//!            | payload body (per kind) | Signature
//! Block      = parent Digest | height u64 | view u64 | round u64 | Commands
//! Commands   = count u32 | Command*
//! Command    = len u32 | bytes
//! QuorumCert = kind u8 | view u64 | data Digest | height u64
//!            | count u32 | (signer u32 | Signature)*
//! ```
//!
//! The equivocation proof inside a `Blame` embeds the two conflicting
//! `SignedMsg`s as full frames (headers included), so the nested decoder
//! is exactly the top-level one.

use eesmr_crypto::{Digest, Signature};
use eesmr_net::codec::{
    family, put_count, put_header, put_slice, read_count, read_header, read_slice, CodecError,
    Reader, WireCodec, HEADER_LEN,
};

use crate::block::{Block, Command, Commands};
use crate::broadcast::{BbMsg, BbPayload};
use crate::message::{
    CertifiedBlock, MsgKind, Payload, QuorumCert, SignedBlock, SignedMsg, Status,
};

impl WireCodec for Command {
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_slice(out, self.bytes());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Command::new(read_slice(r, "command bytes")?.to_vec()))
    }
}

impl WireCodec for Commands {
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Command::encoded_len).sum::<usize>()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for c in self.iter() {
            c.encode_into(out);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = read_count(r, 4, "commands")?;
        let mut cmds = Vec::with_capacity(count);
        for _ in 0..count {
            cmds.push(Command::decode_from(r)?);
        }
        Ok(Commands::from(cmds))
    }
}

impl WireCodec for Block {
    fn encoded_len(&self) -> usize {
        32 + 8 + 8 + 8 + self.payload.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.parent.encode_into(out);
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.view.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        self.payload.encode_into(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // The id is not on the wire: `Block::new` derives it from the
        // decoded content, so a peer cannot claim one.
        Ok(Block::new(
            Digest::decode_from(r)?,
            r.u64()?,
            r.u64()?,
            r.u64()?,
            Commands::decode_from(r)?,
        ))
    }
}

impl WireCodec for QuorumCert {
    fn encoded_len(&self) -> usize {
        1 + 8 + 32 + 8 + 4 + self.sigs.iter().map(|(_, s)| 4 + s.encoded_len()).sum::<usize>()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.kind as u8);
        out.extend_from_slice(&self.view.to_le_bytes());
        self.data.encode_into(out);
        out.extend_from_slice(&self.height.to_le_bytes());
        put_count(out, self.sigs.len());
        for (signer, sig) in &self.sigs {
            out.extend_from_slice(&signer.to_le_bytes());
            sig.encode_into(out);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kind = read_msg_kind(r)?;
        let view = r.u64()?;
        let data = Digest::decode_from(r)?;
        let height = r.u64()?;
        // signer (4) + scheme tag (1) + signer (4) + 32-byte authenticator.
        let count = read_count(r, 4 + 5 + 32, "certificate signatures")?;
        let mut sigs = Vec::with_capacity(count);
        for _ in 0..count {
            let signer = r.u32()?;
            sigs.push((signer, Signature::decode_from(r)?));
        }
        Ok(QuorumCert { kind, view, data, height, sigs })
    }
}

impl WireCodec for CertifiedBlock {
    fn encoded_len(&self) -> usize {
        self.qc.encoded_len() + self.block.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.qc.encode_into(out);
        self.block.encode_into(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CertifiedBlock { qc: QuorumCert::decode_from(r)?, block: Block::decode_from(r)? })
    }
}

impl WireCodec for SignedBlock {
    fn encoded_len(&self) -> usize {
        self.block.encoded_len() + 4 + self.sig.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.block.encode_into(out);
        out.extend_from_slice(&self.signer.to_le_bytes());
        self.sig.encode_into(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SignedBlock {
            block: Block::decode_from(r)?,
            signer: r.u32()?,
            sig: Signature::decode_from(r)?,
        })
    }
}

impl WireCodec for Status {
    fn encoded_len(&self) -> usize {
        1 + 4
            + match self {
                Status::CommitQcs(v) => v.iter().map(CertifiedBlock::encoded_len).sum::<usize>(),
                Status::Locks(v) => v.iter().map(SignedBlock::encoded_len).sum::<usize>(),
            }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Status::CommitQcs(v) => {
                out.push(1);
                put_count(out, v.len());
                for c in v {
                    c.encode_into(out);
                }
            }
            Status::Locks(v) => {
                out.push(2);
                put_count(out, v.len());
                for s in v {
                    s.encode_into(out);
                }
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            1 => {
                // QC floor (53) + block floor (60).
                let count = read_count(r, 113, "commit-qc status entries")?;
                let mut v = Vec::with_capacity(count);
                for _ in 0..count {
                    v.push(CertifiedBlock::decode_from(r)?);
                }
                Ok(Status::CommitQcs(v))
            }
            2 => {
                // Block floor (60) + signer (4) + signature floor (37).
                let count = read_count(r, 101, "locked-block status entries")?;
                let mut v = Vec::with_capacity(count);
                for _ in 0..count {
                    v.push(SignedBlock::decode_from(r)?);
                }
                Ok(Status::Locks(v))
            }
            tag => Err(CodecError::UnknownTag { what: "status", tag }),
        }
    }
}

fn read_msg_kind(r: &mut Reader<'_>) -> Result<MsgKind, CodecError> {
    let tag = r.u8()?;
    MsgKind::from_wire(tag).ok_or(CodecError::UnknownTag { what: "message kind", tag })
}

fn read_blocks(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<Block>, CodecError> {
    // Block floor: digest + three u64s + empty command list.
    let count = read_count(r, 32 + 24 + 4, what)?;
    let mut v = Vec::with_capacity(count);
    for _ in 0..count {
        v.push(Block::decode_from(r)?);
    }
    Ok(v)
}

fn put_blocks(out: &mut Vec<u8>, blocks: &[Block]) {
    put_count(out, blocks.len());
    for b in blocks {
        b.encode_into(out);
    }
}

fn blocks_len(blocks: &[Block]) -> usize {
    4 + blocks.iter().map(Block::encoded_len).sum::<usize>()
}

impl Payload {
    /// Encoded body length (everything after the kind byte).
    pub(crate) fn body_encoded_len(&self) -> usize {
        match self {
            Payload::Propose { block, justify, .. } => {
                block.encoded_len() + 8 + 1 + justify.as_ref().map_or(0, QuorumCert::encoded_len)
            }
            Payload::Blame { proof } => {
                1 + proof.as_ref().map_or(0, |p| p.0.encoded_len() + p.1.encoded_len())
            }
            Payload::BlameQc(qc) => qc.encoded_len(),
            Payload::CommitUpdate { block } => block.encoded_len(),
            Payload::Certify { .. } => 32 + 8,
            Payload::CommitQc(c) => c.encoded_len(),
            Payload::NewViewProposal { status, block } => {
                status.encoded_len() + block.encoded_len()
            }
            Payload::NewViewVote { .. } => 32,
            Payload::LockStatus { block } => block.encoded_len(),
            Payload::SyncRequest { .. } => 32,
            Payload::SyncResponse { blocks } => blocks_len(blocks),
            Payload::Forward { commands } => commands.encoded_len(),
            Payload::Repair { .. } => 8,
            Payload::RepairReply { blocks, .. } => blocks_len(blocks) + 8,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Propose { block, round, justify } => {
                block.encode_into(out);
                out.extend_from_slice(&round.to_le_bytes());
                match justify {
                    None => out.push(0),
                    Some(qc) => {
                        out.push(1);
                        qc.encode_into(out);
                    }
                }
            }
            Payload::Blame { proof } => match proof {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    p.0.encode_into(out);
                    p.1.encode_into(out);
                }
            },
            Payload::BlameQc(qc) => qc.encode_into(out),
            Payload::CommitUpdate { block } => block.encode_into(out),
            Payload::Certify { block_id, height } => {
                block_id.encode_into(out);
                out.extend_from_slice(&height.to_le_bytes());
            }
            Payload::CommitQc(c) => c.encode_into(out),
            Payload::NewViewProposal { status, block } => {
                status.encode_into(out);
                block.encode_into(out);
            }
            Payload::NewViewVote { prop_hash } => prop_hash.encode_into(out),
            Payload::LockStatus { block } => block.encode_into(out),
            Payload::SyncRequest { want } => want.encode_into(out),
            Payload::SyncResponse { blocks } => put_blocks(out, blocks),
            Payload::Forward { commands } => commands.encode_into(out),
            Payload::Repair { from_height } => out.extend_from_slice(&from_height.to_le_bytes()),
            Payload::RepairReply { blocks, view } => {
                put_blocks(out, blocks);
                out.extend_from_slice(&view.to_le_bytes());
            }
        }
    }

    fn decode_body(kind: MsgKind, r: &mut Reader<'_>) -> Result<Payload, CodecError> {
        Ok(match kind {
            MsgKind::Propose => {
                let block = Block::decode_from(r)?;
                let round = r.u64()?;
                let justify = match r.u8()? {
                    0 => None,
                    1 => Some(QuorumCert::decode_from(r)?),
                    tag => return Err(CodecError::UnknownTag { what: "option flag", tag }),
                };
                Payload::Propose { block, round, justify }
            }
            MsgKind::Blame => {
                let proof = match r.u8()? {
                    0 => None,
                    1 => {
                        let a = SignedMsg::decode_from(r)?;
                        let b = SignedMsg::decode_from(r)?;
                        Some(Box::new((a, b)))
                    }
                    tag => return Err(CodecError::UnknownTag { what: "option flag", tag }),
                };
                Payload::Blame { proof }
            }
            MsgKind::BlameQc => Payload::BlameQc(QuorumCert::decode_from(r)?),
            MsgKind::CommitUpdate => Payload::CommitUpdate { block: Block::decode_from(r)? },
            MsgKind::Certify => {
                Payload::Certify { block_id: Digest::decode_from(r)?, height: r.u64()? }
            }
            MsgKind::CommitQc => Payload::CommitQc(CertifiedBlock::decode_from(r)?),
            MsgKind::NewViewProposal => Payload::NewViewProposal {
                status: Status::decode_from(r)?,
                block: Block::decode_from(r)?,
            },
            MsgKind::NewViewVote => Payload::NewViewVote { prop_hash: Digest::decode_from(r)? },
            MsgKind::LockStatus => Payload::LockStatus { block: Block::decode_from(r)? },
            MsgKind::SyncRequest => Payload::SyncRequest { want: Digest::decode_from(r)? },
            MsgKind::SyncResponse => {
                Payload::SyncResponse { blocks: read_blocks(r, "sync-response blocks")? }
            }
            MsgKind::Forward => Payload::Forward { commands: Commands::decode_from(r)? },
            MsgKind::Repair => Payload::Repair { from_height: r.u64()? },
            MsgKind::RepairReply => Payload::RepairReply {
                blocks: read_blocks(r, "repair-reply blocks")?,
                view: r.u64()?,
            },
            // HsVote is an `HsMsg` kind; no `Payload` variant carries it.
            MsgKind::HsVote => {
                return Err(CodecError::UnknownTag { what: "payload kind", tag: kind as u8 })
            }
        })
    }
}

impl WireCodec for SignedMsg {
    fn encoded_len(&self) -> usize {
        HEADER_LEN + 1 + 8 + 4 + self.payload.body_encoded_len() + self.sig.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_header(out, family::SIGNED_MSG);
        out.push(self.payload.kind() as u8);
        out.extend_from_slice(&self.view.to_le_bytes());
        out.extend_from_slice(&self.signer.to_le_bytes());
        self.payload.encode_body(out);
        self.sig.encode_into(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_header(r, family::SIGNED_MSG)?;
        let kind = read_msg_kind(r)?;
        let view = r.u64()?;
        let signer = r.u32()?;
        let payload = Payload::decode_body(kind, r)?;
        let sig = Signature::decode_from(r)?;
        Ok(SignedMsg { payload, view, signer, sig })
    }
}

impl BbPayload {
    fn body_encoded_len(&self) -> usize {
        match self {
            BbPayload::Value { value } => 4 + value.len(),
            BbPayload::CommitVote { .. } => 32,
            BbPayload::Terminate { cert, value } => cert.encoded_len() + 4 + value.len(),
        }
    }
}

impl WireCodec for BbMsg {
    fn encoded_len(&self) -> usize {
        HEADER_LEN + 1 + 4 + self.payload.body_encoded_len() + self.sig.encoded_len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_header(out, family::BB_MSG);
        // The broadcast payload reuses `MsgKind` values as its tags
        // (Value=Propose, CommitVote=Certify, Terminate=CommitQc).
        out.push(self.payload.kind() as u8);
        out.extend_from_slice(&self.signer.to_le_bytes());
        match &self.payload {
            BbPayload::Value { value } => put_slice(out, value),
            BbPayload::CommitVote { value_digest } => value_digest.encode_into(out),
            BbPayload::Terminate { cert, value } => {
                cert.encode_into(out);
                put_slice(out, value);
            }
        }
        self.sig.encode_into(out);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_header(r, family::BB_MSG)?;
        let kind = read_msg_kind(r)?;
        let signer = r.u32()?;
        let payload = match kind {
            MsgKind::Propose => BbPayload::Value { value: read_slice(r, "bb value")?.to_vec() },
            MsgKind::Certify => BbPayload::CommitVote { value_digest: Digest::decode_from(r)? },
            MsgKind::CommitQc => BbPayload::Terminate {
                cert: QuorumCert::decode_from(r)?,
                value: read_slice(r, "bb value")?.to_vec(),
            },
            other => {
                return Err(CodecError::UnknownTag { what: "broadcast kind", tag: other as u8 })
            }
        };
        let sig = Signature::decode_from(r)?;
        Ok(BbMsg { payload, signer, sig })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            Payload::Blame { proof: None },
            Payload::Blame { proof: Some(Box::new((p1, p2))) },
            Payload::BlameQc(qc.clone()),
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
            Payload::SyncRequest { want: b1.id() },
            Payload::SyncResponse { blocks: vec![g.clone(), b1.clone()] },
            Payload::Forward {
                commands: Commands::from(vec![Command::synthetic(9, 8), Command::new(vec![])]),
            },
            Payload::Repair { from_height: 4 },
            Payload::RepairReply { blocks: vec![b1.clone()], view: 2 },
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
        let msg = SignedMsg::new(Payload::Blame { proof: None }, 1, pki.keypair(0));
        let bytes = msg.encode();
        assert!(matches!(
            BbMsg::decode(&bytes),
            Err(CodecError::UnknownTag { what: "message family", .. })
        ));
    }
}
