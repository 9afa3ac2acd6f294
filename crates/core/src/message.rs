//! Protocol messages and quorum certificates (paper Algorithm 1).
//!
//! Every message carries its view, the sender, and a signature. The paper
//! splits authentication into `viewSig = ⟨type, v⟩_i` (aggregated into
//! quorum certificates) and `dataSig = ⟨data, v⟩_i`; we sign the triple
//! `(type, view, data-digest)` once, which is strictly stronger — a quorum
//! certificate then binds not just the message type and view but also the
//! exact data (e.g. the certified block id), which is what the safety
//! proofs in Appendix B rely on.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use eesmr_crypto::digest::ByteSink;
use eesmr_crypto::sha256::Sha256;
use eesmr_crypto::{Digest, Hashable, KeyPair, KeyStore, Signature};
use eesmr_net::codec::{family, WireEnum};
use eesmr_net::NodeId;

use crate::block::Block;
use crate::smr::{Shared, SmrPayload};

/// Message types (Algorithm 1/2 plus chain synchronization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Steady-state or round-2 proposal.
    Propose = 1,
    /// No-progress / equivocation blame.
    Blame = 2,
    /// Certificate of f+1 blames — quit the view.
    BlameQc = 3,
    /// A node announcing its highest committed block after quitting.
    CommitUpdate = 4,
    /// A vote certifying another node's committed block.
    Certify = 5,
    /// A certificate of f+1 Certify votes for a committed block.
    CommitQc = 6,
    /// The new leader's round-1 proposal carrying the status.
    NewViewProposal = 7,
    /// A vote on the round-1 proposal.
    NewViewVote = 8,
    /// Optimized no-progress status: a node's signed locked block (§5.6).
    LockStatus = 9,
    /// Chain synchronization: request a missing block by hash.
    SyncRequest = 10,
    /// Chain synchronization: a segment of blocks.
    SyncResponse = 11,
    /// A Sync HotStuff / OptSync vote (used by the baseline protocols,
    /// which share this crate's certificate machinery).
    HsVote = 12,
    /// Client commands forwarded from a non-leading node to the current
    /// proposer, so closed-loop workloads cannot strand transactions at
    /// nodes that never lead.
    Forward = 13,
    /// Crash-recovery: a restarted replica asks peers for the committed
    /// chain above its last durable height.
    Repair = 14,
    /// Crash-recovery: a committed-chain suffix answering a
    /// [`MsgKind::Repair`], plus the responder's current view.
    RepairReply = 15,
    /// A trusted-baseline spoke's upload of pending commands to the hub
    /// (used by the baseline protocols, like [`MsgKind::HsVote`]).
    Upload = 16,
}

/// The canonical byte string covered by a signature: `(kind, view, data)`.
pub fn signing_bytes(kind: MsgKind, view: u64, data: &Digest) -> [u8; 41] {
    let mut out = [0u8; 41];
    out[0] = kind as u8;
    out[1..9].copy_from_slice(&view.to_le_bytes());
    out[9..].copy_from_slice(data.as_bytes());
    out
}

/// Finishes `h` over `id(b₀) ‖ id(b₁) ‖ …` — what a chain-segment
/// payload signs.
pub fn block_ids_digest(mut h: Sha256, blocks: &[Block]) -> Digest {
    for b in blocks {
        h.update(b.id().as_bytes());
    }
    h.finalize()
}

/// A quorum certificate: `threshold` distinct signatures over
/// `(kind, view, data)` (the `QC` helper of Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumCert {
    /// The certified message type.
    pub kind: MsgKind,
    /// The view the certificate belongs to.
    pub view: u64,
    /// Digest of the certified data (typically a block id).
    pub data: Digest,
    /// Height of the certified block (for highest-certificate comparison).
    pub height: u64,
    /// The aggregated `(signer, signature)` pairs.
    pub sigs: Vec<(NodeId, Signature)>,
}

impl QuorumCert {
    /// Validates the certificate: at least `threshold` *distinct* signers,
    /// every signature valid over `(kind, view, data)`. A signature for
    /// which `known(signer, sig)` holds — the caller has verified exactly
    /// these bytes before — is taken as valid without recomputing its tag.
    ///
    /// Returns `(valid, signature_checks_performed)` so callers can charge
    /// verification energy for the work the protocol does: a known
    /// signature counts as a check like any other.
    pub fn verify(
        &self,
        pki: &KeyStore,
        threshold: usize,
        known: impl Fn(NodeId, &Signature) -> bool,
    ) -> (bool, usize) {
        let mut seen = std::collections::BTreeSet::new();
        let bytes = signing_bytes(self.kind, self.view, &self.data);
        let mut checks = 0;
        for (signer, sig) in &self.sigs {
            if sig.signer() != *signer || !seen.insert(*signer) {
                return (false, checks);
            }
            checks += 1;
            if !known(*signer, sig) && !pki.verify(&bytes, sig) {
                return (false, checks);
            }
        }
        (seen.len() >= threshold, checks)
    }

    /// Wire size: exactly the certificate's encoded length (see
    /// [`crate::codec`]).
    pub fn wire_size(&self) -> usize {
        eesmr_net::WireCodec::encoded_len(self)
    }
}

impl Hashable for QuorumCert {
    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.extend_from_slice(&[self.kind as u8]);
        out.extend_from_slice(&self.view.to_le_bytes());
        out.extend_from_slice(self.data.as_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        for (signer, sig) in &self.sigs {
            out.extend_from_slice(&signer.to_le_bytes());
            out.extend_from_slice(&(sig.scheme().signature_size() as u64).to_le_bytes());
        }
    }
}

/// A block certified by a commit QC (view-change status entry).
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedBlock {
    /// The certificate over `block`'s id.
    pub qc: QuorumCert,
    /// The certified block (header + payload so receivers can extend it).
    pub block: Block,
}

/// A locked block signed by its holder (optimized status entry, §5.6).
#[derive(Debug, Clone, PartialEq)]
pub struct SignedBlock {
    /// The holder's locked block.
    pub block: Block,
    /// The holder.
    pub signer: NodeId,
    /// Signature over `(LockStatus, view, block.id())`.
    pub sig: Signature,
}

/// The status a new-view proposal justifies itself with.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// Full path: f+1 commit certificates (Algorithm 2).
    CommitQcs(Vec<CertifiedBlock>),
    /// Optimized no-progress path: f+1 signed locked blocks (§5.6).
    Locks(Vec<SignedBlock>),
}

/// The first `quorum` of `sigs` in signer order: the signatures a
/// certificate over them quotes.
pub fn first_sigs(sigs: &BTreeMap<NodeId, Signature>, quorum: usize) -> Vec<(NodeId, Signature)> {
    sigs.iter().take(quorum).map(|(n, s)| (*n, s.clone())).collect()
}

impl Status {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.blocks().count()
    }

    /// The entries' blocks, in entry order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        let (qcs, locks): (&[CertifiedBlock], &[SignedBlock]) = match self {
            Status::CommitQcs(v) => (v, &[]),
            Status::Locks(v) => (&[], v),
        };
        qcs.iter().map(|c| &c.block).chain(locks.iter().map(|s| &s.block))
    }

    /// Whether the status is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id and height of the highest block in the status.
    pub fn highest(&self) -> Option<(Digest, u64)> {
        self.blocks().map(|b| (b.id(), b.height)).max_by_key(|(_, h)| *h)
    }
}

impl Hashable for Status {
    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        match self {
            Status::CommitQcs(v) => {
                out.extend_from_slice(&[1]);
                for c in v {
                    c.qc.encode_into(out);
                    c.block.encode_into(out);
                }
            }
            Status::Locks(v) => {
                out.extend_from_slice(&[2]);
                for s in v {
                    s.block.encode_into(out);
                    out.extend_from_slice(&s.signer.to_le_bytes());
                }
            }
        }
    }
}

/// Message payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A proposal for `round` (steady state when `round ≥ 3`; round 2 of a
    /// new view carries the vote certificate in `justify`).
    Propose {
        /// The proposed block.
        block: Block,
        /// The proposal round.
        round: u64,
        /// Round-2 new-view proposals carry the round-1 vote QC.
        justify: Option<QuorumCert>,
    },
    /// Post-quit announcement of the sender's highest committed block.
    CommitUpdate {
        /// The committed block.
        block: Block,
    },
    /// A vote certifying `block_id` at `height` for its announcer.
    Certify {
        /// The certified block id.
        block_id: Digest,
        /// Its height.
        height: u64,
    },
    /// A formed commit certificate plus the certified block.
    CommitQc(CertifiedBlock),
    /// The new leader's round-1 proposal.
    NewViewProposal {
        /// f+1 status entries.
        status: Status,
        /// The round-1 block extending the highest status block.
        block: Block,
    },
    /// A vote on the round-1 proposal (signed over the proposal hash).
    NewViewVote {
        /// `H(prop)`.
        prop_hash: Digest,
    },
    /// Optimized status: the sender's locked block (§5.6).
    LockStatus {
        /// The locked block.
        block: Block,
    },
    /// Blames, chain sync, forwarding and repair: the variants every
    /// family shares.
    Shared(Shared<Payload>),
}

impl SignedPayload for Payload {
    const FAMILY: u8 = family::SIGNED_MSG;

    fn signing_digest(&self, view: u64) -> Digest {
        match self {
            Payload::Propose { block, round, .. } => {
                Digest::of_parts(&[b"propose", block.id().as_bytes(), &round.to_le_bytes()])
            }
            Payload::CommitUpdate { block } => block.id(),
            Payload::Certify { block_id, .. } => *block_id,
            Payload::CommitQc(c) => c.qc.digest(),
            Payload::NewViewProposal { status, block } => {
                Digest::of_parts(&[b"nvp", block.id().as_bytes(), status.digest().as_bytes()])
            }
            Payload::NewViewVote { prop_hash } => *prop_hash,
            Payload::LockStatus { block } => block.id(),
            Payload::Shared(shared) => shared.signing_digest(view),
        }
    }
}

impl SmrPayload for Payload {
    const DOMAIN: &'static [u8] = b"";

    fn shared(&self) -> Option<&Shared<Self>> {
        match self {
            Payload::Shared(shared) => Some(shared),
            _ => None,
        }
    }

    fn from_shared(shared: Shared<Self>) -> Self {
        Payload::Shared(shared)
    }

    fn proposal(&self) -> Option<(&Block, u64)> {
        match self {
            Payload::Propose { block, round, .. } => Some((block, *round)),
            _ => None,
        }
    }
}

/// What the signed [`Envelope`] needs from a payload family. The wire
/// table ([`crate::codec`]) supplies the rest: the [`MsgKind`] tag of each
/// variant and its field codec.
pub trait SignedPayload: WireEnum<Tag = MsgKind> + Clone + core::fmt::Debug {
    /// The frame's family tag (`eesmr_net::codec::family`).
    const FAMILY: u8;

    /// The digest the sender signs for this payload — chosen so that
    /// signatures over semantically aggregatable messages (blames, votes,
    /// certifies) coincide and can form quorum certificates.
    fn signing_digest(&self, view: u64) -> Digest;
}

/// A signed protocol message (the `Msg` envelope of Algorithm 1), over
/// the payload family of one replica protocol: a cheap, immutable handle.
///
/// A clone is a refcount bump, so every delivery of a message, the
/// effects a replica emits, the proposal dedup table and the equivocation
/// proofs that quote it share one allocation per signed message. The
/// fields are read through `Deref` (`msg.payload`, `msg.view`); nothing
/// can write them. The only constructors are [`Envelope::new`], which
/// signs, and [`Envelope::from_parts`], which takes the signature as
/// given — [`Envelope::verify_sig`] is what checks it.
#[derive(Clone, PartialEq)]
pub struct Envelope<P>(Arc<EnvelopeInner<P>>);

/// The content of an [`Envelope`] (see there; reached through `Deref`).
#[derive(Debug, PartialEq)]
pub struct EnvelopeInner<P> {
    /// The payload.
    pub payload: P,
    /// The view this message belongs to.
    pub view: u64,
    /// The signing node.
    pub signer: NodeId,
    /// Signature over `(kind, view, signing_digest)`.
    pub sig: Signature,
    /// `payload.signing_digest(view)`, derived once, where the message is
    /// built: what signing, every verification and the flood key read.
    digest: Digest,
}

impl<P> std::ops::Deref for Envelope<P> {
    type Target = EnvelopeInner<P>;
    fn deref(&self) -> &EnvelopeInner<P> {
        &self.0
    }
}

/// Prints the message as the plain struct it reads as, without the handle
/// or the family's `Shared` wrapper.
impl<P: SmrPayload> fmt::Debug for Envelope<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let payload: &dyn fmt::Debug = match self.payload.shared() {
            Some(shared) => shared,
            None => &self.payload,
        };
        f.debug_struct("Envelope")
            .field("payload", payload)
            .field("view", &self.view)
            .field("signer", &self.signer)
            .field("sig", &self.sig)
            .finish()
    }
}

/// An EESMR replica message.
pub type SignedMsg = Envelope<Payload>;

impl<P: SignedPayload> Envelope<P> {
    /// Signs `payload` for `view` with `keypair` (the `Msg` constructor).
    pub fn new(payload: P, view: u64, keypair: &KeyPair) -> Self {
        let digest = payload.signing_digest(view);
        let sig = keypair.sign(&signing_bytes(payload.tag(), view, &digest));
        let signer = keypair.signer();
        Envelope(Arc::new(EnvelopeInner { payload, view, signer, sig, digest }))
    }

    /// A message with exactly these parts, the signature taken as given:
    /// what the wire decoder builds. A forged or mismatched signature
    /// still fails [`Envelope::verify_sig`]: the signing digest is derived
    /// from the parts here, never taken from a peer.
    pub fn from_parts(payload: P, view: u64, signer: NodeId, sig: Signature) -> Self {
        let digest = payload.signing_digest(view);
        Envelope(Arc::new(EnvelopeInner { payload, view, signer, sig, digest }))
    }

    /// The digest the signature covers with the kind and view:
    /// `payload.signing_digest(view)`, computed when the message was built.
    pub fn signing_digest(&self) -> Digest {
        self.digest
    }

    /// Verifies the envelope signature. Returns whether it is valid; the
    /// check costs exactly one signature verification.
    pub fn verify_sig(&self, pki: &KeyStore) -> bool {
        self.sig.signer() == self.signer
            && pki.verify(&signing_bytes(self.payload.tag(), self.view, &self.digest), &self.sig)
    }

    /// `MatchingMsg` of Algorithm 1.
    pub fn matches(&self, kind: MsgKind, view: u64) -> bool {
        self.payload.tag() == kind && self.view == view
    }

    /// Serialized size: exactly the encoded frame length — header (4) +
    /// kind (1) + view (8) + signer (4) + payload fields + signature (see
    /// [`crate::codec`]).
    pub fn wire_size(&self) -> usize {
        eesmr_net::WireCodec::encoded_len(self)
    }
}

impl<P: SmrPayload> eesmr_net::Message for Envelope<P> {
    fn wire_size(&self) -> usize {
        self.wire_size()
    }

    fn flood_key(&self) -> u64 {
        // Identity for relay-once dedup: kind, view, signer and signing
        // digest make distinct protocol messages distinct. Every blame of a
        // view signs the same digest, so an equivocation blame also names
        // the two proposals it quotes: a node that timeout-blamed a view
        // can still flood its proof in it.
        let (kind, view, signer) =
            ([self.payload.tag() as u8], self.view.to_le_bytes(), self.signer.to_le_bytes());
        let key = match self.payload.shared() {
            Some(Shared::Blame { proof: Some(pair) }) => Digest::of_parts(&[
                &kind,
                &view,
                &signer,
                self.digest.as_bytes(),
                pair.0.digest.as_bytes(),
                pair.1.digest.as_bytes(),
            ]),
            _ => Digest::of_parts(&[&kind, &view, &signer, self.digest.as_bytes()]),
        };
        key.to_u64()
    }

    fn phase(&self) -> eesmr_energy::EnergyPhase {
        use eesmr_energy::EnergyPhase;
        match self.payload.tag() {
            MsgKind::Propose | MsgKind::NewViewProposal | MsgKind::Upload => EnergyPhase::Propose,
            MsgKind::NewViewVote | MsgKind::HsVote | MsgKind::Certify => EnergyPhase::Vote,
            MsgKind::CommitUpdate | MsgKind::CommitQc => EnergyPhase::Commit,
            MsgKind::Blame | MsgKind::BlameQc => EnergyPhase::ViewChange,
            MsgKind::LockStatus => EnergyPhase::Status,
            MsgKind::Forward => EnergyPhase::Forward,
            MsgKind::SyncRequest
            | MsgKind::SyncResponse
            | MsgKind::Repair
            | MsgKind::RepairReply => EnergyPhase::Sync,
        }
    }
}

/// A message is one pointer wide wherever it is moved: through deliveries,
/// effects, handlers and the tables that keep it.
const _: () = assert!(std::mem::size_of::<SignedMsg>() == std::mem::size_of::<usize>());

#[cfg(test)]
mod tests {
    use super::*;
    use eesmr_crypto::SigScheme;

    fn pki() -> KeyStore {
        KeyStore::generate(4, SigScheme::Rsa1024, 99)
    }

    fn propose(view: u64, round: u64, pki: &KeyStore, signer: NodeId) -> SignedMsg {
        let block = Block::extending(&Block::genesis(), view, round, vec![]);
        SignedMsg::new(Payload::Propose { block, round, justify: None }, view, pki.keypair(signer))
    }

    #[test]
    fn tampered_view_fails() {
        let pki = pki();
        let msg = propose(1, 3, &pki, 0);
        let msg = SignedMsg::from_parts(msg.payload.clone(), 2, msg.signer, msg.sig.clone());
        assert!(!msg.verify_sig(&pki));
    }

    #[test]
    fn blame_signing_digests_aggregate() {
        // All blames for a view sign the same digest, so they can form QCs.
        let a = Payload::Shared(Shared::Blame { proof: None }).signing_digest(5);
        let b = Payload::Shared(Shared::Blame { proof: None }).signing_digest(5);
        let c = Payload::Shared(Shared::Blame { proof: None }).signing_digest(6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// A blame signs `("blame", view)` whatever it carries, so the flood
    /// key also covers the proof's two proposals. Without them a node that
    /// timeout-blamed in a view could not flood its equivocation proof in
    /// that view: the runtime dropped it at the origin as a duplicate.
    #[test]
    fn a_blame_with_proof_has_a_flood_key_of_its_own() {
        use eesmr_net::Message as _;
        let pki = pki();
        let g = Block::genesis();
        let conflicting = |tag| {
            let block = Block::extending(&g, 2, 3, vec![crate::block::Command::synthetic(tag, 8)]);
            SignedMsg::new(Payload::Propose { block, round: 3, justify: None }, 2, pki.keypair(1))
        };
        let blame =
            |proof| SignedMsg::new(Payload::Shared(Shared::Blame { proof }), 2, pki.keypair(0));
        let timeout = blame(None);
        let with_proof = blame(Some(Box::new((conflicting(1), conflicting(2)))));
        let other_proof = blame(Some(Box::new((conflicting(1), conflicting(3)))));
        assert_eq!(timeout.sig, with_proof.sig, "one signature over (\"blame\", view)");
        assert_ne!(timeout.flood_key(), with_proof.flood_key());
        assert_ne!(with_proof.flood_key(), other_proof.flood_key());
        assert_eq!(with_proof.flood_key(), with_proof.clone().flood_key());
    }

    #[test]
    fn quorum_cert_verifies_with_distinct_signers() {
        let pki = pki();
        let data = Digest::of(b"blame-data");
        let bytes = signing_bytes(MsgKind::Blame, 3, &data);
        let sigs: Vec<_> = (0..3u32).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
        let qc = QuorumCert { kind: MsgKind::Blame, view: 3, data, height: 0, sigs };
        let (ok, checks) = qc.verify(&pki, 3, |_, _| false);
        assert!(ok);
        assert_eq!(checks, 3);
        // Threshold not met:
        let (ok, _) = qc.verify(&pki, 4, |_, _| false);
        assert!(!ok);
    }

    #[test]
    fn quorum_cert_rejects_duplicate_signers() {
        let pki = pki();
        let data = Digest::of(b"x");
        let bytes = signing_bytes(MsgKind::Certify, 2, &data);
        let sig = pki.keypair(1).sign(&bytes);
        let qc = QuorumCert {
            kind: MsgKind::Certify,
            view: 2,
            data,
            height: 0,
            sigs: vec![(1, sig.clone()), (1, sig)],
        };
        assert!(!qc.verify(&pki, 2, |_, _| false).0);
    }

    #[test]
    fn quorum_cert_rejects_wrong_view_sigs() {
        let pki = pki();
        let data = Digest::of(b"x");
        let bytes = signing_bytes(MsgKind::Certify, 2, &data);
        let sigs: Vec<_> = (0..2u32).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
        let qc = QuorumCert { kind: MsgKind::Certify, view: 3, data, height: 0, sigs };
        assert!(
            !qc.verify(&pki, 2, |_, _| false).0,
            "signatures are over view 2, QC claims view 3"
        );
    }

    #[test]
    fn equivocating_proposals_have_same_kind_view_round_different_digest() {
        let g = Block::genesis();
        let b1 = Block::extending(&g, 1, 3, vec![crate::block::Command::synthetic(1, 8)]);
        let b2 = Block::extending(&g, 1, 3, vec![crate::block::Command::synthetic(2, 8)]);
        let p1 = Payload::Propose { block: b1, round: 3, justify: None };
        let p2 = Payload::Propose { block: b2, round: 3, justify: None };
        assert_ne!(p1.signing_digest(1), p2.signing_digest(1));
    }

    #[test]
    fn status_highest_picks_tallest_block() {
        let g = Block::genesis();
        let b1 = Block::extending(&g, 1, 3, vec![]);
        let b2 = Block::extending(&b1, 1, 4, vec![]);
        let pki = pki();
        let mk = |b: &Block| SignedBlock {
            block: b.clone(),
            signer: 0,
            sig: pki.keypair(0).sign(b.id().as_bytes()),
        };
        let status = Status::Locks(vec![mk(&b1), mk(&b2)]);
        assert_eq!(status.highest(), Some((b2.id(), 2)));
        assert_eq!(status.len(), 2);
        assert!(!status.is_empty());
    }

    #[test]
    fn repair_round_trip_and_digests() {
        let pki = pki();
        let req =
            SignedMsg::new(Payload::Shared(Shared::Repair { from_height: 7 }), 2, pki.keypair(1));
        assert!(req.verify_sig(&pki));
        assert!(req.matches(MsgKind::Repair, 2));
        // header 4 + kind 1 + view 8 + signer 4 + height body 8 +
        // RSA-1024 signature (5 + 128).
        assert_eq!(req.wire_size(), 4 + 1 + 8 + 4 + 8 + (5 + 128));

        let g = Block::genesis();
        let b1 = Block::extending(&g, 1, 3, vec![]);
        let reply = SignedMsg::new(
            Payload::Shared(Shared::RepairReply { blocks: vec![b1.clone()], view: 4 }),
            2,
            pki.keypair(0),
        );
        assert!(reply.verify_sig(&pki));
        assert!(reply.matches(MsgKind::RepairReply, 2));
        // Replies with different chain suffixes or views sign differently.
        let d1 = Payload::Shared(Shared::RepairReply { blocks: vec![b1.clone()], view: 4 })
            .signing_digest(2);
        let d2 = Payload::Shared(Shared::RepairReply { blocks: vec![], view: 4 }).signing_digest(2);
        let d3 =
            Payload::Shared(Shared::RepairReply { blocks: vec![b1], view: 5 }).signing_digest(2);
        assert_ne!(d1, d2);
        assert_ne!(d1, d3);
        assert_ne!(
            Payload::Shared(Shared::Repair { from_height: 7 }).signing_digest(2),
            Payload::Shared(Shared::Repair { from_height: 8 }).signing_digest(2)
        );
    }

    #[test]
    fn wire_sizes_are_plausible() {
        let pki = pki();
        let msg = propose(1, 3, &pki, 0);
        // envelope 17 (frame header 4 + kind 1 + view 8 + signer 4)
        // + empty block (60) + round 8 + justify flag 1
        // + RSA-1024 signature (5 + 128).
        assert_eq!(msg.wire_size(), 17 + 60 + 8 + 1 + (5 + 128));
        let blame =
            SignedMsg::new(Payload::Shared(Shared::Blame { proof: None }), 1, pki.keypair(0));
        assert_eq!(blame.wire_size(), 17 + 1 + (5 + 128));
    }
}
