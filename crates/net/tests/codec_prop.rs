//! Codec property tests: randomly generated protocol messages round-trip
//! through the v1 wire format for all four families.
//!
//! For every generated message `m` the suite asserts the full triple:
//!
//! * `decode(encode(m)) == m` (structural inversion),
//! * `decode(encode(m)).encode() == encode(m)` (canonical bytes — the
//!   codec has exactly one encoding per value),
//! * `encode(m).len() == m.encoded_len() == m.wire_size()` (the energy
//!   model charges exactly the bytes that cross the wire).
//!
//! The vendored proptest has no combinators, so generation is seed-driven:
//! each case binds one `u64` seed and derives every random choice from a
//! `StdRng` over it, which keeps failures reproducible from the printed
//! seed alone.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eesmr_baselines::sync_hotstuff::{HsMsg, HsPayload};
use eesmr_baselines::trusted::{TbMsg, TbPayload};
use eesmr_core::broadcast::{BbMsg, BbPayload};
use eesmr_core::message::signing_bytes;
use eesmr_core::{
    Block, CertifiedBlock, Command, Commands, MsgKind, Payload, QuorumCert, SignedBlock, SignedMsg,
    Status,
};
use eesmr_crypto::{Digest, Hashable, KeyStore, SigScheme};
use eesmr_net::codec::WireCodec;
use eesmr_net::Message;

/// Keyring size for every generated scenario.
const N: u32 = 4;

/// Distinct shapes `payload_variant` can produce (variants × option arms).
const SIGNED_SHAPES: u32 = 17;
/// Distinct shapes `hs_variant` can produce.
const HS_SHAPES: u32 = 13;
/// Distinct shapes `bb_variant` can produce.
const BB_SHAPES: u32 = 3;
/// Distinct shapes `tb_variant` can produce.
const TB_SHAPES: u32 = 4;

fn rand_scheme(rng: &mut StdRng) -> SigScheme {
    SigScheme::ALL[rng.gen_range(0..SigScheme::ALL.len())]
}

fn rand_pki(rng: &mut StdRng) -> KeyStore {
    let scheme = rand_scheme(rng);
    KeyStore::generate(N as usize, scheme, rng.gen())
}

fn rand_commands(rng: &mut StdRng) -> Commands {
    let count = rng.gen_range(0..4usize);
    let cmds: Vec<Command> = (0..count)
        .map(|_| {
            if rng.gen::<bool>() {
                Command::synthetic(rng.gen(), rng.gen_range(0..64))
            } else {
                let len = rng.gen_range(0..32usize);
                Command::new((0..len).map(|_| rng.gen()).collect())
            }
        })
        .collect();
    Commands::from(cmds)
}

fn rand_block(rng: &mut StdRng) -> Block {
    let mut block = Block::genesis();
    for _ in 0..rng.gen_range(0..3usize) {
        let view = rng.gen_range(0..100u64);
        let round = rng.gen_range(0..50u64);
        block = Block::extending(&block, view, round, rand_commands(rng));
    }
    block
}

fn rand_digest(rng: &mut StdRng) -> Digest {
    Digest::of(&rng.gen::<u64>().to_le_bytes())
}

fn rand_qc(rng: &mut StdRng, pki: &KeyStore, data: Digest) -> QuorumCert {
    let kind = [MsgKind::Certify, MsgKind::HsVote][rng.gen_range(0..2usize)];
    let view = rng.gen_range(0..64u64);
    let bytes = signing_bytes(kind, view, &data);
    let sigs = (0..rng.gen_range(1..=N)).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
    QuorumCert { kind, view, data, height: rng.gen_range(0..1000), sigs }
}

fn rand_cert(rng: &mut StdRng, pki: &KeyStore) -> CertifiedBlock {
    let block = rand_block(rng);
    let qc = rand_qc(rng, pki, block.id());
    CertifiedBlock { qc, block }
}

fn rand_signed_block(rng: &mut StdRng, pki: &KeyStore) -> SignedBlock {
    let block = rand_block(rng);
    let signer = rng.gen_range(0..N);
    let sig = pki.keypair(signer).sign(block.id().as_bytes());
    SignedBlock { block, signer, sig }
}

fn rand_blocks(rng: &mut StdRng) -> Vec<Block> {
    (0..rng.gen_range(0..3usize)).map(|_| rand_block(rng)).collect()
}

/// A simple inner message for equivocation-blame proofs — the codec embeds
/// full frames, so any payload exercises the nesting.
fn blame_inner(rng: &mut StdRng, pki: &KeyStore) -> SignedMsg {
    let payload =
        Payload::Propose { block: rand_block(rng), round: rng.gen_range(1..9), justify: None };
    SignedMsg::new(payload, rng.gen_range(0..100), pki.keypair(rng.gen_range(0..N)))
}

/// One [`Payload`] of shape `ix ∈ 0..SIGNED_SHAPES` (each enum variant,
/// with every `Option`/`Status` arm as its own shape).
fn payload_variant(ix: u32, rng: &mut StdRng, pki: &KeyStore) -> Payload {
    match ix {
        0 => Payload::Propose { block: rand_block(rng), round: rng.gen_range(1..9), justify: None },
        1 => {
            let block = rand_block(rng);
            let justify = Some(rand_qc(rng, pki, block.id()));
            Payload::Propose { block, round: 2, justify }
        }
        2 => Payload::Blame { proof: None },
        3 => {
            Payload::Blame { proof: Some(Box::new((blame_inner(rng, pki), blame_inner(rng, pki)))) }
        }
        4 => {
            let data = rand_digest(rng);
            Payload::BlameQc(rand_qc(rng, pki, data))
        }
        5 => Payload::CommitUpdate { block: rand_block(rng) },
        6 => Payload::Certify { block_id: rand_digest(rng), height: rng.gen() },
        7 => Payload::CommitQc(rand_cert(rng, pki)),
        8 => {
            let count = rng.gen_range(1..3usize);
            let qcs = (0..count).map(|_| rand_cert(rng, pki)).collect();
            Payload::NewViewProposal { status: Status::CommitQcs(qcs), block: rand_block(rng) }
        }
        9 => {
            let count = rng.gen_range(1..3usize);
            let locks = (0..count).map(|_| rand_signed_block(rng, pki)).collect();
            Payload::NewViewProposal { status: Status::Locks(locks), block: rand_block(rng) }
        }
        10 => Payload::NewViewVote { prop_hash: rand_digest(rng) },
        11 => Payload::LockStatus { block: rand_block(rng) },
        12 => Payload::SyncRequest { want: rand_digest(rng) },
        13 => Payload::SyncResponse { blocks: rand_blocks(rng) },
        14 => Payload::Forward { commands: rand_commands(rng) },
        15 => Payload::Repair { from_height: rng.gen() },
        _ => Payload::RepairReply { blocks: rand_blocks(rng), view: rng.gen() },
    }
}

fn signed_msg(ix: u32, rng: &mut StdRng, pki: &KeyStore) -> SignedMsg {
    let payload = payload_variant(ix, rng, pki);
    SignedMsg::new(payload, rng.gen_range(0..1000), pki.keypair(rng.gen_range(0..N)))
}

/// One [`HsPayload`] of shape `ix ∈ 0..HS_SHAPES`.
fn hs_variant(ix: u32, rng: &mut StdRng, pki: &KeyStore) -> HsMsg {
    let mk = |payload, rng: &mut StdRng| {
        let signer = rng.gen_range(0..N);
        let sig = pki.keypair(signer).sign(b"hs");
        HsMsg::from_parts(payload, rng.gen_range(0..1000), signer, sig)
    };
    let payload = match ix {
        0 => HsPayload::Propose { block: rand_block(rng), justify: None },
        1 => {
            let block = rand_block(rng);
            let justify = Some(rand_qc(rng, pki, block.id()));
            HsPayload::Propose { block, justify }
        }
        2 => HsPayload::Vote { block_id: rand_digest(rng), height: rng.gen() },
        3 => HsPayload::Blame { proof: None },
        4 => {
            let a = hs_variant(0, rng, pki);
            let b = hs_variant(1, rng, pki);
            HsPayload::Blame { proof: Some(Box::new((a, b))) }
        }
        5 => {
            let data = rand_digest(rng);
            HsPayload::BlameQc(rand_qc(rng, pki, data))
        }
        6 => HsPayload::Status { cert: None },
        7 => HsPayload::Status { cert: Some(rand_cert(rng, pki)) },
        8 => HsPayload::SyncRequest { want: rand_digest(rng) },
        9 => HsPayload::SyncResponse { blocks: rand_blocks(rng) },
        10 => HsPayload::Forward { commands: rand_commands(rng) },
        11 => HsPayload::Repair { from_height: rng.gen() },
        _ => HsPayload::RepairReply { blocks: rand_blocks(rng), view: rng.gen() },
    };
    mk(payload, rng)
}

/// One [`BbPayload`] of shape `ix ∈ 0..BB_SHAPES`.
fn bb_variant(ix: u32, rng: &mut StdRng, pki: &KeyStore) -> BbMsg {
    let value: Vec<u8> = (0..rng.gen_range(0..64usize)).map(|_| rng.gen()).collect();
    let digest = Digest::of(&value);
    let payload = match ix {
        0 => BbPayload::Value { value },
        1 => BbPayload::CommitVote { value_digest: digest },
        _ => BbPayload::Terminate { cert: rand_qc(rng, pki, digest), value },
    };
    let signer = rng.gen_range(0..N);
    let sig = pki.keypair(signer).sign(b"bb");
    BbMsg { payload, signer, sig }
}

/// One [`TbPayload`] of shape `ix ∈ 0..TB_SHAPES`.
fn tb_variant(ix: u32, rng: &mut StdRng, pki: &KeyStore) -> TbMsg {
    let payload = match ix {
        0 => TbPayload::Request { batch: rand_commands(rng), seq: rng.gen() },
        1 => TbPayload::Ordered { block: rand_block(rng) },
        2 => TbPayload::Repair { from_height: rng.gen() },
        _ => TbPayload::RepairReply { blocks: rand_blocks(rng) },
    };
    let signer = rng.gen_range(0..N);
    let sig = pki.keypair(signer).sign(b"tb");
    TbMsg { payload, signer, sig }
}

/// The full round-trip triple for one message.
fn assert_roundtrip<T>(m: &T)
where
    T: WireCodec + Message + PartialEq + std::fmt::Debug,
{
    let bytes = m.encode();
    assert_eq!(bytes.len(), WireCodec::encoded_len(m), "encoded_len is the frame length");
    assert_eq!(bytes.len(), Message::wire_size(m), "wire_size is the encoded length");
    let back = T::decode(&bytes).expect("well-formed frame decodes");
    assert_eq!(&back, m, "decode inverts encode");
    assert_eq!(back.encode(), bytes, "re-encode reproduces the exact bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// EESMR replica messages: every payload shape, random contents.
    #[test]
    fn signed_msgs_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pki = rand_pki(&mut rng);
        let ix = rng.gen_range(0..SIGNED_SHAPES);
        assert_roundtrip(&signed_msg(ix, &mut rng, &pki));
    }

    /// Byzantine-broadcast messages.
    #[test]
    fn bb_msgs_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pki = rand_pki(&mut rng);
        let ix = rng.gen_range(0..BB_SHAPES);
        assert_roundtrip(&bb_variant(ix, &mut rng, &pki));
    }

    /// Sync HotStuff / OptSync messages.
    #[test]
    fn hs_msgs_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pki = rand_pki(&mut rng);
        let ix = rng.gen_range(0..HS_SHAPES);
        assert_roundtrip(&hs_variant(ix, &mut rng, &pki));
    }

    /// Trusted-baseline messages.
    #[test]
    fn tb_msgs_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pki = rand_pki(&mut rng);
        let ix = rng.gen_range(0..TB_SHAPES);
        assert_roundtrip(&tb_variant(ix, &mut rng, &pki));
    }

    /// A block's memoised id is always the hash of its canonical encoding:
    /// as built, after a clone, and after the wire (which does not carry
    /// it — the decoder derives it from the content again).
    #[test]
    fn block_ids_are_derived_from_content(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let block = rand_block(&mut rng);
        let expected = Digest::of(&block.encoded());
        prop_assert_eq!(block.id(), expected);
        prop_assert_eq!(block.clone().id(), expected);
        let back = Block::decode(&block.encode()).expect("decodes");
        prop_assert_eq!(back.id(), expected);
        prop_assert_eq!(back, block);
    }

    /// The decoded signature still verifies — the wire format carries the
    /// signed content faithfully, not just structurally.
    #[test]
    fn decoded_signed_msgs_still_verify(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pki = rand_pki(&mut rng);
        let ix = rng.gen_range(0..SIGNED_SHAPES);
        let msg = signed_msg(ix, &mut rng, &pki);
        let back = SignedMsg::decode(&msg.encode()).expect("decodes");
        prop_assert!(back.verify_sig(&pki), "signature survives the wire");
    }
}

/// Deterministic sweep: `wire_size() == encode().len()` for **every**
/// variant shape of all four families, under every signature scheme. This
/// is the contract the energy model bills against (README "Known
/// deviations" documents the historical estimate it replaced).
#[test]
fn wire_size_is_the_encoded_length_for_every_variant() {
    let mut rng = StdRng::seed_from_u64(0xEE5); // fixed: this test is exhaustive, not random
    for scheme in SigScheme::ALL {
        let pki = KeyStore::generate(N as usize, scheme, 7);
        for ix in 0..SIGNED_SHAPES {
            assert_roundtrip(&signed_msg(ix, &mut rng, &pki));
        }
        for ix in 0..HS_SHAPES {
            assert_roundtrip(&hs_variant(ix, &mut rng, &pki));
        }
        for ix in 0..BB_SHAPES {
            assert_roundtrip(&bb_variant(ix, &mut rng, &pki));
        }
        for ix in 0..TB_SHAPES {
            assert_roundtrip(&tb_variant(ix, &mut rng, &pki));
        }
    }
}

/// The allocation floors `read_seq` divides the remaining input by are
/// derived from the field lists. Pin them to the values the hand-written
/// decoders used to add up, so a table edit that loosens one is seen.
#[test]
fn derived_floors_match_the_v1_layouts() {
    use eesmr_crypto::Signature;
    use eesmr_net::NodeId;
    assert_eq!(Command::MIN_LEN, 4, "empty byte string");
    assert_eq!(Signature::MIN_LEN, 37, "scheme tag + signer + 32-byte authenticator");
    assert_eq!(Block::MIN_LEN, 60, "digest + three u64s + empty command list");
    assert_eq!(QuorumCert::MIN_LEN, 53, "kind + view + digest + height + empty signature list");
    assert_eq!(<(NodeId, Signature)>::MIN_LEN, 41, "certificate entry: signer + signature");
    assert_eq!(CertifiedBlock::MIN_LEN, 113, "certificate + block");
    assert_eq!(SignedBlock::MIN_LEN, 101, "block + signer + signature");
}

/// `MIN_LEN` really is a floor: no generated value of any family, nor
/// any of the nested types a sequence can hold, encodes shorter — under
/// every signature scheme.
#[test]
fn no_value_encodes_below_its_floor() {
    fn check<T: WireCodec>(v: &T) {
        assert!(T::MIN_LEN <= v.encoded_len(), "floor {} > length {}", T::MIN_LEN, v.encoded_len());
    }
    let mut rng = StdRng::seed_from_u64(0xF100);
    for scheme in SigScheme::ALL {
        let pki = KeyStore::generate(N as usize, scheme, 7);
        for ix in 0..SIGNED_SHAPES {
            check(&signed_msg(ix, &mut rng, &pki));
        }
        for ix in 0..HS_SHAPES {
            check(&hs_variant(ix, &mut rng, &pki));
        }
        for ix in 0..BB_SHAPES {
            check(&bb_variant(ix, &mut rng, &pki));
        }
        for ix in 0..TB_SHAPES {
            check(&tb_variant(ix, &mut rng, &pki));
        }
        for _ in 0..8 {
            let block = rand_block(&mut rng);
            check(&rand_qc(&mut rng, &pki, block.id()));
            check(&block);
            check(&rand_cert(&mut rng, &pki));
            check(&rand_signed_block(&mut rng, &pki));
            check(&rand_commands(&mut rng));
            for command in rand_commands(&mut rng).iter() {
                check(command);
            }
        }
    }
}
