//! Adversarial decode corpus + golden vectors freezing the v1 wire format.
//!
//! Two jobs:
//!
//! * **Freeze v1.** The golden hex vectors below are byte-for-byte
//!   encodings of fixed messages, each carrying the authenticator the
//!   deterministic HMAC keyring gave it when the layout was frozen (taken
//!   as given; what the keyring signs today is pinned on its own).
//!   If any of them changes, the wire format changed: that requires a
//!   version bump (see the versioning rules in `eesmr_net::codec`), not a
//!   silent re-freeze of the vectors.
//! * **Decode is total.** Truncations at every prefix length, flipped
//!   family/kind tags, bad magic, bad versions, hostile length prefixes,
//!   and plain random garbage must all return a [`CodecError`] — never
//!   panic, never allocate unbounded memory (count prefixes are
//!   bounds-checked against the remaining bytes before any allocation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eesmr_baselines::sync_hotstuff::{HsMsg, HsPayload};
use eesmr_baselines::trusted::{TbMsg, TbPayload};
use eesmr_core::broadcast::{BbMsg, BbPayload};
use eesmr_core::{Command, Commands, Payload, Shared, SignedMsg};
use eesmr_crypto::{Digest, KeyStore, SigScheme, Signature};
use eesmr_net::codec::{family, CodecError, WireCodec, HEADER_LEN, MAGIC, VERSION};

/// The deterministic keyring behind every golden vector.
fn pki() -> KeyStore {
    KeyStore::generate(4, SigScheme::Hmac, 42)
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2));
    (0..s.len() / 2).map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap()).collect()
}

// --- golden vectors (v1, frozen) -----------------------------------------
//
// Layout reminder: magic ee5e | version 01 | family | body | signature
// (scheme tag 0a = HMAC, signer u32, 32-byte authenticator).

/// `SignedMsg { Repair { from_height: 7 }, view: 3, signer: 0 }`.
const SIGNED_REPAIR: &str = "ee5e01010e0300000000000000000000000700000000000000\
                             0a00000000b4f3368d9764f48b6767e2afdca837e7fc2d3c3523a3fbd1e774f1e58188f26a";

/// `SignedMsg { Forward { [Command aabb] }, view: 5, signer: 1 }`.
const SIGNED_FORWARD: &str = "ee5e01010d0500000000000000010000000100000002000000aabb\
                              0a0100000027bcce91fa8041fcc6623a11e4f2bb609bce67c16d92a43221ddbe3be3eb9d05";

/// `BbMsg { CommitVote { H("golden") }, signer: 1 }`.
const BB_COMMIT_VOTE: &str = "ee5e01020501000000dd56de4137951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d\
                              0a010000007b75560540dcda9f409ccd73cc834dbfed29b6d9751d308662a05b6f7c6bca43";

/// `HsMsg { Repair { from_height: 2 }, view: 1, signer: 2 }`.
const HS_REPAIR: &str = "ee5e01030e0100000000000000020000000200000000000000\
                         0a02000000289fa35e4cc0bd07db085bff98db8f65f1a3e2cf58ff5bdfd7b0d3ee4bf6a3cf";

/// `TbMsg { Repair { from_height: 9 }, view: 1, signer: 3 }`. Re-frozen,
/// with the same authenticator, when the trusted baseline moved onto the
/// replica skeleton's signed envelope: its frame gained the envelope's
/// `MsgKind` tag and `view` (the layout of `HsMsg`).
const TB_REPAIR: &str = "ee5e01040e0100000000000000030000000900000000000000\
                         0a03000000946112687fd3b3f64c917a4ea41fbc70effe8b423fdb6d6806627afd3d88f676";

/// The authenticator a golden frame carries, taken as given: its last 32
/// bytes. The vectors freeze the layout, not the keyring that signed them
/// (`keyring_tags_are_pinned` pins that), so a change of key derivation
/// re-captures one pin and leaves every v1 vector byte-for-byte alone.
fn frozen_sig(vector: &str, signer: u32) -> Signature {
    let bytes = unhex(vector);
    let tag: [u8; 32] = bytes[bytes.len() - 32..].try_into().unwrap();
    Signature::from_wire(signer, SigScheme::Hmac, Digest::from_bytes(tag))
}

fn golden_forward_payload() -> Payload {
    Payload::Shared(Shared::Forward {
        commands: Commands::from(vec![Command::new(vec![0xAA, 0xBB])]),
    })
}

fn golden_signed_repair() -> SignedMsg {
    SignedMsg::from_parts(
        Payload::Shared(Shared::Repair { from_height: 7 }),
        3,
        0,
        frozen_sig(SIGNED_REPAIR, 0),
    )
}

fn golden_signed_forward() -> SignedMsg {
    SignedMsg::from_parts(golden_forward_payload(), 5, 1, frozen_sig(SIGNED_FORWARD, 1))
}

fn golden_bb() -> BbMsg {
    BbMsg {
        payload: BbPayload::CommitVote { value_digest: Digest::of(b"golden") },
        signer: 1,
        sig: frozen_sig(BB_COMMIT_VOTE, 1),
    }
}

fn golden_hs() -> HsMsg {
    HsMsg::from_parts(
        HsPayload::Shared(Shared::Repair { from_height: 2 }),
        1,
        2,
        frozen_sig(HS_REPAIR, 2),
    )
}

fn golden_tb() -> TbMsg {
    TbMsg::from_parts(
        TbPayload::Shared(Shared::Repair { from_height: 9 }),
        1,
        3,
        frozen_sig(TB_REPAIR, 3),
    )
}

/// Every golden frame, for the structural sweeps below.
fn all_golden_bytes() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("signed/repair", unhex(SIGNED_REPAIR)),
        ("signed/forward", unhex(SIGNED_FORWARD)),
        ("bb/commit-vote", unhex(BB_COMMIT_VOTE)),
        ("hs/repair", unhex(HS_REPAIR)),
        ("tb/repair", unhex(TB_REPAIR)),
    ]
}

/// Decodes `bytes` as every family; exactly the results, no panics.
fn decode_all(bytes: &[u8]) -> [Result<(), CodecError>; 4] {
    [
        SignedMsg::decode(bytes).map(|_| ()),
        BbMsg::decode(bytes).map(|_| ()),
        HsMsg::decode(bytes).map(|_| ()),
        TbMsg::decode(bytes).map(|_| ()),
    ]
}

#[test]
fn golden_vectors_freeze_the_v1_encoding() {
    assert_eq!(golden_signed_repair().encode(), unhex(SIGNED_REPAIR));
    assert_eq!(golden_signed_forward().encode(), unhex(SIGNED_FORWARD));
    assert_eq!(golden_bb().encode(), unhex(BB_COMMIT_VOTE));
    assert_eq!(golden_hs().encode(), unhex(HS_REPAIR));
    assert_eq!(golden_tb().encode(), unhex(TB_REPAIR));
}

#[test]
fn golden_vectors_decode_to_the_original_messages() {
    assert_eq!(SignedMsg::decode(&unhex(SIGNED_REPAIR)).unwrap(), golden_signed_repair());
    assert_eq!(SignedMsg::decode(&unhex(SIGNED_FORWARD)).unwrap(), golden_signed_forward());
    assert_eq!(BbMsg::decode(&unhex(BB_COMMIT_VOTE)).unwrap(), golden_bb());
    assert_eq!(HsMsg::decode(&unhex(HS_REPAIR)).unwrap(), golden_hs());
    assert_eq!(TbMsg::decode(&unhex(TB_REPAIR)).unwrap(), golden_tb());
}

/// What the deterministic keyring signs for the five golden frames: the
/// `SignedMsg` envelopes as `SignedMsg::new` signs them, the other three
/// over `b"golden"`. The one pin here a change of key derivation moves.
#[test]
fn keyring_tags_are_pinned() {
    let pki = pki();
    let tags = [
        SignedMsg::new(Payload::Shared(Shared::Repair { from_height: 7 }), 3, pki.keypair(0))
            .sig
            .clone(),
        SignedMsg::new(golden_forward_payload(), 5, pki.keypair(1)).sig.clone(),
        pki.keypair(1).sign(b"golden"),
        pki.keypair(2).sign(b"golden"),
        pki.keypair(3).sign(b"golden"),
    ]
    .map(|sig| sig.tag().to_hex());
    assert_eq!(
        tags,
        [
            "7e7d67a053b1aa9e1b9390141789ee2dc77e1d1f3a51f00a418c1a24c790b8b9",
            "6193377ea2ee33cd2190008841f0118683e00136a6ba7df24200e3cf41970f3f",
            "c6db83524a17cbdc5a5c865771b4eceac901b7f406f35659f80c6c59885743a4",
            "b8679474c3f935a5672e05a1802e6ea2cd5e10b46e6c917a397707b168606de8",
            "2c4a8f5206ccdc245f934ed25c89f365b8063c9a7414d8667a3395f168c71d47",
        ]
    );
}

#[test]
fn every_frame_starts_with_magic_version_family() {
    let families =
        [family::SIGNED_MSG, family::SIGNED_MSG, family::BB_MSG, family::HS_MSG, family::TB_MSG];
    for ((label, bytes), fam) in all_golden_bytes().into_iter().zip(families) {
        assert_eq!(&bytes[..2], &MAGIC, "{label}: magic");
        assert_eq!(bytes[2], VERSION, "{label}: version");
        assert_eq!(bytes[3], fam, "{label}: family tag");
        assert!(bytes.len() > HEADER_LEN, "{label}: non-empty body");
    }
}

#[test]
fn truncation_at_every_prefix_is_an_error_never_a_panic() {
    for (label, bytes) in all_golden_bytes() {
        for cut in 0..bytes.len() {
            for result in decode_all(&bytes[..cut]) {
                assert!(result.is_err(), "{label}: decode succeeded on a {cut}-byte prefix");
            }
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    for (label, mut bytes) in all_golden_bytes() {
        bytes[0] ^= 0xFF;
        for result in decode_all(&bytes) {
            assert!(matches!(result, Err(CodecError::BadMagic(_))), "{label}");
        }
    }
}

#[test]
fn unknown_versions_are_rejected() {
    for (label, mut bytes) in all_golden_bytes() {
        for version in [0u8, 2, 0xFF] {
            bytes[2] = version;
            for result in decode_all(&bytes) {
                assert_eq!(result, Err(CodecError::BadVersion(version)), "{label}");
            }
        }
    }
}

#[test]
fn cross_family_decodes_are_rejected() {
    // Every golden frame is a valid message of exactly one family; the
    // other three decoders must identify the family tag as foreign.
    let expected_ok = [0usize, 0, 1, 2, 3]; // index into decode_all's array
    for ((label, bytes), ok) in all_golden_bytes().into_iter().zip(expected_ok) {
        for (ix, result) in decode_all(&bytes).into_iter().enumerate() {
            if ix == ok {
                assert_eq!(result, Ok(()), "{label}: own family decodes");
            } else {
                assert!(
                    matches!(result, Err(CodecError::UnknownTag { what: "message family", .. })),
                    "{label}: family {ix} accepted a foreign frame: {result:?}"
                );
            }
        }
    }
}

#[test]
fn unknown_family_tags_are_rejected() {
    for (label, mut bytes) in all_golden_bytes() {
        for fam in [0u8, 5, 0xEF] {
            bytes[3] = fam;
            for result in decode_all(&bytes) {
                assert!(
                    matches!(result, Err(CodecError::UnknownTag { what: "message family", tag })
                        if tag == fam),
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn flipped_payload_kind_tags_are_rejected() {
    // Byte 4 is the payload kind / variant tag in all four families.
    for (label, mut bytes) in all_golden_bytes() {
        bytes[4] = 0xEF;
        for result in decode_all(&bytes) {
            assert!(
                matches!(result, Err(CodecError::UnknownTag { .. })),
                "{label}: kind 0xEF accepted: {result:?}"
            );
        }
    }
}

#[test]
fn valid_kind_in_the_wrong_family_is_rejected() {
    // HsVote is a real MsgKind but not a SignedMsg payload; Repair is a
    // real MsgKind but not a broadcast payload. Both parse as *tags* and
    // must still fail as *messages*.
    let mut signed = unhex(SIGNED_REPAIR);
    signed[4] = eesmr_core::MsgKind::HsVote as u8;
    assert!(matches!(
        SignedMsg::decode(&signed),
        Err(CodecError::UnknownTag { what: "payload kind", .. })
    ));
    let mut bb = unhex(BB_COMMIT_VOTE);
    bb[4] = eesmr_core::MsgKind::Repair as u8;
    assert!(matches!(
        BbMsg::decode(&bb),
        Err(CodecError::UnknownTag { what: "broadcast kind", .. })
    ));
}

#[test]
fn hostile_count_prefix_is_rejected_before_allocation() {
    // SIGNED_FORWARD's command count sits right after the 17-byte
    // envelope (header 4 + kind 1 + view 8 + signer 4). A count of
    // u32::MAX over ~40 remaining bytes must fail the bound check —
    // `Vec::with_capacity(count)` is never reached.
    let mut bytes = unhex(SIGNED_FORWARD);
    bytes[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        SignedMsg::decode(&bytes),
        Err(CodecError::BadLength { what: "commands", len }) if len == u64::from(u32::MAX)
    ));

    // Same for a byte-string length prefix: the inner command's length.
    let mut bytes = unhex(SIGNED_FORWARD);
    bytes[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        SignedMsg::decode(&bytes),
        Err(CodecError::BadLength { what: "command bytes", .. })
    ));

    // And for the broadcast value slice.
    let value = BbMsg {
        payload: BbPayload::Value { value: vec![7; 16] },
        signer: 0,
        sig: pki().keypair(0).sign(b"v"),
    };
    let mut bytes = value.encode();
    bytes[HEADER_LEN + 5..HEADER_LEN + 9].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(BbMsg::decode(&bytes), Err(CodecError::BadLength { what: "bb value", .. })));
}

#[test]
fn trailing_bytes_are_rejected() {
    for (label, mut bytes) in all_golden_bytes() {
        bytes.push(0);
        for result in decode_all(&bytes) {
            assert!(
                matches!(result, Err(CodecError::Trailing(1)))
                    || matches!(result, Err(CodecError::UnknownTag { what: "message family", .. })),
                "{label}: {result:?}"
            );
        }
    }
}

#[test]
fn corrupted_signature_fields_are_rejected() {
    // Unknown scheme tag (the signature starts after the 8-byte Repair
    // body: header 4 + kind 1 + view 8 + signer 4 + body 8 = 25).
    let mut bytes = unhex(SIGNED_REPAIR);
    bytes[25] = 0xEF;
    assert!(matches!(
        SignedMsg::decode(&bytes),
        Err(CodecError::UnknownTag { what: "signature scheme", .. })
    ));

    // Nonzero padding in a padded scheme (RSA-1024 pads the 32-byte
    // authenticator to 128 bytes) breaks canonicality.
    let rsa = KeyStore::generate(4, SigScheme::Rsa1024, 42);
    let msg = SignedMsg::new(Payload::Shared(Shared::Repair { from_height: 7 }), 3, rsa.keypair(0));
    let mut bytes = msg.encode();
    *bytes.last_mut().unwrap() = 1;
    assert_eq!(
        SignedMsg::decode(&bytes),
        Err(CodecError::NonCanonical("signature padding must be zero"))
    );
}

#[test]
fn single_byte_corruption_never_panics_and_stays_canonical() {
    // Flip each byte of each golden frame two ways. The decoder must
    // return *something*; when it accepts the mutation (a flipped bit in
    // a view number is still a valid message), re-encoding must give
    // back exactly the mutated bytes — the codec has no non-canonical
    // accepting states.
    for (label, bytes) in all_golden_bytes() {
        for pos in 0..bytes.len() {
            for mask in [0x01u8, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= mask;
                if let Ok(msg) = SignedMsg::decode(&mutated) {
                    assert_eq!(msg.encode(), mutated, "{label}: pos {pos} mask {mask:#x}");
                }
                if let Ok(msg) = BbMsg::decode(&mutated) {
                    assert_eq!(msg.encode(), mutated, "{label}: pos {pos} mask {mask:#x}");
                }
                if let Ok(msg) = HsMsg::decode(&mutated) {
                    assert_eq!(msg.encode(), mutated, "{label}: pos {pos} mask {mask:#x}");
                }
                if let Ok(msg) = TbMsg::decode(&mutated) {
                    assert_eq!(msg.encode(), mutated, "{label}: pos {pos} mask {mask:#x}");
                }
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for _ in 0..512 {
        let len = rng.gen_range(0..512usize);
        let mut buf: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = decode_all(&buf);
        // Garbage wearing a valid header is the harder case: the decoder
        // gets past the cheap checks and into the body grammar.
        if buf.len() >= HEADER_LEN {
            buf[..2].copy_from_slice(&MAGIC);
            buf[2] = VERSION;
            buf[3] = [family::SIGNED_MSG, family::BB_MSG, family::HS_MSG, family::TB_MSG]
                [rng.gen_range(0..4usize)];
            let _ = decode_all(&buf);
        }
    }
}

#[test]
fn hostile_count_prefix_is_rejected_at_every_sequence_position() {
    use eesmr_core::message::signing_bytes;
    use eesmr_core::{Block, CertifiedBlock, MsgKind, QuorumCert, SignedBlock, Status};

    /// Splices `u32::MAX` over the count prefix at `at` (after checking
    /// that the honest count really sits there) and expects the bound
    /// check — which runs before `Vec::with_capacity` — to refuse it.
    fn hostile<T: WireCodec + std::fmt::Debug>(label: &str, msg: &T, at: usize, count: u32) {
        let mut bytes = msg.encode();
        assert_eq!(bytes[at..at + 4], count.to_le_bytes(), "{label}: count prefix offset");
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            matches!(T::decode(&bytes), Err(CodecError::BadLength { len, .. }) if len == u64::from(u32::MAX)),
            "{label}: {:?}",
            T::decode(&bytes)
        );
    }

    let pki = pki();
    let kp = pki.keypair(0);
    let block = Block::extending(&Block::genesis(), 1, 3, vec![Command::new(vec![1, 2, 3])]);
    let bytes = signing_bytes(MsgKind::Certify, 1, &block.id());
    let sigs: Vec<_> = (0..2u32).map(|i| (i, pki.keypair(i).sign(&bytes))).collect();
    let qc = QuorumCert { kind: MsgKind::Certify, view: 1, data: block.id(), height: 1, sigs };
    let cert = CertifiedBlock { qc: qc.clone(), block: block.clone() };
    let lock = SignedBlock { block: block.clone(), signer: 0, sig: kp.sign(b"lock") };
    let blocks = vec![block.clone(), block.clone(), block.clone()];

    // Offsets: the signed envelope is 17 bytes (header 4 + kind 1 + view
    // 8 + signer 4); a certificate's signature count follows its kind 1 +
    // view 8 + digest 32 + height 8 = 49; a status' count follows its tag.
    let signed = |payload| SignedMsg::new(payload, 1, kp);
    hostile("qc signatures", &signed(Payload::Shared(Shared::BlameQc(qc.clone()))), 17 + 49, 2);
    let status = Status::CommitQcs(vec![cert.clone()]);
    hostile(
        "commit-qc status",
        &signed(Payload::NewViewProposal { status, block: block.clone() }),
        17 + 1,
        1,
    );
    let status = Status::Locks(vec![lock.clone(), lock]);
    hostile(
        "lock status",
        &signed(Payload::NewViewProposal { status, block: block.clone() }),
        17 + 1,
        2,
    );
    hostile(
        "sync response",
        &signed(Payload::Shared(Shared::SyncResponse { blocks: blocks.clone() })),
        17,
        3,
    );
    hostile(
        "repair reply",
        &signed(Payload::Shared(Shared::RepairReply { blocks: blocks.clone(), view: 2 })),
        17,
        3,
    );

    let hs = |payload| HsMsg::from_parts(payload, 1, 0, kp.sign(b"hs"));
    hostile("hs qc signatures", &hs(HsPayload::Shared(Shared::BlameQc(qc.clone()))), 17 + 49, 2);
    hostile("hs status qc signatures", &hs(HsPayload::Status { cert: Some(cert) }), 17 + 1 + 49, 2);
    hostile(
        "hs sync response",
        &hs(HsPayload::Shared(Shared::SyncResponse { blocks: blocks.clone() })),
        17,
        3,
    );
    hostile(
        "hs repair reply",
        &hs(HsPayload::Shared(Shared::RepairReply { blocks: blocks.clone(), view: 2 })),
        17,
        3,
    );

    // Trusted baseline: the same envelope as Sync HotStuff's.
    let tb = TbMsg::from_parts(
        TbPayload::Shared(Shared::RepairReply { blocks, view: 1 }),
        1,
        3,
        kp.sign(b"tb"),
    );
    hostile("tb repair reply", &tb, 17, 3);

    // Broadcast: the certificate inside a Terminate (header 4 + kind 1 +
    // signer 4).
    let bb = BbMsg {
        payload: BbPayload::Terminate { cert: qc, value: vec![7; 4] },
        signer: 0,
        sig: kp.sign(b"bb"),
    };
    hostile("bb terminate certificate", &bb, 9 + 49, 2);
}
