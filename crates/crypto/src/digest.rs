//! 32-byte digests, hashing helpers, and the table hasher keyed by them.

use core::fmt;
use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

use crate::sha256::Sha256;

/// A 256-bit digest — the output of [`Sha256`].
///
/// The protocol uses digests as block identifiers (`block.parent` is the hash
/// of the parent block) and as compact message references in votes.
///
/// # Examples
///
/// ```
/// use eesmr_crypto::Digest;
///
/// let d = Digest::of(b"block contents");
/// assert_eq!(d, Digest::of(b"block contents"));
/// assert_ne!(d, Digest::of(b"other contents"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Digest([u8; 32]);

/// Digests are uniform already, so a map keyed by one feeds its hasher the
/// first 8 bytes instead of all 32. Equal digests still hash equally.
impl core::hash::Hash for Digest {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.to_u64());
    }
}

impl Digest {
    /// Wire size of a digest in bytes.
    pub const SIZE: usize = 32;

    /// The all-zero digest, used as the parent of the genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes `data` with SHA-256.
    pub fn of(data: &[u8]) -> Self {
        Sha256::digest(data)
    }

    /// Hashes the concatenation of several byte slices.
    ///
    /// Each part is length-prefixed so that `of_parts(&[a, b])` and
    /// `of_parts(&[ab, empty])` differ (no ambiguity attacks).
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        for part in parts {
            h.update(&(part.len() as u64).to_le_bytes());
            h.update(part);
        }
        h.finalize()
    }

    /// Constructs a digest from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex encoding.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
            s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
        }
        s
    }

    /// A short prefix of the hex encoding, handy for logs.
    pub fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Interprets the first 8 bytes as a little-endian integer.
    ///
    /// Used for deterministic pseudo-random choices (e.g. random leader
    /// election seeded by view number).
    pub fn to_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

/// The workspace's one table hasher. Its keys are SHA-256 outputs (a
/// [`Digest`] hashes as its first eight bytes), protocol counters and
/// tuples of those — never client-chosen bytes. Such keys are uniform or
/// made by the program itself, so SipHash's protection against chosen keys
/// buys nothing: a Byzantine leader can cluster its own block ids only by
/// grinding SHA-256, and each such block costs it a signed proposal.
///
/// Each word is folded as `state = (state ^ word) · 0x9E3779B97F4A7C15`,
/// and `finish` rotates left by 20 — a table takes its bucket from the low
/// bits of the hash, while only the high bits of a product depend on every
/// bit of the word (a node-tagged counter keeps the node in the high
/// ones). A single `u64` key hashes to `(key · 0x9E3779B97F4A7C15)
/// .rotate_left(20)`. `write(&[u8])` panics, so a table keyed by bytes
/// cannot adopt it by accident.
///
/// **Nothing may iterate a [`KeyMap`] or [`KeySet`]**: only membership and
/// lookup are ever asked, so the hasher's order is unobservable. A table
/// that needs iteration is a `BTreeMap`.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("table keys are digests and counters, never bytes");
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(20)
    }
}

/// A map on [`KeyHasher`]: keyed by digests and counters, never iterated.
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A set on [`KeyHasher`]: keyed by digests and counters, never iterated.
pub type KeySet<K> = HashSet<K, BuildHasherDefault<KeyHasher>>;

/// Where a canonical encoding goes: a buffer, or straight into a hasher.
pub trait ByteSink {
    /// Appends `bytes`.
    fn extend_from_slice(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    #[inline]
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

/// Types that have a canonical byte encoding for hashing and signing.
///
/// Implementors must guarantee the encoding is injective (distinct values
/// produce distinct encodings), otherwise signatures could be replayed across
/// semantically different messages.
pub trait Hashable {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode_into<S: ByteSink>(&self, out: &mut S);

    /// Canonical encoding as an owned buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// SHA-256 of the canonical encoding, streamed into the hasher without
    /// materialising [`Hashable::encoded`].
    fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        self.encode_into(&mut h);
        h.finalize()
    }
}

impl Hashable for &[u8] {
    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.extend_from_slice(self);
    }
}

impl Hashable for Vec<u8> {
    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.extend_from_slice(self);
    }
}

impl Hashable for Digest {
    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.extend_from_slice(self.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_parts_is_length_prefixed() {
        let a = Digest::of_parts(&[b"ab", b"c"]);
        let b = Digest::of_parts(&[b"a", b"bc"]);
        let c = Digest::of_parts(&[b"abc"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn hex_round_trip_shape() {
        let d = Digest::of(b"x");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(d.short_hex().len(), 8);
        assert!(d.to_hex().starts_with(&d.short_hex()));
    }

    #[test]
    fn zero_digest_is_zero() {
        assert_eq!(Digest::ZERO.to_hex(), "0".repeat(64));
        assert_eq!(Digest::ZERO.to_u64(), 0);
    }

    #[test]
    fn to_u64_differs_across_digests() {
        assert_ne!(Digest::of(b"1").to_u64(), Digest::of(b"2").to_u64());
    }

    #[test]
    fn display_matches_hex() {
        let d = Digest::of(b"display");
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(format!("{d:?}").contains(&d.short_hex()));
    }

    fn hash_one(key: impl core::hash::Hash) -> u64 {
        use core::hash::BuildHasher;
        BuildHasherDefault::<KeyHasher>::default().hash_one(key)
    }

    /// How many of 128 buckets (the low seven bits) 128 keys land in.
    fn buckets<K: core::hash::Hash>(keys: impl Iterator<Item = K>) -> usize {
        keys.map(|k| hash_one(k) & 127).collect::<HashSet<u64>>().len()
    }

    #[test]
    fn key_hasher_spreads_keys_that_differ_only_in_their_high_bits() {
        // Timer ids are `(node << 40) | counter` and the storm's flood
        // keys `(node << 32) | counter`: a table buckets by the low bits
        // of the hash, so those must depend on the node.
        for shift in [32, 40] {
            let spread = buckets((0..128u64).map(|node| (node << shift) | 5));
            assert!(spread > 64, "shift {shift}: only {spread} of 128 buckets");
        }
    }

    #[test]
    fn a_single_u64_key_hashes_as_the_runtime_tables_always_did() {
        // (k · 0x9E3779B97F4A7C15 mod 2⁶⁴).rotate_left(20), computed
        // outside Rust: the flood-dedup and cancelled-timer tables place
        // every key in the bucket they did before the hasher moved here.
        let pinned = [
            (0, 0),
            (1, 0x9b97_f4a7_c159_e377),
            (2, 0x372f_e94f_82a3_c6ef),
            (0xdead_beef, 0xd972_ed26_d9b0_0dfe),
            ((3 << 40) | 7, 0x3127_b096_4933_2f89),
            (u64::MAX, 0x6468_0b58_3eb6_1c88),
        ];
        for (key, hash) in pinned {
            assert_eq!(hash_one(key), hash, "key {key:#x}");
        }
        // A digest is its first eight bytes, as one word.
        let d = Digest::of(b"block");
        assert_eq!(hash_one(d), hash_one(d.to_u64()));
    }

    #[test]
    fn replica_keys_that_differ_in_one_field_spread() {
        // `(view, slot)` keys differing only in the view…
        let spread = buckets((0..128u64).map(|view| (view, 5u64)));
        assert!(spread > 64, "(view, slot): only {spread} of 128 buckets");
        // …and `(Digest, NodeId)` keys differing only in the node.
        let block = Digest::of(b"block");
        let spread = buckets((0..128u32).map(|node| (block, node)));
        assert!(spread > 64, "(digest, node): only {spread} of 128 buckets");
    }

    #[test]
    #[should_panic(expected = "never bytes")]
    fn a_byte_key_panics() {
        hash_one(b"client bytes".as_slice());
    }
}
