//! 32-byte digests and hashing helpers.

use core::fmt;

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
}
