//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! The paper instantiates its MAC scheme with HMAC over SHA-256 and 64-byte
//! keys (§5.5). HMAC also backs the simulated signature schemes in
//! [`crate::sig`].

use crate::digest::Digest;
use crate::sha256::Sha256;

const BLOCK_SIZE: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte SHA-256 block are hashed first, per the
/// HMAC specification.
///
/// # Examples
///
/// ```
/// use eesmr_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut key_block = [0u8; BLOCK_SIZE];
    if key.len() > BLOCK_SIZE {
        key_block[..32].copy_from_slice(Sha256::digest(key).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0u8; BLOCK_SIZE];
    let mut opad = [0u8; BLOCK_SIZE];
    for i in 0..BLOCK_SIZE {
        ipad[i] = key_block[i] ^ IPAD;
        opad[i] = key_block[i] ^ OPAD;
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(inner_digest.as_bytes());
    outer.finalize()
}

/// Verifies an HMAC tag in constant shape (full comparison, no early exit on
/// the first mismatching byte).
pub fn hmac_verify(key: &[u8], message: &[u8], tag: &Digest) -> bool {
    tags_equal(&hmac_sha256(key, message), tag)
}

fn tags_equal(expected: &Digest, tag: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(tag.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

/// The per-key half of HMAC-SHA256, done once: the inner and outer hashers
/// with `key ⊕ ipad` / `key ⊕ opad` already absorbed. A tag then costs
/// only the compressions the message itself needs — two for a message of
/// at most 55 bytes — and no allocation.
///
/// [`hmac_sha256`] is the reference these tags are tested against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// The schedule of `key` (at most one SHA-256 block long).
    ///
    /// # Panics
    ///
    /// Panics if `key` is longer than 64 bytes.
    pub fn new(key: &[u8]) -> Self {
        assert!(key.len() <= BLOCK_SIZE, "longer keys are hashed first; use hmac_sha256");
        let mut ipad = [IPAD; BLOCK_SIZE];
        let mut opad = [OPAD; BLOCK_SIZE];
        for (i, k) in key.iter().enumerate() {
            ipad[i] ^= k;
            opad[i] ^= k;
        }
        let (mut inner, mut outer) = (Sha256::new(), Sha256::new());
        inner.update(&ipad);
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// `HMAC-SHA256(key, message)`.
    pub fn tag(&self, message: &[u8]) -> Digest {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }

    /// Verifies a tag over `message` in constant shape.
    pub fn verify(&self, message: &[u8], tag: &Digest) -> bool {
        tags_equal(&self.tag(message), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        // 131-byte key exercises the hash-the-key path.
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_valid_and_rejects_tampered() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(hmac_verify(b"k", b"m", &tag));
        assert!(!hmac_verify(b"k", b"m2", &tag));
        assert!(!hmac_verify(b"k2", b"m", &tag));
        let mut bytes = *tag.as_bytes();
        bytes[0] ^= 1;
        assert!(!hmac_verify(b"k", b"m", &Digest::from_bytes(bytes)));
    }

    #[test]
    fn key_schedule_matches_the_reference() {
        let message: Vec<u8> = (0..150u8).collect();
        for key_len in [0usize, 1, 20, 32, 63, 64] {
            let key = vec![0x42u8; key_len];
            let schedule = HmacKey::new(&key);
            // Around the one-block boundary of the inner hash (55 bytes).
            for len in [0usize, 1, 41, 55, 56, 64, 150] {
                let tag = schedule.tag(&message[..len]);
                assert_eq!(tag, hmac_sha256(&key, &message[..len]), "key {key_len}, len {len}");
                assert!(schedule.verify(&message[..len], &tag));
            }
        }
    }

    #[test]
    fn a_short_message_costs_two_compressions() {
        let schedule = HmacKey::new(&[7u8; 32]);
        for (len, cost) in [(41usize, 2), (55, 2), (56, 3)] {
            let before = crate::sha256::compressions();
            schedule.tag(&[0u8; 64][..len]);
            assert_eq!(crate::sha256::compressions() - before, cost, "{len}-byte message");
        }
    }

    #[test]
    fn exactly_block_size_key() {
        let key = [0x42u8; 64];
        let tag = hmac_sha256(&key, b"edge");
        assert!(hmac_verify(&key, b"edge", &tag));
    }
}
