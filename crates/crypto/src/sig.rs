//! Simulated digital signatures.
//!
//! The offline dependency set contains no real RSA/ECDSA implementation, and
//! the protocols only require signatures for *authentication among simulated
//! parties*. We therefore simulate: a signature is `HMAC-SHA256(K, message)`
//! tagged with the signer id and scheme, where the secret key
//! `K = SHA-256("eesmr-keygen" | seed | "eesmr-sig" | scheme | signer)` is
//! bound to the run seed, the scheme and the signer. Verification
//! recomputes the tag under the signer's registered key.
//!
//! Within the simulation this gives real unforgeability: fault-injection
//! code never holds another node's [`SecretKey`], so it cannot fabricate a
//! tag that verifies — exactly the guarantee the protocol needs to detect
//! equivocation and validate quorum certificates. The *energy* and *size*
//! of each operation come from the scheme catalogue ([`crate::SigScheme`]),
//! so the evaluation is faithful to the paper's measured costs.
//!
//! The domain separation lives in the key, not in the message, and the key
//! and both HMAC pads are absorbed once, in [`KeyPair::derive`]; signing
//! and verifying then hash only the message (see [`HmacKey`]): two
//! compressions for a protocol's 41-byte signing bytes.

use core::fmt;

use crate::digest::Digest;
use crate::hmac::HmacKey;
use crate::scheme::SigScheme;

/// Identifies a signer. Matches the node ids used by the protocol crates.
pub type SignerId = u32;

/// Secret signing key (the HMAC schedule of 32 random bytes).
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    id: SignerId,
    scheme: SigScheme,
    mac: HmacKey,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(id={}, scheme={})", self.id, self.scheme)
    }
}

/// Public verification key.
///
/// In this simulation the verification key carries the same schedule as the
/// secret key (HMAC is symmetric); the asymmetry of a real scheme is
/// enforced by *distribution*: only the [`KeyStore`](crate::KeyStore) hands
/// out `PublicKey`s, and fault injection code only ever receives the keys a
/// real adversary would hold.
#[derive(Clone, PartialEq, Eq)]
pub struct PublicKey {
    id: SignerId,
    scheme: SigScheme,
    mac: HmacKey,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey(id={}, scheme={})", self.id, self.scheme)
    }
}

impl PublicKey {
    /// The signer this key belongs to.
    pub fn signer(&self) -> SignerId {
        self.id
    }

    /// The scheme this key belongs to.
    pub fn scheme(&self) -> SigScheme {
        self.scheme
    }

    /// Wire size of this public key in bytes (real-scheme size).
    pub fn wire_size(&self) -> usize {
        self.scheme.public_key_size()
    }
}

/// A key pair for one node.
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from a seed.
    ///
    /// Deterministic generation keeps simulations reproducible: the same
    /// run seed always produces the same keys, messages, and traces.
    pub fn derive(id: SignerId, scheme: SigScheme, seed: u64) -> Self {
        let mac = HmacKey::new(Digest::of(&key_material(id, scheme, seed)).as_bytes());
        KeyPair {
            secret: SecretKey { id, scheme, mac: mac.clone() },
            public: PublicKey { id, scheme, mac },
        }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The signer id.
    pub fn signer(&self) -> SignerId {
        self.secret.id
    }

    /// The scheme.
    pub fn scheme(&self) -> SigScheme {
        self.secret.scheme
    }

    /// Signs `message`, producing `⟨message⟩_i`'s signature component.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let tag = self.secret.mac.tag(message);
        Signature { signer: self.secret.id, scheme: self.secret.scheme, tag }
    }
}

/// A signature `σ` on a message.
///
/// Wire size reports the *real* scheme's signature size so communication
/// energy is computed faithfully (e.g. 128 B for RSA-1024).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: SignerId,
    scheme: SigScheme,
    tag: Digest,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sig(by={}, {}, {})", self.signer, self.scheme, self.tag.short_hex())
    }
}

impl Signature {
    /// Who produced this signature (claimed; verify before trusting).
    pub fn signer(&self) -> SignerId {
        self.signer
    }

    /// The scheme used.
    pub fn scheme(&self) -> SigScheme {
        self.scheme
    }

    /// Wire size in bytes of the equivalent real-world signature.
    pub fn wire_size(&self) -> usize {
        self.scheme.signature_size()
    }

    /// The raw 32-byte authenticator tag, for wire encoding.
    pub fn tag(&self) -> &Digest {
        &self.tag
    }

    /// Reassembles a signature from decoded wire parts.
    ///
    /// This does not weaken unforgeability: a reassembled signature only
    /// passes [`Signature::verify`] if its tag was produced under the
    /// claimed signer's key, which decoding cannot fabricate.
    pub fn from_wire(signer: SignerId, scheme: SigScheme, tag: Digest) -> Signature {
        Signature { signer, scheme, tag }
    }

    /// Verifies this signature against `message` under `pk`.
    ///
    /// Returns `false` if the key belongs to a different signer or scheme.
    pub fn verify(&self, message: &[u8], pk: &PublicKey) -> bool {
        if pk.id != self.signer || pk.scheme != self.scheme {
            return false;
        }
        pk.mac.verify(message, &self.tag)
    }
}

/// What the HMAC key of `signer` under `scheme` is hashed from: the run
/// seed and the domain, so each (seed, scheme, signer) signs under a key
/// of its own. At most 53 bytes: one SHA-256 compression.
fn key_material(signer: SignerId, scheme: SigScheme, seed: u64) -> Vec<u8> {
    let mut buf = Vec::from(&b"eesmr-keygen"[..]);
    buf.extend_from_slice(&seed.to_le_bytes());
    buf.extend_from_slice(b"eesmr-sig");
    buf.push(scheme.signature_size() as u8); // scheme discriminant via size+name
    buf.extend_from_slice(scheme.name().as_bytes());
    buf.extend_from_slice(&signer.to_le_bytes());
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(id: SignerId) -> KeyPair {
        KeyPair::derive(id, SigScheme::Rsa1024, 7)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = pair(3);
        let sig = kp.sign(b"proposal");
        assert!(sig.verify(b"proposal", kp.public()));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = pair(3);
        let sig = kp.sign(b"proposal");
        assert!(!sig.verify(b"other", kp.public()));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = pair(1);
        let kp2 = pair(2);
        let sig = kp1.sign(b"m");
        assert!(!sig.verify(b"m", kp2.public()));
    }

    #[test]
    fn verify_rejects_cross_scheme() {
        let a = KeyPair::derive(1, SigScheme::Rsa1024, 7);
        let b = KeyPair::derive(1, SigScheme::Hmac, 7);
        let sig = a.sign(b"m");
        assert!(!sig.verify(b"m", b.public()));
    }

    #[test]
    fn derivation_is_deterministic_per_seed() {
        let a = KeyPair::derive(5, SigScheme::Rsa1024, 42);
        let b = KeyPair::derive(5, SigScheme::Rsa1024, 42);
        let c = KeyPair::derive(5, SigScheme::Rsa1024, 43);
        assert_eq!(a.sign(b"x"), b.sign(b"x"));
        assert_ne!(a.sign(b"x"), c.sign(b"x"));
    }

    #[test]
    fn wire_size_tracks_scheme() {
        let rsa = KeyPair::derive(0, SigScheme::Rsa1024, 1).sign(b"m");
        let ecdsa = KeyPair::derive(0, SigScheme::EcdsaSecp256K1, 1).sign(b"m");
        assert_eq!(rsa.wire_size(), 128);
        assert_eq!(ecdsa.wire_size(), 64);
    }

    #[test]
    fn different_signers_produce_different_tags() {
        let s1 = pair(1).sign(b"m");
        let s2 = pair(2).sign(b"m");
        assert_ne!(s1, s2);
    }

    #[test]
    fn debug_output_redacts_key_material() {
        let kp = pair(9);
        let dbg = format!("{:?}", kp);
        // The hex of the key must not appear in debug output.
        let key = Digest::of(&key_material(9, SigScheme::Rsa1024, 7));
        assert!(!dbg.contains(&key.to_hex()));
    }

    #[test]
    fn key_material_fits_one_sha256_block() {
        for scheme in SigScheme::ALL {
            // 55 bytes plus the 9 of SHA-256 padding fill one 64-byte block.
            assert!(key_material(u32::MAX, scheme, u64::MAX).len() <= 55, "{scheme}");
        }
    }

    /// The precomputed schedule is an optimisation only: every tag equals
    /// the reference HMAC of the message under the domain-separated key.
    #[test]
    fn sign_equals_reference_hmac_for_every_scheme() {
        for scheme in SigScheme::ALL {
            for case in 0..32u32 {
                let (id, seed) = (case % 5, u64::from(case) * 31 + 1);
                // 0..=217 pseudo-random bytes: the digest of the case, cycled.
                let noise = Digest::of(&case.to_le_bytes());
                let message: Vec<u8> =
                    noise.as_bytes().iter().cycle().take(case as usize * 7).copied().collect();
                let kp = KeyPair::derive(id, scheme, seed);
                let key = Digest::of(&key_material(id, scheme, seed));
                let expected = crate::hmac::hmac_sha256(key.as_bytes(), &message);
                let sig = kp.sign(&message);
                assert_eq!(*sig.tag(), expected, "{scheme} case {case}");
                assert!(sig.verify(&message, kp.public()));
            }
        }
    }
}
