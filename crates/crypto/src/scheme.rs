//! Signature scheme catalogue with the paper's measured energy costs.
//!
//! Table 2 of the paper reports per-operation energy (in Joules) for signing
//! and verifying under several ECDSA curves, RSA moduli, and HMAC, measured
//! on the NUCLEO-F401RE testbed. Those constants live here, together with
//! real-world signature and public-key sizes so that wire-level message
//! sizes are faithful even though the signatures themselves are simulated
//! (see [`crate::sig`] for the substitution rationale).

use core::fmt;

/// A signature scheme evaluated by the paper (Table 2).
///
/// `Rsa1024` is the paper's recommended choice for CPS (§5.5): cheap
/// verification matches the SMR communication pattern of *one* signer and
/// *many* verifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SigScheme {
    /// ECDSA over brainpoolP160r1.
    EcdsaBp160R1,
    /// ECDSA over brainpoolP256r1.
    EcdsaBp256R1,
    /// ECDSA over NIST P-192 (secp192r1).
    EcdsaSecp192R1,
    /// ECDSA over secp192k1.
    EcdsaSecp192K1,
    /// ECDSA over NIST P-224 (secp224r1).
    EcdsaSecp224R1,
    /// ECDSA over NIST P-256 (secp256r1).
    EcdsaSecp256R1,
    /// ECDSA over secp256k1.
    EcdsaSecp256K1,
    /// RSA with a 1024-bit modulus (80-bit security; the paper's pick).
    Rsa1024,
    /// RSA with a 1260-bit modulus.
    Rsa1260,
    /// RSA with a 2048-bit modulus.
    Rsa2048,
    /// HMAC-SHA256 with 64-byte keys (symmetric; no transferable
    /// authentication).
    Hmac,
}

impl SigScheme {
    /// All schemes measured in Table 2, in the paper's row order.
    pub const ALL: [SigScheme; 11] = [
        SigScheme::EcdsaBp160R1,
        SigScheme::EcdsaBp256R1,
        SigScheme::EcdsaSecp192R1,
        SigScheme::EcdsaSecp192K1,
        SigScheme::EcdsaSecp224R1,
        SigScheme::EcdsaSecp256R1,
        SigScheme::EcdsaSecp256K1,
        SigScheme::Rsa1024,
        SigScheme::Rsa1260,
        SigScheme::Rsa2048,
        SigScheme::Hmac,
    ];

    /// Stable one-byte wire tag for this scheme: its index in
    /// [`SigScheme::ALL`]. Frozen by the v1 wire format — append new
    /// schemes to `ALL`, never reorder.
    pub fn wire_tag(self) -> u8 {
        SigScheme::ALL.iter().position(|s| *s == self).expect("scheme listed in ALL") as u8
    }

    /// Inverse of [`SigScheme::wire_tag`]. `None` for tags this build
    /// does not know (a newer peer's scheme).
    pub fn from_wire_tag(tag: u8) -> Option<SigScheme> {
        SigScheme::ALL.get(tag as usize).copied()
    }

    /// Energy to produce one signature, in Joules (Table 2, "Sign").
    pub fn sign_energy_j(self) -> f64 {
        match self {
            SigScheme::EcdsaBp160R1 => 5.80,
            SigScheme::EcdsaBp256R1 => 13.88,
            SigScheme::EcdsaSecp192R1 => 0.84,
            SigScheme::EcdsaSecp192K1 => 1.16,
            SigScheme::EcdsaSecp224R1 => 1.10,
            SigScheme::EcdsaSecp256R1 => 1.60,
            SigScheme::EcdsaSecp256K1 => 1.72,
            SigScheme::Rsa1024 => 0.40,
            SigScheme::Rsa1260 => 0.79,
            SigScheme::Rsa2048 => 2.41,
            SigScheme::Hmac => 0.19,
        }
    }

    /// Energy to verify one signature, in Joules (Table 2, "Verify").
    pub fn verify_energy_j(self) -> f64 {
        match self {
            SigScheme::EcdsaBp160R1 => 11.03,
            SigScheme::EcdsaBp256R1 => 27.34,
            SigScheme::EcdsaSecp192R1 => 1.50,
            SigScheme::EcdsaSecp192K1 => 2.24,
            SigScheme::EcdsaSecp224R1 => 2.14,
            SigScheme::EcdsaSecp256R1 => 3.04,
            SigScheme::EcdsaSecp256K1 => 3.35,
            SigScheme::Rsa1024 => 0.02,
            SigScheme::Rsa1260 => 0.03,
            SigScheme::Rsa2048 => 0.06,
            SigScheme::Hmac => 0.19,
        }
    }

    /// Size of a signature on the wire, in bytes.
    ///
    /// ECDSA signatures are two field elements; RSA signatures are one
    /// modulus-sized integer; HMAC tags are one SHA-256 output.
    pub fn signature_size(self) -> usize {
        match self {
            SigScheme::EcdsaBp160R1 => 40,
            SigScheme::EcdsaBp256R1 => 64,
            SigScheme::EcdsaSecp192R1 | SigScheme::EcdsaSecp192K1 => 48,
            SigScheme::EcdsaSecp224R1 => 56,
            SigScheme::EcdsaSecp256R1 | SigScheme::EcdsaSecp256K1 => 64,
            SigScheme::Rsa1024 => 128,
            SigScheme::Rsa1260 => 158,
            SigScheme::Rsa2048 => 256,
            SigScheme::Hmac => 32,
        }
    }

    /// Size of a public key, in bytes (uncompressed point for ECDSA,
    /// modulus + exponent for RSA, shared 64-byte key for HMAC).
    pub fn public_key_size(self) -> usize {
        match self {
            SigScheme::EcdsaBp160R1 => 41,
            SigScheme::EcdsaBp256R1 => 65,
            SigScheme::EcdsaSecp192R1 | SigScheme::EcdsaSecp192K1 => 49,
            SigScheme::EcdsaSecp224R1 => 57,
            SigScheme::EcdsaSecp256R1 | SigScheme::EcdsaSecp256K1 => 65,
            SigScheme::Rsa1024 => 132,
            SigScheme::Rsa1260 => 162,
            SigScheme::Rsa2048 => 260,
            SigScheme::Hmac => 64,
        }
    }

    /// Approximate classical security level in bits.
    pub fn security_bits(self) -> u32 {
        match self {
            SigScheme::EcdsaBp160R1 => 80,
            SigScheme::EcdsaBp256R1 => 128,
            SigScheme::EcdsaSecp192R1 | SigScheme::EcdsaSecp192K1 => 96,
            SigScheme::EcdsaSecp224R1 => 112,
            SigScheme::EcdsaSecp256R1 | SigScheme::EcdsaSecp256K1 => 128,
            SigScheme::Rsa1024 => 80,
            SigScheme::Rsa1260 => 88,
            SigScheme::Rsa2048 => 112,
            SigScheme::Hmac => 128,
        }
    }

    /// Whether verification transfers to third parties (digital signature)
    /// or not (MAC). MACs cannot prove equivocation to others (§2).
    pub fn transferable(self) -> bool {
        !matches!(self, SigScheme::Hmac)
    }

    /// Human-readable name matching the paper's Table 2 rows.
    pub fn name(self) -> &'static str {
        match self {
            SigScheme::EcdsaBp160R1 => "ECDSA BP160R1",
            SigScheme::EcdsaBp256R1 => "ECDSA BP256R1",
            SigScheme::EcdsaSecp192R1 => "ECDSA SECP192R1",
            SigScheme::EcdsaSecp192K1 => "ECDSA SECP192K1",
            SigScheme::EcdsaSecp224R1 => "ECDSA SECP224R1",
            SigScheme::EcdsaSecp256R1 => "ECDSA SECP256R1",
            SigScheme::EcdsaSecp256K1 => "ECDSA SECP256K1",
            SigScheme::Rsa1024 => "RSA 1024-bit",
            SigScheme::Rsa1260 => "RSA 1260-bit",
            SigScheme::Rsa2048 => "RSA 2048-bit",
            SigScheme::Hmac => "HMAC",
        }
    }
}

impl fmt::Display for SigScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Default for SigScheme {
    /// The paper's recommended scheme for CPS deployments.
    fn default() -> Self {
        SigScheme::Rsa1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsa1024_matches_paper_table2() {
        assert_eq!(SigScheme::Rsa1024.sign_energy_j(), 0.40);
        assert_eq!(SigScheme::Rsa1024.verify_energy_j(), 0.02);
    }

    #[test]
    fn rsa_is_verification_cheap_ecdsa_is_not() {
        // The paper's key observation (§5.5): RSA verifies cheaply, ECDSA
        // verification costs roughly 2x its signing.
        for s in [SigScheme::Rsa1024, SigScheme::Rsa1260, SigScheme::Rsa2048] {
            assert!(s.verify_energy_j() < s.sign_energy_j() / 10.0, "{s}");
        }
        for s in [SigScheme::EcdsaSecp192R1, SigScheme::EcdsaSecp256K1, SigScheme::EcdsaBp160R1] {
            assert!(s.verify_energy_j() > s.sign_energy_j(), "{s}");
        }
    }

    #[test]
    fn brainpool_more_expensive_than_nist() {
        // §5.5: brainpool curves cost ~5J/11J vs ~1J/2J for NIST curves at
        // comparable sizes.
        assert!(
            SigScheme::EcdsaBp160R1.sign_energy_j() > SigScheme::EcdsaSecp192R1.sign_energy_j()
        );
        assert!(
            SigScheme::EcdsaBp256R1.verify_energy_j() > SigScheme::EcdsaSecp256R1.verify_energy_j()
        );
    }

    #[test]
    fn hmac_is_symmetric_cost() {
        assert_eq!(SigScheme::Hmac.sign_energy_j(), SigScheme::Hmac.verify_energy_j());
        assert!(!SigScheme::Hmac.transferable());
        assert!(SigScheme::Rsa1024.transferable());
    }

    #[test]
    fn sizes_are_positive_and_plausible() {
        for s in SigScheme::ALL {
            assert!(s.signature_size() >= 32, "{s}");
            assert!(s.public_key_size() >= 32, "{s}");
            assert!(s.security_bits() >= 80, "{s}");
        }
        assert_eq!(SigScheme::Rsa1024.signature_size(), 128);
        assert_eq!(SigScheme::EcdsaSecp256K1.signature_size(), 64);
    }

    #[test]
    fn all_contains_every_scheme_once() {
        let mut names: Vec<_> = SigScheme::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SigScheme::ALL.len());
    }

    #[test]
    fn default_is_rsa1024() {
        assert_eq!(SigScheme::default(), SigScheme::Rsa1024);
    }
}
