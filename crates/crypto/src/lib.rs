//! Cryptographic substrate for the EESMR reproduction.
//!
//! Provides the primitives §2 of the paper assumes:
//!
//! * [`sha256`] — SHA-256 implemented from scratch (FIPS 180-4), used as the
//!   hash function `H` for block chaining and message digests.
//! * [`hmac`] — HMAC-SHA256, the paper's MAC scheme and the engine behind
//!   the simulated signatures.
//! * [`Digest`] / [`Hashable`] — 32-byte digests and canonical encodings;
//!   [`KeyHasher`] — the one hasher of tables keyed by digests and
//!   counters ([`KeyMap`], [`KeySet`]).
//! * [`SigScheme`] — the Table 2 catalogue of schemes with measured
//!   per-operation energy costs and real-world wire sizes.
//! * [`KeyPair`] / [`Signature`] / [`KeyStore`] — simulated signatures with
//!   a PKI registry (see the [`sig`] module docs for why simulation
//!   preserves the paper's evaluation).
//!
//! # Quick example
//!
//! ```
//! use eesmr_crypto::{KeyStore, SigScheme, Digest};
//!
//! let pki = KeyStore::generate(4, SigScheme::Rsa1024, 7);
//! let block_hash = Digest::of(b"block #1");
//! let sig = pki.keypair(0).sign(block_hash.as_bytes());
//! assert!(pki.verify(block_hash.as_bytes(), &sig));
//! // Energy accounting uses the scheme's measured costs:
//! assert_eq!(sig.scheme().sign_energy_j(), 0.40);
//! ```

// `deny`, not the `forbid` every other crate carries: `sha256` holds the
// workspace's one `unsafe` block (see its module docs) under one `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod hmac;
pub mod keystore;
pub mod scheme;
pub mod sha256;
pub mod sig;

pub use digest::{Digest, Hashable, KeyHasher, KeyMap, KeySet};
pub use keystore::KeyStore;
pub use scheme::SigScheme;
pub use sig::{KeyPair, PublicKey, SecretKey, Signature, SignerId};
