//! The wire-message abstraction.

use eesmr_energy::EnergyPhase;

/// A protocol message the simulated network can carry.
///
/// Implementations report their **real** wire size (the bytes an equivalent
/// deployment would transmit, including signature bytes at the chosen
/// scheme's size) so transmission energy is priced faithfully, and a
/// `flood_key` that uniquely identifies the message for relay-once
/// deduplication during flooding.
pub trait Message: Clone + core::fmt::Debug {
    /// Serialized size in bytes.
    fn wire_size(&self) -> usize;

    /// A collision-resistant identity for flood deduplication. Two
    /// semantically different messages must return different keys (derive
    /// it from a digest of the canonical encoding). Only broadcast floods
    /// are keyed by it; each `send_to` is a dedup identity of its own.
    fn flood_key(&self) -> u64;

    /// The protocol phase this message belongs to, for energy
    /// attribution: the runtime charges its transmit/receive costs — and
    /// any compute the receiving handler performs — to this phase.
    /// Defaults to [`EnergyPhase::Other`]; protocols override it per
    /// message kind.
    fn phase(&self) -> EnergyPhase {
        EnergyPhase::Other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl Message for Blob {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
        fn flood_key(&self) -> u64 {
            eesmr_crypto::Digest::of(&self.0).to_u64()
        }
    }

    #[test]
    fn flood_keys_differ_for_different_contents() {
        assert_ne!(Blob(vec![1]).flood_key(), Blob(vec![2]).flood_key());
        assert_eq!(Blob(vec![1]).flood_key(), Blob(vec![1]).flood_key());
    }

    #[test]
    fn wire_size_reports_bytes() {
        assert_eq!(Blob(vec![0; 77]).wire_size(), 77);
    }
}
