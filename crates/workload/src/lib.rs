//! Deterministic client-workload generation for EESMR experiments.
//!
//! The paper evaluates EESMR under sustained client traffic; this crate
//! models that traffic instead of the uniform synthetic `offered_load`
//! knob: a [`Workload`] combines an [`ArrivalProcess`] (constant,
//! Poisson, bursty on/off, diurnal), a per-node [`Skew`] (uniform, Zipf,
//! hotspot), a [`PayloadDist`] for transaction sizes, and an
//! [`Injection`] discipline (open loop, or closed loop with a bounded
//! number of in-flight transactions per node).
//!
//! [`Workload::node_source`] materializes one node's share as a
//! [`NodeWorkload`] implementing
//! [`eesmr_core::WorkloadSource`] — the protocol crates drive it from
//! arrival timer events and stamp each injected transaction with its
//! birth time, so run reports can attribute end-to-end commit latency
//! per transaction.
//!
//! **Determinism contract:** all sampling is integer/fixed-point off the
//! vendored `rand` (see [`process`]), and each node's stream is seeded
//! only by `(seed, node)` — a workload trace is bit-identical across
//! worker counts and platforms.
//!
//! ```
//! use eesmr_workload::{ArrivalProcess, Skew, Workload};
//!
//! let w = Workload::new(ArrivalProcess::Poisson { rate: 2_000 })
//!     .skew(Skew::Hotspot { pct: 80 })
//!     .closed_loop(32);
//! assert_eq!(w.label(), "poisson2000/hot80/closed32");
//! // Node 0 carries 80 % of the load; the rest split the remainder.
//! assert_eq!(w.skew.weight_ppm(0, 5), 800_000);
//! assert_eq!(w.skew.weight_ppm(1, 5), 50_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod process;

use eesmr_core::{Command, WorkloadSource};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

pub use process::{ArrivalProcess, ArrivalSampler};

/// How the system-wide arrival rate splits across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Skew {
    /// Every node carries an equal share.
    Uniform,
    /// Node `i` carries a share proportional to `1/(i+1)` (Zipf with
    /// exponent 1 over node rank).
    Zipf,
    /// The first node carries `pct` percent of the load; the rest split
    /// the remainder evenly.
    Hotspot {
        /// Percent of the total load on the hot node (clamped to 100).
        pct: u32,
    },
}

impl Skew {
    /// The load share of `slot` among `slots` nodes, in parts per
    /// million. Shares sum to ≤ 10⁶ (integer rounding loses at most
    /// `slots` ppm).
    pub fn weight_ppm(&self, slot: usize, slots: usize) -> u64 {
        assert!(slot < slots, "slot {slot} out of range for {slots} slots");
        const ONE: u64 = 1_000_000;
        match *self {
            Skew::Uniform => {
                let base = ONE / slots as u64;
                let rem = (ONE % slots as u64) as usize;
                base + u64::from(slot < rem)
            }
            Skew::Zipf => {
                let raw = |i: usize| 1_000_000_000u64 / (i as u64 + 1);
                let total: u64 = (0..slots).map(raw).sum();
                raw(slot) * ONE / total
            }
            Skew::Hotspot { pct } => {
                let pct = pct.min(100) as u64;
                if slot == 0 || slots == 1 {
                    if slots == 1 {
                        ONE
                    } else {
                        pct * 10_000
                    }
                } else {
                    (ONE - pct * 10_000) / (slots as u64 - 1)
                }
            }
        }
    }

    /// Short label for scenario names, e.g. `zipf` or `hot90`.
    pub fn label(&self) -> String {
        match self {
            Skew::Uniform => "uniform".to_string(),
            Skew::Zipf => "zipf".to_string(),
            Skew::Hotspot { pct } => format!("hot{}", (*pct).min(100)),
        }
    }
}

/// Transaction payload sizes.
///
/// Sampled sizes are floored at 12 bytes: every generated command
/// carries a node-id + sequence-number header so commands are globally
/// unique, and the header sets the minimum wire size. Distributions
/// whose support lies below 12 B therefore all produce 12-byte
/// transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadDist {
    /// Every transaction is exactly this many bytes.
    Fixed(usize),
    /// Uniform between `min` and `max` bytes inclusive.
    Uniform {
        /// Smallest payload.
        min: usize,
        /// Largest payload.
        max: usize,
    },
    /// Mostly `small`-byte transactions with `large_pct` percent
    /// `large`-byte ones (a point-of-sale / firmware-blob mix).
    Bimodal {
        /// Common payload size.
        small: usize,
        /// Rare payload size.
        large: usize,
        /// Percent of transactions at the large size (clamped to 100).
        large_pct: u32,
    },
}

impl PayloadDist {
    /// Samples one payload size.
    fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            PayloadDist::Fixed(len) => len,
            PayloadDist::Uniform { min, max } => {
                let (lo, hi) = (min.min(max), min.max(max));
                lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
            }
            PayloadDist::Bimodal { small, large, large_pct } => {
                if rng.next_u64() % 100 < large_pct.min(100) as u64 {
                    large
                } else {
                    small
                }
            }
        }
    }

    /// Short label, e.g. `16B` or `16..256B`.
    pub fn label(&self) -> String {
        match self {
            PayloadDist::Fixed(len) => format!("{len}B"),
            PayloadDist::Uniform { min, max } => format!("{min}..{max}B"),
            PayloadDist::Bimodal { small, large, large_pct } => {
                format!("{small}B+{large_pct}%x{large}B")
            }
        }
    }
}

/// Open- vs closed-loop injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Injection {
    /// Arrivals inject unconditionally (an open system).
    Open,
    /// A node injects only while it has fewer than `max_in_flight`
    /// uncommitted transactions of its own — the classic closed-loop
    /// client that waits for completions before issuing more.
    Closed {
        /// In-flight bound per node.
        max_in_flight: usize,
    },
}

/// A complete client-workload description: what arrives, where, how big,
/// and under which loop discipline. `Copy + Eq + Hash` so workloads can
/// serve as a grid-cell axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Workload {
    /// The system-wide arrival process.
    pub arrival: ArrivalProcess,
    /// Per-node load split.
    pub skew: Skew,
    /// Transaction payload sizes.
    pub payload: PayloadDist,
    /// Injection discipline.
    pub injection: Injection,
}

impl Workload {
    /// A workload with the given arrival process, uniform skew, 16-byte
    /// payloads, and open-loop injection.
    pub fn new(arrival: ArrivalProcess) -> Self {
        Workload {
            arrival,
            skew: Skew::Uniform,
            payload: PayloadDist::Fixed(16),
            injection: Injection::Open,
        }
    }

    /// Sets the per-node skew.
    pub fn skew(mut self, skew: Skew) -> Self {
        self.skew = skew;
        self
    }

    /// Sets the payload-size distribution.
    pub fn payload(mut self, payload: PayloadDist) -> Self {
        self.payload = payload;
        self
    }

    /// Switches to closed-loop injection with the given per-node
    /// in-flight bound (clamped to ≥ 1).
    pub fn closed_loop(mut self, max_in_flight: usize) -> Self {
        self.injection = Injection::Closed { max_in_flight: max_in_flight.max(1) };
        self
    }

    /// Label used in scenario names and the `workload` report column,
    /// e.g. `poisson2000/zipf/open` (payload is appended only when it
    /// differs from the 16-byte default).
    pub fn label(&self) -> String {
        let mut label = format!("{}/{}", self.arrival.label(), self.skew.label());
        match self.injection {
            Injection::Open => label.push_str("/open"),
            Injection::Closed { max_in_flight } => {
                label.push_str(&format!("/closed{max_in_flight}"));
            }
        }
        if self.payload != PayloadDist::Fixed(16) {
            label.push_str(&format!("/{}", self.payload.label()));
        }
        label
    }

    /// Materializes one node's share of this workload. `node` namespaces
    /// the generated commands (so two nodes never fabricate identical
    /// bytes); `slot`/`slots` index into the skew (protocols whose node 0
    /// is infrastructure — the trusted hub — map spokes to slots
    /// `0..n-1`); `seed` is the scenario seed.
    pub fn node_source(&self, node: u32, slot: usize, slots: usize, seed: u64) -> NodeWorkload {
        let weight = self.skew.weight_ppm(slot, slots);
        NodeWorkload {
            node,
            sampler: ArrivalSampler::new(self.arrival, weight, mix(seed, node as u64, 0xA11C)),
            payload: self.payload,
            injection: self.injection,
            payload_rng: StdRng::seed_from_u64(mix(seed, node as u64, 0x9A10)),
            seq: 0,
            injected: 0,
            suppressed: 0,
        }
    }
}

/// SplitMix64-style seed derivation: decorrelates per-node RNG streams
/// from the scenario seed and from each other.
fn mix(seed: u64, node: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(node.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One node's live workload stream: the [`WorkloadSource`] the protocol
/// crates drive from arrival timer events.
#[derive(Debug)]
pub struct NodeWorkload {
    node: u32,
    sampler: ArrivalSampler,
    payload: PayloadDist,
    injection: Injection,
    payload_rng: StdRng,
    seq: u64,
    injected: u64,
    suppressed: u64,
}

impl NodeWorkload {
    /// Transactions injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Arrivals suppressed by the closed-loop bound.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Builds the next transaction: node id and sequence number in the
    /// first 12 bytes (so commands are globally unique), zero-padded to
    /// the sampled payload size.
    fn build_command(&mut self, len: usize) -> Command {
        let seq = self.seq;
        self.seq += 1;
        let mut bytes = vec![0u8; len.max(12)];
        bytes[..4].copy_from_slice(&self.node.to_le_bytes());
        bytes[4..12].copy_from_slice(&seq.to_le_bytes());
        Command::new(bytes)
    }
}

impl WorkloadSource for NodeWorkload {
    fn next_arrival_in(&mut self, now_us: u64) -> Option<u64> {
        // ≥ 1 µs keeps arrival events strictly advancing virtual time
        // (caps one node at 10⁶ arrivals per virtual second).
        self.sampler.next_after(now_us).map(|at| at.saturating_sub(now_us).max(1))
    }

    fn arrival(&mut self, _now_us: u64, in_flight: usize) -> Option<Command> {
        if let Injection::Closed { max_in_flight } = self.injection {
            if in_flight >= max_in_flight {
                self.suppressed += 1;
                return None;
            }
        }
        let len = self.payload.sample(&mut self.payload_rng);
        self.injected += 1;
        Some(self.build_command(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_weights_sum_close_to_one() {
        for skew in [Skew::Uniform, Skew::Zipf, Skew::Hotspot { pct: 90 }] {
            for slots in [1usize, 2, 5, 16] {
                let sum: u64 = (0..slots).map(|s| skew.weight_ppm(s, slots)).sum();
                assert!(
                    sum <= 1_000_000 && sum >= 1_000_000 - slots as u64,
                    "{skew:?} over {slots} slots summed to {sum} ppm"
                );
            }
        }
    }

    #[test]
    fn zipf_is_rank_decreasing_and_hotspot_concentrates() {
        let w: Vec<u64> = (0..6).map(|s| Skew::Zipf.weight_ppm(s, 6)).collect();
        assert!(w.windows(2).all(|p| p[0] >= p[1]), "{w:?}");
        assert!(w[0] > 2 * w[5], "rank 0 dominates rank 5: {w:?}");
        assert_eq!(Skew::Hotspot { pct: 100 }.weight_ppm(1, 4), 0);
        assert_eq!(Skew::Hotspot { pct: 50 }.weight_ppm(0, 3), 500_000);
    }

    #[test]
    fn payload_dist_samples_within_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = PayloadDist::Uniform { min: 16, max: 64 };
        for _ in 0..200 {
            let len = d.sample(&mut rng);
            assert!((16..=64).contains(&len));
        }
        let b = PayloadDist::Bimodal { small: 16, large: 256, large_pct: 25 };
        let large = (0..400).filter(|_| b.sample(&mut rng) == 256).count();
        assert!((40..160).contains(&large), "~25% large, got {large}/400");
    }

    #[test]
    fn commands_are_namespaced_per_node() {
        let w = Workload::new(ArrivalProcess::Constant { rate: 100 });
        let mut a = w.node_source(0, 0, 2, 42);
        let mut b = w.node_source(1, 1, 2, 42);
        let ca = a.arrival(0, 0).unwrap();
        let cb = b.arrival(0, 0).unwrap();
        assert_ne!(ca, cb, "same seq on different nodes must differ");
        assert_eq!(ca.len(), 16);
    }

    #[test]
    fn closed_loop_suppresses_at_the_bound() {
        let w = Workload::new(ArrivalProcess::Poisson { rate: 100 }).closed_loop(4);
        let mut src = w.node_source(0, 0, 1, 1);
        assert!(src.arrival(0, 3).is_some(), "below the bound injects");
        assert!(src.arrival(0, 4).is_none(), "at the bound suppresses");
        assert!(src.arrival(0, 9).is_none(), "above the bound suppresses");
        assert_eq!(src.injected(), 1);
        assert_eq!(src.suppressed(), 2);
    }

    #[test]
    fn labels_are_compact_and_csv_safe() {
        let w = Workload::new(ArrivalProcess::Bursty { rate: 3_000, on_ms: 50, off_ms: 150 })
            .skew(Skew::Zipf)
            .payload(PayloadDist::Uniform { min: 16, max: 128 });
        let label = w.label();
        assert_eq!(label, "bursty3000on50off150/zipf/open/16..128B");
        assert!(!label.contains(',') && !label.contains(' '));
    }
}
