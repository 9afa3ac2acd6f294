//! BLE advertisement k-cast reliability and energy model (paper §5.4,
//! Fig. 2a/2b).
//!
//! BLE advertisements carry at most 25 B of payload (GAP), are link-layer
//! packets with no loss handling, and are made reliable by *redundant
//! transmission*: every fragment is repeated `r` times. A k-cast succeeds
//! only if **all k receivers** get every fragment at least once.
//!
//! Calibration (see README.md, "Known deviations from the paper", for the
//! receiver side): per-packet loss probability
//! `p = 0.2` per receiver and per-advertisement energies of ~0.757 mJ
//! (sender) / ~1.426 mJ (receiver) reproduce the paper's measured operating
//! point — 99.99 % reliability for `k = 7` at ≈5.3 mJ sender and ≈9.98 mJ
//! receiver energy per 25 B message (Fig. 2a).

use crate::medium::Medium;

/// Maximum advertisement payload per the BLE GAP specification (§5.4).
pub const ADV_PAYLOAD_BYTES: usize = 25;

/// Model of redundant-advertisement k-casts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BleKcastModel {
    /// Probability that one advertisement packet is lost at one receiver.
    pub packet_loss: f64,
    /// Sender energy per advertisement packet, mJ.
    pub adv_send_mj: f64,
    /// Receiver energy spent scanning per advertisement slot, mJ.
    pub adv_recv_mj: f64,
}

impl Default for BleKcastModel {
    /// Calibrated to the paper's Fig. 2a operating point.
    fn default() -> Self {
        BleKcastModel { packet_loss: 0.2, adv_send_mj: 5.3 / 7.0, adv_recv_mj: 9.98 / 7.0 }
    }
}

impl BleKcastModel {
    /// Number of 25-byte fragments needed for a `len`-byte message.
    pub fn fragments(len: usize) -> usize {
        len.div_ceil(ADV_PAYLOAD_BYTES).max(1)
    }

    /// Probability that a *single fragment* k-cast with redundancy `r`
    /// fails, i.e. at least one of the `k` receivers misses all `r` copies:
    /// `1 - (1 - p^r)^k`.
    pub fn fragment_failure_prob(&self, k: usize, redundancy: u32) -> f64 {
        let p_missed = self.packet_loss.powi(redundancy as i32);
        1.0 - (1.0 - p_missed).powi(k as i32)
    }

    /// Probability that a whole `len`-byte message k-cast fails (any
    /// fragment missed by any receiver).
    pub fn message_failure_prob(&self, len: usize, k: usize, redundancy: u32) -> f64 {
        let per_fragment_ok = 1.0 - self.fragment_failure_prob(k, redundancy);
        1.0 - per_fragment_ok.powi(Self::fragments(len) as i32)
    }

    /// The smallest redundancy factor whose *fragment* failure probability
    /// is at most `1 - reliability` (e.g. `reliability = 0.9999` for the
    /// paper's four-nines setting).
    ///
    /// # Panics
    ///
    /// Panics if `reliability` is not in `(0, 1)` or `packet_loss` is not
    /// in `(0, 1)`.
    pub fn redundancy_for(&self, k: usize, reliability: f64) -> u32 {
        assert!((0.0..1.0).contains(&reliability) && reliability > 0.0, "reliability in (0,1)");
        assert!(
            self.packet_loss > 0.0 && self.packet_loss < 1.0,
            "loss probability must be in (0,1)"
        );
        let mut r = 1u32;
        while self.fragment_failure_prob(k, r) > 1.0 - reliability {
            r += 1;
            assert!(r < 10_000, "unreachable reliability target");
        }
        r
    }

    /// Sender energy (mJ) for k-casting a `len`-byte message with
    /// redundancy `r`: every fragment transmitted `r` times.
    pub fn kcast_send_mj(&self, len: usize, redundancy: u32) -> f64 {
        Self::fragments(len) as f64 * redundancy as f64 * self.adv_send_mj
    }

    /// Per-receiver energy (mJ) spent scanning the `r`-redundant
    /// transmission of a `len`-byte message.
    pub fn kcast_recv_mj(&self, len: usize, redundancy: u32) -> f64 {
        Self::fragments(len) as f64 * redundancy as f64 * self.adv_recv_mj
    }

    /// Sender energy for a k-cast at a target reliability (picks the
    /// redundancy automatically).
    pub fn reliable_kcast_send_mj(&self, len: usize, k: usize, reliability: f64) -> f64 {
        self.kcast_send_mj(len, self.redundancy_for(k, reliability))
    }

    /// Per-receiver energy for a k-cast at a target reliability.
    pub fn reliable_kcast_recv_mj(&self, len: usize, k: usize, reliability: f64) -> f64 {
        self.kcast_recv_mj(len, self.redundancy_for(k, reliability))
    }
}

/// Model of BLE GATT unicasts (Fig. 2b's comparison arm).
///
/// GATT is connection-oriented and handles retransmission internally, so it
/// is reliable; the costs are the Table 1 BLE unicast columns plus a
/// per-message connection overhead. The paper notes the testbed boards
/// cannot hold concurrent GATT connections, so a `d_out`-neighbour transfer
/// pays the overhead once per neighbour, sequentially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BleGattModel {
    /// Connection setup/teardown energy per message per link, mJ.
    pub connection_overhead_mj: f64,
}

impl Default for BleGattModel {
    fn default() -> Self {
        // Calibrated so the Fig. 2b crossover (unicast overtakes k-cast for
        // larger payloads) falls inside the plotted 100–500 B range.
        BleGattModel { connection_overhead_mj: 3.0 }
    }
}

impl BleGattModel {
    /// Sender energy (mJ) to deliver `len` bytes to `d_out` neighbours over
    /// sequential GATT connections.
    pub fn unicast_send_mj(&self, len: usize, d_out: usize) -> f64 {
        d_out as f64 * (self.connection_overhead_mj + Medium::Ble.send_mj(len))
    }

    /// Receiver energy (mJ) to accept `len` bytes over `d_in` GATT links.
    pub fn unicast_recv_mj(&self, len: usize, d_in: usize) -> f64 {
        d_in as f64 * (self.connection_overhead_mj + Medium::Ble.recv_mj(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_count_matches_gap_limit() {
        assert_eq!(BleKcastModel::fragments(1), 1);
        assert_eq!(BleKcastModel::fragments(25), 1);
        assert_eq!(BleKcastModel::fragments(26), 2);
        assert_eq!(BleKcastModel::fragments(256), 11);
        assert_eq!(BleKcastModel::fragments(0), 1, "empty messages still cost one packet");
    }

    #[test]
    fn paper_operating_point_k7_four_nines() {
        // Fig 2a: 99.99% at ~5.3 mJ sender / ~9.98 mJ receiver for k = 7.
        let m = BleKcastModel::default();
        let r = m.redundancy_for(7, 0.9999);
        assert_eq!(r, 7);
        let send = m.kcast_send_mj(25, r);
        let recv = m.kcast_recv_mj(25, r);
        assert!((send - 5.3).abs() < 0.05, "sender {send} mJ");
        assert!((recv - 9.98).abs() < 0.05, "receiver {recv} mJ");
    }

    #[test]
    fn failure_rate_decreases_exponentially_with_redundancy() {
        // Fig 2a: failure rates drop exponentially as redundancy (energy)
        // increases.
        let m = BleKcastModel::default();
        let f: Vec<f64> = (1..=8).map(|r| m.fragment_failure_prob(7, r)).collect();
        for w in f.windows(2) {
            assert!(w[1] < w[0] * 0.5, "at least halving per extra copy: {w:?}");
        }
    }

    #[test]
    fn higher_k_needs_more_energy_for_same_reliability() {
        // Fig 2a: failure probability increases with k, so the energy for
        // 99.99% grows with k.
        let m = BleKcastModel::default();
        let e1 = m.reliable_kcast_send_mj(25, 1, 0.9999);
        let e3 = m.reliable_kcast_send_mj(25, 3, 0.9999);
        let e7 = m.reliable_kcast_send_mj(25, 7, 0.9999);
        assert!(e1 <= e3 && e3 <= e7);
        assert!(
            m.fragment_failure_prob(7, 3) > m.fragment_failure_prob(3, 3)
                && m.fragment_failure_prob(3, 3) > m.fragment_failure_prob(1, 3)
        );
    }

    #[test]
    fn message_failure_accounts_for_fragments() {
        let m = BleKcastModel::default();
        let single = m.message_failure_prob(25, 3, 5);
        let multi = m.message_failure_prob(250, 3, 5);
        assert!(multi > single);
        // 10 fragments ≈ 10x the failure odds at small probabilities.
        assert!((multi / single - 10.0).abs() < 0.5);
    }

    #[test]
    fn redundancy_one_when_target_is_loose() {
        let m = BleKcastModel { packet_loss: 0.01, ..Default::default() };
        assert_eq!(m.redundancy_for(1, 0.9), 1);
    }

    #[test]
    #[should_panic(expected = "reliability in (0,1)")]
    fn reliability_must_be_a_probability() {
        let m = BleKcastModel::default();
        let _ = m.redundancy_for(3, 1.0);
    }

    #[test]
    fn unicast_scales_linearly_with_neighbours() {
        // Fig 2b: energy over equivalent unicasts grows linearly with k.
        let g = BleGattModel::default();
        let one = g.unicast_send_mj(300, 1);
        let seven = g.unicast_send_mj(300, 7);
        assert!((seven / one - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fig2b_crossover_unicast_wins_for_large_payloads() {
        // Fig 2b: for d_out = 1 the unicast is cheaper than a k=7 k-cast at
        // large payloads, while the k-cast is competitive at k=7 unicast
        // fan-out for small payloads.
        let kc = BleKcastModel::default();
        let g = BleGattModel::default();
        let payload = 500;
        assert!(g.unicast_send_mj(payload, 1) < kc.reliable_kcast_send_mj(payload, 7, 0.9999));
        let small = 25;
        assert!(kc.reliable_kcast_send_mj(small, 7, 0.9999) < g.unicast_send_mj(small, 7));
    }
}
