//! Per-link energy pricing for the simulated network.
//!
//! A [`ChannelCost`] prices one hyper-edge transmission: what the sender
//! pays to put a message on the air and what each receiver pays to take it
//! off. The two variants are the media the simulated protocols run on:
//! redundant BLE advertisements (k-casts) and plain per-byte media (WiFi /
//! 4G). The §5.4 comparison with BLE GATT unicast connections prices GATT
//! through [`eesmr_energy::BleGattModel`] directly.

use eesmr_energy::{BleKcastModel, EnergyClass, Medium};

use crate::time::SimDuration;

/// Prices one transmission over a hyper-edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelCost {
    /// BLE advertisement k-cast with fixed redundancy (the protocol
    /// experiments use the redundancy for 99.99 % reliability, §5.6).
    BleKcast {
        /// Loss / energy model.
        model: BleKcastModel,
        /// Redundant transmissions per fragment.
        redundancy: u32,
    },
    /// A plain medium where a k-receiver edge costs `k` unicasts.
    PerByte {
        /// The underlying medium.
        medium: Medium,
    },
}

impl ChannelCost {
    /// The paper's default experimental channel: BLE k-casts tuned for
    /// 99.99 % per-link reliability at degree `k`.
    pub fn ble_four_nines(k: usize) -> Self {
        let model = BleKcastModel::default();
        let redundancy = model.redundancy_for(k, 0.9999);
        ChannelCost::BleKcast { model, redundancy }
    }

    /// Sender-side energy (mJ) for transmitting `bytes` to `k` receivers.
    pub fn send_mj(&self, bytes: usize, k: usize) -> f64 {
        match self {
            ChannelCost::BleKcast { model, redundancy } => {
                // One advertisement train reaches all k listeners.
                model.kcast_send_mj(bytes, *redundancy)
            }
            ChannelCost::PerByte { medium } => k as f64 * medium.send_mj(bytes),
        }
    }

    /// Receiver-side energy (mJ) for one node receiving `bytes`.
    pub fn recv_mj(&self, bytes: usize) -> f64 {
        match self {
            ChannelCost::BleKcast { model, redundancy } => model.kcast_recv_mj(bytes, *redundancy),
            ChannelCost::PerByte { medium } => medium.recv_mj(bytes),
        }
    }

    /// Receiver-side energy (mJ) for scanning a transmission of a message
    /// the node already holds. On the advertisement channel the first
    /// decoded packet carries the message identity, so a scanner
    /// recognizes the duplicate there and abandons the rest of the
    /// redundant train — one advertisement slot instead of
    /// `fragments × redundancy`. Per-byte media have no train to
    /// abandon: a duplicate transfer is paid in full.
    pub fn dup_recv_mj(&self, bytes: usize) -> f64 {
        match self {
            ChannelCost::BleKcast { model, .. } => model.adv_recv_mj,
            ChannelCost::PerByte { .. } => self.recv_mj(bytes),
        }
    }

    /// Receiver-side energy (mJ) for a message that arrives while the
    /// scanner's radio is already on for another reception. The full
    /// [`recv_mj`](Self::recv_mj) cost prices a whole scan window (radio
    /// on for the length of a redundant advertisement train); a second
    /// train overlapping that window is decoded from the *same* scan, so
    /// its marginal cost is one decode per fragment, not another full
    /// window. Per-byte media have no shared scan: every transfer is paid
    /// in full.
    pub fn shared_recv_mj(&self, bytes: usize) -> f64 {
        match self {
            ChannelCost::BleKcast { model, .. } => {
                BleKcastModel::fragments(bytes) as f64 * model.adv_recv_mj
            }
            ChannelCost::PerByte { .. } => self.recv_mj(bytes),
        }
    }

    /// The receive price both transports charge: one reception of
    /// `bytes` at `now_us` by a node whose scan window is open until
    /// `scan_until` (µs), as its energy and class. A duplicate (`!fresh`)
    /// pays [`Self::dup_recv_mj`]. A fresh reception at or after
    /// `scan_until` opens a window `window` wide and pays the whole scan,
    /// [`Self::recv_mj`]; one inside an open window shares its radio-on
    /// time, [`Self::shared_recv_mj`]. Only the BLE advertisement channel
    /// runs a scanning radio; other media decode every fresh transfer.
    pub fn reception(
        &self,
        bytes: usize,
        fresh: bool,
        now_us: u64,
        scan_until: &mut u64,
        window: SimDuration,
    ) -> (f64, EnergyClass) {
        let scanning = matches!(self, ChannelCost::BleKcast { .. });
        if !fresh {
            (self.dup_recv_mj(bytes), EnergyClass::DupAbandoned)
        } else if now_us >= *scan_until {
            *scan_until = now_us + window.as_micros();
            let class = if scanning { EnergyClass::RecvScan } else { EnergyClass::RecvDecode };
            (self.recv_mj(bytes), class)
        } else {
            let class = if scanning { EnergyClass::SharedScan } else { EnergyClass::RecvDecode };
            (self.shared_recv_mj(bytes), class)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_nines_matches_fig2a_operating_point() {
        let c = ChannelCost::ble_four_nines(7);
        match c {
            ChannelCost::BleKcast { redundancy, .. } => assert_eq!(redundancy, 7),
            _ => panic!("expected k-cast"),
        }
        assert!((c.send_mj(25, 7) - 5.3).abs() < 0.05);
        assert!((c.recv_mj(25) - 9.98).abs() < 0.05);
    }

    #[test]
    fn kcast_send_cost_independent_of_k() {
        // One advertisement train reaches any number of listeners; only the
        // redundancy (chosen for k) changes the cost.
        let c = ChannelCost::ble_four_nines(3);
        assert_eq!(c.send_mj(100, 1), c.send_mj(100, 7));
    }

    #[test]
    fn per_byte_uses_medium_tables() {
        let c = ChannelCost::PerByte { medium: Medium::Wifi };
        assert_eq!(c.send_mj(256, 1), Medium::Wifi.send_mj(256));
        assert_eq!(c.send_mj(256, 3), 3.0 * Medium::Wifi.send_mj(256));
        assert_eq!(c.recv_mj(256), Medium::Wifi.recv_mj(256));
    }

    #[test]
    fn a_reception_opens_a_scan_window_that_later_ones_share() {
        let c = ChannelCost::ble_four_nines(3);
        let window = SimDuration::from_micros(1_000);
        let mut until = 0;
        let first = c.reception(64, true, 500, &mut until, window);
        assert_eq!((first, until), ((c.recv_mj(64), EnergyClass::RecvScan), 1_500));
        let shared = c.reception(64, true, 1_499, &mut until, window);
        assert_eq!(shared, (c.shared_recv_mj(64), EnergyClass::SharedScan));
        let dup = c.reception(64, false, 1_499, &mut until, window);
        assert_eq!(dup, (c.dup_recv_mj(64), EnergyClass::DupAbandoned));
        let next = c.reception(64, true, 1_500, &mut until, window);
        assert_eq!((next, until), ((c.recv_mj(64), EnergyClass::RecvScan), 2_500));
        // Media without a scanning radio decode every fresh transfer.
        let wifi = ChannelCost::PerByte { medium: Medium::Wifi };
        let shared = wifi.reception(64, true, 2_000, &mut until, window);
        assert_eq!(shared, (wifi.recv_mj(64), EnergyClass::RecvDecode));
    }

    #[test]
    fn higher_k_increases_redundancy_and_cost() {
        let c3 = ChannelCost::ble_four_nines(3);
        let c7 = ChannelCost::ble_four_nines(7);
        assert!(c7.send_mj(25, 7) >= c3.send_mj(25, 3));
    }
}
