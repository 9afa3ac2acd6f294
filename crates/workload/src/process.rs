//! Arrival processes and their deterministic fixed-point samplers.
//!
//! Every sampler draws from the vendored xoshiro-based `StdRng` and does
//! *all* arithmetic in integers (Q32 fixed point for logarithms, Q16 for
//! the sine table), so an arrival trace is a pure function of
//! `(process, weight, seed)` — bit-identical across platforms and worker
//! counts. Times are virtual microseconds, matching `eesmr_net::SimTime`;
//! rates are transactions per second.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// How client transactions arrive over virtual time.
///
/// Rates are *system-wide* transactions per second; a
/// [`Skew`](crate::Skew) splits them across nodes. All variants are plain
/// integers so a process can sit on grid-cell keys (`Copy + Eq + Hash`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals at `rate` tx/s (deterministic spacing, no
    /// randomness).
    Constant {
        /// Transactions per second.
        rate: u32,
    },
    /// Memoryless arrivals: exponential inter-arrival times with mean
    /// `1/rate`.
    Poisson {
        /// Mean transactions per second.
        rate: u32,
    },
    /// An on/off Markov-modulated Poisson process: Poisson arrivals at
    /// `rate` while ON, silence while OFF, with exponentially distributed
    /// state holding times. Mean rate is `rate · on/(on + off)`.
    Bursty {
        /// Transactions per second during ON periods.
        rate: u32,
        /// Mean ON-period length, milliseconds.
        on_ms: u32,
        /// Mean OFF-period length, milliseconds.
        off_ms: u32,
    },
    /// A sinusoidal rate over sim time — the diurnal load curve:
    /// `rate(t) = base + amplitude · sin(2πt / period)`. Sampled by
    /// thinning a Poisson stream at the peak rate. The amplitude is
    /// clamped to `base` so the rate never clips at zero and the
    /// long-run mean stays exactly `base`.
    Diurnal {
        /// Mean transactions per second.
        base: u32,
        /// Swing around the mean, tx/s (effective value ≤ `base`).
        amplitude: u32,
        /// Cycle length, milliseconds.
        period_ms: u32,
    },
}

impl ArrivalProcess {
    /// Short label for scenario names and report rows, e.g. `poisson2000`.
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Constant { rate } => format!("const{rate}"),
            ArrivalProcess::Poisson { rate } => format!("poisson{rate}"),
            ArrivalProcess::Bursty { rate, on_ms, off_ms } => {
                format!("bursty{rate}on{on_ms}off{off_ms}")
            }
            ArrivalProcess::Diurnal { base, amplitude, period_ms } => {
                format!("diurnal{base}a{amplitude}p{period_ms}")
            }
        }
    }

    /// The long-run mean rate in milli-transactions per second at weight
    /// `weight_ppm` parts-per-million of the system rate (used by tests
    /// to check convergence).
    pub fn mean_rate_milli(&self, weight_ppm: u64) -> u64 {
        let scale = |rate: u32| (rate as u64).saturating_mul(weight_ppm) / 1_000;
        match *self {
            ArrivalProcess::Constant { rate } | ArrivalProcess::Poisson { rate } => scale(rate),
            ArrivalProcess::Bursty { rate, on_ms, off_ms } => {
                let total = (on_ms as u64) + (off_ms as u64);
                scale(rate)
                    .saturating_mul(on_ms as u64)
                    .checked_div(total)
                    .unwrap_or_else(|| scale(rate))
            }
            ArrivalProcess::Diurnal { base, .. } => scale(base),
        }
    }
}

/// ln(2) in Q32 fixed point.
const LN2_Q32: u64 = 2_977_044_472;

/// `ln(1 + i/64) · 2³²` for `i = 0..=64` — the mantissa-log table behind
/// the fixed-point exponential sampler.
const LN_Q32: [u64; 65] = [
    0,
    66_589_974,
    132_163_268,
    196_750_459,
    260_380_768,
    323_082_134,
    384_881_291,
    445_803_834,
    505_874_286,
    565_116_154,
    623_551_984,
    681_203_418,
    738_091_233,
    794_235_396,
    849_655_098,
    904_368_797,
    958_394_255,
    1_011_748_572,
    1_064_448_219,
    1_116_509_066,
    1_167_946_415,
    1_218_775_023,
    1_269_009_132,
    1_318_662_486,
    1_367_748_360,
    1_416_279_581,
    1_464_268_541,
    1_511_727_226,
    1_558_667_227,
    1_605_099_758,
    1_651_035_675,
    1_696_485_489,
    1_741_459_379,
    1_785_967_210,
    1_830_018_543,
    1_873_622_647,
    1_916_788_510,
    1_959_524_856,
    2_001_840_147,
    2_043_742_599,
    2_085_240_191,
    2_126_340_670,
    2_167_051_565,
    2_207_380_193,
    2_247_333_665,
    2_286_918_897,
    2_326_142_616,
    2_365_011_363,
    2_403_531_508,
    2_441_709_246,
    2_479_550_612,
    2_517_061_482,
    2_554_247_578,
    2_591_114_477,
    2_627_667_611,
    2_663_912_276,
    2_699_853_634,
    2_735_496_721,
    2_770_846_446,
    2_805_907_598,
    2_840_684_851,
    2_875_182_766,
    2_909_405_794,
    2_943_358_281,
    2_977_044_472,
];

/// `sin(iπ/32) · 2¹⁶` for `i = 0..=16` — a quarter-wave sine table in Q16.
const SIN_Q16: [i64; 17] = [
    0, 6_424, 12_785, 19_024, 25_080, 30_893, 36_410, 41_576, 46_341, 50_660, 54_491, 57_798,
    60_547, 62_714, 64_277, 65_220, 65_536,
];

/// One sample of the unit-mean exponential distribution in Q32 fixed
/// point: `-ln(U)` for `U` uniform in `(0, 1]`, computed entirely in
/// integers (leading-zero count + mantissa-log table with linear
/// interpolation).
pub fn exp_q32(rng: &mut StdRng) -> u64 {
    let u = rng.next_u64() | 1; // avoid ln(0)
    let msb = 63 - u.leading_zeros() as u64;
    // Normalize the mantissa to Q32 in [1, 2).
    let m_q32 = if msb >= 32 { u >> (msb - 32) } else { u << (32 - msb) };
    let frac = m_q32 - (1u64 << 32); // Q32 fraction in [0, 1)
    let i = (frac >> 26) as usize; // 64 table cells
    let rem = frac & ((1 << 26) - 1);
    let ln_m = LN_Q32[i] + (((LN_Q32[i + 1] - LN_Q32[i]) * rem) >> 26);
    let ln_u = msb * LN2_Q32 + ln_m; // ln(u) for the integer u ∈ [1, 2⁶⁴)
    64 * LN2_Q32 - ln_u // -ln(u / 2⁶⁴)
}

/// An exponential inter-arrival sample in microseconds for a process at
/// `rate_milli` milli-transactions per second (mean `10⁹ / rate_milli`
/// µs), clamped to at least 1 µs.
fn exp_interarrival_us(rng: &mut StdRng, rate_milli: u64) -> u64 {
    debug_assert!(rate_milli > 0);
    let mean_us = 1_000_000_000u64 / rate_milli.max(1);
    let sample = (exp_q32(rng) as u128 * mean_us.max(1) as u128) >> 32;
    (sample as u64).max(1)
}

/// `sin(2π · pos/2¹⁶)` in Q16, from the quarter-wave table with linear
/// interpolation. `pos` is the phase in 1/65536ths of a full cycle.
fn sin_cycle_q16(pos: u64) -> i64 {
    let pos = pos & 0xFFFF; // one cycle = 2^16 phase units
    let idx = pos >> 10; // 64 coarse steps per cycle
    let rem = (pos & 0x3FF) as i64; // Q10 within a step
    let step = |i: u64| -> i64 {
        let p = i % 64;
        let (quad, off) = (p / 16, (p % 16) as usize);
        match quad {
            0 => SIN_Q16[off],
            1 => SIN_Q16[16 - off],
            2 => -SIN_Q16[off],
            _ => -SIN_Q16[16 - off],
        }
    };
    let a = step(idx);
    let b = step(idx + 1);
    a + (((b - a) * rem) >> 10)
}

/// A deterministic arrival-time stream for one node: the node's share
/// (`weight_ppm` parts-per-million) of an [`ArrivalProcess`], advanced by
/// [`next_after`](ArrivalSampler::next_after).
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    weight_ppm: u64,
    rng: StdRng,
    /// Arrivals produced so far (drives the drift-free constant stream).
    count: u64,
    /// Bursty: whether the MMPP is currently in the ON state.
    state_on: bool,
    /// Bursty: absolute µs at which the current state ends (0 = not yet
    /// initialized).
    state_until_us: u64,
}

impl ArrivalSampler {
    /// A sampler for `weight_ppm` parts-per-million of `process`, with
    /// its own RNG stream derived from `seed`.
    pub fn new(process: ArrivalProcess, weight_ppm: u64, seed: u64) -> Self {
        ArrivalSampler {
            process,
            weight_ppm,
            rng: StdRng::seed_from_u64(seed),
            count: 0,
            state_on: false,
            state_until_us: 0,
        }
    }

    /// This node's share of `rate`, in milli-transactions per second.
    fn scaled_milli(&self, rate: u32) -> u64 {
        (rate as u64).saturating_mul(self.weight_ppm) / 1_000
    }

    /// The absolute time (µs) of the next arrival strictly from `now_us`
    /// onwards, or `None` if this node's share of the process is silent
    /// (zero effective rate). Each call advances the stream by exactly
    /// one arrival.
    pub fn next_after(&mut self, now_us: u64) -> Option<u64> {
        let at = match self.process {
            ArrivalProcess::Constant { rate } => {
                let rate_m = self.scaled_milli(rate);
                if rate_m == 0 {
                    return None;
                }
                // Arrival k sits at k·10⁹/rate_m µs exactly: integer
                // rounding never accumulates into rate drift.
                let k = self.count + 1;
                let t = (k as u128 * 1_000_000_000u128 / rate_m as u128) as u64;
                t.max(now_us)
            }
            ArrivalProcess::Poisson { rate } => {
                let rate_m = self.scaled_milli(rate);
                if rate_m == 0 {
                    return None;
                }
                now_us + exp_interarrival_us(&mut self.rng, rate_m)
            }
            ArrivalProcess::Bursty { rate, on_ms, off_ms } => {
                let rate_m = self.scaled_milli(rate);
                if rate_m == 0 {
                    return None;
                }
                let on_mean_us = (on_ms as u64).saturating_mul(1_000).max(1);
                let off_mean_us = (off_ms as u64).saturating_mul(1_000).max(1);
                if self.state_until_us == 0 && !self.state_on {
                    // Streams start ON so short runs still see traffic.
                    self.state_on = true;
                    self.state_until_us = hold_us(&mut self.rng, on_mean_us);
                }
                let mut t = now_us;
                loop {
                    if self.state_on {
                        // Memorylessness makes re-sampling after a state
                        // switch exact, not an approximation.
                        let candidate = t + exp_interarrival_us(&mut self.rng, rate_m);
                        if candidate <= self.state_until_us {
                            break candidate;
                        }
                        t = self.state_until_us;
                        self.state_on = false;
                        self.state_until_us = t + hold_us(&mut self.rng, off_mean_us);
                    } else {
                        t = t.max(self.state_until_us);
                        self.state_on = true;
                        self.state_until_us = t + hold_us(&mut self.rng, on_mean_us);
                    }
                }
            }
            ArrivalProcess::Diurnal { base, amplitude, period_ms } => {
                // Clamp so rate(t) never clips at 0 — the long-run mean
                // is then exactly `base`, matching `mean_rate_milli`.
                let amplitude = amplitude.min(base);
                let peak_m = self.scaled_milli(base.saturating_add(amplitude));
                if peak_m == 0 {
                    return None;
                }
                let base_m = self.scaled_milli(base) as i64;
                let amp_m = self.scaled_milli(amplitude) as i64;
                let period_us = (period_ms as u64).saturating_mul(1_000).max(1);
                // Thinning: candidates at the peak rate, accepted with
                // probability rate(t)/peak.
                let mut t = now_us;
                loop {
                    t += exp_interarrival_us(&mut self.rng, peak_m);
                    let phase = ((t % period_us) as u128 * 65_536 / period_us as u128) as u64;
                    let rate_m = (base_m + ((amp_m * sin_cycle_q16(phase)) >> 16)).max(0) as u64;
                    debug_assert!(rate_m <= peak_m, "clamped sinusoid stays within its peak");
                    let threshold = ((rate_m as u128) << 32) / peak_m as u128;
                    if ((self.rng.next_u64() >> 32) as u128) < threshold {
                        break t;
                    }
                }
            }
        };
        self.count += 1;
        Some(at)
    }

    /// Arrivals produced so far.
    pub fn arrivals(&self) -> u64 {
        self.count
    }
}

/// An exponentially distributed state-holding time with the given mean.
fn hold_us(rng: &mut StdRng, mean_us: u64) -> u64 {
    let sample = (exp_q32(rng) as u128 * mean_us as u128) >> 32;
    (sample as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_q32_has_unit_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000u64;
        let sum: u128 = (0..n).map(|_| exp_q32(&mut rng) as u128).sum();
        let mean = (sum / n as u128) as f64 / (1u64 << 32) as f64;
        assert!((mean - 1.0).abs() < 0.05, "Exp(1) sample mean was {mean}");
    }

    #[test]
    fn sine_table_hits_the_cardinal_points() {
        assert_eq!(sin_cycle_q16(0), 0);
        assert_eq!(sin_cycle_q16(16_384), 65_536); // 2π/4
        assert_eq!(sin_cycle_q16(32_768), 0); // π
        assert_eq!(sin_cycle_q16(49_152), -65_536); // 3π/2
                                                    // Interpolation is monotone on the rising quarter.
        let q: Vec<i64> = (0..=64).map(|i| sin_cycle_q16(i * 256)).collect();
        assert!(q.windows(2).all(|w| w[0] <= w[1]), "rising quarter must be monotone");
    }

    #[test]
    fn constant_stream_is_evenly_spaced_and_drift_free() {
        let mut s = ArrivalSampler::new(ArrivalProcess::Constant { rate: 1_000 }, 1_000_000, 1);
        let mut t = 0;
        for k in 1..=1_000u64 {
            t = s.next_after(t).unwrap();
            assert_eq!(t, k * 1_000, "arrival {k}");
        }
    }

    #[test]
    fn zero_weight_makes_the_stream_silent() {
        for process in [
            ArrivalProcess::Constant { rate: 100 },
            ArrivalProcess::Poisson { rate: 100 },
            ArrivalProcess::Bursty { rate: 100, on_ms: 10, off_ms: 10 },
            ArrivalProcess::Diurnal { base: 100, amplitude: 50, period_ms: 1_000 },
        ] {
            let mut s = ArrivalSampler::new(process, 0, 3);
            assert_eq!(s.next_after(0), None, "{process:?}");
        }
    }

    #[test]
    fn diurnal_amplitude_is_clamped_so_the_mean_stays_base() {
        // amplitude > base would clip the sinusoid at zero and push the
        // long-run mean above base; the sampler clamps amplitude to base
        // so `mean_rate_milli` stays exact.
        let process = ArrivalProcess::Diurnal { base: 4_000, amplitude: 40_000, period_ms: 200 };
        let mut s = ArrivalSampler::new(process, 1_000_000, 9);
        let horizon_us = 4_000_000; // 20 full cycles
        let (mut t, mut count) = (0u64, 0u64);
        loop {
            match s.next_after(t) {
                Some(next) if next <= horizon_us => {
                    t = next;
                    count += 1;
                }
                _ => break,
            }
        }
        let measured = count as f64 / (horizon_us as f64 / 1e6);
        let expect = process.mean_rate_milli(1_000_000) as f64 / 1_000.0;
        assert_eq!(expect, 4_000.0);
        assert!(
            (measured - expect).abs() < 0.15 * expect,
            "clamped diurnal mean should be ~{expect}, measured {measured:.1}"
        );
    }

    #[test]
    fn arrivals_are_strictly_ordered_in_time() {
        for process in [
            ArrivalProcess::Poisson { rate: 5_000 },
            ArrivalProcess::Bursty { rate: 8_000, on_ms: 20, off_ms: 30 },
            ArrivalProcess::Diurnal { base: 4_000, amplitude: 3_000, period_ms: 200 },
        ] {
            let mut s = ArrivalSampler::new(process, 1_000_000, 11);
            let mut t = 0;
            for _ in 0..500 {
                let next = s.next_after(t).unwrap();
                assert!(next > t, "{process:?} produced a non-advancing arrival");
                t = next;
            }
        }
    }
}
