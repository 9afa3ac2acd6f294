//! A fixed-point log-bucket streaming histogram.
//!
//! Replaces per-sample `Vec` hoarding for latency populations: O(buckets)
//! memory no matter how many samples are recorded, exact `count`/`sum`/
//! `min`/`max`, and a deterministic [`merge`](LogHistogram::merge) so
//! per-node histograms combine into the same pooled
//! distribution in any order.
//!
//! Bucket scheme: values below [`LINEAR_MAX`] get one exact bucket each;
//! larger values are bucketed by their binary exponent with
//! 2^[`SUB_BITS`] = 32 sub-buckets per octave, so the relative
//! quantization error is bounded by 1/32 ≈ 3%. A percentile's reported
//! value is the **upper bound** of its bucket (clamped to the observed
//! max), which makes every value up to `2 * LINEAR_MAX - 1` — and every
//! bucket boundary — exact. With microsecond latencies the exact range
//! covers the sub-millisecond regime and everything else rounds within
//! 3%, which is far below run-to-run scenario variance.

/// Values below this get one exact bucket each.
pub const LINEAR_MAX: u64 = 32;

/// Sub-bucket resolution bits per octave above the linear range.
pub const SUB_BITS: u32 = 5;

const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Bucket count that covers every `u64` sample, one past the index of
/// `u64::MAX`: a deserializer rejects a longer bucket vector.
pub const MAX_BUCKETS: usize =
    LINEAR_MAX as usize + (64 - SUB_BITS as usize) * SUB_BUCKETS as usize;

/// Streaming log-bucket histogram over `u64` samples (microseconds, in
/// this workspace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket counts, grown on demand so empty histograms stay tiny.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // ≥ 5 since v ≥ 32
        let sub = (v >> (e - SUB_BITS)) & (SUB_BUCKETS - 1);
        LINEAR_MAX as usize + ((e - SUB_BITS) as usize * SUB_BUCKETS as usize) + sub as usize
    }
}

/// Largest value mapping to `index` (the bucket's representative).
#[inline]
fn bucket_upper(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR_MAX {
        i
    } else {
        let off = i - LINEAR_MAX;
        let e = off / SUB_BUCKETS + SUB_BITS as u64;
        let sub = off % SUB_BUCKETS;
        let width = 1u64 << (e - SUB_BITS as u64);
        ((1u64 << e) | (sub * width)) + (width - 1)
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let index = bucket_index(v);
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as u128;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest sample.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact integer mean (`sum / count`).
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| (self.sum / self.count as u128) as u64)
    }

    /// Nearest-rank percentile (`p` in 1..=100): the value at rank
    /// `max(1, ceil(p·count/100))` of the sorted population, reported as
    /// its bucket's upper bound clamped to the observed max. Matches the
    /// exact-sample convention the workspace has always used, up to
    /// bucket resolution (see module docs).
    pub fn percentile(&self, p: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (p.saturating_mul(self.count)).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper(index).min(self.max));
            }
        }
        Some(self.max)
    }

    /// The histogram's internal state — bucket counts plus the exact
    /// `(count, sum, min, max)` tuple — for serializers that ship a
    /// histogram across a process boundary. Pair with
    /// [`from_raw_parts`](Self::from_raw_parts).
    pub fn raw_parts(&self) -> (&[u64], u64, u128, u64, u64) {
        (&self.buckets, self.count, self.sum, self.min, self.max)
    }

    /// Rebuilds a histogram from [`raw_parts`](Self::raw_parts) output.
    /// Trailing zero buckets are trimmed so a decoded histogram compares
    /// equal to the original regardless of how the encoder padded it.
    pub fn from_raw_parts(buckets: Vec<u64>, count: u64, sum: u128, min: u64, max: u64) -> Self {
        let mut buckets = buckets;
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        LogHistogram { buckets, count, sum, min, max }
    }

    /// Absorbs `other` into `self`. Merging per-node histograms in any
    /// grouping yields the identical pooled histogram, whatever order
    /// the nodes are pooled in.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        for p in 1..=100u64 {
            let rank = (p * h.count()).div_ceil(100).max(1);
            assert_eq!(h.percentile(p), Some(rank - 1), "p{p}");
        }
    }

    #[test]
    fn one_to_hundred_matches_the_exact_nearest_rank() {
        // The population the report-layer percentile test has always
        // used: 1..=100 must give mean 50, p50 50, p99 99 exactly.
        let mut h = LogHistogram::new();
        for v in (1..=100u64).rev() {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), Some(50));
        assert_eq!(h.percentile(50), Some(50));
        assert_eq!(h.percentile(99), Some(99));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn singleton_and_empty() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(50), None);
        assert_eq!(h.mean(), None);
        h.record(7);
        assert_eq!(h.percentile(50), Some(7));
        assert_eq!(h.percentile(99), Some(7));
        assert_eq!(h.mean(), Some(7));
        // A large singleton is clamped to the observed max, not its
        // bucket's upper bound.
        let mut big = LogHistogram::new();
        big.record(1_000_000);
        assert_eq!(big.percentile(99), Some(1_000_000));
    }

    #[test]
    fn relative_error_is_bounded_by_the_sub_bucket_width() {
        for v in [33u64, 100, 999, 12_345, 1 << 20, u64::MAX / 2] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v, "upper bound covers the value");
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "value {v}: error {err}");
        }
    }

    #[test]
    fn bucket_upper_inverts_bucket_index_on_boundaries() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1023, 1024, u64::MAX] {
            let index = bucket_index(v);
            let upper = bucket_upper(index);
            assert_eq!(bucket_index(upper), index, "value {v}");
            assert!(upper >= v);
        }
        assert_eq!(bucket_index(u64::MAX) + 1, MAX_BUCKETS);
    }

    #[test]
    fn merge_is_grouping_invariant() {
        let samples: Vec<u64> = (0..500u64).map(|i| i * i % 7919 + i).collect();
        let mut pooled = LogHistogram::new();
        for &s in &samples {
            pooled.record(s);
        }
        // Split into 3 uneven parts, merge in a scrambled order.
        let mut parts = [LogHistogram::new(), LogHistogram::new(), LogHistogram::new()];
        for (i, &s) in samples.iter().enumerate() {
            parts[i % 3].record(s);
        }
        let mut merged = LogHistogram::new();
        merged.merge(&parts[2]);
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        assert_eq!(merged, pooled);
        assert_eq!(merged.sum(), samples.iter().map(|&s| s as u128).sum());
    }

    #[test]
    fn raw_parts_roundtrip_reproduces_the_histogram() {
        let mut h = LogHistogram::new();
        for v in [0u64, 7, 31, 32, 1000, 1 << 30] {
            h.record(v);
        }
        let (buckets, count, sum, min, max) = h.raw_parts();
        let back = LogHistogram::from_raw_parts(buckets.to_vec(), count, sum, min, max);
        assert_eq!(back, h);
        // Zero padding from an encoder is trimmed away.
        let mut padded = buckets.to_vec();
        padded.extend_from_slice(&[0, 0, 0]);
        assert_eq!(LogHistogram::from_raw_parts(padded, count, sum, min, max), h);
        // Empty histograms roundtrip too.
        let e = LogHistogram::new();
        let (b, c, s, lo, hi) = e.raw_parts();
        assert_eq!(LogHistogram::from_raw_parts(b.to_vec(), c, s, lo, hi), e);
    }

    #[test]
    fn merge_into_empty_and_with_empty() {
        let mut a = LogHistogram::new();
        a.record(42);
        let mut b = LogHistogram::new();
        b.merge(&a);
        assert_eq!(b, a);
        b.merge(&LogHistogram::new());
        assert_eq!(b, a);
    }
}
