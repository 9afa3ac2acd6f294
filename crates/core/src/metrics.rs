//! Per-replica protocol metrics.

use eesmr_net::SimDuration;
use eesmr_trace::hist::LogHistogram;

/// Counters a replica maintains about its own execution. Signature and
/// energy accounting live in the node's `EnergyMeter`; these are the
/// protocol-level events the evaluation section reports on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Blocks committed (including ancestors committed transitively).
    pub blocks_committed: u64,
    /// Height of the highest committed block.
    pub committed_height: u64,
    /// View changes completed (times this replica entered a new view).
    pub view_changes: u64,
    /// Blame messages sent.
    pub blames_sent: u64,
    /// Equivocations detected (with proof).
    pub equivocations_detected: u64,
    /// Proposals relayed (the implicit "votes in the head").
    pub proposals_relayed: u64,
    /// Proposals received that were ignored as invalid.
    pub proposals_rejected: u64,
    /// Chain-sync requests issued.
    pub sync_requests: u64,
    /// Crash-recovery repair requests issued (once per restart).
    pub repair_requests: u64,
    /// Crash-recovery repair replies served to recovering peers.
    pub repairs_served: u64,
    /// Workload transactions injected at this node (arrival events that
    /// passed the closed-loop bound).
    pub tx_injected: u64,
    /// Client commands this node forwarded to a proposer (it was not
    /// the leader when they were queued).
    pub tx_forwarded: u64,
    /// Forward-retry rescues: times the stale-command timer found
    /// unresolved commands and re-forwarded (or re-proposed) them.
    pub forward_retries: u64,
    /// Fill of the most recent proposed batch, percent of the batch
    /// policy's maximum size (integer percent, so sampling it is
    /// bit-deterministic).
    pub last_batch_fill_pct: u64,
    /// Sum of per-proposal fill percentages (numerator of the mean fill
    /// reported per run; all-integer, so worker invariant).
    pub batch_fill_pct_sum: u64,
    /// Proposals made (batches cut) — denominator of the mean fill.
    pub batches_proposed: u64,
    /// Commit latencies (relay → commit, microseconds) for locally-timed
    /// blocks, as a streaming histogram: O(buckets) memory for
    /// arbitrarily long runs, exact count/sum/min/max, ≲3% bucket
    /// resolution on percentiles.
    pub commit_latencies: LogHistogram,
}

impl Metrics {
    /// Records the fill of a freshly cut batch: `len` commands against
    /// the batch policy's maximum `max`. Integer percent so the running
    /// sum (and the gauge sampled from it) is bit-deterministic.
    pub fn record_batch_fill(&mut self, len: usize, max: usize) {
        let pct = (len.saturating_mul(100) / max.max(1)) as u64;
        self.last_batch_fill_pct = pct;
        self.batch_fill_pct_sum += pct;
        self.batches_proposed += 1;
    }

    /// Mean fill percentage across all proposals, if any batch was cut.
    pub fn mean_batch_fill_pct(&self) -> Option<f64> {
        (self.batches_proposed > 0)
            .then(|| self.batch_fill_pct_sum as f64 / self.batches_proposed as f64)
    }

    /// Records one relay→commit latency sample.
    pub fn record_commit_latency(&mut self, d: SimDuration) {
        self.commit_latencies.record(d.as_micros());
    }

    /// Mean commit latency, if any block was timed.
    pub fn mean_commit_latency(&self) -> Option<SimDuration> {
        self.commit_latencies.mean().map(SimDuration::from_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency_empty_is_none() {
        assert_eq!(Metrics::default().mean_commit_latency(), None);
    }

    #[test]
    fn mean_latency_averages() {
        let mut m = Metrics::default();
        m.record_commit_latency(SimDuration::from_micros(100));
        m.record_commit_latency(SimDuration::from_micros(300));
        assert_eq!(m.mean_commit_latency(), Some(SimDuration::from_micros(200)));
        assert_eq!(m.commit_latencies.count(), 2);
    }
}
