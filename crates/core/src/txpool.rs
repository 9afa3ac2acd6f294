//! The pending-command pool (`txpool` in the paper's description).
//!
//! "All nodes maintain pending commands in a local data structure txpool.
//! The leader proposes blocks using the commands from txpool and the other
//! nodes on committing a block, remove the commands in the block from the
//! txpool." (§3)

use std::collections::{HashSet, VecDeque};

use eesmr_net::SimTime;
use eesmr_trace::hist::LogHistogram;

use crate::block::{Block, Command};
use crate::config::BatchPolicy;
use crate::metrics::Metrics;

/// A deterministic per-node stream of client transactions, driven by the
/// protocol's arrival timer events (see `eesmr-workload` for the
/// implementations: arrival processes × per-node skew × payload
/// distributions × open/closed-loop injection).
///
/// The replica's contract: on start it asks for the first delay via
/// [`next_arrival_in`](WorkloadSource::next_arrival_in) and arms an
/// arrival timer; when the timer fires it calls
/// [`arrival`](WorkloadSource::arrival) with its current in-flight count
/// (the source may suppress the injection — the closed-loop bound), then
/// asks for the next delay and re-arms. `Send` is required so replicas
/// stay movable across the experiment driver's worker threads.
pub trait WorkloadSource: Send {
    /// Microseconds from `now_us` until the next arrival event, or
    /// `None` if the stream is silent (ends the timer chain).
    fn next_arrival_in(&mut self, now_us: u64) -> Option<u64>;

    /// The transaction for the arrival firing at `now_us`, given the
    /// node's current in-flight (injected-but-uncommitted) count; `None`
    /// when the source declines to inject (closed-loop bound reached).
    fn arrival(&mut self, now_us: u64, in_flight: usize) -> Option<Command>;
}

/// One live workload transaction born at this node.
#[derive(Debug, Clone)]
struct Birth {
    cmd: Command,
    /// Birth time, µs — the latency clock, never touched after submit.
    born_us: u64,
    /// Earliest time the forward-retry timer may requeue this command
    /// (again): starts at 0, so the first retry is governed purely by
    /// age, and is pushed one full window ahead on every requeue — a
    /// just-re-forwarded command gets a fresh window to resolve instead
    /// of being immediately stale again (its birth never advances).
    retry_after_us: u64,
}

/// Pool of pending client commands.
///
/// Two modes:
/// * **Client-fed** — commands arrive via [`TxPool::submit`].
/// * **Synthetic** — when the pool is empty and a synthetic payload size is
///   configured, batches are generated on demand (the paper's fixed-size
///   `|b_i|` workloads, §5.6). The synthetic *depth* models offered load:
///   how many commands are available per proposal (default 1).
#[derive(Debug, Clone)]
pub struct TxPool {
    pending: VecDeque<Command>,
    synthetic_len: Option<usize>,
    synthetic_depth: usize,
    next_seq: u64,
    /// Live workload transactions born at this node. Entries persist
    /// after batching (the leader drains `pending` into a proposal long
    /// before the commit) and are settled by
    /// [`remove_committed`](TxPool::remove_committed).
    births: Vec<Birth>,
    /// End-to-end (birth → local commit) latencies of settled workload
    /// transactions, in microseconds, as a streaming histogram.
    tx_latencies: LogHistogram,
    /// High-water mark of `pending.len()` over the pool's lifetime —
    /// the peak backlog reported per run. Updated at every enqueue
    /// (submission and requeue), which is where the queue can only grow.
    peak_pending: usize,
}

impl TxPool {
    /// An empty, client-fed pool.
    pub fn new() -> Self {
        TxPool {
            pending: VecDeque::new(),
            synthetic_len: None,
            synthetic_depth: 1,
            next_seq: 0,
            births: Vec::new(),
            tx_latencies: LogHistogram::new(),
            peak_pending: 0,
        }
    }

    /// A pool that synthesizes one `len`-byte command per batch whenever it
    /// has no real commands queued.
    pub fn synthetic(len: usize) -> Self {
        TxPool { synthetic_len: Some(len), ..TxPool::new() }
    }

    /// Disables the synthetic fallback: the pool only serves real
    /// (client- or workload-fed) commands, and an empty pool yields empty
    /// batches. Attaching a [`WorkloadSource`] implies this.
    pub fn client_only(&mut self) {
        self.synthetic_len = None;
    }

    /// Sets the synthetic offered load: up to `depth` commands fabricated
    /// per batch when the pool has no real commands (clamped to ≥ 1).
    pub fn with_offered_load(mut self, depth: usize) -> Self {
        self.synthetic_depth = depth.max(1);
        self
    }

    /// Queues a client command.
    pub fn submit(&mut self, cmd: Command) {
        self.pending.push_back(cmd);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Queues a workload transaction born at `now_us`, tracking it until
    /// commit so its end-to-end latency can be measured.
    pub fn submit_at(&mut self, cmd: Command, now_us: u64) {
        self.births.push(Birth { cmd: cmd.clone(), born_us: now_us, retry_after_us: 0 });
        self.pending.push_back(cmd);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Workload transactions born here and not yet committed (the
    /// closed-loop in-flight count).
    pub fn in_flight(&self) -> usize {
        self.births.len()
    }

    /// Runs one arrival event from `source` against this pool: injects
    /// the transaction it yields (unless the closed-loop bound
    /// suppresses it), counts it in `metrics`, reports it to
    /// `on_inject` (the tracing hook — protocols emit their `TxInject`
    /// event there), and returns the delay until the source's next
    /// arrival event, if any. Every protocol's arrival handler funnels
    /// through this, so the inject/count/trace/re-arm sequence cannot
    /// drift between them — the caller only arms its own timer token
    /// with the returned delay.
    pub fn drive_arrival(
        &mut self,
        source: &mut dyn WorkloadSource,
        metrics: &mut Metrics,
        now_us: u64,
        mut on_inject: impl FnMut(&Command),
    ) -> Option<u64> {
        if let Some(cmd) = source.arrival(now_us, self.in_flight()) {
            metrics.tx_injected += 1;
            on_inject(&cmd);
            self.submit_at(cmd, now_us);
        }
        source.next_arrival_in(now_us)
    }

    /// Histogram of end-to-end (birth → local commit) latencies of this
    /// node's committed workload transactions, in microseconds.
    pub fn tx_latencies(&self) -> &LogHistogram {
        &self.tx_latencies
    }

    /// Re-queues birth-tracked workload transactions that are tracked
    /// but no longer pending: commands the proposer drained into blocks
    /// of a view that was abandoned would otherwise be lost forever
    /// (their `births` entries can only settle through a commit).
    /// Protocols call this on new-view entry. A command whose old-view
    /// block *does* still commit (as an ancestor of the certified
    /// chain) may then ride a second block too; latency settles once,
    /// at its first commit.
    pub fn requeue_unresolved(&mut self) {
        let pending: HashSet<&Command> = self.pending.iter().collect();
        let lost: Vec<Command> = self
            .births
            .iter()
            .filter(|b| !pending.contains(&b.cmd))
            .map(|b| b.cmd.clone())
            .collect();
        self.pending.extend(lost);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// Whether any birth-tracked workload transaction is in flight but
    /// no longer queued locally (drained into a proposal or forwarded
    /// away) — i.e. whether there is anything a retry timer could ever
    /// need to rescue.
    pub fn has_unresolved(&self) -> bool {
        if self.births.is_empty() {
            return false;
        }
        let pending: HashSet<&Command> = self.pending.iter().collect();
        self.births.iter().any(|b| !pending.contains(&b.cmd))
    }

    /// The earliest time (µs) any unresolved transaction becomes
    /// eligible for a retry under a `window_us` staleness window —
    /// `max(birth + window, retry cooldown)` minimised over the
    /// in-flight set — or `None` when nothing is in flight. The
    /// forward-retry timer schedules its next fire for exactly this
    /// instant.
    pub fn next_retry_due_us(&self, window_us: u64) -> Option<u64> {
        if self.births.is_empty() {
            return None;
        }
        let pending: HashSet<&Command> = self.pending.iter().collect();
        self.births
            .iter()
            .filter(|b| !pending.contains(&b.cmd))
            .map(|b| (b.born_us + window_us).max(b.retry_after_us))
            .min()
    }

    /// Re-queues unresolved transactions (see
    /// [`requeue_unresolved`](TxPool::requeue_unresolved)) that were born
    /// at least `age_us` before `now_us`; younger in-flight commands are
    /// presumed to be riding a block toward commit and are left alone.
    /// Returns whether anything was restored. Used by the forward-retry
    /// timer: a fire-and-forget forward swallowed by a partition has no
    /// view change to rescue it, so age is the only stranding signal.
    pub fn requeue_stale(&mut self, now_us: u64, age_us: u64) -> bool {
        let mut lost: Vec<Command> = Vec::new();
        {
            let pending: HashSet<&Command> = self.pending.iter().collect();
            for b in &mut self.births {
                let due = (b.born_us + age_us).max(b.retry_after_us);
                if now_us >= due && !pending.contains(&b.cmd) {
                    b.retry_after_us = now_us + age_us;
                    lost.push(b.cmd.clone());
                }
            }
        }
        let restored = !lost.is_empty();
        self.pending.extend(lost);
        self.peak_pending = self.peak_pending.max(self.pending.len());
        restored
    }

    /// Drains every queued command for forwarding to the current
    /// proposer. Birth tracking is untouched: a forwarded transaction
    /// still settles (and measures its latency) here at its origin when
    /// the block carrying it commits — and if the proposer's view dies
    /// first, [`requeue_unresolved`](TxPool::requeue_unresolved) puts
    /// the command back for re-forwarding to the next leader.
    pub fn take_pending(&mut self) -> Vec<Command> {
        self.pending.drain(..).collect()
    }

    /// Number of queued commands (synthetic generation not counted).
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no real commands are queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The backlog an adaptive proposer observes: real queued commands,
    /// or the synthetic offered load when the pool would fabricate a
    /// batch.
    pub fn backlog(&self) -> usize {
        if !self.pending.is_empty() {
            self.pending.len()
        } else if self.synthetic_len.is_some() {
            self.synthetic_depth
        } else {
            0
        }
    }

    /// High-water mark of the real queued-command backlog over the
    /// pool's lifetime (synthetic generation not counted).
    pub fn peak_backlog(&self) -> usize {
        self.peak_pending
    }

    /// Takes the next batch of at most `max` commands for a proposal.
    /// Falls back to synthetic commands (up to the configured offered
    /// load) when configured and empty.
    pub fn next_batch(&mut self, max: usize) -> Vec<Command> {
        if self.pending.is_empty() {
            return match self.synthetic_len {
                Some(len) => {
                    let count = self.synthetic_depth.min(max.max(1));
                    (0..count)
                        .map(|_| {
                            let seq = self.next_seq;
                            self.next_seq += 1;
                            Command::synthetic(seq, len)
                        })
                        .collect()
                }
                None => Vec::new(),
            };
        }
        let take = self.pending.len().min(max.max(1));
        self.pending.drain(..take).collect()
    }

    /// Removes commands that were committed in `block` (nodes clear their
    /// pools when a block commits) and settles any of this node's tracked
    /// workload transactions the block carried, recording their
    /// birth-to-commit latency against `now`.
    pub fn remove_committed(&mut self, block: &Block, now: SimTime) {
        // Nothing tracked here (always, under synthetic load): nothing to
        // settle, so skip hashing the payload into a set.
        if block.payload.is_empty() || (self.pending.is_empty() && self.births.is_empty()) {
            return;
        }
        // One set per block keeps commit processing linear instead of
        // O(|payload| × pool) byte-vector comparisons.
        let committed: HashSet<&Command> = block.payload.iter().collect();
        self.pending.retain(|c| !committed.contains(c));
        let latencies = &mut self.tx_latencies;
        self.births.retain(|b| {
            if committed.contains(&b.cmd) {
                latencies.record(now.since(SimTime::from_micros(b.born_us)).as_micros());
                false
            } else {
                true
            }
        });
    }
}

impl Default for TxPool {
    fn default() -> Self {
        Self::new()
    }
}

/// The proposer-side batch-size controller behind
/// [`BatchPolicy::Adaptive`].
///
/// Pure integer state: each call moves the current batch size halfway
/// toward `target_fill_pct` percent of the observed backlog (clamped to
/// the policy's `[min, max]`), so under steady load it converges
/// geometrically to the target and under bursts it reacts within a few
/// proposals without oscillating. [`BatchPolicy::Fixed`] passes through
/// unchanged.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveBatcher {
    current: usize,
}

impl AdaptiveBatcher {
    /// A controller with no history (the first adaptive call starts from
    /// the policy's `min`).
    pub fn new() -> Self {
        AdaptiveBatcher { current: 0 }
    }

    /// The batch size to use for the next proposal, given the observed
    /// pool backlog.
    pub fn next_size(&mut self, backlog: usize, policy: BatchPolicy) -> usize {
        match policy {
            BatchPolicy::Fixed(max) => max.max(1),
            BatchPolicy::Adaptive { min, max, target_fill_pct } => {
                let min = min.max(1);
                let max = max.max(min);
                let desired =
                    (backlog.saturating_mul(target_fill_pct as usize) / 100).clamp(min, max);
                if self.current == 0 {
                    self.current = min;
                }
                // Close half the gap (at least one step) toward the
                // target, then clamp.
                if desired > self.current {
                    self.current += ((desired - self.current) / 2).max(1);
                } else if desired < self.current {
                    self.current -= ((self.current - desired) / 2).max(1);
                }
                self.current = self.current.clamp(min, max);
                self.current
            }
        }
    }

    /// The last size returned (0 before the first adaptive call).
    pub fn current(&self) -> usize {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;

    #[test]
    fn submit_then_batch_fifo() {
        let mut pool = TxPool::new();
        pool.submit(Command::new(vec![1]));
        pool.submit(Command::new(vec![2]));
        pool.submit(Command::new(vec![3]));
        let batch = pool.next_batch(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].bytes(), &[1]);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn empty_non_synthetic_pool_gives_empty_batches() {
        let mut pool = TxPool::new();
        assert!(pool.next_batch(10).is_empty());
    }

    #[test]
    fn synthetic_pool_always_has_a_batch() {
        let mut pool = TxPool::synthetic(16);
        let a = pool.next_batch(10);
        let b = pool.next_batch(10);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].len(), 16);
        assert_ne!(a, b, "sequence numbers differ");
    }

    #[test]
    fn real_commands_take_priority_over_synthetic() {
        let mut pool = TxPool::synthetic(16);
        pool.submit(Command::new(vec![9; 4]));
        let batch = pool.next_batch(10);
        assert_eq!(batch[0].bytes(), &[9; 4]);
    }

    #[test]
    fn synthetic_offered_load_fabricates_a_full_batch() {
        let mut pool = TxPool::synthetic(8).with_offered_load(5);
        assert_eq!(pool.backlog(), 5);
        let batch = pool.next_batch(10);
        assert_eq!(batch.len(), 5, "offered load bounds the synthetic batch");
        let batch = pool.next_batch(3);
        assert_eq!(batch.len(), 3, "the proposer's cap still applies");
        // Real commands still take priority and drive the backlog.
        pool.submit(Command::new(vec![1]));
        assert_eq!(pool.backlog(), 1);
        assert_eq!(pool.next_batch(10).len(), 1);
    }

    #[test]
    fn client_fed_pool_has_zero_backlog_when_empty() {
        assert_eq!(TxPool::new().backlog(), 0);
    }

    #[test]
    fn adaptive_batcher_converges_under_steady_load() {
        let policy = BatchPolicy::Adaptive { min: 1, max: 256, target_fill_pct: 50 };
        let mut batcher = AdaptiveBatcher::new();
        // Steady backlog of 120 commands → target 60 per proposal.
        let mut last = 0;
        for _ in 0..32 {
            last = batcher.next_size(120, policy);
        }
        assert_eq!(last, 60, "converged to target_fill_pct of the backlog");
        assert_eq!(batcher.next_size(120, policy), 60, "and stays there");
        // Load drops: the batch shrinks back toward the new target.
        for _ in 0..32 {
            last = batcher.next_size(10, policy);
        }
        assert_eq!(last, 5);
    }

    #[test]
    fn adaptive_batcher_respects_min_max_and_grows_gradually() {
        let policy = BatchPolicy::Adaptive { min: 4, max: 32, target_fill_pct: 100 };
        let mut batcher = AdaptiveBatcher::new();
        let first = batcher.next_size(1_000_000, policy);
        assert!(first < 32, "ramps up instead of jumping to max (got {first})");
        assert!(first >= 4);
        let mut prev = first;
        for _ in 0..16 {
            let next = batcher.next_size(1_000_000, policy);
            assert!(next >= prev, "monotone ramp under constant overload");
            prev = next;
        }
        assert_eq!(prev, 32, "saturates at the policy max");
        // An idle pool shrinks it back down to min.
        for _ in 0..16 {
            prev = batcher.next_size(0, policy);
        }
        assert_eq!(prev, 4);
    }

    #[test]
    fn fixed_policy_passes_through() {
        let mut batcher = AdaptiveBatcher::new();
        assert_eq!(batcher.next_size(7, BatchPolicy::Fixed(64)), 64);
        assert_eq!(batcher.next_size(0, BatchPolicy::Fixed(0)), 1, "zero cap clamps to one");
    }

    #[test]
    fn committed_commands_are_removed() {
        let mut pool = TxPool::new();
        let keep = Command::new(vec![1]);
        let gone = Command::new(vec![2]);
        pool.submit(keep.clone());
        pool.submit(gone.clone());
        let block = Block::extending(&Block::genesis(), 1, 3, vec![gone]);
        pool.remove_committed(&block, SimTime::ZERO);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.next_batch(1)[0], keep);
    }

    #[test]
    fn requeue_unresolved_recovers_commands_from_discarded_proposals() {
        let mut pool = TxPool::new();
        let a = Command::new(vec![1; 16]);
        let b = Command::new(vec![2; 16]);
        pool.submit_at(a.clone(), 100);
        pool.submit_at(b.clone(), 200);
        // The proposer drains both into a block the view change discards.
        assert_eq!(pool.next_batch(10).len(), 2);
        assert_eq!(pool.len(), 0);
        pool.requeue_unresolved();
        assert_eq!(pool.len(), 2, "discarded commands are proposable again");
        assert_eq!(pool.in_flight(), 2, "births are untouched by requeue");
        // Still-pending commands are not duplicated by a second call.
        pool.requeue_unresolved();
        assert_eq!(pool.len(), 2);
        // Committing the re-proposed block settles each latency once.
        let block = Block::extending(&Block::genesis(), 2, 3, vec![a, b]);
        pool.remove_committed(&block, SimTime::from_micros(1_000));
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.len(), 0);
        assert_eq!(pool.tx_latencies().count(), 2);
    }

    #[test]
    fn take_pending_drains_commands_but_keeps_births() {
        let mut pool = TxPool::new();
        let a = Command::new(vec![1; 8]);
        let b = Command::new(vec![2; 8]);
        pool.submit_at(a.clone(), 100);
        pool.submit_at(b.clone(), 200);
        let forwarded = pool.take_pending();
        assert_eq!(forwarded, vec![a.clone(), b.clone()]);
        assert!(pool.is_empty(), "forwarded commands leave the local queue");
        assert_eq!(pool.in_flight(), 2, "births stay until commit");
        // A view change restores them for re-forwarding to the new leader.
        pool.requeue_unresolved();
        assert_eq!(pool.len(), 2);
        // Committing the forwarded copy settles the origin's latency.
        let block = Block::extending(&Block::genesis(), 1, 3, vec![a, b]);
        pool.remove_committed(&block, SimTime::from_micros(1_000));
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.tx_latencies().count(), 2);
        assert!(pool.is_empty());
    }

    #[test]
    fn requeue_stale_respects_the_age_threshold() {
        let mut pool = TxPool::new();
        let old = Command::new(vec![1; 8]);
        let young = Command::new(vec![2; 8]);
        pool.submit_at(old.clone(), 1_000);
        pool.submit_at(young.clone(), 9_000);
        assert!(!pool.has_unresolved(), "everything still queued locally");
        let forwarded = pool.take_pending();
        assert_eq!(forwarded.len(), 2);
        assert!(pool.has_unresolved(), "both are in flight now");
        // At t=10_000 with a 5_000µs window only the older command
        // qualifies; the younger one is presumed to be committing.
        assert!(pool.requeue_stale(10_000, 5_000));
        assert_eq!(pool.len(), 1, "only the stale command is restored");
        // Settle the restored command (commit removes it from pending
        // and resolves its birth). The young one alone doesn't qualify:
        let block = Block::extending(&Block::genesis(), 1, 3, vec![old]);
        pool.remove_committed(&block, SimTime::from_micros(11_000));
        assert!(!pool.requeue_stale(11_000, 5_000));
        // But it still counts as unresolved, so a retry stays armed...
        assert!(pool.has_unresolved());
        // ...and it qualifies once enough time passes.
        assert!(pool.requeue_stale(20_000, 5_000));
        assert_eq!(pool.next_batch(10), vec![young]);
        assert!(pool.has_unresolved());
    }

    #[test]
    fn client_only_disables_the_synthetic_fallback() {
        let mut pool = TxPool::synthetic(16).with_offered_load(8);
        pool.client_only();
        assert!(pool.next_batch(10).is_empty(), "no fabricated batch");
        assert_eq!(pool.backlog(), 0);
    }

    #[test]
    fn workload_births_survive_batching_and_settle_at_commit() {
        let mut pool = TxPool::new();
        let a = Command::new(vec![1; 16]);
        let b = Command::new(vec![2; 16]);
        pool.submit_at(a.clone(), 1_000);
        pool.submit_at(b.clone(), 2_000);
        assert_eq!(pool.in_flight(), 2);
        // The proposer drains pending into a block; births persist.
        let batch = pool.next_batch(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(pool.in_flight(), 2, "in-flight counts until commit, not until batching");
        let block = Block::extending(&Block::genesis(), 1, 3, vec![a]);
        pool.remove_committed(&block, SimTime::from_micros(5_000));
        assert_eq!(pool.in_flight(), 1, "only the committed command settles");
        assert_eq!(pool.tx_latencies().count(), 1);
        assert_eq!(pool.tx_latencies().min(), Some(4_000), "birth 1000 → commit 5000");
        let block2 = Block::extending(&block, 1, 4, vec![b]);
        pool.remove_committed(&block2, SimTime::from_micros(9_000));
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.tx_latencies().count(), 2);
        assert_eq!(pool.tx_latencies().max(), Some(7_000), "birth 2000 → commit 9000");
    }
}
