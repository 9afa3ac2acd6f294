//! Run reports: what a scenario measured.

use eesmr_energy::{EnergyAttribution, EnergyCategory, EnergyClass, EnergyMeter, N_ENERGY_CLASS};
use eesmr_net::{MetricsSet, NetStats, NodeId, SimDuration};
use eesmr_trace::hist::LogHistogram;
use eesmr_trace::path::CommitPath;

use crate::cell::ReplicaView;
use crate::scenario::Scenario;

/// Energy breakdown for one node, in millijoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeEnergy {
    /// Transmission.
    pub send_mj: f64,
    /// Reception.
    pub recv_mj: f64,
    /// Signature generation.
    pub sign_mj: f64,
    /// Signature verification.
    pub verify_mj: f64,
    /// Hashing.
    pub hash_mj: f64,
}

impl NodeEnergy {
    /// Builds a breakdown from a meter.
    pub fn from_meter(meter: &EnergyMeter) -> Self {
        NodeEnergy {
            send_mj: meter.mj(EnergyCategory::Send),
            recv_mj: meter.mj(EnergyCategory::Recv),
            sign_mj: meter.mj(EnergyCategory::Sign),
            verify_mj: meter.mj(EnergyCategory::Verify),
            hash_mj: meter.mj(EnergyCategory::Hash),
        }
    }

    /// Total energy, mJ.
    pub fn total_mj(&self) -> f64 {
        self.send_mj + self.recv_mj + self.sign_mj + self.verify_mj + self.hash_mj
    }
}

/// Per-node results.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Node id.
    pub id: NodeId,
    /// Whether this node was in the fault plan.
    pub faulty: bool,
    /// Whether this node is the externally-powered trusted hub (excluded
    /// from CPS energy totals, §5.1).
    pub is_hub: bool,
    /// Energy breakdown.
    pub energy: NodeEnergy,
    /// Highest committed height.
    pub committed_height: u64,
    /// Blocks committed.
    pub blocks_committed: u64,
    /// View changes completed.
    pub view_changes: u64,
    /// Signature operations (from the meter's counters).
    pub signs: u64,
    /// Verification operations.
    pub verifies: u64,
    /// Mean commit latency, if measured.
    pub mean_commit_latency: Option<SimDuration>,
    /// Workload transactions injected at this node.
    pub tx_injected: u64,
    /// Client commands this node forwarded to a proposer (command
    /// forwarding from non-leading nodes; counts re-forwards after
    /// view changes too).
    pub tx_forwarded: u64,
    /// Forward-retry rescues: times this node's stale-command timer
    /// found unresolved commands and re-forwarded (or re-proposed) them.
    pub forward_retries: u64,
    /// High-water mark of the node's pending-command backlog.
    pub peak_backlog: u64,
    /// Mean fill of this node's proposed batches, percent of the batch
    /// policy maximum; `None` if it never proposed.
    pub mean_batch_fill_pct: Option<f64>,
    /// End-to-end (birth → local commit) latency distribution of the
    /// workload transactions injected at this node, µs. A streaming
    /// log-bucket histogram — O(buckets) memory however long the run —
    /// empty when the scenario has no workload attached.
    pub tx_latency_hist: LogHistogram,
    /// Fingerprints of this node's committed block ids, in commit
    /// order, capped at [`COMMIT_LOG_CAP`] entries. Two nodes (or two
    /// backends) that agree on this prefix committed byte-identical
    /// blocks — the backend-conformance suite compares it between
    /// SimNet and ProcNet runs.
    pub commit_fps: Vec<u64>,
    /// Commands carried by each committed block in `commit_fps`
    /// (same order, same cap); an entry is 0 when the block body was
    /// no longer in the local store at report time.
    pub commit_txs: Vec<u32>,
}

/// Cap on the per-node committed-log prefix a [`NodeReport`] carries
/// (`commit_fps` / `commit_txs`). Long soak runs keep reports bounded;
/// conformance runs stop well under the cap.
pub const COMMIT_LOG_CAP: usize = 4096;

impl NodeReport {
    /// Reads one node's results off its finished replica and energy
    /// meter — the same way for every protocol and every backend.
    pub fn from_view<A: ReplicaView>(
        id: NodeId,
        faulty: bool,
        is_hub: bool,
        replica: &A,
        meter: &EnergyMeter,
    ) -> Self {
        let log = replica.committed();
        let prefix = &log[..log.len().min(COMMIT_LOG_CAP)];
        let metrics = replica.metrics();
        NodeReport {
            id,
            faulty,
            is_hub,
            energy: NodeEnergy::from_meter(meter),
            committed_height: replica.committed_height(),
            blocks_committed: metrics.blocks_committed,
            view_changes: metrics.view_changes,
            signs: meter.count(EnergyCategory::Sign),
            verifies: meter.count(EnergyCategory::Verify),
            mean_commit_latency: metrics.mean_commit_latency(),
            tx_injected: metrics.tx_injected,
            tx_forwarded: metrics.tx_forwarded,
            forward_retries: metrics.forward_retries,
            peak_backlog: replica.peak_backlog() as u64,
            mean_batch_fill_pct: metrics.mean_batch_fill_pct(),
            tx_latency_hist: replica.tx_latencies().clone(),
            commit_fps: prefix.iter().map(eesmr_core::block::fingerprint).collect(),
            commit_txs: prefix
                .iter()
                .map(|id| replica.block(id).map_or(0, |b| b.payload.len() as u32))
                .collect(),
        }
    }
}

/// End-to-end commit-latency statistics over a run's workload
/// transactions (all correct nodes pooled). Percentiles use the
/// nearest-rank definition on the pooled [`LogHistogram`]: the p-th
/// percentile is the value at (1-based) rank `⌈p·count/100⌉`, reported
/// at the histogram's bucket resolution (≤ ~3 % relative error above
/// the sub-millisecond range) — see README's "Known deviations".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxLatencyStats {
    /// Committed workload transactions measured.
    pub count: usize,
    /// Arithmetic mean, µs.
    pub mean_us: u64,
    /// Median (50th percentile, nearest rank), µs.
    pub p50_us: u64,
    /// 99th percentile (nearest rank), µs.
    pub p99_us: u64,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Human-readable protocol name.
    pub protocol: &'static str,
    /// Node count.
    pub n: usize,
    /// k-cast degree of the topology.
    pub k: usize,
    /// Fault bound used by the protocol.
    pub f: usize,
    /// Payload bytes per block.
    pub payload_bytes: usize,
    /// The Δ used, in microseconds.
    pub delta_us: u64,
    /// Virtual time elapsed, microseconds.
    pub elapsed_us: u64,
    /// Per-node results (index = node id).
    pub nodes: Vec<NodeReport>,
    /// Network counters.
    pub net: NetStats,
    /// The reconstructed commit path of the run's first committed
    /// workload transaction, when the scenario traced at
    /// [`TraceLevel::Commit`](eesmr_net::TraceLevel::Commit) or above.
    /// Diagnostic only — excluded from equality so traced and untraced
    /// runs of the same scenario still compare bit-identical.
    pub commit_path: Option<CommitPath>,
    /// Per-node energy attribution matrices (phase × class), index =
    /// node id. Observability surface — excluded from equality like
    /// `commit_path` (the determinism suite compares it explicitly).
    pub energy_attr: Vec<EnergyAttribution>,
    /// Sampled telemetry series, when the run had metrics enabled
    /// (empty otherwise). Excluded from equality so metrics-on and
    /// metrics-off runs of the same scenario compare bit-identical.
    pub metrics: MetricsSet,
    /// Trace events each node's `Tracer` dropped at its ring-capacity
    /// bound, index = node id. Depends on the trace level, so excluded
    /// from equality like `commit_path`.
    pub trace_dropped: Vec<u64>,
}

/// Equality covers the measured results — everything except the
/// diagnostic `commit_path`, `energy_attr`, `metrics`, and
/// `trace_dropped`, which depend on the observability configuration
/// (trace level, metrics cadence) rather than on what the run computed.
impl PartialEq for RunReport {
    fn eq(&self, other: &RunReport) -> bool {
        self.protocol == other.protocol
            && self.n == other.n
            && self.k == other.k
            && self.f == other.f
            && self.payload_bytes == other.payload_bytes
            && self.delta_us == other.delta_us
            && self.elapsed_us == other.elapsed_us
            && self.nodes == other.nodes
            && self.net == other.net
    }
}

impl RunReport {
    /// Assembles the report of one run of `scenario`: the fault bound and
    /// Δ its replicas ran with, the time it took (virtual or wall-clock,
    /// by backend), and what the nodes and the network measured. The
    /// observability surfaces start empty.
    pub fn new(
        scenario: &Scenario,
        f: usize,
        delta: SimDuration,
        elapsed_us: u64,
        nodes: Vec<NodeReport>,
        net: NetStats,
    ) -> Self {
        RunReport {
            protocol: scenario.protocol.name(),
            n: scenario.n,
            k: scenario.k,
            f,
            payload_bytes: scenario.payload_bytes,
            delta_us: delta.as_micros(),
            elapsed_us,
            nodes,
            net,
            commit_path: None,
            energy_attr: Vec::new(),
            metrics: MetricsSet::default(),
            trace_dropped: Vec::new(),
        }
    }

    /// Iterator over correct (non-faulty, non-hub) nodes.
    pub fn correct_nodes(&self) -> impl Iterator<Item = &NodeReport> {
        self.nodes.iter().filter(|n| !n.faulty && !n.is_hub)
    }

    /// Minimum committed height among correct nodes (the log length every
    /// correct node is guaranteed to have).
    pub fn committed_height(&self) -> u64 {
        self.correct_nodes().map(|n| n.committed_height).min().unwrap_or(0)
    }

    /// Total energy of the correct CPS nodes, mJ (the paper's Fig. 2f
    /// metric).
    pub fn total_correct_energy_mj(&self) -> f64 {
        self.correct_nodes().map(|n| n.energy.total_mj()).sum()
    }

    /// Total correct-node energy per committed block, mJ.
    pub fn energy_per_block_mj(&self) -> f64 {
        let blocks = self.committed_height().max(1) as f64;
        self.total_correct_energy_mj() / blocks
    }

    /// One node's energy, mJ.
    pub fn node_energy_mj(&self, id: NodeId) -> f64 {
        self.nodes[id as usize].energy.total_mj()
    }

    /// One node's energy per committed block, mJ (Fig. 2c/2d/3 metric).
    pub fn node_energy_per_block_mj(&self, id: NodeId) -> f64 {
        let blocks = self.nodes[id as usize].blocks_committed.max(1) as f64;
        self.node_energy_mj(id) / blocks
    }

    /// Maximum number of view changes any correct node completed.
    pub fn view_changes(&self) -> u64 {
        self.correct_nodes().map(|n| n.view_changes).max().unwrap_or(0)
    }

    /// Workload transactions injected across correct nodes.
    pub fn tx_injected(&self) -> u64 {
        self.correct_nodes().map(|n| n.tx_injected).sum()
    }

    /// Client commands forwarded to proposers across correct nodes —
    /// the traffic the command-forwarding path added (each forward is
    /// a targeted flood, so this is the knob to watch when weighing
    /// forwarding overhead against stranded transactions).
    pub fn tx_forwarded(&self) -> u64 {
        self.correct_nodes().map(|n| n.tx_forwarded).sum()
    }

    /// Workload transactions committed (with a measured end-to-end
    /// latency) across correct nodes.
    pub fn tx_committed(&self) -> u64 {
        self.correct_nodes().map(|n| n.tx_latency_hist.count()).sum()
    }

    /// The pooled end-to-end latency histogram over all correct nodes'
    /// workload transactions (merge order cannot change the result).
    pub fn tx_latency_hist(&self) -> LogHistogram {
        let mut pooled = LogHistogram::new();
        for node in self.correct_nodes() {
            pooled.merge(&node.tx_latency_hist);
        }
        pooled
    }

    /// End-to-end commit-latency statistics over all correct nodes'
    /// workload transactions; `None` when nothing was measured (no
    /// workload attached, or nothing committed yet).
    pub fn tx_latency_stats(&self) -> Option<TxLatencyStats> {
        let pooled = self.tx_latency_hist();
        if pooled.is_empty() {
            return None;
        }
        Some(TxLatencyStats {
            count: pooled.count() as usize,
            mean_us: pooled.mean().unwrap_or(0),
            p50_us: pooled.percentile(50).unwrap_or(0),
            p99_us: pooled.percentile(99).unwrap_or(0),
        })
    }

    /// Maximum pending-command backlog any correct node reached.
    pub fn peak_backlog(&self) -> u64 {
        self.correct_nodes().map(|n| n.peak_backlog).max().unwrap_or(0)
    }

    /// Mean proposed-batch fill (percent of the policy max) across
    /// correct nodes that proposed at least once; `None` if none did.
    pub fn mean_batch_fill_pct(&self) -> Option<f64> {
        let fills: Vec<f64> = self.correct_nodes().filter_map(|n| n.mean_batch_fill_pct).collect();
        if fills.is_empty() {
            None
        } else {
            Some(fills.iter().sum::<f64>() / fills.len() as f64)
        }
    }

    /// Forward-retry rescues across correct nodes.
    pub fn forward_retries(&self) -> u64 {
        self.correct_nodes().map(|n| n.forward_retries).sum()
    }

    /// Trace events dropped at `Tracer` ring capacity, summed over all
    /// nodes (0 when tracing was off).
    pub fn trace_dropped_total(&self) -> u64 {
        self.trace_dropped.iter().sum()
    }

    /// Correct-node energy per attribution class, mJ, in
    /// [`EnergyClass::ALL`] order. Sums to
    /// [`total_correct_energy_mj`](Self::total_correct_energy_mj) by
    /// construction (each charge lands in exactly one class).
    pub fn energy_by_class_mj(&self) -> [f64; N_ENERGY_CLASS] {
        let mut out = [0.0; N_ENERGY_CLASS];
        for node in self.correct_nodes() {
            if let Some(attr) = self.energy_attr.get(node.id as usize) {
                for (i, class) in EnergyClass::ALL.into_iter().enumerate() {
                    out[i] += attr.class_mj(class);
                }
            }
        }
        out
    }

    /// Mean commit latency over correct nodes.
    pub fn mean_commit_latency(&self) -> Option<SimDuration> {
        let latencies: Vec<u64> = self
            .correct_nodes()
            .filter_map(|n| n.mean_commit_latency.map(|d| d.as_micros()))
            .collect();
        if latencies.is_empty() {
            return None;
        }
        Some(SimDuration::from_micros(latencies.iter().sum::<u64>() / latencies.len() as u64))
    }

    /// A one-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: n={} k={} f={} |b|={}B — {} blocks, {} VCs, {:.1} mJ/node/block",
            self.protocol,
            self.n,
            self.k,
            self.f,
            self.payload_bytes,
            self.committed_height(),
            self.view_changes(),
            self.energy_per_block_mj() / self.correct_nodes().count().max(1) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{NodeRole, Replicas};
    use eesmr_net::{NetConfig, ShardedNet, SimTime};

    fn node(id: NodeId, total_mj: f64, height: u64, faulty: bool) -> NodeReport {
        NodeReport {
            id,
            faulty,
            is_hub: false,
            energy: NodeEnergy { send_mj: total_mj, ..Default::default() },
            committed_height: height,
            blocks_committed: height,
            view_changes: 0,
            signs: 0,
            verifies: 0,
            mean_commit_latency: None,
            tx_injected: 0,
            tx_forwarded: 0,
            forward_retries: 0,
            peak_backlog: 0,
            mean_batch_fill_pct: None,
            tx_latency_hist: LogHistogram::new(),
            commit_fps: Vec::new(),
            commit_txs: Vec::new(),
        }
    }

    fn hist(samples: impl IntoIterator<Item = u64>) -> LogHistogram {
        let mut h = LogHistogram::new();
        for s in samples {
            h.record(s);
        }
        h
    }

    fn report(nodes: Vec<NodeReport>) -> RunReport {
        let scenario = Scenario::new(crate::Protocol::Eesmr, 3, 2);
        let delta = SimDuration::from_micros(1000);
        let mut report = RunReport::new(&scenario, 1, delta, 10_000, nodes, NetStats::default());
        report.n = report.nodes.len();
        report
    }

    /// Runs a built cell for 400 ms of virtual time, checks every node's
    /// `from_view` against the replica's own accessors, and returns the
    /// reports.
    fn finished<A>(net: NetConfig, roles: &[NodeRole], replicas: Vec<A>) -> Vec<NodeReport>
    where
        A: ReplicaView + Send,
        A::Msg: Send + Sync,
        A::Timer: Send,
    {
        let mut sim = ShardedNet::new(net, replicas, 1);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(400));
        let check = |(id, role): (NodeId, &NodeRole)| {
            let r = sim.actor(id);
            let node = NodeReport::from_view(id, role.faulty, role.is_hub, r, sim.meter(id));
            assert_eq!((node.id, node.faulty, node.is_hub), (id, role.faulty, role.is_hub));
            assert_eq!(node.view_changes, r.metrics().view_changes);
            let log = r.committed();
            let fps: Vec<u64> = log.iter().map(eesmr_core::block::fingerprint).collect();
            let txs: Vec<u32> =
                log.iter().map(|d| r.block(d).map_or(0, |b| b.payload.len() as u32)).collect();
            assert_eq!((node.commit_fps.clone(), node.commit_txs.clone()), (fps, txs));
            node
        };
        (0..).zip(roles).map(check).collect()
    }

    #[test]
    fn from_view_reads_every_replica_type_alike() {
        use crate::{FaultPlan, Protocol};
        let cell_of = |protocol, plan: FaultPlan| {
            let scenario = Scenario::new(protocol, 5, 2);
            let net = scenario.net_config();
            let delta = net.delta();
            scenario.build(net, delta, &plan)
        };
        // A silent first leader: node 0 is faulty, everyone else changes
        // view and commits under node 1.
        for protocol in [Protocol::Eesmr, Protocol::SyncHotStuff] {
            let cell = cell_of(protocol, FaultPlan::silent_leader());
            let nodes = match cell.replicas {
                Replicas::Eesmr(r) => finished(cell.net, &cell.roles, r),
                Replicas::SyncHs(r) => finished(cell.net, &cell.roles, r),
                Replicas::Trusted(_) => unreachable!(),
            };
            assert!(nodes[0].faulty && !nodes[1].faulty, "{protocol:?}");
            assert!(nodes.iter().all(|n| !n.is_hub), "{protocol:?}");
            assert!(nodes[1].view_changes >= 1, "{protocol:?}");
            assert!(!nodes[1].commit_fps.is_empty(), "{protocol:?}");
        }
        // The trusted baseline: the hub is never faulty, even when a plan
        // names node 0; spokes are; nobody changes view.
        let cell = cell_of(Protocol::TrustedBaseline, FaultPlan::silent_nodes([0, 2]));
        let Replicas::Trusted(r) = cell.replicas else { unreachable!() };
        let nodes = finished(cell.net, &cell.roles, r);
        assert!(nodes[0].is_hub && !nodes[0].faulty);
        assert!(nodes[2].faulty && !nodes[2].is_hub && !nodes[1].faulty);
        assert!(nodes.iter().all(|n| n.view_changes == 0));
        assert!(!nodes[1].commit_fps.is_empty());
    }

    #[test]
    fn correct_nodes_excludes_faulty_and_hub() {
        let mut nodes =
            vec![node(0, 10.0, 5, true), node(1, 20.0, 5, false), node(2, 30.0, 4, false)];
        nodes[0].is_hub = false;
        let r = report(nodes);
        assert_eq!(r.correct_nodes().count(), 2);
        assert_eq!(r.total_correct_energy_mj(), 50.0);
        assert_eq!(r.committed_height(), 4, "minimum over correct nodes");
    }

    #[test]
    fn energy_per_block_divides_by_min_height() {
        let r = report(vec![node(0, 40.0, 4, false), node(1, 40.0, 4, false)]);
        assert_eq!(r.energy_per_block_mj(), 20.0);
    }

    #[test]
    fn per_node_energy_per_block() {
        let r = report(vec![node(0, 40.0, 8, false)]);
        assert_eq!(r.node_energy_per_block_mj(0), 5.0);
        // Zero blocks guard:
        let r0 = report(vec![node(0, 40.0, 0, false)]);
        assert_eq!(r0.node_energy_per_block_mj(0), 40.0);
    }

    #[test]
    fn tx_latency_percentiles_use_nearest_rank() {
        let mut nodes = vec![node(0, 1.0, 4, false), node(1, 1.0, 4, true)];
        nodes[0].tx_injected = 120;
        nodes[0].tx_latency_hist = hist((1..=100).rev()); // unsorted on purpose
        nodes[1].tx_injected = 50; // faulty: excluded
        nodes[1].tx_latency_hist = hist([1_000_000]);
        let r = report(nodes);
        assert_eq!(r.tx_injected(), 120);
        assert_eq!(r.tx_committed(), 100);
        let stats = r.tx_latency_stats().unwrap();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.mean_us, 50); // (1+…+100)/100 = 50.5 truncated
        assert_eq!(stats.p50_us, 50, "nearest rank: ⌈50·100/100⌉ = 50th value");
        assert_eq!(stats.p99_us, 99, "nearest rank: ⌈99·100/100⌉ = 99th value");
        // Singleton sample: every percentile is the value itself.
        let mut one = vec![node(0, 1.0, 1, false)];
        one[0].tx_latency_hist = hist([7]);
        let r1 = report(one);
        let s1 = r1.tx_latency_stats().unwrap();
        assert_eq!((s1.p50_us, s1.p99_us), (7, 7));
        // No measurements → None.
        assert_eq!(report(vec![node(0, 1.0, 1, false)]).tx_latency_stats(), None);
    }

    #[test]
    fn pooled_hist_merges_per_node_populations() {
        let mut nodes = vec![node(0, 1.0, 4, false), node(1, 1.0, 4, false)];
        nodes[0].tx_latency_hist = hist(1..=50);
        nodes[1].tx_latency_hist = hist(51..=100);
        let r = report(nodes);
        let pooled = r.tx_latency_hist();
        assert_eq!(pooled, hist(1..=100), "grouping-invariant merge");
        assert_eq!(r.tx_committed(), 100);
    }

    #[test]
    fn equality_ignores_the_diagnostic_commit_path() {
        let a = report(vec![node(0, 1.0, 2, false)]);
        let mut b = a.clone();
        b.commit_path = Some(CommitPath { tx: 1, block: 2, stages: Vec::new() });
        assert_eq!(a, b, "commit_path is diagnostic, not a measured result");
    }

    #[test]
    fn summary_is_informative() {
        let r = report(vec![node(0, 10.0, 2, false)]);
        let s = r.summary();
        assert!(s.contains("n=1"));
        assert!(s.contains("2 blocks"));
    }
}
