//! One cell, two backends: how a [`Scenario`] becomes replicas.
//!
//! Everything that shapes a replica — protocol config, keys, fault
//! modes, workload sources, which nodes are excused, faulty or the hub —
//! is decided by [`Scenario::build`] and nowhere else. A backend (the
//! simulator in [`Scenario::run`], the process mesh in
//! [`Scenario::run_proc`] and its children) only chooses Δ, the fault
//! plan it can honour, and how the actors are driven; it reads finished
//! replicas through [`ReplicaView`], so a knob added to `Scenario`
//! reaches every backend by being threaded through this module once.

use std::sync::Arc;

use eesmr_baselines::sync_hotstuff::{build_hs_replicas, HsConfig, HsPacing, HsVariant};
use eesmr_baselines::trusted::{build_tb_nodes, TbConfig, HUB};
use eesmr_baselines::{HsReplica, TbNode};
use eesmr_core::{
    build_replicas, Block, Config, Metrics, Pacing, Replica, Rule, Smr, WorkloadSource,
};
use eesmr_crypto::{Digest, KeyStore};
use eesmr_energy::Medium;
use eesmr_hypergraph::topology::{ring_kcast, star};
use eesmr_net::{Actor, ChannelCost, NetConfig, SimDuration};
use eesmr_trace::hist::LogHistogram;

use crate::faults::FaultPlan;
use crate::scenario::{Protocol, Scenario};

/// What the harness needs from a replica of any protocol: the hooks the
/// run loop uses (attach a workload, check a stop target) and the
/// read-outs a [`NodeReport`](crate::NodeReport) is made of.
pub trait ReplicaView: Actor {
    /// Committed block ids, in commit order.
    fn committed(&self) -> &[Digest];
    /// Highest committed height.
    fn committed_height(&self) -> u64;
    /// A stored block body, if still held.
    fn block(&self, id: &Digest) -> Option<&Block>;
    /// Protocol counters.
    fn metrics(&self) -> &Metrics;
    /// End-to-end latencies of the workload transactions born here.
    fn tx_latencies(&self) -> &LogHistogram;
    /// High-water mark of the pending-command backlog.
    fn peak_backlog(&self) -> usize;
    /// Whether the replica has entered view `v` and resumed steady state
    /// there — what [`StopWhen::ViewReached`](crate::StopWhen) waits for.
    fn resumed_in_view(&self, v: u64) -> bool;
    /// Replaces the synthetic command feed with a client workload.
    fn attach_workload(&mut self, source: Box<dyn WorkloadSource>);
}

// Each impl forwards to the inherent method of the same name (inherent
// methods win resolution).

impl<R: Rule> ReplicaView for Smr<R> {
    fn committed(&self) -> &[Digest] {
        self.committed()
    }
    fn committed_height(&self) -> u64 {
        self.committed_height()
    }
    fn block(&self, id: &Digest) -> Option<&Block> {
        self.block(id)
    }
    fn metrics(&self) -> &Metrics {
        self.metrics()
    }
    fn tx_latencies(&self) -> &LogHistogram {
        self.tx_latencies()
    }
    fn peak_backlog(&self) -> usize {
        self.peak_backlog()
    }
    /// In view `v` or later and past the rule's view-change rounds (EESMR
    /// resumes steady state in round 3; Sync HotStuff has no such rounds).
    fn resumed_in_view(&self, v: u64) -> bool {
        self.resumed_in_view(v)
    }
    fn attach_workload(&mut self, source: Box<dyn WorkloadSource>) {
        self.attach_workload(source)
    }
}

impl ReplicaView for TbNode {
    fn committed(&self) -> &[Digest] {
        self.committed()
    }
    fn committed_height(&self) -> u64 {
        self.committed_height()
    }
    fn block(&self, id: &Digest) -> Option<&Block> {
        self.block(id)
    }
    fn metrics(&self) -> &Metrics {
        self.metrics()
    }
    fn tx_latencies(&self) -> &LogHistogram {
        self.tx_latencies()
    }
    fn peak_backlog(&self) -> usize {
        self.peak_backlog()
    }
    /// The baseline has no views: a view target holds vacuously, so such
    /// a run stops before its first event.
    fn resumed_in_view(&self, _v: u64) -> bool {
        true
    }
    fn attach_workload(&mut self, source: Box<dyn WorkloadSource>) {
        self.attach_workload(source)
    }
}

/// What the run loop and the report need to know about one node beyond
/// its replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRole {
    /// In the fault plan (excluded from correct-node aggregates).
    pub faulty: bool,
    /// Excused from the scenario's commit and view targets: it can never
    /// reach them by design of its fault.
    pub excused: bool,
    /// The externally powered trusted hub.
    pub is_hub: bool,
}

/// A cell's replicas, one vector per replica type.
pub enum Replicas {
    /// The paper's protocol.
    Eesmr(Vec<Replica>),
    /// Sync HotStuff or OptSync.
    SyncHs(Vec<HsReplica>),
    /// The trusted-hub baseline (node 0 is the hub).
    Trusted(Vec<TbNode>),
}

/// A built scenario cell: everything a backend needs to drive it.
pub struct Cell {
    /// Topology, channel model, link faults and observability settings.
    pub net: NetConfig,
    /// The protocol fault bound in force (0 for the trusted baseline).
    pub f: usize,
    /// Per-node roles, index = node id.
    pub roles: Vec<NodeRole>,
    /// The replicas, index = node id.
    pub replicas: Replicas,
}

impl Scenario {
    /// The network this scenario runs on: a ring of k-casts over BLE, or
    /// for the trusted baseline a star over the expensive medium (Δ is
    /// then one hop to or from the hub).
    pub fn net_config(&self) -> NetConfig {
        let mut net = match self.protocol {
            Protocol::TrustedBaseline => {
                let mut net = NetConfig::ble(star(self.n, HUB), self.seed);
                net.channel = ChannelCost::PerByte { medium: Medium::FourG };
                net
            }
            _ => NetConfig::ble(ring_kcast(self.n, self.k), self.seed),
        };
        net.scheduler = self.scheduler;
        net.trace = self.trace;
        net.metrics = self.metrics;
        net
    }

    /// Builds the cell: protocol config, keys, replicas with their fault
    /// modes and workload sources, and the per-node roles. The backend
    /// supplies `net` (from [`net_config`](Self::net_config)), the Δ its
    /// timers can keep, and the fault plan it can honour.
    pub fn build(&self, mut net: NetConfig, delta: SimDuration, plan: &FaultPlan) -> Cell {
        net.link_faults = plan.link_faults();
        let pki = Arc::new(KeyStore::generate(self.n, self.scheme, self.seed));
        let ids = 0..self.n as u32;
        let role = |id| NodeRole {
            faulty: plan.is_faulty(id),
            excused: plan.is_excused(id),
            is_hub: false,
        };
        let (f, roles, replicas) = match self.protocol {
            Protocol::Eesmr => {
                let config = self.eesmr_config(delta);
                let mut replicas = build_replicas(&config, &pki, |id| plan.eesmr_mode(id));
                self.attach_workloads(&mut replicas, 0);
                (config.f, ids.map(role).collect(), Replicas::Eesmr(replicas))
            }
            Protocol::SyncHotStuff | Protocol::OptSync => {
                let config = self.hs_config(delta);
                let mut replicas = build_hs_replicas(&config, &pki, |id| plan.eesmr_mode(id));
                self.attach_workloads(&mut replicas, 0);
                (config.f, ids.map(role).collect(), Replicas::SyncHs(replicas))
            }
            Protocol::TrustedBaseline => {
                let mut config = TbConfig::new(self.n, self.payload_bytes, delta * 2);
                config.batch_policy = self.effective_batch_policy();
                config.offered_load = self.offered_load;
                let mut nodes = build_tb_nodes(&config, &pki, |id| plan.tb_fault(id));
                // The hub orders but never originates: spokes 1..n map
                // onto workload slots 0..n-1.
                self.attach_workloads(&mut nodes, 1);
                // View-keyed behaviours translate to permanent silence in
                // the view-less baseline (see `FaultPlan::tb_fault`), so
                // the excuse comes from the translated fault; the hub is
                // trusted, never faulty.
                let roles = ids
                    .map(|id| NodeRole {
                        faulty: id != HUB && plan.is_faulty(id),
                        excused: plan.tb_is_excused(id),
                        is_hub: id == HUB,
                    })
                    .collect();
                (0, roles, Replicas::Trusted(nodes))
            }
        };
        Cell { net, f, roles, replicas }
    }

    fn eesmr_config(&self, delta: SimDuration) -> Config {
        let mut config = Config::new(self.n, delta);
        config.batch_policy = self.effective_batch_policy();
        config.offered_load = self.offered_load;
        config.forward_batch = self.forward_batch;
        if let Some(f) = self.fault_bound {
            config.f = f;
        }
        config.payload_bytes = self.payload_bytes;
        config.crash_only = self.crash_only;
        config.opt_equivocation_speedup = self.opt_equivocation_speedup;
        config.opt_lock_only_status = self.opt_lock_only_status;
        config.checkpoint_interval = self.checkpoint_interval;
        if self.streaming {
            config.pacing = Pacing::Streaming { max_outstanding: 8 };
        }
        config
    }

    fn hs_config(&self, delta: SimDuration) -> HsConfig {
        let variant = match self.protocol {
            Protocol::OptSync => HsVariant::OptSync,
            _ => HsVariant::SyncHotStuff,
        };
        let mut config = HsConfig::new(self.n, delta, variant);
        config.batch_policy = self.effective_batch_policy();
        config.offered_load = self.offered_load;
        config.forward_batch = self.forward_batch;
        if let Some(f) = self.fault_bound {
            config.f = f;
        }
        config.payload_bytes = self.payload_bytes;
        if self.streaming {
            config.pacing = HsPacing::Streaming;
        }
        config
    }

    /// Gives every replica from index `first` on its share of the
    /// scenario's workload, if any; the `first` infrastructure nodes
    /// before them take no skew slot.
    fn attach_workloads<A: ReplicaView>(&self, replicas: &mut [A], first: usize) {
        let Some(workload) = &self.workload else { return };
        for (i, replica) in replicas.iter_mut().enumerate().skip(first) {
            let source = workload.node_source(i as u32, i - first, self.n - first, self.seed);
            replica.attach_workload(Box::new(source));
        }
    }
}
