//! One cell, two backends: how a [`Scenario`] becomes replicas.
//!
//! Everything that shapes a replica — protocol config, keys, fault
//! modes, workload sources, which nodes are excused, faulty or the hub —
//! is decided by [`Scenario::build`] and nowhere else. A backend (the
//! simulator in [`Scenario::run`], the process mesh in
//! [`Scenario::run_proc`] and its children) only chooses Δ, the fault
//! plan it can honour, and how the actors are driven; it reads finished
//! replicas through the accessors of [`Smr`], so a knob added to
//! `Scenario` reaches every backend by being threaded through this module
//! once.

use std::sync::Arc;

use eesmr_baselines::sync_hotstuff::{build_hs_replicas, HsConfig, HsVariant};
use eesmr_baselines::trusted::{build_tb_replicas, tb_config, HUB};
use eesmr_baselines::{HsReplica, TbReplica};
use eesmr_core::{build_replicas, Config, FaultMode, Pacing, Replica, Rule, Smr};
use eesmr_crypto::KeyStore;
use eesmr_energy::Medium;
use eesmr_hypergraph::topology::{ring_kcast, star};
use eesmr_net::{ChannelCost, NetConfig, SimDuration};

use crate::faults::FaultPlan;
use crate::scenario::{Protocol, Scenario};

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
    Trusted(Vec<TbReplica>),
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
        let mode = |id| plan.mode(self.protocol, id);
        let (f, replicas) = match self.protocol {
            Protocol::Eesmr => {
                let config = self.eesmr_config(delta);
                let mut replicas = build_replicas(&config, &pki, mode);
                self.attach_workloads(&mut replicas, 0);
                (config.f, Replicas::Eesmr(replicas))
            }
            Protocol::SyncHotStuff | Protocol::OptSync => {
                let config = self.hs_config(delta);
                let mut replicas = build_hs_replicas(&config, &pki, mode);
                self.attach_workloads(&mut replicas, 0);
                (config.f, Replicas::SyncHs(replicas))
            }
            Protocol::TrustedBaseline => {
                let mut config = tb_config(self.n, delta);
                config.payload_bytes = self.payload_bytes;
                config.batch_policy = self.effective_batch_policy();
                config.offered_load = self.offered_load;
                let mut replicas = build_tb_replicas(&config, &pki, mode);
                // The hub orders but never originates: spokes 1..n map
                // onto workload slots 0..n-1.
                self.attach_workloads(&mut replicas, 1);
                (0, Replicas::Trusted(replicas))
            }
        };
        let hub = (self.protocol == Protocol::TrustedBaseline).then_some(HUB);
        let roles = (0..self.n as u32)
            .map(|id| NodeRole {
                faulty: mode(id) != FaultMode::Honest,
                excused: FaultPlan::excuses(mode(id)),
                is_hub: hub == Some(id),
            })
            .collect();
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
        config.opt_equivocation_speedup = self.paper_optimizations;
        config.opt_lock_only_status = self.paper_optimizations;
        config.checkpoint_interval = self.checkpoint_interval;
        if self.streaming {
            config.pacing = Pacing::Streaming;
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
            config.pacing = Pacing::Streaming;
        }
        config
    }

    /// Gives every replica from index `first` on its share of the
    /// scenario's workload, if any; the `first` infrastructure nodes
    /// before them take no skew slot.
    fn attach_workloads<R: Rule>(&self, replicas: &mut [Smr<R>], first: usize) {
        let Some(workload) = &self.workload else { return };
        for (i, replica) in replicas.iter_mut().enumerate().skip(first) {
            let source = workload.node_source(i as u32, i - first, self.n - first, self.seed);
            replica.attach_workload(Box::new(source));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_optimizations_set_both_eesmr_config_flags() {
        let flags = |s: Scenario| {
            let net = s.net_config();
            let delta = net.delta();
            let Replicas::Eesmr(replicas) = s.build(net, delta, &FaultPlan::none()).replicas else {
                panic!("an EESMR cell builds EESMR replicas")
            };
            let config = |r: &Replica| {
                (r.rule.config.opt_equivocation_speedup, r.rule.config.opt_lock_only_status)
            };
            replicas.iter().map(config).collect::<Vec<_>>()
        };
        let plain = Scenario::new(Protocol::Eesmr, 5, 2);
        assert_eq!(flags(plain.clone()), [(false, false); 5]);
        assert_eq!(flags(plain.with_paper_optimizations()), [(true, true); 5]);
    }
}
