//! Fault plans — declarative fault injection for scenarios.
//!
//! A [`FaultPlan`] names every adversarial behaviour a scenario can
//! inject and compiles it down to the per-protocol knobs: node-level
//! [`FaultMode`]/[`TbFault`] assignments plus a link-level
//! [`LinkFaults`] schedule the network runtime enforces at transmit
//! time. [`FaultSpec`] is the sweepable axis on top: one tag per
//! canonical scenario (withholding, selective drop, storm,
//! partition-heal, churn, crash-recovery, …) that expands to a concrete
//! plan given the cluster size and the synchrony bound Δ.

use std::collections::BTreeMap;

use eesmr_baselines::trusted::TbFault;
use eesmr_core::FaultMode;
use eesmr_net::{LinkDrop, LinkFaults, NodeId, Partition};

/// Which nodes misbehave, and how.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Node → first view in which it is completely silent.
    pub silent_from_view: BTreeMap<NodeId, u64>,
    /// Node → view in which it equivocates when leading.
    pub equivocate_in_view: BTreeMap<NodeId, u64>,
    /// Node → first view from which it withholds its implicit vote
    /// (processes everything, relays nothing).
    pub withhold_from_view: BTreeMap<NodeId, u64>,
    /// Node → `(first view, extra copies)` of duplicate-storm flooding.
    pub storm_from_view: BTreeMap<NodeId, (u64, u32)>,
    /// Node → `(crash time µs, optional restart time µs)`.
    pub crash_at: BTreeMap<NodeId, (u64, Option<u64>)>,
    /// Link-level schedule: healing partitions and selective drops,
    /// enforced by the network runtime below the protocol.
    pub link_faults: LinkFaults,
}

impl FaultPlan {
    /// Everybody honest.
    pub fn none() -> Self {
        Self::default()
    }

    /// The view-1 leader (node 0 under round-robin) never speaks — the
    /// paper's "no progress" / stalling-leader scenario.
    pub fn silent_leader() -> Self {
        Self::default().with_silent(0, 1)
    }

    /// The view-1 leader proposes two conflicting blocks per round — the
    /// equivocation scenario.
    pub fn equivocating_leader() -> Self {
        Self::default().with_equivocator(0, 1)
    }

    /// The given (non-leader) nodes are silent from the start.
    pub fn silent_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut plan = Self::default();
        for n in nodes {
            plan.silent_from_view.insert(n, 1);
        }
        plan
    }

    /// Marks `node` silent starting at `view`.
    pub fn with_silent(mut self, node: NodeId, from_view: u64) -> Self {
        self.silent_from_view.insert(node, from_view);
        self
    }

    /// Marks `node` as an equivocator in `view`.
    pub fn with_equivocator(mut self, node: NodeId, in_view: u64) -> Self {
        self.equivocate_in_view.insert(node, in_view);
        self
    }

    /// Marks `node` as a vote withholder from `view` on.
    pub fn with_withholder(mut self, node: NodeId, from_view: u64) -> Self {
        self.withhold_from_view.insert(node, from_view);
        self
    }

    /// Marks `node` as a duplicate-storm flooder from `view` on, sending
    /// `repeats` extra copies of everything it relays.
    pub fn with_storm(mut self, node: NodeId, from_view: u64, repeats: u32) -> Self {
        self.storm_from_view.insert(node, (from_view, repeats));
        self
    }

    /// Crashes `node` at `at_us`; with a restart time the node comes
    /// back, repairs its log from its peers, and rejoins.
    pub fn with_crash(mut self, node: NodeId, at_us: u64, restart_at_us: Option<u64>) -> Self {
        self.crash_at.insert(node, (at_us, restart_at_us));
        self
    }

    /// Schedules a healing partition: during `[start_us, end_us)` the
    /// `island` nodes are cut off from everyone else.
    pub fn with_partition(
        mut self,
        start_us: u64,
        end_us: u64,
        island: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        self.link_faults.partitions.push(Partition {
            start_us,
            end_us,
            island: island.into_iter().collect(),
        });
        self
    }

    /// Schedules a selective drop rule on the `from → to` link (or all
    /// of `from`'s links when `to` is `None`).
    pub fn with_drop(
        mut self,
        from: NodeId,
        to: Option<NodeId>,
        permille: u16,
        start_us: u64,
        end_us: u64,
    ) -> Self {
        self.link_faults.drops.push(LinkDrop { from, to, permille, start_us, end_us });
        self
    }

    /// Whether `node` deviates from the protocol at any point.
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.silent_from_view.contains_key(&node)
            || self.equivocate_in_view.contains_key(&node)
            || self.withhold_from_view.contains_key(&node)
            || self.storm_from_view.contains_key(&node)
            || self.crash_at.contains_key(&node)
    }

    /// Whether `node` is excused from the scenario's commit targets.
    /// Silent and equivocating nodes contribute nothing by design, and a
    /// node that crashes without a restart can never catch up — but a
    /// withholder, a flooder, or a crash-with-restart node still runs
    /// the protocol and **must** reach the targets like everyone else.
    pub fn is_excused(&self, node: NodeId) -> bool {
        self.silent_from_view.contains_key(&node)
            || self.equivocate_in_view.contains_key(&node)
            || matches!(self.crash_at.get(&node), Some((_, None)))
    }

    /// [`Self::is_excused`], evaluated against the trusted baseline's
    /// translation of the plan ([`Self::tb_fault`]): silence *and*
    /// withholding both become a permanently silent spoke there (the
    /// baseline has no views and no relaying), and a crash without a
    /// restart never rejoins — none of those can reach a commit target.
    pub fn tb_is_excused(&self, node: NodeId) -> bool {
        matches!(
            self.tb_fault(node),
            TbFault::Silent { .. } | TbFault::Crash { restart_at_us: None, .. }
        )
    }

    /// Number of faulty nodes (link-level faults afflict links, not
    /// nodes, and do not count here).
    pub fn count(&self) -> usize {
        let mut nodes: std::collections::BTreeSet<NodeId> =
            self.silent_from_view.keys().copied().collect();
        nodes.extend(self.equivocate_in_view.keys().copied());
        nodes.extend(self.withhold_from_view.keys().copied());
        nodes.extend(self.storm_from_view.keys().copied());
        nodes.extend(self.crash_at.keys().copied());
        nodes.len()
    }

    /// The link-level schedule to install into `NetConfig::link_faults`.
    pub fn link_faults(&self) -> LinkFaults {
        self.link_faults.clone()
    }

    /// The time (µs) after which every scheduled fault has healed: link
    /// windows closed, crashed nodes restarted (a crash with no restart
    /// never heals and reports `u64::MAX`). Node behaviours keyed to
    /// views (silence, withholding, storms) have no wall-clock end and
    /// do not extend this; they are excused or tolerated, not healed.
    pub fn heal_time_us(&self) -> u64 {
        let links = self.link_faults.heal_time_us();
        let crashes = self
            .crash_at
            .values()
            .map(|&(_, restart)| restart.unwrap_or(u64::MAX))
            .max()
            .unwrap_or(0);
        links.max(crashes)
    }

    /// The fault mode of replica `node` (EESMR and Sync HotStuff share
    /// one adversary model). A node in several maps takes the strongest
    /// behaviour: silence > equivocation > crash > withholding
    /// > storming.
    pub fn eesmr_mode(&self, node: NodeId) -> FaultMode {
        if let Some(&v) = self.silent_from_view.get(&node) {
            FaultMode::Silent { from_view: v }
        } else if let Some(&v) = self.equivocate_in_view.get(&node) {
            FaultMode::Equivocate { in_view: v }
        } else if let Some(&(at_us, restart_at_us)) = self.crash_at.get(&node) {
            FaultMode::Crash { at_us, restart_at_us }
        } else if let Some(&v) = self.withhold_from_view.get(&node) {
            FaultMode::Withhold { from_view: v }
        } else if let Some(&(v, repeats)) = self.storm_from_view.get(&node) {
            FaultMode::Storm { from_view: v, repeats }
        } else {
            FaultMode::Honest
        }
    }

    /// The trusted-baseline fault for `node`. The baseline has no views,
    /// so view-keyed behaviours translate to their time-domain analogue:
    /// silence and withholding both become a spoke that stops
    /// contributing; equivocation has no meaning against a hub that
    /// signs the only chain and maps to honest.
    pub fn tb_fault(&self, node: NodeId) -> TbFault {
        if self.silent_from_view.contains_key(&node) || self.withhold_from_view.contains_key(&node)
        {
            TbFault::Silent { from_us: 0 }
        } else if let Some(&(at_us, restart_at_us)) = self.crash_at.get(&node) {
            TbFault::Crash { at_us, restart_at_us }
        } else if let Some(&(_, repeats)) = self.storm_from_view.get(&node) {
            TbFault::Storm { repeats }
        } else {
            TbFault::Honest
        }
    }
}

/// A sweepable fault axis: one tag per canonical adversarial scenario.
/// [`FaultSpec::plan`] expands the tag into a concrete [`FaultPlan`]
/// sized to the cluster (`n` nodes, synchrony bound Δ in µs), always
/// afflicting trailing non-leader nodes so view 1's leader (node 0)
/// stays honest except in the leader-fault scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSpec {
    /// Everybody honest.
    None,
    /// The view-1 leader is silent; the protocol must change views.
    SilentLeader,
    /// The view-1 leader equivocates; detection must trigger a blame.
    Equivocate,
    /// A follower withholds its implicit vote from view 1 on.
    Withhold,
    /// A lossy link: one node's transmissions to one peer drop half the
    /// time for the first 20Δ.
    SelectiveDrop,
    /// A follower duplicate-storms every relay (3 extra copies).
    Storm,
    /// The last node is partitioned away during `[5Δ, 25Δ)`, then the
    /// partition heals.
    PartitionHeal,
    /// Node churn: two followers crash and restart on staggered
    /// schedules (down during `[10Δ, 30Δ)` and `[20Δ, 40Δ)`).
    Churn,
    /// One follower crashes at 10Δ and restarts at 40Δ, repairing its
    /// log from its peers.
    CrashRecovery,
}

impl FaultSpec {
    /// Every axis value, honest first — the sweep order figures use.
    pub const ALL: [FaultSpec; 9] = [
        FaultSpec::None,
        FaultSpec::SilentLeader,
        FaultSpec::Equivocate,
        FaultSpec::Withhold,
        FaultSpec::SelectiveDrop,
        FaultSpec::Storm,
        FaultSpec::PartitionHeal,
        FaultSpec::Churn,
        FaultSpec::CrashRecovery,
    ];

    /// The adversarial axis values (everything but `None`).
    pub const ADVERSARIAL: [FaultSpec; 8] = [
        FaultSpec::SilentLeader,
        FaultSpec::Equivocate,
        FaultSpec::Withhold,
        FaultSpec::SelectiveDrop,
        FaultSpec::Storm,
        FaultSpec::PartitionHeal,
        FaultSpec::Churn,
        FaultSpec::CrashRecovery,
    ];

    /// Stable label used in cell keys, CSV columns, and filenames.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSpec::None => "none",
            FaultSpec::SilentLeader => "silent-leader",
            FaultSpec::Equivocate => "equivocate",
            FaultSpec::Withhold => "withhold",
            FaultSpec::SelectiveDrop => "selective-drop",
            FaultSpec::Storm => "storm",
            FaultSpec::PartitionHeal => "partition-heal",
            FaultSpec::Churn => "churn",
            FaultSpec::CrashRecovery => "crash-recovery",
        }
    }

    /// Expands the tag into a concrete plan for an `n`-node cluster with
    /// synchrony bound `delta_us` (µs).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` — smaller clusters cannot absorb a fault.
    pub fn plan(&self, n: usize, delta_us: u64) -> FaultPlan {
        assert!(n >= 4, "fault scenarios need n >= 4, got {n}");
        let last = (n - 1) as NodeId;
        let d = delta_us.max(1);
        match self {
            FaultSpec::None => FaultPlan::none(),
            FaultSpec::SilentLeader => FaultPlan::silent_leader(),
            FaultSpec::Equivocate => FaultPlan::equivocating_leader(),
            FaultSpec::Withhold => FaultPlan::none().with_withholder(last, 1),
            FaultSpec::SelectiveDrop => {
                FaultPlan::none().with_drop(last, Some(last - 1), 500, 0, 20 * d)
            }
            FaultSpec::Storm => FaultPlan::none().with_storm(last, 1, 3),
            FaultSpec::PartitionHeal => FaultPlan::none().with_partition(5 * d, 25 * d, [last]),
            FaultSpec::Churn => FaultPlan::none()
                .with_crash(last, 10 * d, Some(30 * d))
                .with_crash(last - 1, 20 * d, Some(40 * d)),
            FaultSpec::CrashRecovery => FaultPlan::none().with_crash(last, 10 * d, Some(40 * d)),
        }
    }

    /// Parses a [`Self::label`] back into the tag (for CLI filters).
    pub fn parse(s: &str) -> Option<FaultSpec> {
        FaultSpec::ALL.into_iter().find(|f| f.label() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_mark_the_right_nodes() {
        assert_eq!(FaultPlan::none().count(), 0);
        let p = FaultPlan::silent_leader();
        assert!(p.is_faulty(0));
        assert!(!p.is_faulty(1));
        assert_eq!(p.eesmr_mode(0), FaultMode::Silent { from_view: 1 });
        assert_eq!(p.eesmr_mode(1), FaultMode::Honest);
    }

    #[test]
    fn equivocator_maps_to_both_protocols() {
        let p = FaultPlan::equivocating_leader();
        assert_eq!(p.eesmr_mode(0), FaultMode::Equivocate { in_view: 1 });
        assert_eq!(p.count(), 1);
    }

    #[test]
    fn silent_nodes_and_chaining() {
        let p = FaultPlan::silent_nodes([3, 4]).with_equivocator(0, 2).with_silent(5, 7);
        assert_eq!(p.count(), 4);
        assert_eq!(p.eesmr_mode(5), FaultMode::Silent { from_view: 7 });
        assert_eq!(p.eesmr_mode(0), FaultMode::Equivocate { in_view: 2 });
    }

    #[test]
    fn a_node_in_both_maps_counts_once() {
        let p = FaultPlan::silent_nodes([1]).with_equivocator(1, 1);
        assert_eq!(p.count(), 1);
        // Silence wins (checked first) — a silent node cannot equivocate.
        assert_eq!(p.eesmr_mode(1), FaultMode::Silent { from_view: 1 });
    }

    #[test]
    fn adversarial_behaviours_map_across_protocols() {
        let p = FaultPlan::none().with_withholder(2, 3).with_storm(4, 1, 5).with_crash(
            5,
            10_000,
            Some(50_000),
        );
        assert_eq!(p.count(), 3);
        assert_eq!(p.eesmr_mode(2), FaultMode::Withhold { from_view: 3 });
        assert_eq!(p.eesmr_mode(4), FaultMode::Storm { from_view: 1, repeats: 5 });
        assert_eq!(
            p.eesmr_mode(5),
            FaultMode::Crash { at_us: 10_000, restart_at_us: Some(50_000) }
        );
        assert_eq!(p.tb_fault(5), TbFault::Crash { at_us: 10_000, restart_at_us: Some(50_000) });
        assert_eq!(p.tb_fault(2), TbFault::Silent { from_us: 0 });
        assert_eq!(p.tb_fault(4), TbFault::Storm { repeats: 5 });
    }

    #[test]
    fn excused_vs_must_progress() {
        let p = FaultPlan::silent_leader()
            .with_withholder(1, 1)
            .with_storm(2, 1, 2)
            .with_crash(3, 1_000, Some(2_000))
            .with_crash(4, 1_000, None);
        assert!(p.is_excused(0), "silent nodes are excused");
        assert!(!p.is_excused(1), "withholders must still commit");
        assert!(!p.is_excused(2), "flooders must still commit");
        assert!(!p.is_excused(3), "a restarted node must catch up");
        assert!(p.is_excused(4), "a dead node never commits again");
        assert!(p.is_faulty(4));
    }

    #[test]
    fn heal_time_covers_links_and_restarts() {
        assert_eq!(FaultPlan::none().heal_time_us(), 0);
        let p =
            FaultPlan::none().with_partition(1_000, 9_000, [3]).with_crash(2, 500, Some(12_000));
        assert_eq!(p.heal_time_us(), 12_000);
        let dead = FaultPlan::none().with_crash(2, 500, None);
        assert_eq!(dead.heal_time_us(), u64::MAX, "a permanent crash never heals");
    }

    #[test]
    fn specs_expand_to_sized_plans() {
        let d = 2_000;
        for spec in FaultSpec::ALL {
            let p = spec.plan(8, d);
            assert!(FaultSpec::parse(spec.label()) == Some(spec), "label round-trips");
            if spec == FaultSpec::None {
                assert_eq!(p.count(), 0);
                assert!(p.link_faults.is_empty());
            } else {
                assert!(
                    p.count() > 0 || !p.link_faults.is_empty(),
                    "{} afflicts something",
                    spec.label()
                );
            }
        }
        let churn = FaultSpec::Churn.plan(8, d);
        assert_eq!(churn.count(), 2);
        assert_eq!(churn.heal_time_us(), 40 * d);
        let part = FaultSpec::PartitionHeal.plan(8, d);
        assert!(part.link_faults.severed(6 * d, 7, 0));
        assert!(!part.link_faults.severed(26 * d, 7, 0), "the partition heals");
        assert!(!part.is_faulty(7), "a partitioned node is a link fault, not a node fault");
    }
}
