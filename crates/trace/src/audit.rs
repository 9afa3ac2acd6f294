//! Trace auditing: replay a merged trace and check SMR invariants.
//!
//! The auditor consumes the canonical merged event order of a
//! [`TraceSet`] (recorded at [`crate::TraceLevel::Commit`] or above) and
//! checks the two properties every state-machine-replication run must
//! uphold, no matter which faults were injected:
//!
//! * **Safety** — no two nodes commit different blocks at the same
//!   height, and each node's committed heights are strictly increasing.
//!   Together these imply commit-ancestry consistency: if every pair of
//!   nodes agrees at every height and no node ever rewinds, all
//!   committed logs are prefixes of one chain.
//! * **Liveness** — after the last injected fault heals, every honest
//!   node commits at least one block within a bounded window.
//!
//! The auditor is pure replay: it never re-executes the protocol, so it
//! can gate CI on any traced run — honest, adversarial, multi-process — at the
//! cost of one pass over the event stream.

use std::collections::{BTreeMap, BTreeSet};

use crate::{EventKind, TraceSet};

/// What the auditor should check, beyond the always-on safety pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditConfig {
    /// Nodes that must satisfy the liveness check. Empty means safety
    /// only (e.g. when every node is excused or the run is too short to
    /// bound liveness).
    pub honest: BTreeSet<u32>,
    /// The time (µs) by which every injected fault has healed. Commits
    /// are only demanded after this point; `u64::MAX` (a fault that
    /// never heals) disables the liveness check.
    pub heal_us: u64,
    /// How long (µs) after `heal_us` each honest node has to commit.
    pub window_us: u64,
}

impl AuditConfig {
    /// Safety checks only — no liveness demands.
    pub fn safety_only() -> AuditConfig {
        AuditConfig::default()
    }

    /// Safety plus liveness: every node in `honest` must commit within
    /// `window_us` after `heal_us`.
    pub fn new(honest: impl IntoIterator<Item = u32>, heal_us: u64, window_us: u64) -> AuditConfig {
        AuditConfig { honest: honest.into_iter().collect(), heal_us, window_us }
    }
}

/// One invariant breach found during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two nodes committed different blocks at the same height — a fork.
    ConflictingCommit {
        /// The disputed height.
        height: u64,
        /// Fingerprint of the block committed first at this height.
        first: u64,
        /// The node that committed `first`.
        first_node: u32,
        /// The conflicting fingerprint committed later.
        second: u64,
        /// The node that committed `second`.
        second_node: u32,
    },
    /// A node committed a height at or below one it already committed.
    NonMonotonicHeight {
        /// The offending node.
        node: u32,
        /// The height it had already reached.
        prev: u64,
        /// The height it then committed.
        next: u64,
        /// When (µs).
        time_us: u64,
    },
    /// An honest node failed to commit inside the post-heal window.
    Stalled {
        /// The silent node.
        node: u32,
        /// Its last commit time, if it ever committed.
        last_commit_us: Option<u64>,
        /// The deadline it missed (`heal_us + window_us`).
        deadline_us: u64,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::ConflictingCommit { height, first, first_node, second, second_node } => {
                write!(
                    f,
                    "safety: height {height} forked — node {first_node} committed \
                     {first:#018x}, node {second_node} committed {second:#018x}"
                )
            }
            Violation::NonMonotonicHeight { node, prev, next, time_us } => write!(
                f,
                "safety: node {node} committed height {next} after height {prev} at {time_us}µs"
            ),
            Violation::Stalled { node, last_commit_us, deadline_us } => match last_commit_us {
                Some(t) => write!(
                    f,
                    "liveness: node {node} last committed at {t}µs, nothing by {deadline_us}µs"
                ),
                None => {
                    write!(f, "liveness: node {node} never committed (deadline {deadline_us}µs)")
                }
            },
        }
    }
}

/// The auditor's verdict over one traced run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Commit events replayed.
    pub commits: u64,
    /// Distinct nodes that committed at least once.
    pub committing_nodes: usize,
    /// Every invariant breach, in replay order (safety first, then
    /// liveness, each in the canonical merged-event order).
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the run upheld every checked invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line summary for logs and CI output.
    pub fn summary(&self) -> String {
        format!(
            "{} commits across {} nodes, {} violation(s)",
            self.commits,
            self.committing_nodes,
            self.violations.len()
        )
    }
}

/// Replays `traces` and checks safety (always) and liveness (when
/// `config.honest` is non-empty and `config.heal_us` is finite).
pub fn audit(traces: &TraceSet, config: &AuditConfig) -> AuditReport {
    let mut report = AuditReport::default();
    // height → (fingerprint, first committing node): the global
    // agreement map the fork check runs against.
    let mut canon: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    // node → (highest committed height, time of last commit).
    let mut per_node: BTreeMap<u32, (u64, u64)> = BTreeMap::new();

    for event in traces.merged() {
        let EventKind::Commit { block, height } = event.kind else { continue };
        report.commits += 1;
        match canon.get(&height) {
            None => {
                canon.insert(height, (block, event.node));
            }
            Some(&(first, first_node)) if first != block => {
                report.violations.push(Violation::ConflictingCommit {
                    height,
                    first,
                    first_node,
                    second: block,
                    second_node: event.node,
                });
            }
            Some(_) => {}
        }
        match per_node.get_mut(&event.node) {
            None => {
                per_node.insert(event.node, (height, event.time_us));
            }
            Some((prev, last_us)) => {
                if height <= *prev {
                    report.violations.push(Violation::NonMonotonicHeight {
                        node: event.node,
                        prev: *prev,
                        next: height,
                        time_us: event.time_us,
                    });
                } else {
                    *prev = height;
                }
                *last_us = event.time_us;
            }
        }
    }
    report.committing_nodes = per_node.len();

    if config.heal_us != u64::MAX {
        let deadline_us = config.heal_us.saturating_add(config.window_us);
        for &node in &config.honest {
            let last = per_node.get(&node).map(|&(_, t)| t);
            // The node must have committed something at or after the
            // heal, by the deadline. A commit before the heal does not
            // count: the point is that the healed network makes
            // progress, not that progress happened once.
            if !last.is_some_and(|t| t >= config.heal_us && t <= deadline_us) {
                report.violations.push(Violation::Stalled {
                    node,
                    last_commit_us: last,
                    deadline_us,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceEvent, TraceLevel, Tracer};

    fn commit(node: u32, time_us: u64, seq: u64, block: u64, height: u64) -> TraceEvent {
        TraceEvent { time_us, node, seq, kind: EventKind::Commit { block, height } }
    }

    fn set_of(events: Vec<TraceEvent>) -> TraceSet {
        let max_node = events.iter().map(|e| e.node).max().unwrap_or(0);
        let mut nodes: Vec<crate::NodeTrace> = (0..=max_node)
            .map(|n| crate::NodeTrace { node: n, events: Vec::new(), dropped: 0 })
            .collect();
        for e in events {
            nodes[e.node as usize].events.push(e);
        }
        TraceSet { nodes }
    }

    #[test]
    fn clean_chain_audits_clean() {
        let set = set_of(vec![
            commit(0, 100, 0, 0xa, 1),
            commit(1, 110, 0, 0xa, 1),
            commit(0, 200, 1, 0xb, 2),
            commit(1, 210, 1, 0xb, 2),
        ]);
        let report = audit(&set, &AuditConfig::new([0, 1], 0, 1_000));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.commits, 4);
        assert_eq!(report.committing_nodes, 2);
        assert!(report.summary().contains("4 commits"));
    }

    #[test]
    fn fork_is_reported() {
        // Node 1 commits a different block at height 2 — the deliberate
        // broken trace the auditor must catch.
        let set = set_of(vec![
            commit(0, 100, 0, 0xa, 1),
            commit(1, 110, 0, 0xa, 1),
            commit(0, 200, 1, 0xb, 2),
            commit(1, 210, 1, 0xE71, 2),
        ]);
        let report = audit(&set, &AuditConfig::safety_only());
        assert_eq!(report.violations.len(), 1);
        match &report.violations[0] {
            Violation::ConflictingCommit { height, first, second, first_node, second_node } => {
                assert_eq!(*height, 2);
                assert_eq!((*first, *first_node), (0xb, 0));
                assert_eq!((*second, *second_node), (0xE71, 1));
            }
            other => panic!("wrong violation: {other}"),
        }
        assert!(report.violations[0].to_string().contains("forked"));
    }

    #[test]
    fn height_rewind_is_reported() {
        let set = set_of(vec![
            commit(0, 100, 0, 0xa, 5),
            commit(0, 200, 1, 0xb, 3), // rewinds — synthetic corruption
        ]);
        let report = audit(&set, &AuditConfig::safety_only());
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::NonMonotonicHeight { node: 0, prev: 5, next: 3, .. }]
        ));
    }

    #[test]
    fn stalled_honest_node_fails_liveness() {
        // Node 1 commits before the heal but never after it; node 2
        // never commits at all.
        let set = set_of(vec![
            commit(0, 100, 0, 0xa, 1),
            commit(1, 110, 0, 0xa, 1),
            commit(0, 5_000, 1, 0xb, 2),
        ]);
        let report = audit(&set, &AuditConfig::new([0, 1, 2], 1_000, 10_000));
        let stalled: Vec<u32> = report
            .violations
            .iter()
            .filter_map(|v| match v {
                Violation::Stalled { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(stalled, vec![1, 2]);
        assert!(report.violations.iter().all(|v| v.to_string().starts_with("liveness:")));
    }

    #[test]
    fn unhealing_faults_disable_liveness() {
        let set = set_of(vec![commit(0, 100, 0, 0xa, 1)]);
        let report = audit(&set, &AuditConfig::new([0, 1], u64::MAX, 10_000));
        assert!(report.is_clean(), "no liveness demands when the fault never heals");
    }

    #[test]
    fn audits_real_tracer_output() {
        let mut t = Tracer::new(TraceLevel::Commit, 7);
        t.record(10, EventKind::Commit { block: 1, height: 1 });
        t.record(20, EventKind::Commit { block: 2, height: 2 });
        t.record(30, EventKind::Propose { block: 3, view: 1, round: 3 }); // ignored
        let set = TraceSet { nodes: vec![t.drain()] };
        let report = audit(&set, &AuditConfig::new([7], 0, 100));
        assert!(report.is_clean());
        assert_eq!(report.commits, 2);
    }
}
