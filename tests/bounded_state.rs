//! Bounded replica bookkeeping (ROADMAP item 6, its bookkeeping half):
//! every per-height table a replica keeps — the skeleton's proposals and
//! first-acceptance times, EESMR's relays, Sync HotStuff's and OptSync's
//! votes, the trusted hub's uploads — is pruned below the commit floor
//! `b_com_height − W`, so its size is set by the window `W`, not by how
//! long the replica has run.
//!
//! Each rule runs the honest, crash-recovery, churn and bursty-client
//! cells at `L` and `10·L` blocks, `L > W`, reading every node's tables
//! ([`Smr::bookkeeping`]) each Δ/4. A table holds the bands of `W`
//! heights from the floor's up to the pipeline's top — at most `2·W` plus
//! the pipeline's 8 heights — so the most entries it ever held stays
//! within a bound set by `W`, and the longer run's most exceeds the
//! shorter's by no more than the pipeline's entries: the most is read
//! just before a band goes, with however many blocks the pipeline holds
//! at that reading. The trusted hub's `taken` holds one key per upload,
//! and a spoke uploads once per hub block, clients or not: at most `n − 1`
//! keys per height. Under clients how many spokes uploaded into a height
//! follows the arrivals, so the longer run may meet a fuller window than
//! the shorter: its most may exceed the shorter's by up to `W` full heights
//! and the pipeline's. Every node's committed log is a prefix of every
//! longer one, and the run's trace passes
//! [`eesmr_trace::audit::audit`].
//! The block store and the committed log are not in the bound: they stay
//! whole by design (ARCHITECTURE.md, "Bounded bookkeeping").

use eesmr_core::smr::{PIPELINE, WINDOW};
use eesmr_core::{Block, Rule, Smr};
use eesmr_net::{NetConfig, SimDuration, SimNet, SimTime, TraceLevel};
use eesmr_sim::cell::{Cell, Replicas};
use eesmr_sim::{ArrivalProcess, BatchPolicy, FaultSpec, Protocol, Scenario, Skew, Workload};
use eesmr_trace::audit::{audit, AuditConfig};
use eesmr_trace::TraceSet;

/// The shorter run's length: past the third 64-height band, so that
/// every node, the crash and churn cells' repaired ones included, has held
/// two bands of heights all after its repair before one is dropped.
const L: u64 = 200;
const _: () = assert!(L > 3 * WINDOW, "L must pass the third band");

/// The bursty clients' per-node in-flight bound.
const IN_FLIGHT: usize = 4;

/// The most entries each table held over the run's readings.
type Peaks = Vec<(&'static str, usize)>;

/// What one run leaves to check: each node's peaks and committed log, and
/// the trace.
struct Outcome {
    peaks: Vec<Peaks>,
    logs: Vec<Vec<Block>>,
    traces: TraceSet,
}

/// Runs the cell on the simulator, Δ/4 at a time, until every node its
/// fault does not excuse has committed `blocks`, reading every node's
/// table sizes after each step.
fn run(scenario: &Scenario, blocks: u64) -> Outcome {
    let scenario = scenario.clone().trace(TraceLevel::Proto);
    let net = scenario.net_config();
    let delta = net.delta();
    let plan = scenario.effective_faults(delta);
    let Cell { net, roles, replicas, .. } = scenario.build(net, delta, &plan);
    let excused: Vec<bool> = roles.iter().map(|r| r.excused).collect();
    let step = SimDuration::from_micros(delta.as_micros() / 4);
    let limits = (&excused[..], step, SimTime::ZERO + scenario.deadline, blocks);
    match replicas {
        Replicas::Eesmr(r) => drive(net, r, limits),
        Replicas::SyncHs(r) => drive(net, r, limits),
        Replicas::Trusted(r) => drive(net, r, limits),
    }
}

fn drive<R: Rule>(
    net: NetConfig,
    replicas: Vec<Smr<R>>,
    (excused, step, deadline, blocks): (&[bool], SimDuration, SimTime, u64),
) -> Outcome {
    let n = replicas.len() as u32;
    let mut peaks: Vec<Peaks> = replicas.iter().map(Smr::bookkeeping).collect();
    let mut net = SimNet::new(net, replicas);
    let mut now = SimTime::ZERO;
    loop {
        let nodes = (0..n).map(|id| net.actor(id));
        if nodes.zip(excused).all(|(r, &excused)| excused || r.committed_height() >= blocks) {
            break;
        }
        assert!(now < deadline, "the run reaches {blocks} blocks");
        now += step;
        net.run_until(now);
        for (id, peak) in (0..n).zip(&mut peaks) {
            for ((_, most), (_, held)) in peak.iter_mut().zip(net.actor(id).bookkeeping()) {
                *most = (*most).max(held);
            }
        }
    }
    let logs = (0..n).map(|id| net.actor(id).committed().to_vec()).collect();
    Outcome { peaks, logs, traces: net.take_traces() }
}

/// The most keys `table` may hold per height on a node of an `n`-node
/// cell: a slot, block or vote twice at most (a height proposed again
/// after a view change); the hub takes one upload per spoke into a block,
/// since a spoke uploads again only once the hub's last block reached it.
fn per_height(table: &str, n: usize) -> usize {
    if table == "taken" {
        n - 1
    } else {
        2
    }
}

fn cells(protocol: Protocol) -> Vec<(&'static str, Scenario)> {
    let base = Scenario::new(protocol, 5, 2).seed(42);
    let bursty = Workload::new(ArrivalProcess::Bursty { rate: 5_000, on_ms: 30, off_ms: 60 })
        .skew(Skew::Hotspot { pct: 80 })
        .closed_loop(IN_FLIGHT);
    let adaptive = BatchPolicy::Adaptive { min: 1, max: 64, target_fill_pct: 100 };
    vec![
        ("honest", base.clone()),
        ("crash-recovery", base.clone().fault_spec(FaultSpec::CrashRecovery)),
        ("churn", base.clone().fault_spec(FaultSpec::Churn)),
        ("bursty clients", base.workload(bursty).batch_policy(adaptive)),
    ]
}

fn bookkeeping_is_bounded_in_run_length(protocol: Protocol) {
    for (cell, scenario) in cells(protocol) {
        let label = format!("{} {cell}", protocol.name());
        let (short, long) = (run(&scenario, L), run(&scenario, 10 * L));
        let heights = 2 * WINDOW as usize + PIPELINE;
        for outcome in [&short, &long] {
            for (id, tables) in outcome.peaks.iter().enumerate() {
                assert!(!tables.is_empty(), "{label}: node {id} reports its tables");
                for &(table, most) in tables {
                    let bound = per_height(table, scenario.n) * heights;
                    assert!(most <= bound, "{label}: node {id}'s {table} held {most} > {bound}");
                }
            }
            for a in &outcome.logs {
                for b in &outcome.logs {
                    let common = a.len().min(b.len());
                    assert_eq!(a[..common], b[..common], "{label}: two logs diverge");
                }
            }
            assert!(outcome.traces.nodes.iter().all(|t| t.dropped == 0), "{label}: a whole trace");
            let verdict = audit(&outcome.traces, &AuditConfig::safety_only());
            assert!(verdict.is_clean(), "{label}: {}", verdict.summary());
        }
        let clients = scenario.workload.is_some();
        for (id, (short, long)) in short.peaks.iter().zip(&long.peaks).enumerate() {
            for (&(table, short), &(_, long)) in short.iter().zip(long) {
                let grown = long.saturating_sub(short);
                let fuller = if clients && table == "taken" { WINDOW as usize } else { 0 };
                let bound = per_height(table, scenario.n) * (fuller + PIPELINE);
                assert!(
                    grown <= bound,
                    "{label}: node {id}'s {table} held {short} at L, {long} at 10·L"
                );
            }
        }
    }
}

#[test]
fn eesmr_bookkeeping_is_bounded_in_run_length() {
    bookkeeping_is_bounded_in_run_length(Protocol::Eesmr);
}

#[test]
fn sync_hotstuff_bookkeeping_is_bounded_in_run_length() {
    bookkeeping_is_bounded_in_run_length(Protocol::SyncHotStuff);
}

#[test]
fn optsync_bookkeeping_is_bounded_in_run_length() {
    bookkeeping_is_bounded_in_run_length(Protocol::OptSync);
}

#[test]
fn trusted_bookkeeping_is_bounded_in_run_length() {
    bookkeeping_is_bounded_in_run_length(Protocol::TrustedBaseline);
}
