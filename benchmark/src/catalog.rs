//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is rendered
//! from these tables (`--emit-manifest`) and a unit test keeps the
//! committed file equal to them.

use crate::json::Json;
use crate::stats::Better;
use Better::{Higher, Lower};

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "sim_steady",
        why: "Paper's Fig. 3 midpoint (n=13, k=7, EESMR + Sync HotStuff on SimNet): replica and crypto work dominate, the scheduler stays in heap mode",
    },
    WorkloadDef {
        name: "sim_scale",
        why: "n=128, k=4 ring (32 hops): floods, relays, dedup sets and a materialised calendar ring; where large-n and transmit costs show",
    },
    WorkloadDef {
        name: "sim_clients",
        why: "Open-loop Poisson clients (Zipf skew, adaptive batching) with a silent leader and a crash-recovery cell: timers, forwards, txpool, view change, repair",
    },
    WorkloadDef {
        name: "net_storm",
        why: "Payload-bearing flood storm over SimNet at n=128: transmit + scheduler only, no crypto or protocol logic; a replica change predicts no move here",
    },
    WorkloadDef {
        name: "fig_sweep",
        why: "Driver grid of 576 short scenarios over all four protocols and three fault axes on nproc workers: per-run set-up and the worker pool dominate",
    },
    WorkloadDef {
        name: "proc_mesh",
        why: "Seven replica processes over Unix sockets (run_proc): real frames, codec and child processes; delta padded to 25 ms, so wall time is timer-bound",
    },
];

pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    /// Simulated quantity: a pure function of the seed on every SimNet
    /// workload, so `--compare` also demands bit-equality there.
    pub simulated: bool,
}

pub const END_TO_END: [E2eDef; 6] = [
    E2eDef { name: "setup_s", unit: "s", better: Lower, bound: 0.25, simulated: false },
    E2eDef { name: "wall_ms_per_block", unit: "ms", better: Lower, bound: 0.25, simulated: false },
    E2eDef { name: "cpu_ms_per_block", unit: "ms", better: Lower, bound: 0.25, simulated: false },
    E2eDef { name: "events_per_s", unit: "1/s", better: Higher, bound: 0.25, simulated: false },
    E2eDef { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.25, simulated: false },
    E2eDef { name: "energy_mj_per_block", unit: "mJ", better: Lower, bound: 0.10, simulated: true },
];

/// How a per-layer metric repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time: noisy, compared by median and spread.
    Timed,
    /// A count or simulated quantity: repeats exactly for a seed (on the
    /// SimNet workloads), compared for equality.
    Exact,
}
use Kind::{Exact, Timed};

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> LayerDef {
    LayerDef { name, unit, better, kind }
}

/// Per-layer metrics; layer = crate (sub-module after the dot). A
/// metric whose layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [LayerDef; 69] = [
    layer("crypto.sha256_mb_per_s", "MB/s", Higher, Timed),
    layer("crypto.digest_parts_ns", "ns", Lower, Timed),
    layer("crypto.sign_ns", "ns", Lower, Timed),
    layer("crypto.verify_ns", "ns", Lower, Timed),
    layer("crypto.signs_per_block", "count", Lower, Exact),
    layer("crypto.verifies_per_block", "count", Lower, Exact),
    layer("crypto.est_share_pct", "%", Lower, Timed),
    layer("net.codec.encode_mb_per_s", "MB/s", Higher, Timed),
    layer("net.codec.decode_mb_per_s", "MB/s", Higher, Timed),
    layer("net.codec.encoded_len_ns", "ns", Lower, Timed),
    layer("net.codec.bytes_per_block", "count", Lower, Exact),
    layer("net.sched.ring_hold_ns", "ns", Lower, Timed),
    layer("net.sched.spill_hold_ns", "ns", Lower, Timed),
    layer("net.runtime.ns_per_delivery", "ns", Lower, Timed),
    layer("net.runtime.sched_pop_pct", "%", Lower, Timed),
    layer("net.runtime.replica_step_pct", "%", Lower, Timed),
    layer("net.runtime.transmit_pct", "%", Lower, Timed),
    layer("net.runtime.deliveries_per_block", "count", Lower, Exact),
    layer("net.runtime.kcasts_per_block", "count", Lower, Exact),
    layer("net.runtime.flood_relays_per_block", "count", Lower, Exact),
    layer("net.runtime.loopbacks_per_block", "count", Lower, Exact),
    layer("net.runtime.dropped", "count", Lower, Exact),
    layer("net.shard.s2_speedup", "x", Higher, Timed),
    layer("net.proc.child_cpu_ms_per_block", "ms", Lower, Timed),
    layer("net.proc.frames_per_block", "count", Lower, Timed),
    layer("net.proc.bytes_per_block", "count", Lower, Timed),
    layer("net.proc.spawn_ms", "ms", Lower, Timed),
    layer("net.proc.overhead_ms", "ms", Lower, Timed),
    layer("net.proc.tcp_wall_ms_per_block", "ms", Lower, Timed),
    layer("net.proc.retries", "count", Lower, Timed),
    layer("core.replica_ns_per_msg", "ns", Lower, Timed),
    layer("core.txpool_ns_per_tx", "ns", Lower, Timed),
    layer("core.eesmr_us_per_block.n13", "us", Lower, Timed),
    layer("core.eesmr_us_per_block.n128", "us", Lower, Timed),
    layer("core.view_changes", "count", Lower, Exact),
    layer("core.tx_forwarded", "count", Lower, Exact),
    layer("core.forward_retries", "count", Lower, Exact),
    layer("core.batch_fill_pct", "%", Higher, Exact),
    layer("core.peak_backlog", "count", Lower, Exact),
    layer("core.first_commit_after_fault_us", "us", Lower, Exact),
    layer("baselines.hs_replica_ns_per_msg", "ns", Lower, Timed),
    layer("baselines.synchs_us_per_block.n13", "us", Lower, Timed),
    layer("baselines.synchs_us_per_block.n128", "us", Lower, Timed),
    layer("workload.sample_ns", "ns", Lower, Timed),
    layer("workload.tx_injected", "count", Higher, Exact),
    layer("workload.committed_share", "share", Higher, Exact),
    layer("workload.tx_p50_us", "us", Lower, Exact),
    layer("workload.tx_p99_us", "us", Lower, Exact),
    layer("workload.p99_us_at_1000", "us", Lower, Exact),
    layer("workload.p99_us_at_4000", "us", Lower, Exact),
    layer("workload.max_rate_within_limit", "1/s", Higher, Exact),
    layer("energy.charge_ns", "ns", Lower, Timed),
    layer("energy.synchs_over_eesmr_leader", "x", Higher, Exact),
    layer("energy.ratio_err_pct", "%", Lower, Exact),
    layer("hypergraph.ring_build_us_n128", "us", Lower, Timed),
    layer("sim.setup_us_n13", "us", Lower, Timed),
    layer("sim.setup_us_n128", "us", Lower, Timed),
    layer("sim.commit_latency_us", "us", Lower, Exact),
    layer("driver.workers_speedup", "x", Higher, Timed),
    layer("driver.cells", "count", Higher, Exact),
    layer("driver.cells_per_s", "1/s", Higher, Timed),
    layer("trace.all_overhead_pct", "%", Lower, Timed),
    layer("trace.dropped_total", "count", Lower, Exact),
    layer("trace.audit_violations", "count", Lower, Exact),
    layer("metrics.on_overhead_pct", "%", Lower, Timed),
    layer("metrics.profile_overhead_pct", "%", Lower, Timed),
    layer("bench.span_overhead_pct", "%", Lower, Timed),
    layer("bench.ladder_gap_pct", "%", Lower, Timed),
    layer("bench.nproc", "count", Higher, Exact),
];

/// The unit of a catalogued metric ("" for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Seconds one contract run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = Json::parse(&text).expect("valid JSON");
        assert_eq!(committed, manifest(), "regenerate with `benchmark/run.sh --emit-manifest`");
        let keys: Vec<&str> = committed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
            "exactly the contract's keys"
        );
        for m in committed.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let keys: Vec<&str> = m.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
        }
    }
}
