//! The perf-trajectory emitter: measures the zero-copy message-spine
//! hot path (the `eesmr_bench::hotpath` broadcast storm) and writes a
//! `BENCH_<short-sha>.json` snapshot so throughput can be tracked
//! commit over commit.
//!
//! Modes:
//!
//! * `bench_trajectory` — measure, then write `BENCH_<short-sha>.json`
//!   in the current directory (the committed baselines live at the repo
//!   root).
//! * `bench_trajectory --check [FILE]` — measure, compare against the
//!   baseline `FILE` (default: the newest `BENCH_*.json` here by its
//!   `recorded_unix` stamp), and exit non-zero if event throughput
//!   regressed by more than the tolerance (10%, or
//!   `EESMR_BENCH_TOLERANCE`).
//!
//! `EESMR_QUICK=1` shrinks the storm budget and repetition count for
//! the CI smoke run. Each cell is measured several times and the best
//! run kept, damping scheduler noise.
//!
//! Besides the spine cells, the snapshot prices the observability
//! surfaces: the headline cell re-runs with full tracing and with
//! `eesmr-metrics` gauge sampling on, and a final self-profiled pass
//! (excluded from all throughput numbers) records where the simulator's
//! wall clock goes (`profile_pct` in the JSON; `EESMR_PROFILE=1` also
//! writes the folded-stacks rendering next to it).

use std::fs;
use std::process::Command as Shell;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use eesmr_bench::hotpath::{run_storm, StormSpec};
use eesmr_core::{Block, Command, Commands, Payload, SignedMsg};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_metrics::{profile_reset, profile_snapshot, set_profiling, ProfPhase, ProfileSnapshot};
use eesmr_net::{MetricsConfig, TraceLevel, WireCodec};

fn quick() -> bool {
    std::env::var("EESMR_QUICK").is_ok_and(|v| v == "1")
}

fn short_sha() -> String {
    Shell::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "worktree".to_string())
}

/// Best-of-`reps` measurement of one cell (max events/sec).
fn measure(spec: &StormSpec, reps: usize) -> (f64, u64) {
    let mut best = 0.0f64;
    let mut deliveries = 0;
    for _ in 0..reps {
        let result = run_storm(spec);
        deliveries = result.deliveries;
        best = best.max(result.events_per_sec());
    }
    (best, deliveries)
}

/// A representative mix of `SignedMsg` frames for the codec cell: the
/// steady-state proposal, a forwarded command batch, and the small
/// control messages that dominate frame counts.
fn codec_sample() -> Vec<SignedMsg> {
    let pki = KeyStore::generate(4, SigScheme::Hmac, 7);
    let genesis = Block::genesis();
    let commands: Vec<Command> = (0..64).map(|seq| Command::synthetic(seq, 128)).collect();
    let block = Block::extending(&genesis, 1, 3, commands.clone());
    vec![
        SignedMsg::new(
            Payload::Propose { block: block.clone(), round: 3, justify: None },
            1,
            pki.keypair(0),
        ),
        SignedMsg::new(Payload::Forward { commands: Commands::from(commands) }, 1, pki.keypair(1)),
        SignedMsg::new(Payload::Certify { block_id: block.id(), height: 1 }, 1, pki.keypair(2)),
        SignedMsg::new(Payload::Repair { from_height: 9 }, 1, pki.keypair(3)),
    ]
}

/// Measures the v1 wire codec's round-trip throughput in MB/s: every
/// sample frame is encoded and decoded back, and each direction counts
/// the frame's bytes (a frame both written and parsed moves 2× its
/// length through the codec).
fn measure_codec(quick: bool, reps: usize) -> f64 {
    let sample = codec_sample();
    let frames: Vec<Vec<u8>> = sample.iter().map(WireCodec::encode).collect();
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    let iters = if quick { 400 } else { 2000 };
    let mut best = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        let mut sink = 0usize;
        for _ in 0..iters {
            for (msg, bytes) in sample.iter().zip(&frames) {
                let encoded = msg.encode();
                sink += encoded.len();
                let back = SignedMsg::decode(bytes).expect("sample frame decodes");
                sink += back.wire_size();
            }
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(sink, 2 * frame_bytes * iters, "codec cell processed every byte");
        best = best.max((sink as f64 / 1e6) / secs);
    }
    best
}

struct Snapshot {
    sha: String,
    recorded_unix: u64,
    quick: bool,
    arc_events_per_sec: f64,
    trace_all_events_per_sec: f64,
    metrics_on_events_per_sec: f64,
    codec_mb_per_sec: f64,
    profile: ProfileSnapshot,
    cells: Vec<(StormSpec, f64, u64)>,
}

impl Snapshot {
    /// Fractional slowdown of the headline cell with full tracing on:
    /// `(off - all) / off`. Negative values are scheduler noise.
    fn trace_overhead(&self) -> f64 {
        (self.arc_events_per_sec - self.trace_all_events_per_sec) / self.arc_events_per_sec
    }

    /// Fractional slowdown of the headline cell with gauge sampling on,
    /// same convention as [`trace_overhead`](Snapshot::trace_overhead).
    fn metrics_overhead(&self) -> f64 {
        (self.arc_events_per_sec - self.metrics_on_events_per_sec) / self.arc_events_per_sec
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"eesmr-bench-trajectory/v1\",\n");
        out.push_str(&format!("  \"sha\": \"{}\",\n", self.sha));
        out.push_str(&format!("  \"recorded_unix\": {},\n", self.recorded_unix));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"headline\": {\n");
        out.push_str(&format!("    \"arc_events_per_sec\": {:.1},\n", self.arc_events_per_sec));
        out.push_str(&format!(
            "    \"trace_off_events_per_sec\": {:.1},\n",
            self.arc_events_per_sec
        ));
        out.push_str(&format!(
            "    \"trace_all_events_per_sec\": {:.1},\n",
            self.trace_all_events_per_sec
        ));
        out.push_str(&format!("    \"trace_overhead\": {:.3},\n", self.trace_overhead()));
        out.push_str(&format!(
            "    \"metrics_off_events_per_sec\": {:.1},\n",
            self.arc_events_per_sec
        ));
        out.push_str(&format!(
            "    \"metrics_on_events_per_sec\": {:.1},\n",
            self.metrics_on_events_per_sec
        ));
        out.push_str(&format!("    \"metrics_overhead\": {:.3},\n", self.metrics_overhead()));
        out.push_str(&format!("    \"codec_mb_per_sec\": {:.1}\n", self.codec_mb_per_sec));
        out.push_str("  },\n");
        out.push_str("  \"profile_pct\": {\n");
        let phases: Vec<String> = ProfPhase::ALL
            .iter()
            .map(|&p| format!("    \"{}\": {:.1}", p.as_str(), self.profile.pct(p)))
            .collect();
        out.push_str(&phases.join(",\n"));
        out.push_str("\n  },\n");
        out.push_str("  \"results\": [\n");
        let rows: Vec<String> = self
            .cells
            .iter()
            .map(|(spec, eps, deliveries)| {
                format!(
                    "    {{\"name\": \"{}\", \"n\": {}, \"commands\": {}, \"payload_bytes\": {}, \
                     \"shards\": {}, \"deliveries\": {}, \"events_per_sec\": {:.1}}}",
                    spec.label(),
                    spec.n,
                    spec.commands,
                    spec.payload_bytes,
                    spec.shards,
                    deliveries,
                    eps
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Runs the trajectory workload: the headline n = 128 cell, a shard
/// sweep, and the headline cell with full tracing on (pricing the
/// `eesmr-trace` hot path).
fn take_snapshot() -> Snapshot {
    let quick = quick();
    let (budget, reps) = if quick { (3, 2) } else { (6, 3) };
    let mut cells = Vec::new();
    let spec = StormSpec { budget, ..StormSpec::headline() };
    eprintln!("measuring {} (reps={reps})...", spec.label());
    let (arc_eps, deliveries) = measure(&spec, reps);
    cells.push((spec, arc_eps, deliveries));
    for shards in [2usize, 4] {
        let spec = StormSpec { budget, shards, ..StormSpec::headline() };
        eprintln!("measuring {} (reps={reps})...", spec.label());
        let (eps, deliveries) = measure(&spec, reps);
        cells.push((spec, eps, deliveries));
    }
    let traced_spec = StormSpec { budget, trace: TraceLevel::All, ..StormSpec::headline() };
    eprintln!("measuring {} (reps={reps})...", traced_spec.label());
    let (trace_all_eps, deliveries) = measure(&traced_spec, reps);
    cells.push((traced_spec, trace_all_eps, deliveries));
    let sampled_spec = StormSpec { budget, metrics: MetricsConfig::on(), ..StormSpec::headline() };
    eprintln!("measuring {} (reps={reps})...", sampled_spec.label());
    let (metrics_on_eps, deliveries) = measure(&sampled_spec, reps);
    cells.push((sampled_spec, metrics_on_eps, deliveries));
    eprintln!("measuring codec roundtrip (reps={reps})...");
    let codec_mb_per_sec = measure_codec(quick, reps);
    // One extra self-profiled pass, excluded from every throughput
    // number above (the phase timers themselves cost a few percent):
    // it only feeds the `profile_pct` breakdown and the folded stacks.
    eprintln!("profiling {}...", StormSpec::headline().label());
    set_profiling(true);
    profile_reset();
    run_storm(&StormSpec { budget, ..StormSpec::headline() });
    let profile = profile_snapshot();
    set_profiling(false);
    let recorded_unix =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    Snapshot {
        sha: short_sha(),
        recorded_unix,
        quick,
        arc_events_per_sec: arc_eps,
        trace_all_events_per_sec: trace_all_eps,
        metrics_on_events_per_sec: metrics_on_eps,
        codec_mb_per_sec,
        profile,
        cells,
    }
}

/// Pulls the number following `"key":` out of our own JSON dialect.
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The newest committed baseline in the current directory, by its
/// `recorded_unix` stamp.
fn latest_baseline() -> Option<String> {
    let mut best: Option<(u64, String)> = None;
    for entry in fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let Ok(text) = fs::read_to_string(entry.path()) else { continue };
        let stamp = json_f64(&text, "recorded_unix").unwrap_or(0.0) as u64;
        if best.as_ref().is_none_or(|(s, _)| stamp > *s) {
            best = Some((stamp, name));
        }
    }
    best.map(|(_, name)| name)
}

fn check(baseline_path: Option<String>) -> i32 {
    let Some(path) = baseline_path.or_else(latest_baseline) else {
        eprintln!("bench_trajectory --check: no BENCH_*.json baseline found");
        return 2;
    };
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("bench_trajectory --check: cannot read {path}: {err}");
            return 2;
        }
    };
    let Some(baseline_eps) = json_f64(&text, "arc_events_per_sec") else {
        eprintln!("bench_trajectory --check: {path} has no arc_events_per_sec");
        return 2;
    };
    // Baselines recorded before the codec cell existed simply skip that
    // comparison — the key is absent, not zero.
    let baseline_codec = json_f64(&text, "codec_mb_per_sec");
    let tolerance = std::env::var("EESMR_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.10);
    let floor = baseline_eps * (1.0 - tolerance);
    let codec_floor = baseline_codec.map(|mb| mb * (1.0 - tolerance));
    // A shared runner can dip any single measurement well past the
    // tolerance; a true regression fails persistently. Debounce by
    // keeping the best of up to three snapshots.
    let (mut best_eps, mut best_codec) = (0.0f64, 0.0f64);
    for attempt in 1..=3 {
        let snap = take_snapshot();
        best_eps = best_eps.max(snap.arc_events_per_sec);
        best_codec = best_codec.max(snap.codec_mb_per_sec);
        if best_eps >= floor && codec_floor.is_none_or(|f| best_codec >= f) {
            break;
        }
        eprintln!("attempt {attempt} below the bar ({:.0} events/s); retrying", best_eps);
    }
    println!(
        "baseline {path}: {:.0} events/s; current: {:.0} events/s (floor {:.0}, tolerance {:.0}%)",
        baseline_eps,
        best_eps,
        floor,
        tolerance * 100.0
    );
    match (baseline_codec, codec_floor) {
        (Some(mb), Some(f)) => println!(
            "codec roundtrip: baseline {mb:.0} MB/s; current {best_codec:.0} MB/s (floor {f:.0})"
        ),
        _ => println!(
            "codec roundtrip: {best_codec:.0} MB/s (baseline predates codec_mb_per_sec; skipped)"
        ),
    }
    let mut status = 0;
    if best_eps < floor {
        eprintln!("FAIL: event throughput regressed more than {:.0}%", tolerance * 100.0);
        status = 1;
    }
    if let Some(f) = codec_floor {
        if best_codec < f {
            eprintln!("FAIL: codec throughput regressed more than {:.0}%", tolerance * 100.0);
            status = 1;
        }
    }
    if status == 0 {
        println!("OK: throughput within tolerance of the committed baseline");
    }
    status
}

fn emit() -> i32 {
    let snap = take_snapshot();
    let path = format!("BENCH_{}.json", snap.sha);
    println!(
        "storm: {:.0} events/s  trace-all: {:.0} events/s  trace overhead: {:.1}%  \
         metrics overhead: {:.1}%",
        snap.arc_events_per_sec,
        snap.trace_all_events_per_sec,
        snap.trace_overhead() * 100.0,
        snap.metrics_overhead() * 100.0
    );
    println!("codec roundtrip: {:.0} MB/s", snap.codec_mb_per_sec);
    println!("profile: {}", snap.profile.summary());
    // EESMR_PROFILE also asks for the flamegraph-ready rendering of the
    // profiled pass, next to the JSON.
    if matches!(
        std::env::var("EESMR_PROFILE").as_deref().map(str::trim),
        Ok("1") | Ok("true") | Ok("on")
    ) {
        let folded_path = format!("BENCH_{}.folded", snap.sha);
        match fs::write(&folded_path, snap.profile.folded()) {
            Ok(()) => println!("wrote {folded_path}"),
            Err(err) => eprintln!("bench_trajectory: cannot write {folded_path}: {err}"),
        }
    }
    match fs::write(&path, snap.to_json()) {
        Ok(()) => {
            println!("wrote {path}");
            0
        }
        Err(err) => {
            eprintln!("bench_trajectory: cannot write {path}: {err}");
            1
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let status = match args.next().as_deref() {
        Some("--check") => check(args.next()),
        Some(other) => {
            eprintln!("bench_trajectory: unknown argument {other} (try --check [FILE])");
            2
        }
        None => emit(),
    };
    std::process::exit(status);
}
