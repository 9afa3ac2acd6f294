//! Wall-clock self-profiling for the simulator's own hot loop.
//!
//! Four phases cover where a storm run spends real time: popping the
//! scheduler, stepping replicas, expanding transmissions, and (sharded
//! runs) waiting at the window barrier. Timers are RAII guards around
//! those regions in `eesmr-net`; when profiling is off (the default) a
//! guard is a `None` and costs one branch.
//!
//! Accumulators are process-global atomics so shard worker threads charge
//! the same ledger without plumbing state through the runtime. Profiling
//! output is wall-clock and therefore **never** part of any report
//! equality — it exists for humans and the perf-trajectory JSON.
//!
//! Enable with `EESMR_PROFILE=1` (or [`set_profiling`] from a harness),
//! then render [`ProfileSnapshot::folded`] to a `*.folded` file that
//! `flamegraph.pl --flamechart` or speedscope load directly.

use std::env;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Simulator phases timed by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfPhase {
    /// Popping the next event from the scheduler queue.
    SchedPop,
    /// Running an actor handler (`on_start`/`on_message`/`on_timer`).
    ReplicaStep,
    /// Expanding an effect into per-edge deliveries and energy charges.
    Transmit,
    /// Blocked on the sharded runtime's window barrier.
    BarrierWait,
}

/// Number of profiled phases.
pub const N_PROF_PHASE: usize = 4;

impl ProfPhase {
    /// All phases, in display order.
    pub const ALL: [ProfPhase; N_PROF_PHASE] =
        [ProfPhase::SchedPop, ProfPhase::ReplicaStep, ProfPhase::Transmit, ProfPhase::BarrierWait];

    fn index(self) -> usize {
        match self {
            ProfPhase::SchedPop => 0,
            ProfPhase::ReplicaStep => 1,
            ProfPhase::Transmit => 2,
            ProfPhase::BarrierWait => 3,
        }
    }

    /// Stable snake_case name (folded-stack frame, JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            ProfPhase::SchedPop => "sched_pop",
            ProfPhase::ReplicaStep => "replica_step",
            ProfPhase::Transmit => "transmit",
            ProfPhase::BarrierWait => "barrier_wait",
        }
    }
}

static NANOS: [AtomicU64; N_PROF_PHASE] = [const { AtomicU64::new(0) }; N_PROF_PHASE];
static COUNTS: [AtomicU64; N_PROF_PHASE] = [const { AtomicU64::new(0) }; N_PROF_PHASE];

// 0 = not yet read from env, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when phase timers are live. First call reads `EESMR_PROFILE`
/// (truthy: `1`/`true`/`on`); [`set_profiling`] overrides it.
#[inline]
pub fn profiling_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => {
            let on = matches!(
                env::var("EESMR_PROFILE").as_deref().map(str::trim),
                Ok("1") | Ok("true") | Ok("on")
            );
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        2 => true,
        _ => false,
    }
}

/// Forces profiling on or off, overriding `EESMR_PROFILE` (used by
/// harnesses like `benchmark/` that profile programmatically).
pub fn set_profiling(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Zeroes all accumulators (start of a measured region).
pub fn profile_reset() {
    for i in 0..N_PROF_PHASE {
        NANOS[i].store(0, Ordering::Relaxed);
        COUNTS[i].store(0, Ordering::Relaxed);
    }
}

/// Reads the accumulators without clearing them.
pub fn profile_snapshot() -> ProfileSnapshot {
    let mut s = ProfileSnapshot::default();
    for i in 0..N_PROF_PHASE {
        s.nanos[i] = NANOS[i].load(Ordering::Relaxed);
        s.counts[i] = COUNTS[i].load(Ordering::Relaxed);
    }
    s
}

/// RAII timer: created at region entry, charges its phase on drop.
/// Disabled profiling makes construction and drop branch-only.
#[must_use = "the timer charges its phase when dropped"]
pub struct ProfTimer {
    live: Option<(ProfPhase, Instant)>,
}

impl ProfTimer {
    /// Starts timing `phase` if profiling is enabled.
    #[inline]
    pub fn start(phase: ProfPhase) -> Self {
        Self { live: profiling_enabled().then(|| (phase, Instant::now())) }
    }
}

impl Drop for ProfTimer {
    fn drop(&mut self) {
        if let Some((phase, started)) = self.live.take() {
            let ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            NANOS[phase.index()].fetch_add(ns, Ordering::Relaxed);
            COUNTS[phase.index()].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Accumulated wall-clock time and entry counts per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Nanoseconds accumulated per phase (ProfPhase::ALL order).
    pub nanos: [u64; N_PROF_PHASE],
    /// Region entries per phase.
    pub counts: [u64; N_PROF_PHASE],
}

impl ProfileSnapshot {
    /// Total profiled nanoseconds across phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Share of profiled time spent in `phase`, percent (0 when nothing
    /// was profiled).
    pub fn pct(&self, phase: ProfPhase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            return 0.0;
        }
        self.nanos[phase.index()] as f64 * 100.0 / total as f64
    }

    /// True if no phase accumulated any time.
    pub fn is_empty(&self) -> bool {
        self.total_nanos() == 0
    }

    /// Folded-stacks rendering (`frame;frame count` per line, counts in
    /// microseconds) — load with `flamegraph.pl` or speedscope.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for phase in ProfPhase::ALL {
            let us = self.nanos[phase.index()] / 1_000;
            let _ = writeln!(out, "eesmr;{} {}", phase.as_str(), us);
        }
        out
    }

    /// One-line human summary: `sched_pop 12.3% | replica_step 60.1% | …`.
    pub fn summary(&self) -> String {
        ProfPhase::ALL
            .iter()
            .map(|&p| format!("{} {:.1}%", p.as_str(), self.pct(p)))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_accumulate_only_when_enabled() {
        set_profiling(false);
        profile_reset();
        drop(ProfTimer::start(ProfPhase::SchedPop));
        assert!(profile_snapshot().is_empty());

        set_profiling(true);
        {
            let _t = ProfTimer::start(ProfPhase::ReplicaStep);
            std::hint::black_box(0u64);
        }
        let snap = profile_snapshot();
        assert_eq!(snap.counts[ProfPhase::ReplicaStep.index()], 1);
        set_profiling(false);
        profile_reset();
    }

    #[test]
    fn folded_output_names_every_phase() {
        let snap = ProfileSnapshot { nanos: [1_000, 2_000, 3_000, 4_000], counts: [1, 1, 1, 1] };
        let folded = snap.folded();
        for phase in ProfPhase::ALL {
            assert!(folded.contains(&format!("eesmr;{}", phase.as_str())));
        }
        assert!((snap.pct(ProfPhase::BarrierWait) - 40.0).abs() < 1e-9);
        assert!(snap.summary().contains("barrier_wait 40.0%"));
    }
}
