//! The zero-copy message-spine hot-path harness: a broadcast storm whose
//! messages carry real protocol payloads ([`Block`]s full of
//! [`Command`]s), so every per-hop `msg.clone()` inside the simulator
//! exercises the shared [`Block`] handle (a refcount bump per hop).
//!
//! Shared between `benches/hotpath.rs` (criterion profile) and the
//! `bench_trajectory` binary (the `BENCH_<short-sha>.json` emitter CI
//! gates on).

use std::time::Instant;

use eesmr_core::{Block, Command};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::{
    Actor, Context, Message, MetricsConfig, NetConfig, NodeId, ShardedNet, SimDuration, TraceLevel,
};

/// A flooded proposal: a block of commands plus a dedup key. Cloned by
/// the runtime once per receiver per hop — the spine's hot path.
#[derive(Debug, Clone)]
pub struct Prop {
    key: u64,
    block: Block,
}

impl Message for Prop {
    fn wire_size(&self) -> usize {
        16 + self.block.wire_size()
    }
    fn flood_key(&self) -> u64 {
        self.key
    }
}

/// A storm node: floods one proposal at start and a fresh one per
/// delivery wave until its budget is spent, like the sharding bench's
/// `Flooder` but with payload-bearing messages.
pub struct StormNode {
    id: u64,
    sent: u64,
    budget: u64,
    heard: u64,
    commands_heard: u64,
    template: Block,
}

impl Actor for StormNode {
    type Msg = Prop;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Prop, ()>) {
        self.sent += 1;
        ctx.flood(Prop { key: self.id << 32, block: self.template.clone() });
    }

    fn on_message(&mut self, _from: NodeId, msg: Prop, ctx: &mut Context<'_, Prop, ()>) {
        self.heard += 1;
        self.commands_heard += msg.block.payload_len() as u64;
        if self.sent < self.budget {
            self.sent += 1;
            ctx.flood(Prop { key: (self.id << 32) | self.sent, block: self.template.clone() });
        }
    }

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Prop, ()>) {}
}

/// One storm configuration cell.
#[derive(Debug, Clone, Copy)]
pub struct StormSpec {
    /// System size (number of nodes).
    pub n: usize,
    /// Ring k-cast fan-out.
    pub k: usize,
    /// Commands per proposal block.
    pub commands: usize,
    /// Bytes per command.
    pub payload_bytes: usize,
    /// Proposals each node floods before going quiet.
    pub budget: u64,
    /// Shard count for the sharded runtime.
    pub shards: usize,
    /// Structured-event trace level the runtime records at, so the
    /// trajectory can price tracing against the untraced hot path.
    pub trace: TraceLevel,
    /// Time-series sampling config, so the trajectory can price the
    /// `eesmr-metrics` gauge sampler against the unsampled hot path.
    pub metrics: MetricsConfig,
}

impl StormSpec {
    /// The acceptance-bar cell: an n = 128 broadcast storm with
    /// 16 commands per block.
    pub fn headline() -> StormSpec {
        StormSpec {
            n: 128,
            k: 4,
            commands: 16,
            payload_bytes: 32,
            budget: 6,
            shards: 1,
            trace: TraceLevel::Off,
            metrics: MetricsConfig::off(),
        }
    }

    /// A short label naming the cell, e.g. `n128_c16_p32_s1`
    /// (`_tr<level>` marks traced cells, `_m` metrics-sampled ones).
    pub fn label(&self) -> String {
        let mut label =
            format!("n{}_c{}_p{}_s{}", self.n, self.commands, self.payload_bytes, self.shards);
        if self.trace != TraceLevel::Off {
            label.push_str(&format!("_tr{}", self.trace.name()));
        }
        if self.metrics.enabled {
            label.push_str("_m");
        }
        label
    }
}

/// What one storm run produced: the throughput denominator plus a trace
/// fingerprint for the bit-identity assertions.
#[derive(Debug, Clone, Copy)]
pub struct StormResult {
    /// Simulator deliveries — the event count timing is normalized by.
    pub deliveries: u64,
    /// Sum of per-node messages heard.
    pub heard: u64,
    /// Sum of per-node commands received (payloads survived the hops).
    pub commands_heard: u64,
    /// Wall-clock seconds for the run (setup excluded).
    pub elapsed_secs: f64,
}

impl StormResult {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.deliveries as f64 / self.elapsed_secs
    }

    /// The behavioral trace fingerprint: everything except timing.
    /// Equal fingerprints across shard counts and observability levels
    /// mean the runs were observationally identical.
    pub fn fingerprint(&self) -> (u64, u64, u64) {
        (self.deliveries, self.heard, self.commands_heard)
    }
}

/// Runs one storm cell and measures it.
pub fn run_storm(spec: &StormSpec) -> StormResult {
    let payload: Vec<Command> =
        (0..spec.commands).map(|i| Command::synthetic(i as u64, spec.payload_bytes)).collect();
    let template = Block::extending(&Block::genesis(), 1, 1, payload);
    let actors = (0..spec.n)
        .map(|id| StormNode {
            id: id as u64,
            sent: 0,
            budget: spec.budget,
            heard: 0,
            commands_heard: 0,
            template: template.clone(),
        })
        .collect::<Vec<_>>();
    let mut cfg = NetConfig::ble(ring_kcast(spec.n, spec.k), 7);
    cfg.trace = spec.trace;
    cfg.metrics = spec.metrics;
    let mut net = ShardedNet::new(cfg, actors, spec.shards);
    let started = Instant::now();
    net.run_for(SimDuration::from_millis(10_000));
    let elapsed_secs = started.elapsed().as_secs_f64();
    let (mut heard, mut commands_heard) = (0u64, 0u64);
    for id in 0..spec.n as NodeId {
        heard += net.actor(id).heard;
        commands_heard += net.actor(id).commands_heard;
    }
    StormResult { deliveries: net.stats().deliveries, heard, commands_heard, elapsed_secs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_shard_and_trace_invariant() {
        let base = StormSpec {
            n: 12,
            k: 3,
            commands: 4,
            payload_bytes: 16,
            budget: 3,
            shards: 1,
            trace: TraceLevel::Off,
            metrics: MetricsConfig::off(),
        };
        let arc = run_storm(&base);
        let sharded = run_storm(&StormSpec { shards: 2, ..base });
        let traced = run_storm(&StormSpec { trace: TraceLevel::All, ..base });
        let sampled = run_storm(&StormSpec { metrics: MetricsConfig::on(), ..base });
        assert_eq!(arc.fingerprint(), sharded.fingerprint(), "sharding changed behavior");
        assert_eq!(arc.fingerprint(), traced.fingerprint(), "tracing changed behavior");
        assert_eq!(arc.fingerprint(), sampled.fingerprint(), "metrics sampling changed behavior");
        assert!(arc.deliveries > 0, "the storm actually ran");
        assert!(arc.commands_heard >= 4 * arc.heard, "payloads survived the hops");
        let traced_spec = StormSpec { trace: TraceLevel::All, ..base };
        assert!(traced_spec.label().ends_with("_trall"), "{}", traced_spec.label());
        let sampled_spec = StormSpec { metrics: MetricsConfig::on(), ..base };
        assert!(sampled_spec.label().ends_with("_m"), "{}", sampled_spec.label());
    }
}
