//! Layer micro-cells: one timed loop per layer, bottom up, each driven
//! through the layer's public API. They give the *unit costs* the
//! workload-level numbers are explained from (`bench.ladder_gap_pct`).
//!
//! Every cell runs batches of a fixed operation count for a wall-clock
//! budget and reports the median batch — never the fastest.

use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use eesmr_baselines::{build_hs_replicas, HsConfig, HsFault, HsVariant};
use eesmr_core::{build_replicas, Block, Command, Config, FaultMode, TxPool};
use eesmr_crypto::sha256::Sha256;
use eesmr_crypto::{Digest, KeyStore, SigScheme};
use eesmr_energy::{EnergyCategory, EnergyClass, EnergyMeter, EnergyPhase};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::harness::{Harness, Output};
use eesmr_net::{
    Actor, EventQueue, Message, NodeId, SchedulerKind, SimDuration, SimTime, TimerId, WireCodec,
};
use eesmr_sim::{Protocol, Scenario, StopWhen};
use eesmr_workload::{ArrivalProcess, ArrivalSampler};

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{run_storm, STORM_N};

/// Runs `batch` (which performs `ops` operations) repeatedly for at
/// least `secs` and three batches; returns the median ns per operation.
fn ns_per_op(secs: f64, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy set-up
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// A tiny xorshift generator: micro-cell inputs need no statistical
/// quality, only to be a function of the seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

// ---------------------------------------------------------------------
// Replicas without a network.
// ---------------------------------------------------------------------

enum Ev<M, T> {
    Msg { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, token: T },
}

struct Queued<M, T> {
    at_us: u64,
    seq: u64,
    ev: Ev<M, T>,
}

impl<M, T> PartialEq for Queued<M, T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at_us, self.seq) == (other.at_us, other.seq)
    }
}
impl<M, T> Eq for Queued<M, T> {}
impl<M, T> PartialOrd for Queued<M, T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M, T> Ord for Queued<M, T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap.
        (other.at_us, other.seq).cmp(&(self.at_us, self.seq))
    }
}

/// One hop in the benchmark's router, µs (within the replicas' Δ).
const ROUTER_HOP_US: u64 = 500;

/// What [`drive`] did: messages handled, the time it took, the first
/// routed messages (a codec sample), and the replicas afterwards.
struct Driven<A: Actor> {
    msgs: u64,
    ns: u64,
    sample: Vec<A::Msg>,
    /// Only the tests look at the replicas afterwards (did they commit?).
    #[cfg_attr(not(test), allow(dead_code))]
    nodes: Vec<Harness<A>>,
}

/// Drives `actors` as a full mesh with the benchmark routing their
/// outputs — no `SimNet`, no energy model, no flooding — until
/// `max_msgs` messages were handled, keeping the first `keep` routed
/// messages.
fn drive<A: Actor>(actors: Vec<A>, max_msgs: u64, keep: usize) -> Driven<A> {
    let n = actors.len() as NodeId;
    let mut nodes: Vec<Harness<A>> =
        actors.into_iter().enumerate().map(|(i, a)| Harness::new(i as NodeId, a)).collect();
    let mut queue: BinaryHeap<Queued<A::Msg, A::Timer>> = BinaryHeap::new();
    let mut cancelled: HashSet<TimerId> = HashSet::new();
    let mut sample = Vec::with_capacity(keep);
    let mut seq = 0u64;
    let mut route = |queue: &mut BinaryHeap<_>,
                     cancelled: &mut HashSet<TimerId>,
                     node: NodeId,
                     now_us: u64,
                     outputs: Vec<Output<A::Msg, A::Timer>>| {
        for output in outputs {
            let mut push = |at_us, ev| {
                seq += 1;
                queue.push(Queued { at_us, seq, ev });
            };
            match output {
                Output::Multicast(msg) | Output::Flood { msg, target: None } => {
                    if sample.len() < keep {
                        sample.push(msg.clone());
                    }
                    push(now_us, Ev::Msg { to: node, from: node, msg: msg.clone() });
                    for to in (0..n).filter(|&to| to != node) {
                        push(now_us + ROUTER_HOP_US, Ev::Msg { to, from: node, msg: msg.clone() });
                    }
                }
                Output::Flood { msg, target: Some(to) } => {
                    push(now_us + ROUTER_HOP_US, Ev::Msg { to, from: node, msg });
                }
                Output::SetTimer { id, delay, token } => {
                    push(now_us + delay.as_micros(), Ev::Timer { node, id, token });
                }
                Output::CancelTimer(id) => {
                    cancelled.insert(id);
                }
            }
        }
    };

    let started = Instant::now();
    for node in 0..n {
        let outputs = nodes[node as usize].start();
        route(&mut queue, &mut cancelled, node, 0, outputs);
    }
    let mut handled = 0u64;
    while handled < max_msgs {
        let Some(Queued { at_us, ev, .. }) = queue.pop() else { break };
        let (node, outputs) = match ev {
            Ev::Msg { to, from, msg } => {
                let h = &mut nodes[to as usize];
                h.advance(SimTime::from_micros(at_us).since(h.now()));
                handled += 1;
                (to, h.deliver(from, msg))
            }
            Ev::Timer { node, id, token } => {
                if cancelled.remove(&id) {
                    continue;
                }
                let h = &mut nodes[node as usize];
                h.advance(SimTime::from_micros(at_us).since(h.now()));
                (node, h.fire(token))
            }
        };
        route(&mut queue, &mut cancelled, node, at_us, outputs);
    }
    let ns = started.elapsed().as_nanos() as u64;
    Driven { msgs: handled, ns, sample, nodes }
}

const REPLICA_N: usize = 4;
const REPLICA_MSGS: u64 = 20_000;
const CODEC_SAMPLE: usize = 256;

fn replica_delta() -> SimDuration {
    SimDuration::from_millis(2)
}

fn eesmr_replicas(seed: u64) -> Vec<eesmr_core::Replica> {
    let pki = Arc::new(KeyStore::generate(REPLICA_N, SigScheme::Rsa1024, seed));
    let mut config = Config::new(REPLICA_N, replica_delta());
    config.offered_load = 16;
    build_replicas(&config, &pki, |_| FaultMode::Honest)
}

fn hs_replicas(seed: u64) -> Vec<eesmr_baselines::HsReplica> {
    let pki = Arc::new(KeyStore::generate(REPLICA_N, SigScheme::Rsa1024, seed));
    let mut config = HsConfig::new(REPLICA_N, replica_delta(), HsVariant::SyncHotStuff);
    config.offered_load = 16;
    build_hs_replicas(&config, &pki, |_| HsFault::Honest)
}

fn replica_ns_per_msg<A: Actor>(secs: f64, build: impl Fn() -> Vec<A>) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < secs {
        let driven = drive(build(), REPLICA_MSGS, 0);
        samples.push(driven.ns as f64 / driven.msgs.max(1) as f64);
    }
    median(&samples)
}

// ---------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------

struct CodecCosts {
    encode_mb_per_s: f64,
    decode_mb_per_s: f64,
    encoded_len_ns: f64,
}

fn codec_costs<M: Message + WireCodec>(secs: f64, sample: &[M]) -> CodecCosts {
    let frames: Vec<Vec<u8>> = sample.iter().map(WireCodec::encode).collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let count = sample.len() as u64;
    let mut buf = Vec::with_capacity(bytes);
    let encode_ns = ns_per_op(secs, count, || {
        buf.clear();
        for m in sample {
            m.encode_into(&mut buf);
        }
        black_box(buf.len());
    });
    let decode_ns = ns_per_op(secs, count, || {
        for f in &frames {
            black_box(M::decode(f).expect("sample decodes"));
        }
    });
    let encoded_len_ns = ns_per_op(secs, count * 16, || {
        for _ in 0..16 {
            for m in sample {
                black_box(black_box(m).wire_size());
            }
        }
    });
    // bytes per message ÷ ns per message = bytes/ns = 1000 MB/s.
    let per_msg = bytes as f64 / count as f64;
    CodecCosts {
        encode_mb_per_s: per_msg / encode_ns * 1000.0,
        decode_mb_per_s: per_msg / decode_ns * 1000.0,
        encoded_len_ns,
    }
}

// ---------------------------------------------------------------------
// Scheduler hold model.
// ---------------------------------------------------------------------

/// Classic hold model: keep `pending` events queued; each operation pops
/// the earliest and pushes one `delta()` into the future.
fn sched_hold_ns(secs: f64, pending: usize, mut delta: impl FnMut() -> u64) -> f64 {
    let mut queue: EventQueue<u32> = EventQueue::new(SchedulerKind::Calendar);
    let mut seq = 0u64;
    for _ in 0..pending {
        seq += 1;
        queue.push(delta(), seq, 0);
    }
    const OPS: u64 = 50_000;
    ns_per_op(secs, OPS, || {
        for _ in 0..OPS {
            let (now, _, payload) = queue.pop().expect("hold model never drains");
            seq += 1;
            queue.push(now + delta(), seq, black_box(payload));
        }
    })
}

// ---------------------------------------------------------------------
// The generic ladder.
// ---------------------------------------------------------------------

/// Runs every workload-independent micro-cell with `secs` of timing each
/// and returns `(metric name, value)` pairs. One span per cell.
pub fn unit_costs(seed: u64, secs: f64, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = XorShift(seed | 1);

    // crypto
    let buf: Vec<u8> = (0..64 * 1024).map(|_| rng.next() as u8).collect();
    let sha_ns = spans.scope("crypto.sha256", |_| {
        ns_per_op(secs, 16, || {
            for _ in 0..16 {
                black_box(Sha256::digest(black_box(&buf)));
            }
        })
    });
    out.push(("crypto.sha256_mb_per_s", buf.len() as f64 / sha_ns * 1000.0));
    let (a, b, c) = ([1u8; 8], [2u8; 32], [3u8; 8]);
    out.push((
        "crypto.digest_parts_ns",
        spans.scope("crypto.digest_parts", |_| {
            ns_per_op(secs, 4096, || {
                for _ in 0..4096 {
                    black_box(Digest::of_parts(black_box(&[&a[..], &b[..], &c[..]])));
                }
            })
        }),
    ));
    let pki = KeyStore::generate(13, SigScheme::Rsa1024, seed);
    let message = [0x5au8; 41];
    let keypair = pki.keypair(3);
    out.push((
        "crypto.sign_ns",
        spans.scope("crypto.sign", |_| {
            ns_per_op(secs, 4096, || {
                for _ in 0..4096 {
                    black_box(keypair.sign(black_box(&message)));
                }
            })
        }),
    ));
    let sig = keypair.sign(&message);
    out.push((
        "crypto.verify_ns",
        spans.scope("crypto.verify", |_| {
            ns_per_op(secs, 4096, || {
                for _ in 0..4096 {
                    assert!(pki.verify(black_box(&message), black_box(&sig)));
                }
            })
        }),
    ));

    // core / baselines replicas, and the codec over the messages they send
    out.push((
        "core.replica_ns_per_msg",
        spans.scope("core.replica_harness", |_| replica_ns_per_msg(secs, || eesmr_replicas(seed))),
    ));
    out.push((
        "baselines.hs_replica_ns_per_msg",
        spans
            .scope("baselines.replica_harness", |_| replica_ns_per_msg(secs, || hs_replicas(seed))),
    ));
    let eesmr_sample = drive(eesmr_replicas(seed), 2_000, CODEC_SAMPLE).sample;
    let hs_sample = drive(hs_replicas(seed), 2_000, CODEC_SAMPLE).sample;
    let half = secs / 2.0;
    let (e, h) = spans
        .scope("net.codec", |_| (codec_costs(half, &eesmr_sample), codec_costs(half, &hs_sample)));
    out.push(("net.codec.encode_mb_per_s", (e.encode_mb_per_s + h.encode_mb_per_s) / 2.0));
    out.push(("net.codec.decode_mb_per_s", (e.decode_mb_per_s + h.decode_mb_per_s) / 2.0));
    out.push(("net.codec.encoded_len_ns", (e.encoded_len_ns + h.encoded_len_ns) / 2.0));

    // net.sched: near-future hops in the lane ring; Δ-multiple timers in
    // the spill heap (below MATERIALIZE_AT pending events).
    let mut hop_rng = XorShift(seed ^ 0x5eed);
    out.push((
        "net.sched.ring_hold_ns",
        spans.scope("net.sched.ring", |_| sched_hold_ns(secs, 4096, || 500 + hop_rng.next() % 501)),
    ));
    let mut timer_rng = XorShift(seed ^ 0x71ee);
    out.push((
        "net.sched.spill_hold_ns",
        spans.scope("net.sched.spill", |_| {
            sched_hold_ns(secs, 64, || 2_000 * (1 + timer_rng.next() % 8))
        }),
    ));

    // net.runtime: a short storm (transmit + scheduler, trivial handler).
    out.push((
        "net.runtime.ns_per_delivery",
        spans.scope("net.runtime.storm", |_| {
            let mut samples = Vec::new();
            let started = Instant::now();
            while samples.len() < 3 || started.elapsed().as_secs_f64() < secs {
                let storm = run_storm(seed, STORM_N, 4, 1);
                samples.push(storm.wall_ns as f64 / storm.deliveries.max(1) as f64);
            }
            median(&samples)
        }),
    ));

    // core.txpool: submit → batch → settle, 64 transactions at a time.
    out.push((
        "core.txpool_ns_per_tx",
        spans.scope("core.txpool", |_| {
            let mut pool = TxPool::new();
            let mut tx = 0u64;
            let genesis = Block::genesis();
            ns_per_op(secs, 64 * 16, || {
                for round in 0..16u64 {
                    for _ in 0..64 {
                        tx += 1;
                        pool.submit_at(Command::synthetic(tx, 16), tx);
                    }
                    let batch = pool.next_batch(64);
                    let block = Block::extending(&genesis, 1, round + 1, batch);
                    pool.remove_committed(&block, SimTime::from_micros(tx + 1_000));
                }
                black_box(pool.len());
            })
        }),
    ));

    // workload: next-arrival draw of the sim_clients process.
    out.push((
        "workload.sample_ns",
        spans.scope("workload.sample", |_| {
            let mut sampler =
                ArrivalSampler::new(ArrivalProcess::Poisson { rate: 2000 }, 1_000_000, seed);
            let mut now = 0u64;
            ns_per_op(secs, 8192, || {
                for _ in 0..8192 {
                    now = sampler.next_after(now).expect("a Poisson stream never ends");
                }
                black_box(now);
            })
        }),
    ));

    // energy: one attributed charge.
    out.push((
        "energy.charge_ns",
        spans.scope("energy.charge", |_| {
            let mut meter = EnergyMeter::new();
            ns_per_op(secs, 65_536, || {
                for _ in 0..65_536 {
                    black_box(&mut meter).charge_as(
                        EnergyCategory::Recv,
                        EnergyClass::RecvScan,
                        EnergyPhase::Other,
                        black_box(0.25),
                    );
                }
            })
        }),
    ));

    // hypergraph + sim: what every scenario pays before its first event.
    out.push((
        "hypergraph.ring_build_us_n128",
        spans.scope("hypergraph.ring_build", |_| {
            ns_per_op(secs, 1, || {
                black_box(ring_kcast(128, 4).diameter());
            }) / 1000.0
        }),
    ));
    for (name, n, k) in [("sim.setup_us_n13", 13, 7), ("sim.setup_us_n128", 128, 4)] {
        let scenario = Scenario::new(Protocol::Eesmr, n, k)
            .seed(seed)
            .shards(1)
            .trace(eesmr_net::TraceLevel::Off)
            .metrics(eesmr_net::MetricsConfig::off())
            .stop(StopWhen::Elapsed(SimDuration::ZERO));
        out.push((
            name,
            spans.scope("sim.scenario_setup", |_| {
                ns_per_op(secs / 2.0, 1, || {
                    black_box(scenario.run().elapsed_us);
                }) / 1000.0
            }),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_replicas_commit_without_a_network() {
        let eesmr = drive(eesmr_replicas(5), 600, 32);
        assert_eq!((eesmr.msgs, eesmr.sample.len()), (600, 32));
        assert!(eesmr.ns > 0);
        // The router is a faithful enough network for the protocol to
        // make progress: every replica commits, and they agree.
        let heights: Vec<u64> = eesmr.nodes.iter().map(|h| h.actor().committed_height()).collect();
        assert!(heights.iter().all(|&h| h >= 5), "EESMR stalled: {heights:?}");
        let log = eesmr.nodes[0].actor().committed();
        for h in &eesmr.nodes[1..] {
            let common = log.len().min(h.actor().committed().len());
            assert_eq!(log[..common], h.actor().committed()[..common]);
        }
        // The sample is real protocol traffic: it round-trips the codec.
        for m in &eesmr.sample {
            assert_eq!(&eesmr_core::SignedMsg::decode(&m.encode()).unwrap(), m);
        }
        let hs = drive(hs_replicas(5), 600, 8);
        assert_eq!((hs.msgs, hs.sample.len()), (600, 8));
        let heights: Vec<u64> = hs.nodes.iter().map(|h| h.actor().committed_height()).collect();
        assert!(heights.iter().all(|&h| h >= 5), "Sync HotStuff stalled: {heights:?}");
    }

    #[test]
    fn unit_costs_cover_their_catalogue_names_once() {
        let mut spans = Spans::new("test");
        let costs = unit_costs(9, 0.0, &mut spans);
        let mut names: Vec<&str> = costs.iter().map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric was produced twice");
        for (name, value) in &costs {
            assert!(
                crate::catalog::PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in the catalogue"
            );
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        assert!(spans.spans().len() >= costs.len() - 3, "one span per micro-cell");
    }
}
