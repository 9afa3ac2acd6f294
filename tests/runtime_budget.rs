//! The runtime's work budget: how often it walks or copies a message is a
//! pure function of the traffic, so it is pinned by **count**, where
//! wall-clock noise would hide a regression. The unit of cost is the
//! transmission — one record per message on the air (`eesmr-net`'s
//! `runtime` module docs) — not the reception: `wire_size()` runs once per
//! message an actor sends, however many hops, relays and receivers carry
//! it, and the payload is cloned only to hand a delivery to an actor —
//! never for a relay, and never for the duplicate receptions that are
//! three of every four on a flooded ring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::{
    Actor, Context, Message, NetConfig, NetStats, NodeId, ShardedNet, SimDuration, SimNet,
};

const N: usize = 16;
const K: usize = 3;

/// What one run's messages were asked to do, counted by the messages
/// themselves (per run, not per process: tests share the process).
#[derive(Debug, Default)]
struct Work {
    clones: AtomicU64,
    sizings: AtomicU64,
}

#[derive(Debug)]
struct Counted {
    key: u64,
    work: Arc<Work>,
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.work.clones.fetch_add(1, Ordering::Relaxed);
        Counted { key: self.key, work: Arc::clone(&self.work) }
    }
}

impl Message for Counted {
    fn wire_size(&self) -> usize {
        self.work.sizings.fetch_add(1, Ordering::Relaxed);
        40
    }
    fn flood_key(&self) -> u64 {
        self.key
    }
}

/// Sends its whole script at start and counts what it hears.
struct Node {
    work: Arc<Work>,
    floods: u64,
    multicasts: u64,
    routed_to: Option<NodeId>,
    heard: u64,
}

impl Actor for Node {
    type Msg = Counted;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Counted, ()>) {
        // Built directly, never cloned: every clone counted is the
        // runtime's.
        let id = ctx.id() as u64;
        let mut next = 0;
        let mut msg = || {
            next += 1;
            Counted { key: (id << 8) | next, work: Arc::clone(&self.work) }
        };
        for _ in 0..self.floods {
            ctx.flood(msg());
        }
        for _ in 0..self.multicasts {
            ctx.multicast(msg());
        }
        if let Some(to) = self.routed_to {
            ctx.send_to(to, msg());
        }
    }

    fn on_message(&mut self, _: NodeId, _: Counted, _: &mut Context<'_, Counted, ()>) {
        self.heard += 1;
    }

    fn on_timer(&mut self, _: (), _: &mut Context<'_, Counted, ()>) {}
}

/// What a finished run did: the network's counters, the messages' own,
/// and the deliveries the actors saw.
#[derive(Debug)]
struct Outcome {
    stats: NetStats,
    clones: u64,
    sizings: u64,
    heard: u64,
}

fn cfg() -> NetConfig {
    NetConfig::ble(ring_kcast(N, K), 5)
}

/// Runs `script(node id)` on every node of the ring to quiescence, on
/// `SimNet` (`shards: None`) or on `ShardedNet`.
fn run(shards: Option<usize>, script: impl Fn(NodeId, Arc<Work>) -> Node) -> Outcome {
    let work = Arc::new(Work::default());
    let actors: Vec<Node> = (0..N as NodeId).map(|id| script(id, Arc::clone(&work))).collect();
    let span = SimDuration::from_millis(50);
    let (stats, heard) = match shards {
        None => {
            let mut net = SimNet::new(cfg(), actors);
            net.run_for(span);
            (net.stats().clone(), net.actors().iter().map(|a| a.heard).sum())
        }
        Some(shards) => {
            let mut net = ShardedNet::new(cfg(), actors, shards);
            net.run_for(span);
            (net.stats(), (0..N as NodeId).map(|id| net.actor(id).heard).sum())
        }
    };
    Outcome {
        stats,
        clones: work.clones.load(Ordering::Relaxed),
        sizings: work.sizings.load(Ordering::Relaxed),
        heard,
    }
}

/// Every node floods twice, multicasts once and routes one message to the
/// node across the ring.
fn busy(id: NodeId, work: Arc<Work>) -> Node {
    let across = (id + N as NodeId / 2) % N as NodeId;
    Node { work, floods: 2, multicasts: 1, routed_to: Some(across), heard: 0 }
}

/// Only node 0 speaks: one message routed across the ring.
fn one_routed(id: NodeId, work: Arc<Work>) -> Node {
    Node { work, floods: 0, multicasts: 0, routed_to: (id == 0).then_some(8), heard: 0 }
}

const ORIGINATED: u64 = N as u64 * 4;

/// Handed to actors: a flood reaches all `N`, a multicast its `K`
/// receivers and the sender's loopback, a routed message its target.
const DELIVERIES: u64 = N as u64 * (2 * N as u64 + (K as u64 + 1) + 1);

#[test]
fn a_message_is_sized_once_and_cloned_only_for_actors() {
    let out = run(None, busy);
    assert_eq!((out.stats.deliveries, out.heard), (DELIVERIES, DELIVERIES));
    // 3 N floods relayed by every node, and N one-hop multicasts.
    assert_eq!(out.stats.kcasts, 3 * (N * N) as u64 + N as u64);
    assert_eq!(out.sizings, ORIGINATED, "wire_size() once per message sent, not per hop");
    // Single-threaded, the count is exact: the delivery that holds the
    // last reference takes the payload instead of copying it — the last
    // receiver of every multicast; a flood's last reception is a
    // duplicate somewhere, so each of its deliveries is a copy.
    assert_eq!(out.clones, DELIVERIES - N as u64);
}

#[test]
fn relays_and_duplicate_receptions_clone_nothing() {
    // One routed message crosses the whole ring: every node relays it on
    // its K-cast, two of every three receptions are duplicates, and one
    // actor is handed it.
    let out = run(None, one_routed);
    assert_eq!(out.stats.flood_relays, N as u64);
    assert_eq!((out.stats.deliveries, out.heard), (1, 1));
    assert_eq!(out.sizings, 1);
    assert!(out.clones <= 1, "{} clones for one delivery", out.clones);
}

#[test]
fn the_budget_holds_on_the_sharded_runtime() {
    let reference = run(None, busy);
    for shards in [1, 2, 4] {
        let out = run(Some(shards), busy);
        assert_eq!(out.stats, reference.stats, "{shards} shards");
        assert_eq!(out.heard, DELIVERIES, "{shards} shards");
        assert_eq!(out.sizings, ORIGINATED, "{shards} shards");
        // Which delivery drops the last reference depends on thread
        // timing once shards run side by side; that none is cloned
        // without an actor to take it does not.
        assert!(out.clones <= DELIVERIES, "{shards} shards: {} clones", out.clones);
        assert!(out.clones >= DELIVERIES - ORIGINATED, "{shards} shards: {} clones", out.clones);
        let routed = run(Some(shards), one_routed);
        assert_eq!((routed.stats.deliveries, routed.sizings), (1, 1), "{shards} shards");
        assert!(routed.clones <= 1, "{shards} shards: {} clones", routed.clones);
    }
}
