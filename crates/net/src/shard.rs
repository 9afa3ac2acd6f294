//! Sharding one simulation across worker threads — conservative
//! parallel discrete-event simulation with a bit-for-bit determinism
//! guarantee.
//!
//! [`ShardedNet`] partitions the nodes of a single scenario round-robin
//! across `shards` shards (`node % shards`), each owning a private
//! [`EventQueue`](crate::sched::EventQueue), and advances them in
//! lockstep **time windows** of width equal to the network's *lookahead*
//! — the minimum cross-node latency, `hop_delay_min`. Within a window
//! every shard processes its local events independently; deliveries to
//! foreign nodes are buffered in per-shard outboxes and exchanged at the
//! window barrier. Because an event processed at time `t < W + L` can
//! only schedule a cross-shard delivery at `t + delay ≥ t + L ≥ W + L`,
//! nothing a shard does inside window `[W, W + L)` can affect another
//! shard's events in that same window — the classic conservative
//! synchronization argument (Chandy–Misra–Bryant, specialised to a
//! global barrier).
//!
//! **Adaptive windows.** On runs without a stop predicate
//! ([`run_until`](ShardedNet::run_until) / [`run_for`](ShardedNet::run_for))
//! the barrier cadence is adaptive: with `next_s` shard `s`'s earliest
//! pending event at the barrier and `g = min over s of next_s`, shard `r`
//! may process every local event strictly before
//! `min(min over s ≠ r of next_s, g + L) + L`. The first term is the
//! Chandy–Misra–Bryant null-message bound: what shard `s` already holds
//! cannot reach `r` before `next_s + L`. It is not a bound on `s`'s
//! *future*, though — any event in the system (`r`'s own earliest
//! included) can reach `s` at `g + L` and be answered towards `r` at
//! `g + 2L`, which is the second term. Every pending event is at or after
//! `g`, events never go backwards in time and each cross-shard hop costs
//! at least `L`, so nothing can arrive at `r` before that bound, at this
//! barrier or any later one. The shard holding the globally earliest event
//! thus gets up to two lookahead windows per round and every other shard
//! one, anchored at `g` — idle stretches are skipped whole. (A sole shard
//! receives no cross-shard traffic at all and runs the span as one
//! window.) With a stop predicate the fixed `L`-wide cadence is kept,
//! because the predicate is part of the observable schedule: it must be
//! evaluated at the same barrier times for every shard count.
//!
//! **The determinism contract.** The merged execution is bit-identical
//! to the single-threaded [`SimNet`](crate::SimNet) run because every
//! event's key and content are pure functions of node-local state (see
//! `crate::runtime`): sequence keys come from per-origin push counters,
//! hop delays from `(seed, sender, draw-index)` keyed draws, timer ids
//! from per-node counters. No counter is shared between nodes, so the
//! shard layout cannot leak into any event, and sorting all events by
//! `(time, seq)` reproduces exactly the reference heap order. The
//! workspace determinism suite (`tests/determinism.rs`) enforces
//! `EESMR_SHARDS = 1 ≡ 2 ≡ 4` across protocols, faults, and workloads.
//!
//! # Example: a sharded run matches the single-threaded one
//!
//! ```
//! use eesmr_net::{Actor, Context, Message, NetConfig, NodeId, ShardedNet, SimDuration, SimNet};
//! use eesmr_hypergraph::topology::ring_kcast;
//!
//! #[derive(Debug, Clone)]
//! struct Ping;
//! impl Message for Ping {
//!     fn wire_size(&self) -> usize { 32 }
//!     fn flood_key(&self) -> u64 { 1 }
//! }
//!
//! #[derive(Default)]
//! struct Node { heard: usize }
//! impl Actor for Node {
//!     type Msg = Ping;
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping, ()>) {
//!         if ctx.id() == 0 { ctx.flood(Ping); }
//!     }
//!     fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Context<'_, Ping, ()>) {
//!         self.heard += 1;
//!     }
//!     fn on_timer(&mut self, _: (), _: &mut Context<'_, Ping, ()>) {}
//! }
//!
//! let build = || (0..6).map(|_| Node::default()).collect::<Vec<_>>();
//! let cfg = || NetConfig::ble(ring_kcast(6, 2), 9);
//!
//! let mut reference = SimNet::new(cfg(), build());
//! reference.run_until(eesmr_net::SimTime::ZERO + SimDuration::from_millis(20));
//!
//! let mut sharded = ShardedNet::new(cfg(), build(), 3);
//! sharded.run_for(SimDuration::from_millis(20));
//!
//! assert_eq!(sharded.shards(), 3);
//! assert_eq!(&sharded.stats(), reference.stats(), "identical network trace");
//! for id in 0..6 {
//!     assert_eq!(sharded.actor(id).heard, reference.actor(id).heard, "node {id}");
//! }
//! ```

use std::sync::{Arc, Barrier, Mutex};

use eesmr_energy::EnergyMeter;
use eesmr_metrics::{MetricsSet, ProfPhase, ProfTimer};

use crate::actor::{Actor, NodeId};
use crate::runtime::{ForeignDelivery, Interceptor, NetConfig, NetStats, ShardState};
use crate::time::{SimDuration, SimTime};

/// Environment variable selecting the shard count ([`shards_from_env`]).
pub const ENV_SHARDS: &str = "EESMR_SHARDS";

/// Reads the `EESMR_SHARDS` environment variable: the number of shards
/// (worker threads) a scenario's simulation is split across. Defaults to
/// `1` (single-threaded) when unset or empty.
///
/// # Panics
///
/// Panics on a value that is not a positive integer — a typo must not
/// silently fall back to single-threaded mode, or the CI sharded
/// determinism gate could vacuously compare a layout against itself.
pub fn shards_from_env() -> usize {
    match std::env::var(ENV_SHARDS) {
        Err(_) => 1,
        Ok(v) if v.is_empty() => 1,
        Ok(v) => match v.parse::<usize>() {
            Ok(s) if s >= 1 => s,
            _ => panic!("{ENV_SHARDS} must be a positive integer, got '{v}'"),
        },
    }
}

/// What the window scheduler decided for the next round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// The stop predicate holds at the current wall — stop there.
    Stop {
        /// The barrier time at which the predicate held, µs.
        at: u64,
    },
    /// No events remain at or before the limit — finish at the limit.
    Done,
    /// Process every event with `time < horizon`, then synchronize.
    Window {
        /// Exclusive upper bound of the window, µs.
        horizon: u64,
    },
}

/// The deterministic window schedule: barrier times depend only on the
/// global minimum pending-event time, the lookahead, and the limit —
/// never on the shard count — so stop decisions (and therefore reported
/// end times) are identical for every `EESMR_SHARDS` value.
struct WindowClock {
    wall: u64,
    lookahead: u64,
    limit: u64,
}

impl WindowClock {
    fn new(wall: u64, lookahead: u64, limit: u64) -> Self {
        debug_assert!(lookahead > 0);
        WindowClock { wall, lookahead, limit }
    }

    /// Decides the next round given the earliest pending event across
    /// all shards and whether the stop predicate currently holds.
    fn next(&mut self, global_min: Option<u64>, pred_ok: bool) -> Decision {
        if pred_ok {
            return Decision::Stop { at: self.wall.min(self.limit) };
        }
        match global_min {
            Some(at) if at <= self.limit => {
                // Skip idle stretches: re-anchor to the lookahead-aligned
                // window containing the earliest event (identically for
                // every shard count, since `at` is itself an invariant).
                let start = self.wall.max((at / self.lookahead) * self.lookahead);
                let horizon = (start + self.lookahead).min(self.limit.saturating_add(1));
                debug_assert!(horizon > at, "every window makes progress");
                self.wall = horizon;
                Decision::Window { horizon }
            }
            _ => Decision::Done,
        }
    }
}

/// The per-node stop predicate as passed through the window loop.
type NodePred<'p, A> = &'p (dyn Fn(NodeId, &A) -> bool + Sync);

/// One window's cross-shard mailboxes: `mail[src][dst]`.
type Mailboxes<M> = Vec<Vec<Mutex<Vec<ForeignDelivery<M>>>>>;

/// A discrete-event simulation sharded across worker threads.
///
/// Construction distributes the actors round-robin (`node % shards`)
/// into per-shard runtimes; [`run_until`](ShardedNet::run_until) /
/// [`run_until_all`](ShardedNet::run_until_all) then advance all shards
/// in conservative lockstep windows (see the module docs). With
/// `shards == 1` no threads are spawned and the runtime degenerates to
/// the single-threaded event loop with window-granular stop checks.
///
/// Compared to [`SimNet`](crate::SimNet), the stop predicate is
/// evaluated at window barriers (every `hop_delay_min` of virtual time)
/// rather than after every event, and it is expressed *per node* — both
/// are what make the stop decision independent of the shard layout.
pub struct ShardedNet<A: Actor> {
    cfg: Arc<NetConfig>,
    shards: Vec<ShardState<A>>,
    lookahead_us: u64,
    now: SimTime,
}

impl<A> ShardedNet<A>
where
    A: Actor + Send,
    // A message on the air is one record; a delivery to another shard's
    // node carries a handle to it across threads.
    A::Msg: Send + Sync,
    A::Timer: Send,
{
    /// Builds a sharded simulation over `cfg.topology` with one actor
    /// per node, split across `shards` shards (clamped to `[1, n]`).
    ///
    /// # Panics
    ///
    /// Panics if `actors.len() != cfg.topology.n()`, or if `shards > 1`
    /// while `cfg.hop_delay_min` is zero — a zero minimum hop delay
    /// means zero lookahead, and conservative windows need `L > 0`.
    pub fn new(cfg: NetConfig, actors: Vec<A>, shards: usize) -> Self {
        assert_eq!(actors.len(), cfg.topology.n(), "one actor per topology node");
        let n = actors.len();
        let shards = shards.clamp(1, n.max(1));
        assert!(
            shards == 1 || cfg.hop_delay_min > SimDuration::ZERO,
            "sharding requires a positive hop_delay_min (the lookahead)"
        );
        let lookahead_us = cfg.hop_delay_min.as_micros().max(1);
        let cfg = Arc::new(cfg);
        // Distribute actors into their residue classes, preserving global
        // id order within each shard.
        let mut buckets: Vec<Vec<A>> = (0..shards).map(|_| Vec::new()).collect();
        for (id, actor) in actors.into_iter().enumerate() {
            buckets[id % shards].push(actor);
        }
        let shards = buckets
            .into_iter()
            .enumerate()
            .map(|(i, bucket)| ShardState::new(Arc::clone(&cfg), i as u32, shards as u32, bucket))
            .collect();
        ShardedNet { cfg, shards, lookahead_us, now: SimTime::ZERO }
    }

    /// Number of shards this simulation runs across.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Current virtual time (advanced at window barriers).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Immutable view of an actor, by global node id.
    pub fn actor(&self, id: NodeId) -> &A {
        let shard = &self.shards[id as usize % self.shards.len()];
        &shard.actors[shard.local(id)]
    }

    /// A node's energy meter, by global node id.
    pub fn meter(&self, id: NodeId) -> &EnergyMeter {
        self.shards[id as usize % self.shards.len()].meter(id)
    }

    /// Aggregate energy over a subset of nodes (e.g. the correct ones).
    pub fn energy_of(&self, nodes: impl IntoIterator<Item = NodeId>) -> EnergyMeter {
        let mut total = EnergyMeter::new();
        for id in nodes {
            total.absorb(self.meter(id));
        }
        total
    }

    /// Drains every node's trace ring buffer into a
    /// [`TraceSet`](eesmr_trace::TraceSet) in node-id order — the same
    /// set a single-threaded run produces, because every event is
    /// stamped with node-local state only (see `eesmr_trace`).
    pub fn take_traces(&mut self) -> eesmr_trace::TraceSet {
        let n = self.cfg.topology.n() as NodeId;
        let shards = self.shards.len();
        eesmr_trace::TraceSet {
            nodes: (0..n).map(|id| self.shards[id as usize % shards].take_trace(id)).collect(),
        }
    }

    /// Takes every node's sampled metrics series in node-id order — the
    /// same set a single-threaded run produces, because samples are
    /// stamped from node-local state on the node's own event stream (see
    /// `eesmr-metrics`).
    pub fn take_metrics(&mut self) -> MetricsSet {
        let n = self.cfg.topology.n() as NodeId;
        let shards = self.shards.len();
        MetricsSet {
            dt_us: self.cfg.metrics.dt_us,
            nodes: (0..n)
                .map(|id| self.shards[id as usize % shards].take_metrics_node(id))
                .collect(),
        }
    }

    /// Network statistics so far, merged across shards. Counters are
    /// sums, so the merge equals the single-threaded totals exactly.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for shard in &self.shards {
            total.absorb(&shard.stats);
        }
        total
    }

    /// Installs one adversarial scheduling hook per shard (the factory
    /// is called once per shard index, in order).
    ///
    /// **Shard-safety contract.** A shard's interceptor sees exactly the
    /// deliveries *sent* by that shard's nodes, in sender-local order —
    /// but the interleaving *between* senders depends on the shard
    /// layout. To keep runs bit-identical across `EESMR_SHARDS` values,
    /// an interceptor must decide each delivery as a pure function of
    /// the [`Delivery`](crate::Delivery) itself (plus per-sender state
    /// at most); cross-sender mutable state (e.g. "drop the first 10
    /// deliveries I see") reintroduces layout dependence.
    pub fn set_interceptors(&mut self, mut factory: impl FnMut(usize) -> Option<Interceptor>) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.interceptor = factory(i);
        }
    }

    /// Runs until every event at or before `t` has been processed, then
    /// sets the clock to `t`. Equivalent to
    /// [`SimNet::run_until`](crate::SimNet::run_until) (and bit-identical
    /// to it for any shard count).
    pub fn run_until(&mut self, t: SimTime) {
        self.run_windows(t, None);
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Runs until `pred(node, actor)` holds for **every** node at a
    /// window barrier, or `deadline` passes; returns whether the
    /// predicate was met. The predicate is checked once per window
    /// (every `hop_delay_min` of virtual time with pending events), so
    /// the stop time — and every downstream report byte — is identical
    /// for every shard count.
    pub fn run_until_all(
        &mut self,
        deadline: SimTime,
        pred: impl Fn(NodeId, &A) -> bool + Sync,
    ) -> bool {
        self.run_windows(deadline, Some(&pred))
    }

    /// The shared window loop behind both run modes. `pred: None` means
    /// "run to the limit" (no stop checks).
    fn run_windows(&mut self, limit: SimTime, pred: Option<NodePred<'_, A>>) -> bool {
        let limit_us = limit.as_micros();
        let clock = WindowClock::new(self.now.as_micros(), self.lookahead_us, limit_us);
        let (final_now, pred_met) = if self.shards.len() == 1 {
            Self::run_inline(&mut self.shards[0], clock, pred)
        } else {
            Self::run_threaded(&mut self.shards, clock, pred)
        };
        self.now = self.now.max(SimTime::from_micros(final_now.min(limit_us)));
        pred_met
    }

    /// Evaluates the stop predicate over one shard's actors.
    fn shard_pred(shard: &ShardState<A>, pred: Option<NodePred<'_, A>>) -> bool {
        match pred {
            None => false,
            Some(p) => shard.actors.iter().enumerate().all(|(i, a)| p(shard.global(i), a)),
        }
    }

    /// Single-shard execution: the same window schedule, no threads.
    fn run_inline(
        shard: &mut ShardState<A>,
        mut clock: WindowClock,
        pred: Option<NodePred<'_, A>>,
    ) -> (u64, bool) {
        if pred.is_none() {
            // Adaptive fast path: a sole shard never receives cross-shard
            // traffic and nothing observes intermediate barriers, so the
            // whole span is one window.
            shard.run_window(clock.limit.saturating_add(1));
            return (clock.limit, false);
        }
        loop {
            let pred_ok = Self::shard_pred(shard, pred);
            match clock.next(shard.next_time(), pred_ok) {
                Decision::Stop { at } => return (at, true),
                Decision::Done => return (clock.limit, pred_ok),
                Decision::Window { horizon } => shard.run_window(horizon),
            }
        }
    }

    /// Fills `horizons[r]` with the adaptive bound for shard `r`: every
    /// local event strictly before
    /// `min(min over s ≠ r of next_s, global_min + lookahead) + lookahead`
    /// is safe to process without another exchange. A foreign shard `s`
    /// processes nothing earlier than its own `next_s` or the first thing
    /// that can still reach it — `global_min + lookahead`, possibly `r`'s
    /// own earliest event on its way out and back — and whatever it then
    /// sends `r` takes another `lookahead` (see the module docs). Returns
    /// `false` — leaving `horizons` untouched — when no pending event is
    /// at or before the limit.
    fn adaptive_horizons(
        nexts: &[Option<u64>],
        lookahead: u64,
        limit: u64,
        horizons: &[Mutex<u64>],
    ) -> bool {
        let Some(global_min) = nexts.iter().copied().flatten().min().filter(|&m| m <= limit) else {
            return false;
        };
        let reflected = global_min.saturating_add(lookahead);
        let open_end = limit.saturating_add(1);
        for (r, slot) in horizons.iter().enumerate() {
            let foreign_min = nexts
                .iter()
                .enumerate()
                .filter(|&(s, _)| s != r)
                .filter_map(|(_, &next)| next)
                .min();
            let earliest_foreign_step = foreign_min.map_or(reflected, |m| m.min(reflected));
            *slot.lock().unwrap() = earliest_foreign_step.saturating_add(lookahead).min(open_end);
        }
        true
    }

    /// Multi-shard execution: one worker thread per shard, advancing in
    /// lockstep windows. Shard 0's worker doubles as the leader that
    /// runs the window clock between barriers.
    fn run_threaded(
        shards: &mut [ShardState<A>],
        clock: WindowClock,
        pred: Option<NodePred<'_, A>>,
    ) -> (u64, bool) {
        let count = shards.len();
        let barrier = Barrier::new(count);
        let decision = Mutex::new(Decision::Done);
        let (lookahead, limit) = (clock.lookahead, clock.limit);
        let clock = Mutex::new(clock);
        let outcome = Mutex::new((0u64, false));
        // locals[w] = (earliest pending event, local predicate) for shard
        // w, republished after every window; horizons[w] is the window
        // bound the leader assigns shard w each round (uniform under a
        // stop predicate, per-shard adaptive without one); mail[src][dst]
        // carries the cross-shard events of one window.
        let locals: Vec<Mutex<(Option<u64>, bool)>> =
            (0..count).map(|_| Mutex::new((None, false))).collect();
        let horizons: Vec<Mutex<u64>> = (0..count).map(|_| Mutex::new(0)).collect();
        let mail: Mailboxes<A::Msg> =
            (0..count).map(|_| (0..count).map(|_| Mutex::new(Vec::new())).collect()).collect();

        std::thread::scope(|scope| {
            for (w, shard) in shards.iter_mut().enumerate() {
                let barrier = &barrier;
                let decision = &decision;
                let clock = &clock;
                let outcome = &outcome;
                let locals = &locals;
                let horizons = &horizons;
                let mail = &mail;
                scope.spawn(move || {
                    *locals[w].lock().unwrap() = (shard.next_time(), Self::shard_pred(shard, pred));
                    // Leader-only scratch for the per-shard next times.
                    let mut nexts: Vec<Option<u64>> = vec![None; count];
                    loop {
                        {
                            let _prof = ProfTimer::start(ProfPhase::BarrierWait);
                            barrier.wait();
                        }
                        if w == 0 {
                            // Leader: reduce the per-shard states and run
                            // the (shard-count-invariant) window clock.
                            let mut global_min: Option<u64> = None;
                            let mut all_ok = true;
                            for (slot, next) in locals.iter().zip(nexts.iter_mut()) {
                                let (n, ok) = *slot.lock().unwrap();
                                *next = n;
                                global_min = match (global_min, n) {
                                    (Some(a), Some(b)) => Some(a.min(b)),
                                    (a, b) => a.or(b),
                                };
                                all_ok &= ok;
                            }
                            let next = if pred.is_none() {
                                // No stop checks to keep on a fixed
                                // cadence: batch each shard as far as the
                                // adaptive bound allows.
                                if Self::adaptive_horizons(&nexts, lookahead, limit, horizons) {
                                    Decision::Window { horizon: 0 } // per-shard slots carry the bounds
                                } else {
                                    Decision::Done
                                }
                            } else {
                                let d = clock.lock().unwrap().next(global_min, all_ok);
                                if let Decision::Window { horizon } = d {
                                    for slot in horizons.iter() {
                                        *slot.lock().unwrap() = horizon;
                                    }
                                }
                                d
                            };
                            match next {
                                Decision::Stop { at } => *outcome.lock().unwrap() = (at, true),
                                Decision::Done => {
                                    *outcome.lock().unwrap() = (limit, all_ok && pred.is_some())
                                }
                                Decision::Window { .. } => {}
                            }
                            *decision.lock().unwrap() = next;
                        }
                        {
                            let _prof = ProfTimer::start(ProfPhase::BarrierWait);
                            barrier.wait();
                        }
                        match *decision.lock().unwrap() {
                            Decision::Stop { .. } | Decision::Done => break,
                            Decision::Window { .. } => {}
                        }
                        let horizon = *horizons[w].lock().unwrap();
                        shard.run_window(horizon);
                        for (dst, slot) in mail[w].iter().enumerate() {
                            if dst != w {
                                *slot.lock().unwrap() = shard.take_outbox(dst);
                            }
                        }
                        {
                            let _prof = ProfTimer::start(ProfPhase::BarrierWait);
                            barrier.wait();
                        }
                        let mut incoming = Vec::new();
                        for (src, row) in mail.iter().enumerate() {
                            if src != w {
                                incoming.append(&mut row[w].lock().unwrap());
                            }
                        }
                        shard.ingest(incoming);
                        *locals[w].lock().unwrap() =
                            (shard.next_time(), Self::shard_pred(shard, pred));
                    }
                });
            }
        });
        let (at, met) = *outcome.lock().unwrap();
        (at, met)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::message::Message;
    use crate::runtime::Fate;
    use crate::SimNet;
    use eesmr_hypergraph::topology::ring_kcast;

    /// A protocol that exercises every event kind: flood, targeted
    /// flood, multicast, timers (incl. cancellation), and replies across
    /// shard boundaries.
    #[derive(Debug, Clone)]
    enum TMsg {
        Ping(u64),
        Echo(u64),
        Hop(u64),
    }

    impl Message for TMsg {
        fn wire_size(&self) -> usize {
            48
        }
        fn flood_key(&self) -> u64 {
            match self {
                TMsg::Ping(x) => *x,
                TMsg::Echo(x) => (1 << 40) + *x,
                TMsg::Hop(x) => (2 << 40) + *x,
            }
        }
    }

    #[derive(Debug, Default)]
    struct TActor {
        id: NodeId,
        pings: Vec<u64>,
        echoes: Vec<u64>,
        hops: Vec<u64>,
        ticks: u64,
        cancelled_fired: bool,
    }

    impl Actor for TActor {
        type Msg = TMsg;
        type Timer = &'static str;

        fn on_start(&mut self, ctx: &mut Context<'_, TMsg, &'static str>) {
            if ctx.id() == 0 {
                ctx.flood(TMsg::Ping(7));
                ctx.multicast(TMsg::Hop(1));
            }
            ctx.set_timer(SimDuration::from_millis(2 + ctx.id() as u64), "tick");
            let doomed = ctx.set_timer(SimDuration::from_millis(1), "doomed");
            ctx.cancel_timer(doomed);
        }

        fn on_message(
            &mut self,
            from: NodeId,
            msg: TMsg,
            ctx: &mut Context<'_, TMsg, &'static str>,
        ) {
            match msg {
                TMsg::Ping(x) => {
                    self.pings.push(x);
                    // Reply across the flood substrate — crosses shards.
                    ctx.send_to(from, TMsg::Echo(self.id as u64));
                }
                TMsg::Echo(x) => self.echoes.push(x),
                TMsg::Hop(x) => self.hops.push(x),
            }
        }

        fn on_timer(&mut self, token: &'static str, ctx: &mut Context<'_, TMsg, &'static str>) {
            match token {
                "tick" => {
                    self.ticks += 1;
                    if self.ticks < 3 {
                        ctx.multicast(TMsg::Hop(100 + self.ticks));
                        ctx.set_timer(SimDuration::from_millis(2), "tick");
                    }
                }
                _ => self.cancelled_fired = true,
            }
        }
    }

    fn actors(n: usize) -> Vec<TActor> {
        (0..n).map(|id| TActor { id: id as NodeId, ..TActor::default() }).collect()
    }

    type Fingerprint = Vec<(Vec<u64>, Vec<u64>, Vec<u64>, u64, bool, f64)>;

    fn fingerprint(net: &ShardedNet<TActor>, n: usize) -> Fingerprint {
        (0..n as NodeId)
            .map(|id| {
                let a = net.actor(id);
                (
                    a.pings.clone(),
                    a.echoes.clone(),
                    a.hops.clone(),
                    a.ticks,
                    a.cancelled_fired,
                    net.meter(id).total_mj(),
                )
            })
            .collect()
    }

    #[test]
    fn sharded_run_until_matches_simnet_for_any_shard_count() {
        let n = 9;
        let horizon = SimTime::ZERO + SimDuration::from_millis(30);
        let mut reference = SimNet::new(NetConfig::ble(ring_kcast(n, 3), 11), actors(n));
        reference.run_until(horizon);
        let ref_stats = reference.stats().clone();
        for shards in [1, 2, 3, 4, 9] {
            let mut net = ShardedNet::new(NetConfig::ble(ring_kcast(n, 3), 11), actors(n), shards);
            net.run_until(horizon);
            assert_eq!(net.stats(), ref_stats, "{shards} shards: NetStats diverged");
            assert_eq!(net.now(), horizon);
            for id in 0..n as NodeId {
                let (a, b) = (net.actor(id), reference.actor(id));
                assert_eq!(a.pings, b.pings, "{shards} shards, node {id}");
                assert_eq!(a.echoes, b.echoes, "{shards} shards, node {id}");
                assert_eq!(a.hops, b.hops, "{shards} shards, node {id}");
                assert_eq!(a.ticks, b.ticks, "{shards} shards, node {id}");
                assert!(!a.cancelled_fired, "{shards} shards, node {id}");
                assert_eq!(
                    net.meter(id).total_mj().to_bits(),
                    reference.meter(id).total_mj().to_bits(),
                    "{shards} shards, node {id}: energy diverged"
                );
            }
        }
    }

    #[test]
    fn predicate_stops_are_shard_count_invariant() {
        let n = 8;
        let deadline = SimTime::ZERO + SimDuration::from_millis(200);
        let mut outcomes = Vec::new();
        for shards in [1, 2, 4] {
            let mut net = ShardedNet::new(NetConfig::ble(ring_kcast(n, 2), 3), actors(n), shards);
            let met = net.run_until_all(deadline, |_, a| a.ticks >= 2);
            outcomes.push((met, net.now(), fingerprint(&net, n)));
        }
        assert!(outcomes[0].0, "the tick predicate is reachable");
        assert!(outcomes[0].1 < deadline, "stopped before the deadline");
        assert_eq!(outcomes[0], outcomes[1], "2 shards diverged from 1");
        assert_eq!(outcomes[0], outcomes[2], "4 shards diverged from 1");
    }

    #[test]
    fn adaptive_horizon_is_capped_by_the_shards_own_reflection() {
        // Shard 0 holds the earliest event (t = 0), shard 1 is idle until
        // 100 L. Shard 0's event can reach shard 1 at L and be answered
        // at 2 L, so shard 0 must stop there — not at 101 L.
        let l = 1_000;
        let horizons: Vec<Mutex<u64>> = (0..3).map(|_| Mutex::new(0)).collect();
        let nexts = [Some(0), Some(100 * l), None];
        assert!(ShardedNet::<TActor>::adaptive_horizons(&nexts, l, 1_000_000, &horizons));
        let got: Vec<u64> = horizons.iter().map(|h| *h.lock().unwrap()).collect();
        assert_eq!(got, [2 * l, l, l]);
        // The limit still clips, and nothing pending before it ends the run.
        assert!(ShardedNet::<TActor>::adaptive_horizons(&nexts, l, 1_500, &horizons));
        assert_eq!(*horizons[0].lock().unwrap(), 1_501);
        assert!(!ShardedNet::<TActor>::adaptive_horizons(&[None, Some(9)], l, 8, &horizons));
    }

    #[test]
    fn unmet_predicate_runs_to_the_deadline() {
        let deadline = SimTime::ZERO + SimDuration::from_millis(5);
        let mut net = ShardedNet::new(NetConfig::ble(ring_kcast(6, 2), 3), actors(6), 2);
        let met = net.run_until_all(deadline, |_, a| a.ticks >= 1_000);
        assert!(!met);
        assert_eq!(net.now(), deadline);
    }

    #[test]
    fn per_shard_interceptors_drop_deterministically() {
        // A stateless (shard-safe) interceptor: drop everything node 0
        // sends. Node 0's ping never escapes, so only its loopback counts.
        let run = |shards: usize| {
            let mut net = ShardedNet::new(NetConfig::ble(ring_kcast(5, 2), 5), actors(5), shards);
            net.set_interceptors(|_| {
                Some(Box::new(
                    |d: &crate::Delivery| {
                        if d.from == 0 {
                            Fate::Drop
                        } else {
                            Fate::Deliver
                        }
                    },
                ))
            });
            net.run_for(SimDuration::from_millis(20));
            (net.stats(), fingerprint(&net, 5))
        };
        let (stats1, fp1) = run(1);
        let (stats2, fp2) = run(2);
        assert!(stats1.dropped > 0);
        assert_eq!(stats1, stats2);
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn shard_count_clamps_to_node_count() {
        let net = ShardedNet::new(NetConfig::ble(ring_kcast(4, 2), 1), actors(4), 64);
        assert_eq!(net.shards(), 4);
    }

    #[test]
    #[should_panic(expected = "positive hop_delay_min")]
    fn zero_lookahead_rejects_multiple_shards() {
        let mut cfg = NetConfig::ble(ring_kcast(4, 2), 1);
        cfg.hop_delay_min = SimDuration::ZERO;
        let _ = ShardedNet::new(cfg, actors(4), 2);
    }

    #[test]
    fn env_parsing_defaults_to_one() {
        // No env manipulation (tests run in parallel): only the default.
        if std::env::var(ENV_SHARDS).is_err() {
            assert_eq!(shards_from_env(), 1);
        }
    }
}
