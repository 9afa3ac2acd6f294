//! Property test: the calendar queue pops in exactly the binary heap's
//! `(time, seq)` order over event sets pushed under one ascending seq
//! counter — the order the simulator's determinism contract rests on.
//! The heap is the oracle only; the runtime has one queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use eesmr_net::CalendarQueue;
use proptest::prelude::*;

/// The reference order: a plain binary heap over `(time, seq, payload)`.
#[derive(Default)]
struct Oracle<E: Ord>(BinaryHeap<Reverse<(u64, u64, E)>>);

impl<E: Ord> Oracle<E> {
    fn push(&mut self, time: u64, seq: u64, payload: E) {
        self.0.push(Reverse((time, seq, payload)));
    }

    fn peek_time(&self) -> Option<u64> {
        self.0.peek().map(|Reverse((time, _, _))| *time)
    }

    fn pop(&mut self) -> Option<(u64, u64, E)> {
        self.0.pop().map(|Reverse(e)| e)
    }

    fn pop_if(&mut self, due: impl FnOnce(u64) -> bool) -> Option<(u64, u64, E)> {
        if self.peek_time().is_some_and(due) {
            self.pop()
        } else {
            None
        }
    }
}

/// Replays one interleaved workload against the queue and the oracle and
/// asserts identical pop sequences at every step. Each `op` value encodes
/// either a pop (`op % 4 == 3`; every other one conditional on a cutoff
/// time, the way the runtime drains a window) or a push whose delay mixes
/// near-future hops with far-future timers, always relative to the last
/// popped time (the scheduler contract).
fn replay(ops: &[u64], lanes: usize) {
    let mut heap = Oracle::default();
    let mut cal = CalendarQueue::with_lanes(lanes);
    let mut seq = 0u64;
    let mut now = 0u64;
    for &op in ops {
        if op % 4 == 3 {
            // A cutoff at or a little past `now`: refused about as often
            // as not, and a refusal must leave the head where it was.
            let cutoff = if op % 8 == 7 { now + (op / 8) % (lanes as u64 / 4) } else { u64::MAX };
            let head = heap.peek_time();
            let expect = heap.pop_if(|t| t <= cutoff);
            let got = cal.pop_if(|t| t <= cutoff);
            prop_assert_eq!(expect, got, "pop diverged at seq {}", seq);
            prop_assert_eq!(expect.is_some(), head.is_some_and(|t| t <= cutoff));
            match expect {
                Some((t, _, _)) => now = t,
                None => prop_assert_eq!(cal.peek_time(), head, "a refused pop moved the head"),
            }
        } else {
            // Delays span same-tick (0), in-ring, ring-edge, and spill.
            let delay = match op % 3 {
                0 => (op / 4) % (lanes as u64 / 2).max(1),
                1 => (op / 4) % (4 * lanes as u64),
                _ => lanes as u64 * 10 + (op / 4) % 100_000,
            };
            heap.push(now + delay, seq, seq);
            cal.push(now + delay, seq, seq);
            seq += 1;
        }
    }
    // Drain whatever is left: the tails must match too.
    loop {
        let (a, b) = (heap.pop(), cal.pop());
        prop_assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved pushes and pops on the default ring size.
    #[test]
    fn calendar_pop_order_equals_heap_pop_order(
        ops in prop::collection::vec(any::<u64>(), 1..400),
    ) {
        replay(&ops, eesmr_net::sched::DEFAULT_LANES);
    }

    /// A tiny ring forces constant wrap-around and spill migration —
    /// the structurally interesting regime.
    #[test]
    fn equivalence_holds_with_a_tiny_ring(
        ops in prop::collection::vec(any::<u64>(), 1..400),
    ) {
        replay(&ops, 64);
    }

    /// The lazily-materialized default queue (what `SimNet` actually
    /// constructs): starts in heap mode, grows its ring under load.
    #[test]
    fn lazy_default_queue_matches_heap(
        ops in prop::collection::vec(any::<u64>(), 1..600),
    ) {
        let mut heap = Oracle::default();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for &op in &ops {
            if op % 4 == 3 {
                let expect = heap.pop();
                prop_assert_eq!(expect, cal.pop());
                if let Some((t, _, _)) = expect { now = t; }
            } else {
                let delay = (op / 4) % 3_000;
                heap.push(now + delay, seq, seq);
                cal.push(now + delay, seq, seq);
                seq += 1;
            }
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    /// Pure batch mode: push everything, then drain. Exercises dense
    /// same-tick lanes (many events collapse onto few ticks).
    #[test]
    fn batch_drain_matches_heap(
        times in prop::collection::vec(0u64..5_000, 0..300),
    ) {
        let mut heap = Oracle::default();
        let mut cal = CalendarQueue::with_lanes(128);
        for (seq, &t) in times.iter().enumerate() {
            heap.push(t, seq as u64, seq);
            cal.push(t, seq as u64, seq);
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }

    /// Dense same-tick lanes under one ascending push counter: delays
    /// come from a handful of values around the 64-tick window's edge,
    /// so a tick first filled through the spill keeps taking direct
    /// appends once it has migrated into its lane, with pops interleaved.
    #[test]
    fn monotone_seqs_in_dense_lanes_match_heap(
        ops in prop::collection::vec(any::<u64>(), 0..400),
    ) {
        const DELAYS: [u64; 6] = [0, 1, 2, 63, 64, 90];
        let mut heap = Oracle::default();
        let mut cal = CalendarQueue::with_lanes(64);
        let (mut seq, mut now) = (0u64, 0u64);
        for &op in &ops {
            if op % 3 == 0 {
                let expect = heap.pop();
                prop_assert_eq!(expect, cal.pop());
                if let Some((t, _, _)) = expect { now = t; }
            } else {
                let t = now + DELAYS[(op / 3 % DELAYS.len() as u64) as usize];
                heap.push(t, seq, seq);
                cal.push(t, seq, seq);
                seq += 1;
            }
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }
}

/// The lanes are append-only: a same-tick push with a smaller seq than
/// one already queued breaks the contract, and debug builds reject it.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "same-tick seqs ascend")]
fn a_same_tick_push_with_a_smaller_seq_is_rejected() {
    let mut cal = CalendarQueue::with_lanes(64);
    cal.push(5, 3, "pushed first");
    cal.push(5, 1, "smaller seq");
}
