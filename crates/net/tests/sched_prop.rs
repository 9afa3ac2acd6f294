//! Property test: the calendar queue pops in exactly the binary heap's
//! `(time, seq)` order over arbitrary event sets — the equivalence the
//! simulator's determinism contract rests on.

use eesmr_net::sched::{CalendarQueue, EventQueue, SchedulerKind};
use proptest::prelude::*;

/// Replays one interleaved workload against both backends and asserts
/// identical pop sequences at every step. Each `op` value encodes either
/// a pop (`op % 4 == 3`; every other one conditional on a cutoff time,
/// the way the runtime drains a window) or a push whose delay mixes
/// near-future hops with far-future timers, always relative to the last
/// popped time (the scheduler contract).
fn replay(ops: &[u64], lanes: usize) {
    let mut heap = EventQueue::new(SchedulerKind::Heap);
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
        let mut heap = EventQueue::new(SchedulerKind::Heap);
        let mut cal = EventQueue::new(SchedulerKind::Calendar);
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
        let mut heap = EventQueue::new(SchedulerKind::Heap);
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

    /// Sharded-merge mode: sequence keys arrive in arbitrary order
    /// (per-origin key streams interleave out of push order when shard
    /// inboxes drain), including same-tick inversions. Keys are made
    /// unique by construction — `(time, seq)` never repeats — and pop
    /// order must still equal the heap's on both backends.
    #[test]
    fn out_of_order_seq_keys_match_heap(
        events in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        let mut heap = EventQueue::new(SchedulerKind::Heap);
        let mut cal = CalendarQueue::with_lanes(128);
        for (i, &v) in events.iter().enumerate() {
            let t = v % 2_000; // few ticks -> dense same-tick lanes
            let key_low = (v >> 32) % 64;
            // A unique but non-monotone seq: the high part walks up for
            // half the stream and down from a disjoint range for the
            // rest, with arbitrary low bits mixed in.
            let high =
                if key_low % 2 == 0 { i as u64 } else { (2 * events.len() - i) as u64 };
            let seq = high << 32 | key_low;
            heap.push(t, seq, i);
            cal.push(t, seq, i);
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
            prop_assert_eq!(a, b);
            if a.is_none() { break; }
        }
    }
}
