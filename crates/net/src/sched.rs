//! The pending-event queue of the discrete-event runtime.
//!
//! The simulator's hot path is its pending-event queue: every message hop
//! and loopback passes through it once on the way in and once on the way
//! out. That queue is a [`CalendarQueue`]: near-future events land in a
//! ring of per-tick FIFO lanes (`O(1)` push/pop), and far-future events
//! overflow into a sorted spill heap that drains back into the ring as
//! virtual time advances.
//!
//! It pops in ascending `(time, seq)` order, the total order the
//! determinism contract rests on. The unit tests here and the
//! `sched_prop` property suite check that order against a plain
//! `BinaryHeap` oracle; `tests/golden_runs.rs` pins whole runs.
//!
//! # Example
//!
//! ```
//! use eesmr_net::CalendarQueue;
//!
//! let mut q = CalendarQueue::new();
//! q.push(500, 0, "delivery");
//! q.push(120_000, 1, "far-future timer");
//! q.push(500, 2, "same-tick follow-up");
//! assert_eq!(q.pop(), Some((500, 0, "delivery")));
//! assert_eq!(q.pop(), Some((500, 2, "same-tick follow-up")));
//! assert_eq!(q.pop(), Some((120_000, 1, "far-future timer")));
//! assert_eq!(q.pop(), None);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One queued event: the `(time, seq)` key plus its payload. Ordering —
/// and therefore the whole determinism contract — is on `(time, seq)`
/// only; the runtime takes `seq` from one push counter (see
/// `crate::runtime`), so keys are unique and the order is total. The
/// runtime's timer heap orders its entries the same way.
pub(crate) struct Entry<E> {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Default number of one-microsecond lanes in the near-future ring:
/// 1.024 virtual milliseconds — sized to the BLE hop-delay envelope
/// (500–1000 µs), so ordinary message hops land in the `O(1)` lanes
/// while interceptor-delayed hops and the process transport's timers
/// (multiples of Δ) spill. Kept small so constructing a simulation stays
/// cheap for tiny short-lived runs.
pub const DEFAULT_LANES: usize = 1024;

/// Pending-event count at which a lazily-constructed queue allocates its
/// lane ring. Below this the spill heap alone is at least as fast as the
/// ring (and costs no allocation), so tiny simulations run in pure heap
/// mode; above it the `O(1)` lanes win.
pub const MATERIALIZE_AT: usize = 192;

/// A calendar queue / hierarchical-bucket scheduler over `(time, seq)`
/// keys.
///
/// Near-future events — `time` within `lanes` ticks of the cursor — are
/// appended to the lane of their exact delivery tick. Far-future events
/// overflow into a sorted spill heap and migrate back into the ring as
/// the cursor advances, before the window covers their tick, so each lane
/// stays in push order.
///
/// # Contract
///
/// Callers must push ascending `seq`s for any one tick (one push
/// counter does this) and must never push an event earlier than the last
/// popped time (which holds for discrete-event simulation, where effects
/// of processing an event at time `t` are scheduled at `t + delay`,
/// `delay ≥ 0`). Debug builds panic on a push into the past and on one
/// that lands in a lane behind a larger seq. Pop order is ascending
/// `(time, seq)`.
pub struct CalendarQueue<E> {
    /// Ring of per-tick FIFO lanes; lane `i` holds events whose tick
    /// satisfies `tick & mask == i` and `cursor ≤ tick < cursor + lanes`.
    /// Empty (zero lanes) until the queue materializes the ring — tiny
    /// simulations stay in pure spill-heap mode and never pay the ring
    /// allocation.
    lanes: Box<[VecDeque<Entry<E>>]>,
    /// Ring size to allocate when the pending set grows past
    /// [`MATERIALIZE_AT`].
    target_lanes: usize,
    /// One bit per lane: set iff the lane is non-empty.
    occupancy: Box<[u64]>,
    /// `lanes.len() - 1` (the lane count is a power of two).
    mask: u64,
    /// Lower bound on every queued event's time; advances on pop.
    cursor: u64,
    /// Events currently in lanes (the rest are in `spill`).
    in_lanes: usize,
    /// Far-future overflow, ordered by `(time, seq)`.
    spill: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for CalendarQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("lanes", &self.lanes.len())
            .field("cursor", &self.cursor)
            .field("in_lanes", &self.in_lanes)
            .field("in_spill", &self.spill.len())
            .finish()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue that will materialize a [`DEFAULT_LANES`]-tick
    /// ring once the pending set grows past [`MATERIALIZE_AT`] events.
    /// Until then every event lives in the spill heap, so tiny
    /// simulations pay nothing for the ring.
    pub fn new() -> Self {
        assert!(DEFAULT_LANES.is_power_of_two());
        CalendarQueue {
            lanes: Box::default(),
            target_lanes: DEFAULT_LANES,
            occupancy: Box::default(),
            mask: 0,
            cursor: 0,
            in_lanes: 0,
            spill: BinaryHeap::new(),
        }
    }

    /// An empty queue whose ring covers `lanes` one-microsecond ticks,
    /// allocated eagerly.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is a power of two.
    pub fn with_lanes(lanes: usize) -> Self {
        assert!(lanes.is_power_of_two(), "lane count must be a power of two");
        let mut queue = CalendarQueue {
            lanes: Box::default(),
            target_lanes: lanes,
            occupancy: Box::default(),
            mask: 0,
            cursor: 0,
            in_lanes: 0,
            spill: BinaryHeap::new(),
        };
        queue.materialize();
        queue
    }

    /// Allocates the lane ring and pulls every already-pending event
    /// inside the new window out of the spill heap. Safe at any rest
    /// point: the heap yields same-tick events in `seq` order, so the
    /// lane FIFOs start ordered.
    fn materialize(&mut self) {
        self.lanes = (0..self.target_lanes).map(|_| VecDeque::new()).collect();
        self.occupancy = vec![0u64; self.target_lanes.div_ceil(64)].into_boxed_slice();
        self.mask = self.target_lanes as u64 - 1;
        self.migrate();
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.in_lanes + self.spill.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The width of the near-future window, in ticks.
    fn horizon(&self) -> u64 {
        self.lanes.len() as u64
    }

    /// Queues `payload` for `time`. See the type-level contract.
    pub fn push(&mut self, time: u64, seq: u64, payload: E) {
        debug_assert!(time >= self.cursor, "scheduler contract: events are never in the past");
        let entry = Entry { time, seq, payload };
        if time >= self.cursor + self.horizon() {
            self.spill.push(Reverse(entry));
            if self.lanes.is_empty() && self.spill.len() >= MATERIALIZE_AT {
                self.materialize();
            }
        } else {
            self.lane_push(entry);
        }
    }

    /// The earliest queued `(time)` without popping, or `None` when
    /// empty. (At rest the spill holds nothing inside the ring window, so
    /// any occupied lane beats the spill head.)
    pub fn peek_time(&self) -> Option<u64> {
        if self.in_lanes > 0 {
            self.first_occupied_tick()
        } else {
            self.spill.peek().map(|Reverse(e)| e.time)
        }
    }

    /// Removes and returns the earliest event as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        self.pop_if(|_| true)
    }

    /// Removes and returns the earliest event if `due` accepts its time;
    /// leaves the queue untouched otherwise. One search for the head
    /// where [`peek_time`](Self::peek_time) followed by
    /// [`pop`](Self::pop) makes two.
    pub fn pop_if(&mut self, due: impl FnOnce(u64) -> bool) -> Option<(u64, u64, E)> {
        if self.in_lanes > 0 {
            let tick = self.first_occupied_tick().expect("in_lanes > 0");
            if !due(tick) {
                return None;
            }
            self.cursor = tick;
            let idx = (tick & self.mask) as usize;
            let entry = self.lanes[idx].pop_front().expect("occupied lane");
            debug_assert_eq!(entry.time, tick, "a lane holds exactly one tick");
            if self.lanes[idx].is_empty() {
                self.occupancy[idx / 64] &= !(1u64 << (idx % 64));
            }
            self.in_lanes -= 1;
            self.migrate();
            Some((entry.time, entry.seq, entry.payload))
        } else if self.spill.peek().is_some_and(|Reverse(e)| due(e.time)) {
            // Ring empty: the spill head is the global minimum. Advancing
            // the cursor re-anchors the ring window so follow-up events
            // (e.g. message hops scheduled while handling a long timer)
            // land back in the O(1) lanes.
            let Reverse(entry) = self.spill.pop().expect("peeked");
            self.cursor = entry.time;
            self.migrate();
            Some((entry.time, entry.seq, entry.payload))
        } else {
            None
        }
    }

    /// Appends `entry` to its lane, keeping the occupancy bitmap. A lane
    /// holds one tick, so appending keeps it sorted as long as same-tick
    /// seqs ascend (the type-level contract).
    fn lane_push(&mut self, entry: Entry<E>) {
        let idx = (entry.time & self.mask) as usize;
        let lane = &mut self.lanes[idx];
        debug_assert!(
            lane.back().is_none_or(|b| b.seq < entry.seq),
            "scheduler contract: same-tick seqs ascend"
        );
        if lane.is_empty() {
            self.occupancy[idx / 64] |= 1u64 << (idx % 64);
        }
        lane.push_back(entry);
        self.in_lanes += 1;
    }

    /// Moves every spill event that now falls inside the ring window into
    /// its lane. Runs after every cursor advance so that, between calls,
    /// the spill never holds anything earlier than `cursor + horizon` —
    /// the invariant `peek_time`/`push` rely on.
    fn migrate(&mut self) {
        let window_end = self.cursor + self.horizon();
        while self.spill.peek().is_some_and(|Reverse(e)| e.time < window_end) {
            let Reverse(entry) = self.spill.pop().expect("peeked");
            self.lane_push(entry);
        }
    }

    /// The tick of the first occupied lane at or after the cursor, in
    /// ring order. `None` when all lanes are empty.
    fn first_occupied_tick(&self) -> Option<u64> {
        if self.in_lanes == 0 {
            return None;
        }
        let start = (self.cursor & self.mask) as usize;
        let words = self.occupancy.len();
        let (start_word, start_bit) = (start / 64, start % 64);
        // Tail of the start word, full middle words, then the head of the
        // start word (lanes that wrapped past the ring boundary).
        let tail = self.occupancy[start_word] & (!0u64 << start_bit);
        if tail != 0 {
            return Some(self.tick_of(start_word * 64 + tail.trailing_zeros() as usize, start));
        }
        for i in 1..words {
            let w = (start_word + i) % words;
            if self.occupancy[w] != 0 {
                return Some(
                    self.tick_of(w * 64 + self.occupancy[w].trailing_zeros() as usize, start),
                );
            }
        }
        let head = self.occupancy[start_word] & !(!0u64 << start_bit);
        if head != 0 {
            return Some(self.tick_of(start_word * 64 + head.trailing_zeros() as usize, start));
        }
        unreachable!("in_lanes > 0 implies an occupied lane")
    }

    /// Reconstructs the absolute tick of lane `idx`, given the lane index
    /// of the cursor: the ring distance from the cursor, added to it.
    fn tick_of(&self, idx: usize, start: usize) -> u64 {
        let distance = (idx as u64).wrapping_sub(start as u64) & self.mask;
        self.cursor + distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference order: a plain binary heap over `(time, seq, payload)`.
    type Oracle<E> = BinaryHeap<Reverse<(u64, u64, E)>>;

    fn pop_oracle<E: Ord>(heap: &mut Oracle<E>) -> Option<(u64, u64, E)> {
        heap.pop().map(|Reverse(e)| e)
    }

    /// Drains the queue and the oracle after identical pushes and asserts
    /// identical `(time, seq, payload)` sequences.
    fn assert_equivalent(events: &[(u64, &'static str)]) {
        let mut heap = Oracle::new();
        let mut cal = CalendarQueue::new();
        for (seq, &(time, tag)) in events.iter().enumerate() {
            heap.push(Reverse((time, seq as u64, tag)));
            cal.push(time, seq as u64, tag);
        }
        loop {
            let (a, b) = (pop_oracle(&mut heap), cal.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::with_lanes(64);
        q.push(9, 0, "c");
        q.push(3, 1, "a");
        q.push(3, 2, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.pop(), Some((3, 1, "a")));
        assert_eq!(q.pop(), Some((3, 2, "b")));
        assert_eq!(q.pop(), Some((9, 0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_spill_and_come_back() {
        let mut q = CalendarQueue::with_lanes(64);
        q.push(1_000_000, 0, "timer"); // way past the 64-tick window
        q.push(10, 1, "hop");
        assert_eq!(q.pop(), Some((10, 1, "hop")));
        // The timer is still in the spill; popping it re-anchors the ring.
        assert_eq!(q.peek_time(), Some(1_000_000));
        assert_eq!(q.pop(), Some((1_000_000, 0, "timer")));
        // Events scheduled relative to the new cursor land in lanes again.
        q.push(1_000_005, 2, "follow-up");
        assert_eq!(q.pop(), Some((1_000_005, 2, "follow-up")));
    }

    #[test]
    fn same_tick_lanes_pop_in_push_order() {
        // One ascending push counter fills dense same-tick lanes, some
        // directly and some through the spill: tick 70 is beyond the
        // 64-tick window when its first events are pushed and migrates
        // into its lane before the later ones are appended behind them.
        let mut heap = Oracle::new();
        let mut q = CalendarQueue::with_lanes(64);
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u64>, heap: &mut Oracle<u64>, t: u64| {
            q.push(t, seq, seq);
            heap.push(Reverse((t, seq, seq)));
            seq += 1;
        };
        for t in [5, 70, 5, 30, 70, 5, 30, 70, 5] {
            push(&mut q, &mut heap, t);
        }
        assert_eq!((q.in_lanes, q.spill.len()), (6, 3));
        for _ in 0..6 {
            assert_eq!(q.pop(), pop_oracle(&mut heap));
        }
        // The cursor is at 30: tick 70 is inside the window, its three
        // spilled events sit in their lane, and new ones append.
        assert_eq!((q.in_lanes, q.spill.len()), (3, 0));
        for t in [70, 30, 70, 70] {
            push(&mut q, &mut heap, t);
        }
        while let Some(e) = q.pop() {
            assert_eq!(Some(e), pop_oracle(&mut heap));
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn same_tick_pushes_while_draining_keep_order() {
        let mut q = CalendarQueue::with_lanes(64);
        q.push(5, 0, "first");
        q.push(5, 1, "second");
        assert_eq!(q.pop(), Some((5, 0, "first")));
        // A zero-delay push at the current time (the loopback pattern).
        q.push(5, 2, "loopback");
        assert_eq!(q.pop(), Some((5, 1, "second")));
        assert_eq!(q.pop(), Some((5, 2, "loopback")));
    }

    #[test]
    fn ring_wrap_spans_many_rotations() {
        let mut q = CalendarQueue::with_lanes(64);
        let mut expect = Vec::new();
        for (seq, round) in (0u64..50).enumerate() {
            let t = round * 37; // crosses the 64-tick ring repeatedly
            q.push(t, seq as u64, round);
            expect.push((t, seq as u64, round));
        }
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        expect.sort_unstable_by_key(|&(t, s, _)| (t, s));
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // A hold-model workload: pop one, schedule a few relative to it.
        let mut heap = Oracle::new();
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..32 {
            heap.push(Reverse((0, seq, seq)));
            cal.push(0, seq, seq);
            seq += 1;
        }
        for _ in 0..10_000 {
            let a = pop_oracle(&mut heap);
            let b = cal.pop();
            assert_eq!(a, b);
            let Some((now, _, _)) = a else { break };
            for _ in 0..(rand() % 3) {
                // Mix in near-future hops and far-future timers.
                let delay =
                    if rand() % 8 == 0 { 100_000 + rand() % 500_000 } else { rand() % 1_500 };
                heap.push(Reverse((now + delay, seq, seq)));
                cal.push(now + delay, seq, seq);
                seq += 1;
            }
        }
        loop {
            let (a, b) = (pop_oracle(&mut heap), cal.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn small_batch_equivalence_cases() {
        assert_equivalent(&[]);
        assert_equivalent(&[(0, "only")]);
        assert_equivalent(&[(7, "a"), (7, "b"), (7, "c")]);
        assert_equivalent(&[(63, "edge"), (64, "wrap"), (65, "past"), (0, "first")]);
        assert_equivalent(&[(1 << 40, "huge"), (0, "tiny"), (1 << 20, "mid")]);
    }

    #[test]
    fn lazy_ring_materializes_under_load_and_stays_ordered() {
        let mut q = CalendarQueue::new();
        // Below the threshold: everything rides the spill heap.
        for seq in 0..16u64 {
            q.push(seq * 3, seq, seq);
        }
        assert_eq!(q.lanes.len(), 0, "tiny queues never allocate the ring");
        assert_eq!(q.pop(), Some((0, 0, 0)));
        // Blow past the threshold: the ring appears, order is unchanged.
        let mut expect: Vec<(u64, u64, u64)> = (1..16u64).map(|s| (s * 3, s, s)).collect();
        for seq in 16..(16 + MATERIALIZE_AT as u64) {
            q.push(seq, seq, seq);
            expect.push((seq, seq, seq));
        }
        assert_eq!(q.lanes.len(), DEFAULT_LANES, "materialized under load");
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_lanes_rejected() {
        let _ = CalendarQueue::<u8>::with_lanes(100);
    }
}
