//! Event schedulers for the discrete-event runtime.
//!
//! The simulator's hot path is its pending-event queue: every message hop,
//! loopback, and timer passes through it once on the way in and once on
//! the way out. Two interchangeable implementations live here, selectable
//! per [`NetConfig`](crate::NetConfig):
//!
//! * **[`SchedulerKind::Heap`]** — the classic global
//!   `BinaryHeap<Reverse<Event>>`: `O(log N)` per operation in the number
//!   of outstanding events. Simple, and the reference for equivalence
//!   tests.
//! * **[`SchedulerKind::Calendar`]** — a [`CalendarQueue`]: near-future
//!   events land in a ring of per-tick FIFO lanes (`O(1)` push/pop), and
//!   far-future events (long timers) overflow into a sorted spill heap
//!   that drains back into the ring as virtual time advances.
//!
//! Both pop events in exactly the same total order — ascending
//! `(time, seq)` — so a simulation is bit-identical under either (the
//! workspace determinism tests and the `sched_prop` property test enforce
//! this). The calendar queue is the default because it makes large-`n`,
//! broadcast-heavy runs measurably faster (`net.sched.*` in
//! `bash benchmark/run.sh`); the heap stays as the oracle those tests
//! compare against.
//!
//! # Example
//!
//! ```
//! use eesmr_net::sched::{EventQueue, SchedulerKind};
//!
//! // Same pushes, either backend, identical pop order.
//! for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
//!     let mut q = EventQueue::new(kind);
//!     q.push(500, 0, "delivery");
//!     q.push(120_000, 1, "far-future timer");
//!     q.push(500, 2, "same-tick follow-up");
//!     assert_eq!(q.pop(), Some((500, 0, "delivery")));
//!     assert_eq!(q.pop(), Some((500, 2, "same-tick follow-up")));
//!     assert_eq!(q.pop(), Some((120_000, 1, "far-future timer")));
//!     assert_eq!(q.pop(), None);
//! }
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which pending-event queue implementation a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Global binary heap: `O(log N)` per operation, the reference
    /// implementation.
    Heap,
    /// Calendar queue: `O(1)` time-bucketed lanes plus a spill heap for
    /// far-future events. The default.
    #[default]
    Calendar,
}

impl SchedulerKind {
    /// Display name (`"heap"` / `"calendar"`).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Calendar => "calendar",
        }
    }
}

/// One queued event: the `(time, seq)` key plus its payload. Ordering —
/// and therefore the whole determinism contract — is on `(time, seq)`
/// only; the runtime derives `seq` from the pushing node's id and its
/// private push counter (see `crate::runtime`), so keys are unique and
/// the order is total — and independent of how a run is sharded.
struct Entry<E> {
    time: u64,
    seq: u64,
    payload: E,
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
/// while protocol timers (multiples of Δ) and interceptor-delayed hops
/// spill. Kept small so constructing a simulation stays cheap for tiny
/// short-lived runs.
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
/// inserted into the lane of their exact delivery tick, kept sorted by
/// `seq`. A single-threaded simulation pushes same-tick events in almost
/// monotone `seq` order, so the ordered insert is an O(1) append in
/// practice; the general insert exists because sharded simulations merge
/// per-origin key streams (see `crate::shard`) whose same-tick arrivals
/// interleave out of push order. Far-future events overflow into a
/// sorted spill heap and migrate back into the ring as the cursor
/// advances.
///
/// # Contract
///
/// Callers must push unique `(time, seq)` keys and must never push an
/// event earlier than the last popped time (the latter holds trivially
/// for discrete-event simulation, where effects of processing an event at
/// time `t` are scheduled at `t + delay`, `delay ≥ 0`; violations panic
/// in debug builds). Same-tick pushes may arrive in any `seq` order —
/// pop order is always ascending `(time, seq)`.
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
            self.lane_insert(entry);
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

    /// Inserts `entry` into its lane at its sorted `(time, seq)` position,
    /// keeping the occupancy bitmap and the per-lane ordering invariant.
    /// Single-threaded simulations push in near-monotone `seq` order, so
    /// the backwards scan almost always terminates immediately and the
    /// insert is an O(1) append; sharded merges pay only for actual
    /// same-tick inversions.
    fn lane_insert(&mut self, entry: Entry<E>) {
        let idx = (entry.time & self.mask) as usize;
        let lane = &mut self.lanes[idx];
        debug_assert!(
            lane.back().is_none_or(|b| (b.time, b.seq) != (entry.time, entry.seq)),
            "(time, seq) keys must be unique"
        );
        if lane.is_empty() {
            self.occupancy[idx / 64] |= 1u64 << (idx % 64);
        }
        let pos = lane
            .iter()
            .rposition(|e| (e.time, e.seq) < (entry.time, entry.seq))
            .map_or(0, |p| p + 1);
        lane.insert(pos, entry);
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
            self.lane_insert(entry);
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

/// A bounded pool of reusable `Vec` buffers for the simulator's hot
/// paths.
///
/// The sharded runtime drains batches of queued events every barrier
/// window (outbox exchange) and every actor invocation drains a batch of
/// effects; allocating a fresh `Vec` for each would put an allocator
/// round-trip on the hottest loop. Instead, drained buffers come back
/// through [`put`](FreeList::put) — which drops their contents *eagerly*
/// (so no stale event can ever resurface) but keeps their capacity — and
/// the next [`get`](FreeList::get) hands the warm allocation out again.
/// The pool is bounded: spares beyond `cap` are simply freed, so a burst
/// never pins memory forever.
#[derive(Debug)]
pub struct FreeList<T> {
    pool: Vec<Vec<T>>,
    cap: usize,
}

impl<T> FreeList<T> {
    /// An empty pool retaining at most `cap` spare buffers.
    pub fn new(cap: usize) -> Self {
        FreeList { pool: Vec::new(), cap }
    }

    /// A recycled buffer — always empty, with whatever capacity its last
    /// life accumulated — or a fresh zero-capacity `Vec` when the pool is
    /// dry.
    pub fn get(&mut self) -> Vec<T> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool. Its contents are dropped here and
    /// now — a recycled buffer can never leak stale elements — and its
    /// capacity is retained unless the pool is already at `cap`, in
    /// which case the buffer is freed.
    pub fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        if self.pool.len() < self.cap {
            self.pool.push(buf);
        }
    }

    /// Spare buffers currently pooled.
    pub fn spares(&self) -> usize {
        self.pool.len()
    }
}

/// The runtime's pending-event queue: one of the two [`SchedulerKind`]
/// backends behind a uniform push/peek/pop interface.
pub struct EventQueue<E>(Backend<E>);

enum Backend<E> {
    Heap(BinaryHeap<Reverse<Entry<E>>>),
    Calendar(CalendarQueue<E>),
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Backend::Heap(h) => f.debug_struct("EventQueue::Heap").field("len", &h.len()).finish(),
            Backend::Calendar(c) => c.fmt(f),
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue of the given kind.
    pub fn new(kind: SchedulerKind) -> Self {
        EventQueue(match kind {
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::new()),
            SchedulerKind::Calendar => Backend::Calendar(CalendarQueue::new()),
        })
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        match &self.0 {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len(),
        }
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues `payload` at `(time, seq)`.
    pub fn push(&mut self, time: u64, seq: u64, payload: E) {
        match &mut self.0 {
            Backend::Heap(h) => h.push(Reverse(Entry { time, seq, payload })),
            Backend::Calendar(c) => c.push(time, seq, payload),
        }
    }

    /// The earliest queued time without popping.
    pub fn peek_time(&self) -> Option<u64> {
        match &self.0 {
            Backend::Heap(h) => h.peek().map(|Reverse(e)| e.time),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    /// Removes and returns the earliest event as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        self.pop_if(|_| true)
    }

    /// Removes and returns the earliest event if `due` accepts its time
    /// (see [`CalendarQueue::pop_if`]); leaves the queue untouched
    /// otherwise.
    pub fn pop_if(&mut self, due: impl FnOnce(u64) -> bool) -> Option<(u64, u64, E)> {
        match &mut self.0 {
            Backend::Heap(h) => {
                if !h.peek().is_some_and(|Reverse(e)| due(e.time)) {
                    return None;
                }
                h.pop().map(|Reverse(e)| (e.time, e.seq, e.payload))
            }
            Backend::Calendar(c) => c.pop_if(due),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains both backends after identical pushes and asserts identical
    /// `(time, seq, payload)` sequences.
    fn assert_equivalent(events: &[(u64, &'static str)]) {
        let mut heap = EventQueue::new(SchedulerKind::Heap);
        let mut cal = EventQueue::new(SchedulerKind::Calendar);
        for (seq, &(time, tag)) in events.iter().enumerate() {
            heap.push(time, seq as u64, tag);
            cal.push(time, seq as u64, tag);
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
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
    fn same_tick_out_of_order_seqs_pop_sorted() {
        // Sharded merges interleave per-origin key streams, so same-tick
        // events can arrive with descending seqs; pop order must still be
        // ascending (time, seq) on both backends.
        let events: Vec<(u64, u64, &'static str)> = vec![
            (5, 9, "i"),
            (5, 3, "c"),
            (7, 1, "a"),
            (5, 6, "f"),
            (5, 1, "b"),
            (9, 0, "z"),
            (5, 4, "d"),
        ];
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let mut q = EventQueue::new(kind);
            for &(t, s, tag) in &events {
                q.push(t, s, tag);
            }
            let mut got = Vec::new();
            while let Some(e) = q.pop() {
                got.push(e);
            }
            let mut expect = events.clone();
            expect.sort_unstable_by_key(|&(t, s, _)| (t, s));
            assert_eq!(got, expect, "{}", kind.name());
        }
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
        let mut heap = EventQueue::new(SchedulerKind::Heap);
        let mut cal = EventQueue::new(SchedulerKind::Calendar);
        let mut seq = 0u64;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..32 {
            heap.push(0, seq, seq);
            cal.push(0, seq, seq);
            seq += 1;
        }
        for _ in 0..10_000 {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(a, b);
            let Some((now, _, _)) = a else { break };
            for _ in 0..(rand() % 3) {
                // Mix in near-future hops and far-future timers.
                let delay =
                    if rand() % 8 == 0 { 100_000 + rand() % 500_000 } else { rand() % 1_500 };
                heap.push(now + delay, seq, seq);
                cal.push(now + delay, seq, seq);
                seq += 1;
            }
        }
        loop {
            let (a, b) = (heap.pop(), cal.pop());
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
    fn default_scheduler_is_calendar() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Calendar);
        assert_eq!(SchedulerKind::Heap.name(), "heap");
        assert_eq!(SchedulerKind::Calendar.name(), "calendar");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_lanes_rejected() {
        let _ = CalendarQueue::<u8>::with_lanes(100);
    }

    #[test]
    fn freelist_recycles_capacity_without_stale_state() {
        let mut fl = FreeList::new(2);
        let mut buf = fl.get();
        buf.extend([1, 2, 3]);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        fl.put(buf);
        // The same allocation comes back — empty, capacity intact.
        let recycled = fl.get();
        assert!(recycled.is_empty(), "recycled buffers must never expose stale elements");
        assert_eq!(recycled.capacity(), cap);
        assert_eq!(recycled.as_ptr(), ptr, "the warm allocation is reused, not reallocated");
        fl.put(recycled);
        // Contents are dropped at put() time, observable via drop effects.
        let counted: Vec<std::rc::Rc<u8>> = vec![std::rc::Rc::new(9)];
        let probe = std::rc::Rc::clone(&counted[0]);
        let mut fl2 = FreeList::new(1);
        fl2.put(counted);
        assert_eq!(std::rc::Rc::strong_count(&probe), 1, "put() drops contents eagerly");
        // The pool is bounded by cap.
        let mut fl3 = FreeList::<u8>::new(2);
        fl3.put(Vec::with_capacity(1));
        fl3.put(Vec::with_capacity(1));
        fl3.put(Vec::with_capacity(1));
        assert_eq!(fl3.spares(), 2);
    }
}
