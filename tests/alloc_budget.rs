//! The allocation budget: how often a run asks the heap for memory, how
//! often it grows a buffer in place, and how much it holds at its peak are
//! pure functions of the seed, so they are pinned **exactly**, where peak
//! RSS read off a host that drifts between sessions would hide a
//! regression. In the spirit of `tests/hash_budget.rs`: a deliberate
//! change to what a run allocates updates the pins in the same commit and
//! says by how much; an accidental one fails here.
//!
//! The counts come from this binary's own `#[global_allocator]`, which
//! tallies per thread (libtest runs tests side by side) and forwards every
//! call to the system allocator. Each measured run is preceded by one
//! unmeasured run of the same cell, so process-wide lazy state built by
//! whichever test came first is not charged to the one that follows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::{Actor, Context, Message, NetConfig, NodeId, SimDuration, SimNet};
use eesmr_sim::{Protocol, Scenario, StopWhen};

/// What the current thread has asked of the heap.
#[derive(Clone, Copy)]
struct Tally {
    /// `alloc` and `alloc_zeroed` calls.
    allocations: u64,
    /// `realloc` calls.
    reallocations: u64,
    /// Bytes allocated and not yet freed.
    live: i64,
    /// The high-water mark of `live`.
    peak: i64,
}

impl Tally {
    fn grow(&mut self, bytes: i64) {
        self.live += bytes;
        self.peak = self.peak.max(self.live);
    }
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocations: 0, reallocations: 0, live: 0, peak: 0 })
    };
}

/// Updates this thread's tally; a no-op once the thread is tearing down.
fn note(update: impl FnOnce(&mut Tally)) {
    let _ = TALLY.try_with(|cell| {
        let mut tally = cell.get();
        update(&mut tally);
        cell.set(tally);
    });
}

fn note_allocation(layout: Layout) {
    note(|t| {
        t.allocations += 1;
        t.grow(layout.size() as i64);
    });
}

/// The system allocator, counted.
struct Counting;

#[global_allocator]
static HEAP: Counting = Counting;

// The only `unsafe` outside `eesmr-crypto`: a global allocator cannot be
// written without it.
//
// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract, and returns what `System` returned.
// The tally around each call touches a thread-local `Cell` of plain
// integers with a `const` initialiser: it never allocates, so the
// allocator is never re-entered.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(|t| t.live -= layout.size() as i64);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(|t| {
            t.reallocations += 1;
            t.grow(new_size as i64 - layout.size() as i64);
        });
        System.realloc(ptr, layout, new_size)
    }
}

/// What one measured run cost the heap, and the units it is divided by
/// (committed blocks, or deliveries).
#[derive(Debug, PartialEq, Eq)]
struct Budget {
    allocations: u64,
    reallocations: u64,
    /// Peak bytes held above what the thread held when the run began.
    peak_bytes: i64,
    units: u64,
}

/// Runs `run` once to warm up, then again under the tally.
fn measure(run: impl Fn() -> u64) -> Budget {
    run();
    let start = TALLY.with(|cell| {
        let start = cell.get();
        cell.set(Tally { peak: start.live, ..start });
        start
    });
    let units = run();
    let end = TALLY.with(Cell::get);
    Budget {
        allocations: end.allocations - start.allocations,
        reallocations: end.reallocations - start.reallocations,
        peak_bytes: end.peak - start.live,
        units,
    }
}

/// Compares measured budgets with their pins, printing per-unit figures.
fn check(got: &[(&str, Budget)], pins: &[Budget]) {
    let moved: Vec<String> = got
        .iter()
        .zip(pins)
        .filter(|((_, got), pin)| got != *pin)
        .map(|((label, b), _)| {
            let per = |x: u64| x as f64 / b.units.max(1) as f64;
            format!(
                "{label}: {b:?} ({:.1} allocations, {:.1} reallocations per unit)",
                per(b.allocations),
                per(b.reallocations)
            )
        })
        .collect();
    assert!(moved.is_empty(), "allocation budgets moved; if deliberate, pin\n{}", moved.join("\n"));
}

/// One `tests/golden_runs.rs` cell (n = 7, k = 3, no fault, 24 blocks):
/// its whole run, set-up included, and the blocks it committed.
fn golden_cell(protocol: Protocol) -> Budget {
    let scenario = Scenario::new(protocol, 7, 3).seed(42).stop(StopWhen::Blocks(24));
    measure(|| scenario.run().committed_height())
}

#[test]
fn allocations_per_committed_block_are_pinned() {
    let protocols =
        [Protocol::Eesmr, Protocol::SyncHotStuff, Protocol::OptSync, Protocol::TrustedBaseline];
    let got: Vec<_> = protocols.iter().map(|&p| (p.name(), golden_cell(p))).collect();
    check(
        &got,
        &[
            Budget { allocations: 504, reallocations: 51, peak_bytes: 98_297, units: 24 },
            Budget { allocations: 1_255, reallocations: 166, peak_bytes: 123_521, units: 24 },
            Budget { allocations: 1_235, reallocations: 221, peak_bytes: 134_945, units: 24 },
            Budget { allocations: 1_093, reallocations: 348, peak_bytes: 52_685, units: 24 },
        ],
    );
}

// ----------------------------------------------------------------------
// The runtime alone: `tests/runtime_budget.rs`'s busy ring.
// ----------------------------------------------------------------------

const N: usize = 16;
const K: usize = 3;

#[derive(Debug, Clone)]
struct Keyed(u64);

impl Message for Keyed {
    fn wire_size(&self) -> usize {
        40
    }
    fn flood_key(&self) -> u64 {
        self.0
    }
}

/// Every node floods twice, multicasts once and routes one message to the
/// node across the ring, all at start.
struct Busy;

impl Actor for Busy {
    type Msg = Keyed;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Keyed, ()>) {
        let id = ctx.id();
        let key = |i: u64| Keyed((u64::from(id) << 8) | i);
        ctx.flood(key(1));
        ctx.flood(key(2));
        ctx.multicast(key(3));
        ctx.send_to((id + N as NodeId / 2) % N as NodeId, key(4));
    }

    fn on_message(&mut self, _: NodeId, _: Keyed, _: &mut Context<'_, Keyed, ()>) {}

    fn on_timer(&mut self, _: (), _: &mut Context<'_, Keyed, ()>) {}
}

#[test]
fn allocations_per_delivery_on_the_busy_ring_are_pinned() {
    let got = measure(|| {
        let actors = (0..N).map(|_| Busy).collect();
        let mut net = SimNet::new(NetConfig::ble(ring_kcast(N, K), 5), actors);
        net.run_for(SimDuration::from_millis(50));
        net.stats().deliveries
    });
    check(
        &[("busy ring", got)],
        &[Budget { allocations: 1_001, reallocations: 32, peak_bytes: 181_424, units: 592 }],
    );
}
