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

use eesmr_core::{Block, Command};
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
            // Re-captured when `Config::leader_policy` went (was 98 297):
            // `Config` shrank from 128 to 112 bytes in each of the 7 replicas;
            // and when `Pacing::Streaming` lost its one-value bound (was
            // 98 057): `Config` shrank from 112 to 96 bytes. All four peaks
            // fell by 12 544 bytes (1 792 a replica) when the ledger became
            // block handles (was 97 945, 123 009, 133 921 and 77 565): the
            // store's 32 slots hold an 8-byte handle, not a 40-byte
            // (id, handle) pair, and the log's 32 an 8-byte handle, not a
            // 32-byte id: 32 · 32 + 32 · 24. All four fell by 10
            // allocations when Δ's diameter went from one BFS per source
            // (a distance vector and a queue each: 2 · 7) to four bitset
            // buffers, and by the BFS queues' growth: one reallocation on
            // the ring (was 500 / 51, 1 251 / 166 and 1 231 / 221).
            Budget { allocations: 490, reallocations: 50, peak_bytes: 85_401, units: 24 },
            Budget { allocations: 1_241, reallocations: 165, peak_bytes: 110_465, units: 24 },
            Budget { allocations: 1_221, reallocations: 220, peak_bytes: 121_377, units: 24 },
            // Re-captured when the trusted baseline became a rule on the
            // replica skeleton (was 1 096 / 348 / 57 053): one `Arc` per
            // signed message and the skeleton's per-replica tables, but the
            // hub no longer grows a command vector upload by upload. Then
            // 10 allocations and 7 reallocations fewer (was 1 195 / 77)
            // with the bitset diameter: on the star every source's BFS
            // queue outgrew its first four slots.
            Budget { allocations: 1_185, reallocations: 70, peak_bytes: 65_021, units: 24 },
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
        &[Budget { allocations: 997, reallocations: 32, peak_bytes: 106_576, units: 592 }],
    );
}

// ----------------------------------------------------------------------
// Run length: what a longer run holds more of.
// ----------------------------------------------------------------------

/// `sim_steady`'s EESMR cell (n = 13, k = 7) at `L` and `4·L` blocks: the
/// peak grows by no more than the ledger the `3·L` extra blocks add —
/// what stays O(run) by design. Per block that is, in each replica, one
/// block handle in the store and one in the committed log, plus the one
/// block allocation all replicas share. The store is a hash set of handles
/// keyed by the id each block carries, which doubles when 7/8 full and so
/// holds up to 16/7 slots (and control bytes) per entry; the log is a
/// vector, which holds up to 2. Every other per-height table is pruned
/// below the commit floor a band at a time, so it adds nothing once `L` is
/// past two windows. The peak grows 0.40 MB here; it grew 1.3 MB while
/// the store keyed each block by a copy of its id and the log held ids,
/// and 3.4 MB without the pruning.
#[test]
fn eesmr_peak_bytes_grow_with_the_ledger_alone() {
    const L: i64 = 256;
    let n = 13;
    let cell = |blocks| {
        let scenario = Scenario::new(Protocol::Eesmr, n, 7).seed(42).stop(StopWhen::Blocks(blocks));
        measure(|| scenario.run().committed_height())
    };
    let (short, long) = (cell(L as u64), cell(4 * L as u64));
    let genesis = Block::genesis();
    let block =
        measure(|| Block::extending(&genesis, 1, 3, vec![Command::synthetic(1, 16)]).height);
    let store_slot = (size_of::<Block>() + 1) as i64;
    let log_slot = size_of::<Block>() as i64;
    let per_block = n as i64 * (store_slot * 16 / 7 + log_slot * 2) + block.peak_bytes;
    let grown = long.peak_bytes - short.peak_bytes;
    assert!(
        grown <= 3 * L * per_block,
        "peak bytes grew by {grown} from {L} to {} blocks: more than {per_block} a block",
        4 * L
    );
}
