//! The worker pool behind [`Driver`].
//!
//! `workers` scoped threads (`std::thread::scope`) claim item indices
//! from one shared counter and hand their `(index, result)` pairs back
//! through their join handles; the pool sorts them by index, so the suite
//! is **bit-identical** no matter how the OS schedules workers —
//! `tests/determinism.rs` at the workspace root enforces parallel ≡
//! sequential.
//!
//! Beyond scenario grids, [`Driver::map`] exposes the same ordered pool
//! for any embarrassingly parallel work:
//!
//! ```
//! use eesmr_driver::{Driver, DriverConfig};
//!
//! let driver = Driver::new(DriverConfig::default().workers(4));
//! let items: Vec<u64> = (0..32).collect();
//! let cubes = driver.map(&items, |&v| v * v * v);
//! assert_eq!(cubes[3], 27, "results come back in item order");
//! ```

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::Instant;

use eesmr_sim::RunReport;

use crate::config::DriverConfig;
use crate::grid::{quicken, GridCell, ScenarioGrid};
use crate::progress::ProgressEvent;
use crate::report::{CellResult, CellStats, SuiteReport};

/// Stride between the seeds of a cell's repeats (2^64 / φ, the odd
/// golden-ratio constant), so repeat seeds don't collide with adjacent
/// values on a grid's seed axis.
const REPEAT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Parallel experiment executor. Construct with a [`DriverConfig`], then
/// submit a [`ScenarioGrid`].
#[derive(Debug, Clone, Copy)]
pub struct Driver {
    config: DriverConfig,
}

impl Driver {
    /// A driver with the given configuration.
    pub fn new(config: DriverConfig) -> Self {
        Driver { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Runs every cell of the grid (`repeats` times each) across the
    /// worker pool and returns the suite in deterministic grid order.
    pub fn run_grid(&self, grid: &ScenarioGrid) -> SuiteReport {
        self.run_grid_with_progress(grid, |_| {})
    }

    /// [`run_grid`](Self::run_grid), publishing a [`ProgressEvent`] as
    /// each run finishes. The worker that finished the run invokes
    /// `on_event` under a lock, so calls never overlap (status lines
    /// never interleave).
    pub fn run_grid_with_progress<F>(&self, grid: &ScenarioGrid, on_event: F) -> SuiteReport
    where
        F: Fn(ProgressEvent) + Sync,
    {
        let cells = grid.build();
        let repeats = self.config.effective_repeats();
        let total = cells.len();

        // One task per (cell, repeat), cell-major so results regroup by
        // contiguous chunks of `repeats`.
        let tasks: Vec<(&GridCell, usize)> =
            cells.iter().flat_map(|cell| (0..repeats).map(move |repeat| (cell, repeat))).collect();

        let quick = self.config.quick_mode;
        let serial = Mutex::new(());
        let reports = self.map(&tasks, |&(cell, repeat)| {
            let mut scenario = if quick { quicken(&cell.scenario) } else { cell.scenario.clone() };
            // Repeat r re-runs the cell under a reseeded scenario so
            // repeats sample independent executions; repeat 0 keeps
            // the cell's own seed. The golden-ratio stride keeps
            // repeat seeds disjoint from neighbouring values on a
            // grid's seed axis (`seed + r` would make cell(seed=1)
            // repeat 1 replay cell(seed=2) repeat 0 exactly).
            scenario.seed =
                scenario.seed.wrapping_add((repeat as u64).wrapping_mul(REPEAT_SEED_STRIDE));
            let started = Instant::now();
            let report = scenario.run();
            let event = ProgressEvent {
                index: cell.index,
                total,
                label: cell.label.clone(),
                repeat,
                summary: report.summary(),
                wall: started.elapsed(),
            };
            let _turn = serial.lock().unwrap_or_else(PoisonError::into_inner);
            on_event(event);
            report
        });

        let mut reports = reports.into_iter();
        let results = cells
            .iter()
            .map(|cell| {
                let runs: Vec<RunReport> = reports.by_ref().take(repeats).collect();
                let stats = CellStats::from_runs(&runs);
                CellResult { label: cell.label.clone(), key: cell.scenario.cell(), runs, stats }
            })
            .collect();
        SuiteReport { name: grid.name().to_string(), cells: results }
    }

    /// Generic ordered parallel map: applies `f` to every item across
    /// the worker pool and returns the results **in item order**,
    /// regardless of completion order. Figures that don't run scenarios
    /// (closed-form catalogues, the traced adversarial cells) share the
    /// pool through this. A panic in `f` is re-raised here with its own
    /// payload.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.config.workers.max(1).min(items.len());
        if workers <= 1 {
            return items.iter().map(f).collect();
        }

        // Each worker claims the next unclaimed index until none is left
        // and returns what it computed, tagged with the index.
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else { return done };
                done.push((index, f(item)));
            }
        };
        let mut done: Vec<(usize, R)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            // Join explicitly: a panic re-raised from inside the scope
            // keeps its payload, where an unjoined panicked thread makes
            // `scope` panic with a generic message.
            handles
                .into_iter()
                .flat_map(|handle| handle.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        });
        // Restore item order: completion order is scheduler-dependent,
        // the returned Vec never is.
        done.sort_unstable_by_key(|&(index, _)| index);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eesmr_sim::{FaultPlan, Protocol, Scenario, StopWhen};

    fn driver(workers: usize) -> Driver {
        Driver::new(DriverConfig::default().workers(workers))
    }

    #[test]
    fn map_preserves_item_order_across_workers() {
        let items: Vec<u64> = (0..64).collect();
        let squares = driver(8).map(&items, |&v| v * v);
        assert_eq!(squares, items.iter().map(|v| v * v).collect::<Vec<_>>());
    }

    #[test]
    fn map_on_empty_and_single_worker() {
        let empty: Vec<u32> = Vec::new();
        assert!(driver(4).map(&empty, |&v| v).is_empty());
        assert_eq!(driver(1).map(&[1, 2, 3], |&v| v + 1), vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn map_reraises_a_worker_panic_with_its_message() {
        let items: Vec<usize> = (0..16).collect();
        driver(4).map(&items, |&i| assert!(i != 5, "item {i} failed"));
    }

    #[test]
    fn run_grid_orders_cells_and_aggregates_repeats() {
        let grid = ScenarioGrid::named("pool_test")
            .protocols([Protocol::Eesmr])
            .nodes([5])
            .degrees([2])
            .stop(StopWhen::Blocks(3));
        let suite = Driver::new(DriverConfig::default().workers(4).repeats(2)).run_grid(&grid);
        assert_eq!(suite.name, "pool_test");
        assert_eq!(suite.cells.len(), 1);
        let cell = &suite.cells[0];
        assert_eq!(cell.runs.len(), 2);
        assert!(cell.stats.committed_height.min >= 3.0);
        assert!(cell.stats.energy_per_block_mj.min <= cell.stats.energy_per_block_mj.max);
    }

    #[test]
    fn quick_mode_shrinks_block_targets() {
        let grid =
            ScenarioGrid::named("quick_test").nodes([5]).degrees([2]).stop(StopWhen::Blocks(20));
        let quick = Driver::new(DriverConfig::default().workers(2).quick(true)).run_grid(&grid);
        // The run stopped at the clamped target instead of 20 blocks.
        let height = quick.cells[0].stats.committed_height.mean;
        assert!((3.0..10.0).contains(&height), "quick run committed {height} blocks");
    }

    #[test]
    fn progress_events_cover_every_run() {
        let grid = ScenarioGrid::named("progress_test")
            .nodes([5, 6])
            .degrees([2])
            .stop(StopWhen::Blocks(2))
            .scenario(
                "vc",
                Scenario::new(Protocol::Eesmr, 5, 2)
                    .faults(FaultPlan::silent_leader())
                    .stop(StopWhen::ViewReached(2)),
            );
        let events = Mutex::new(Vec::new());
        let suite =
            driver(3).run_grid_with_progress(&grid, |event| events.lock().unwrap().push(event));
        let mut events = events.into_inner().unwrap();
        assert_eq!(suite.cells.len(), 3);
        events.sort_by_key(|e| e.index);
        assert_eq!(
            events.iter().map(|e| (e.index, e.total)).collect::<Vec<_>>(),
            [(0, 3), (1, 3), (2, 3)]
        );
        assert!(events.iter().any(|e| e.label == "vc"));
    }
}
