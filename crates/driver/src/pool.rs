//! The crossbeam-based worker pool behind [`Driver`].
//!
//! Scenarios fan out over a clonable MPMC channel (the work queue) to
//! `workers` scoped threads; results come back tagged with their grid
//! index and are re-sorted, so the suite is **bit-identical** no matter
//! how the OS schedules workers — `tests/determinism.rs` at the
//! workspace root enforces parallel ≡ sequential.
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

use std::time::Instant;

use crossbeam::channel::unbounded;
use crossbeam::thread;

use eesmr_sim::RunReport;

use crate::config::DriverConfig;
use crate::grid::{quicken, GridCell, ScenarioGrid};
use crate::progress::ProgressEvent;
use crate::report::{CellResult, CellStats, SuiteReport};

/// Stride between the seeds of a cell's repeats (2^64 / φ, the odd
/// golden-ratio constant), so repeat seeds don't collide with adjacent
/// values on a grid's seed axis.
const REPEAT_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Parallel experiment executor. Construct with a [`DriverConfig`] (or
/// [`Driver::from_env`] to honor `EESMR_WORKERS` / `EESMR_QUICK`), then
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

    /// A driver configured from the environment
    /// ([`DriverConfig::from_env`]).
    pub fn from_env() -> Self {
        Driver::new(DriverConfig::from_env())
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
    /// each run starts and finishes. Events flow through an internal
    /// channel to a dedicated drainer thread, so `on_event` is invoked
    /// from one thread at a time (status lines never interleave).
    pub fn run_grid_with_progress<F>(&self, grid: &ScenarioGrid, on_event: F) -> SuiteReport
    where
        F: Fn(ProgressEvent) + Sync,
    {
        let cells = grid.build();
        let repeats = self.config.effective_repeats();
        let total = cells.len();

        // One task per (cell, repeat), cell-major so results regroup by
        // contiguous chunks of `repeats`.
        struct Task<'a> {
            cell: &'a GridCell,
            repeat: usize,
        }
        let tasks: Vec<Task> = cells
            .iter()
            .flat_map(|cell| (0..repeats).map(move |repeat| Task { cell, repeat }))
            .collect();

        let quick = self.config.quick_mode;
        // Workers publish onto the event channel; one drainer thread owns
        // the callback, so invocations are serialized.
        let reports: Vec<RunReport> = thread::scope(|scope| {
            let (event_tx, event_rx) = unbounded::<ProgressEvent>();
            let on_event = &on_event;
            let drainer = scope.spawn(move |_| {
                while let Ok(event) = event_rx.recv() {
                    on_event(event);
                }
            });
            let publish = &event_tx;
            let reports = self.run_ordered(&tasks, |task| {
                let _ = publish.send(ProgressEvent::Started {
                    index: task.cell.index,
                    total,
                    label: task.cell.label.clone(),
                    repeat: task.repeat,
                });
                let mut scenario =
                    if quick { quicken(&task.cell.scenario) } else { task.cell.scenario.clone() };
                // Repeat r re-runs the cell under a reseeded scenario so
                // repeats sample independent executions; repeat 0 keeps
                // the cell's own seed. The golden-ratio stride keeps
                // repeat seeds disjoint from neighbouring values on a
                // grid's seed axis (`seed + r` would make cell(seed=1)
                // repeat 1 replay cell(seed=2) repeat 0 exactly).
                scenario.seed = scenario
                    .seed
                    .wrapping_add((task.repeat as u64).wrapping_mul(REPEAT_SEED_STRIDE));
                let started = Instant::now();
                let report = scenario.run();
                let _ = publish.send(ProgressEvent::Finished {
                    index: task.cell.index,
                    total,
                    label: task.cell.label.clone(),
                    repeat: task.repeat,
                    summary: report.summary(),
                    wall: started.elapsed(),
                });
                report
            });
            // Disconnect the channel so the drainer drains and exits.
            drop(event_tx);
            drainer.join().expect("progress drainer");
            reports
        })
        // Re-raise a worker panic with its original payload so the
        // failing scenario's assert message survives the pool boundary.
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));

        let mut results = Vec::with_capacity(cells.len());
        let mut reports = reports.into_iter();
        for cell in &cells {
            let runs: Vec<RunReport> = reports.by_ref().take(repeats).collect();
            let stats = CellStats::from_runs(&runs);
            results.push(CellResult {
                label: cell.label.clone(),
                key: cell.scenario.cell(),
                runs,
                stats,
            });
        }
        SuiteReport { name: grid.name().to_string(), cells: results }
    }

    /// Generic ordered parallel map: applies `f` to every item across
    /// the worker pool and returns the results **in item order**,
    /// regardless of completion order. Figures that don't run scenarios
    /// (closed-form catalogues, the traced adversarial cells) share the
    /// pool through this.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_ordered(items, f)
    }

    fn run_ordered<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let workers = self.config.workers.max(1).min(items.len());
        if workers == 1 {
            return items.iter().map(f).collect();
        }

        // Pre-load the whole work queue, then drop the sender: workers
        // drain with `recv()` until the channel disconnects.
        let (task_tx, task_rx) = unbounded::<(usize, &T)>();
        for task in items.iter().enumerate() {
            task_tx.send(task).expect("work queue open");
        }
        drop(task_tx);

        let (result_tx, result_rx) = unbounded::<(usize, R)>();
        let f = &f;
        thread::scope(|scope| {
            for _ in 0..workers {
                let task_rx = task_rx.clone();
                let result_tx = result_tx.clone();
                scope.spawn(move |_| {
                    while let Ok((index, item)) = task_rx.recv() {
                        let result = f(item);
                        result_tx.send((index, result)).expect("result channel open");
                    }
                });
            }
        })
        // Re-raise with the original payload: `expect` would flatten the
        // panic message into `Any { .. }`.
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        drop(result_tx);

        // Restore item order: completion order is scheduler-dependent,
        // the returned Vec never is.
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        for (index, result) in result_rx.iter() {
            debug_assert!(slots[index].is_none(), "each task completes once");
            slots[index] = Some(result);
        }
        slots.into_iter().map(|slot| slot.expect("every task completed")).collect()
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
        use std::sync::Mutex;
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
        let events = events.into_inner().unwrap();
        assert_eq!(suite.cells.len(), 3);
        let starts = events.iter().filter(|e| matches!(e, ProgressEvent::Started { .. })).count();
        let finishes =
            events.iter().filter(|e| matches!(e, ProgressEvent::Finished { .. })).count();
        assert_eq!(starts, 3);
        assert_eq!(finishes, 3);
        assert!(events.iter().any(|e| matches!(
            e,
            ProgressEvent::Finished { label, .. } if label == "vc"
        )));
    }
}
