//! Parallel multi-scenario experiment driver.
//!
//! Every figure and table in the paper's evaluation is a sweep over many
//! independent [`Scenario`](eesmr_sim::Scenario) runs. This crate turns
//! those sweeps into data: declare a [`ScenarioGrid`] (cartesian products
//! over protocol × n × k × payload × scheme × seed, plus explicit
//! scenario lists), hand it to a [`Driver`], and get back a
//! [`SuiteReport`] with per-cell [`RunReport`](eesmr_sim::RunReport)s,
//! summary statistics across repeats, and JSON/CSV sinks.
//!
//! The [`Driver`] fans cells out across a pool of scoped threads
//! ([`DriverConfig::workers`] threads; [`DriverConfig::quick`] shrinks
//! every scenario to smoke-test size) and **restores grid order**, so a
//! suite is bit-identical whether it ran on 1 worker or 8 — the
//! workspace determinism tests enforce this.
//!
//! # Writing a sweep
//!
//! ```
//! use eesmr_driver::{Driver, DriverConfig, ScenarioGrid};
//! use eesmr_sim::{Protocol, StopWhen};
//!
//! // Fig. 2f in four lines: both protocols over two system sizes.
//! let grid = ScenarioGrid::named("doc_sweep")
//!     .protocols([Protocol::Eesmr, Protocol::SyncHotStuff])
//!     .nodes([5, 6])
//!     .degrees([2])
//!     .stop(StopWhen::Blocks(3));
//! assert_eq!(grid.len(), 4);
//!
//! let suite = Driver::new(DriverConfig::default().workers(2)).run_grid(&grid);
//! assert_eq!(suite.cells.len(), 4);
//!
//! // Cells come back in grid order and are keyed by their sweep axes:
//! let eesmr5 = suite.find(|c| c.protocol == Protocol::Eesmr && c.n == 5).unwrap();
//! assert!(eesmr5.stats.committed_height.min >= 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod grid;
pub mod pool;
pub mod progress;
pub mod report;
pub mod sink;

pub use config::DriverConfig;
pub use grid::{GridCell, ScenarioGrid};
pub use pool::Driver;
pub use progress::ProgressEvent;
pub use report::{CellResult, CellStats, SuitePaths, SuiteReport, Summary};
pub use sink::{out_dir, Csv};
