//! Experiment harness: scenarios, fault injection, and run reports.
//!
//! This crate glues the protocol implementations, the simulated network,
//! and the energy model into the paper's experimental method: describe a
//! system (protocol, n, k, payload, faults, scheme), run it, and read off
//! per-node energy and protocol metrics. Every figure in `eesmr-bench`'s
//! figure table is a thin loop over [`Scenario`] runs.
//!
//! # Example: the Fig. 2f comparison at one point
//!
//! ```
//! use eesmr_sim::{Protocol, Scenario, StopWhen};
//!
//! let eesmr = Scenario::new(Protocol::Eesmr, 6, 3).stop(StopWhen::Blocks(5)).run();
//! let synchs = Scenario::new(Protocol::SyncHotStuff, 6, 3).stop(StopWhen::Blocks(5)).run();
//! assert!(eesmr.energy_per_block_mj() < synchs.energy_per_block_mj());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod faults;
pub mod options;
pub mod proc;
pub mod report;
pub mod scenario;

pub use faults::{FaultPlan, FaultSpec};
pub use options::{OptionsError, RunOptions};
pub use report::{NodeEnergy, NodeReport, RunReport, TxLatencyStats};
pub use scenario::{Protocol, Scenario, StopWhen};

// Re-exported so sweep authors can set batch policies and client
// workloads without depending on the protocol crates directly.
pub use eesmr_core::BatchPolicy;
pub use eesmr_workload::{ArrivalProcess, Injection, PayloadDist, Skew, Workload};
