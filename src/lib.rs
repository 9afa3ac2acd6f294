//! Umbrella crate for the EESMR reproduction: one `use eesmr::prelude::*`
//! pulls in the protocol, the deterministic simulator, the energy model,
//! the k-cast topology builders, and the experiment harness. See README.md
//! for the crate map and how to regenerate each paper table and figure.
//!
//! The workspace layers, bottom to top:
//!
//! | crate | re-exported as | provides |
//! |-------|----------------|----------|
//! | `eesmr-crypto` | [`crypto`] | SHA-256, HMAC, simulated signatures, scheme energy catalogue |
//! | `eesmr-hypergraph` | [`hypergraph`] | directed hypergraphs of k-casts, connectivity analysis |
//! | `eesmr-energy` | [`energy`] | media costs, BLE reliability, meters, closed-form ψ |
//! | `eesmr-metrics` | [`metrics`] | deterministic time-series telemetry, Prometheus/JSON export, self-profiling |
//! | `eesmr-net` | [`net`] | deterministic discrete-event simulator, multi-process transport, wire codec |
//! | `eesmr-core` | [`core_protocol`] | the EESMR protocol itself |
//! | `eesmr-baselines` | [`baselines`] | Sync HotStuff, OptSync, trusted-node baseline |
//! | `eesmr-workload` | [`workload`] | deterministic client workloads: arrival processes, skew, open/closed loop |
//! | `eesmr-sim` | [`sim`] | scenario harness and run reports |
//! | `eesmr-driver` | [`driver`] | parallel multi-scenario driver: grids, worker pool, suite reports |
//! | `eesmr-bench` | [`mod@bench`] | the figure table and paper ledger: every table/figure with the claims it must show |
//!
//! # Quick example
//!
//! Run EESMR and Sync HotStuff on the same 6-node testbed and compare the
//! energy each spends per committed block:
//!
//! ```
//! use eesmr::prelude::*;
//!
//! let eesmr = Scenario::new(Protocol::Eesmr, 6, 3).stop(StopWhen::Blocks(5)).run();
//! let synchs = Scenario::new(Protocol::SyncHotStuff, 6, 3).stop(StopWhen::Blocks(5)).run();
//! assert!(eesmr.committed_height() >= 5);
//! assert!(eesmr.energy_per_block_mj() < synchs.energy_per_block_mj());
//! ```
//!
//! For driving the simulator directly (custom topologies, fault
//! injection, per-node meters) see the `quickstart` example and the
//! [`net::SimNet`] docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eesmr_baselines as baselines;
pub use eesmr_bench as bench;
pub use eesmr_core as core_protocol;
pub use eesmr_crypto as crypto;
pub use eesmr_driver as driver;
pub use eesmr_energy as energy;
pub use eesmr_hypergraph as hypergraph;
pub use eesmr_metrics as metrics;
pub use eesmr_net as net;
pub use eesmr_sim as sim;
pub use eesmr_workload as workload;

pub mod prelude {
    //! The one-line import for experiments: scenario harness, protocol
    //! config, simulator, topologies, and energy meters.

    pub use eesmr_core::{build_replicas, Config, FaultMode, Pacing, Replica};
    pub use eesmr_crypto::{Digest, Hashable, KeyStore, SigScheme};
    pub use eesmr_driver::{Driver, DriverConfig, ScenarioGrid, SuiteReport};
    pub use eesmr_energy::psi::{PsiParams, PsiProtocol};
    pub use eesmr_energy::{
        BleKcastModel, EnergyAttribution, EnergyCategory, EnergyClass, EnergyMeter, EnergyPhase,
        FeasibleRegion, Medium,
    };
    pub use eesmr_hypergraph::topology::{ring_kcast, star};
    pub use eesmr_hypergraph::Hypergraph;
    pub use eesmr_metrics::{MetricsConfig, MetricsSet};
    pub use eesmr_net::{NetConfig, SimDuration, SimNet, SimTime};
    pub use eesmr_sim::{
        BatchPolicy, FaultPlan, NodeEnergy, NodeReport, Protocol, RunReport, Scenario, StopWhen,
        TxLatencyStats,
    };
    pub use eesmr_workload::{ArrivalProcess, Injection, PayloadDist, Skew, Workload};
}
