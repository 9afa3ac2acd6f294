//! Structured suite reports: each grid cell's run reports, in grid order.
//! What a suite writes to disk is `eesmr-bench`'s business: its suite
//! table summarises these cells into `<name>.suite.csv`.

use eesmr_sim::{RunReport, Scenario};

/// Everything one grid cell produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cell label (defaults to the scenario's [`label`](Scenario::label)).
    pub label: String,
    /// The cell's scenario, as the grid built it (repeat 0's seed).
    pub scenario: Scenario,
    /// One report per repeat, in repeat order.
    pub runs: Vec<RunReport>,
}

impl CellResult {
    /// The first repeat's report (the one a `repeats = 1` suite is
    /// entirely described by).
    pub fn report(&self) -> &RunReport {
        &self.runs[0]
    }
}

/// The structured outcome of running a whole grid: per-cell results in
/// deterministic grid order, independent of worker scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Suite name (from the grid; names the suite's files).
    pub name: String,
    /// Per-cell results, in grid order.
    pub cells: Vec<CellResult>,
}

impl SuiteReport {
    /// The first cell whose scenario satisfies `pred`.
    pub fn find(&self, pred: impl Fn(&Scenario) -> bool) -> Option<&CellResult> {
        self.cells.iter().find(|c| pred(&c.scenario))
    }

    /// The cell with the given label.
    pub fn by_label(&self, label: &str) -> Option<&CellResult> {
        self.cells.iter().find(|c| c.label == label)
    }
}
