//! [`ScenarioGrid`]: declarative sweeps over the paper's experiment axes.
//!
//! A grid is the cartesian product of the axes every figure in the
//! paper's evaluation varies — protocol, system size `n`, k-cast degree,
//! payload, batch policy, signature scheme, seed — plus any explicitly
//! built scenarios appended after the cartesian cells. Building a grid
//! is pure (no scenarios run until a
//! [`Driver`](crate::Driver) executes it), so construction is cheap to
//! test:
//!
//! ```
//! use eesmr_driver::ScenarioGrid;
//! use eesmr_sim::{BatchPolicy, Protocol, StopWhen};
//!
//! let grid = ScenarioGrid::named("policies")
//!     .nodes([6])
//!     .degrees([3])
//!     .batch_policies([
//!         BatchPolicy::Fixed(64),
//!         BatchPolicy::Adaptive { min: 4, max: 256, target_fill_pct: 80 },
//!     ])
//!     .stop(StopWhen::Blocks(5));
//! assert_eq!(grid.len(), 2);
//! let cells = grid.build();
//! assert!(cells[1].label.contains("batch=adaptive4..256@80%"), "{}", cells[1].label);
//! ```

use eesmr_crypto::SigScheme;
use eesmr_net::SimDuration;
use eesmr_sim::{BatchPolicy, FaultSpec, Protocol, Scenario, StopWhen, Workload};

/// One runnable cell of a grid: its position, display label, and the
/// fully-configured scenario.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Position in the grid's deterministic ordering (cartesian cells
    /// first, explicit scenarios after, both in declaration order).
    pub index: usize,
    /// Display label (defaults to [`Scenario::label`]).
    pub label: String,
    /// The scenario to run.
    pub scenario: Scenario,
}

/// A declarative sweep: the cartesian product of protocol × n × k ×
/// payload × batch-policy × workload × fault × scheme ×
/// seed axes, plus any explicitly-listed scenarios.
///
/// Axis defaults match [`Scenario::new`]: protocol `[Eesmr]`, payload
/// `[16]` bytes, batch policy `[Fixed(64)]`, scheme `[Rsa1024]`, seed
/// `[42]` — so a grid that only
/// sets `nodes` and `degrees` sweeps exactly what the hand-rolled figure
/// loops used to. Cells whose ring degree is invalid (`k < 1` or
/// `k ≥ n`) are skipped, mirroring the `if k >= n { continue }` guards
/// the per-figure loops needed.
///
/// ```
/// use eesmr_driver::ScenarioGrid;
/// use eesmr_sim::{Protocol, StopWhen};
///
/// let grid = ScenarioGrid::named("example")
///     .protocols([Protocol::Eesmr, Protocol::SyncHotStuff])
///     .nodes(4..=6)
///     .degrees([3])
///     .stop(StopWhen::Blocks(5));
/// // k=3 is a valid ring degree for every n here, so all 2×3 cells survive:
/// assert_eq!(grid.len(), 6);
/// assert!(grid.build()[0].label.contains("EESMR n=4"));
/// ```
#[derive(Default)]
pub struct ScenarioGrid {
    name: String,
    protocols: Vec<Protocol>,
    ns: Vec<usize>,
    ks: Vec<usize>,
    payloads: Vec<usize>,
    batch_policies: Vec<BatchPolicy>,
    workloads: Vec<Workload>,
    faults: Vec<FaultSpec>,
    schemes: Vec<SigScheme>,
    seeds: Vec<u64>,
    stop: Option<StopWhen>,
    #[allow(clippy::type_complexity)]
    configure: Option<Box<dyn Fn(Scenario) -> Scenario + Send + Sync>>,
    explicit: Vec<(String, Scenario)>,
}

impl std::fmt::Debug for ScenarioGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioGrid")
            .field("name", &self.name)
            .field("protocols", &self.protocols)
            .field("ns", &self.ns)
            .field("ks", &self.ks)
            .field("payloads", &self.payloads)
            .field("batch_policies", &self.batch_policies)
            .field("workloads", &self.workloads)
            .field("faults", &self.faults)
            .field("schemes", &self.schemes)
            .field("seeds", &self.seeds)
            .field("stop", &self.stop)
            .field("explicit", &self.explicit.len())
            .finish()
    }
}

impl ScenarioGrid {
    /// An empty grid with the given suite name (used for sink file names
    /// and progress lines).
    pub fn named(name: impl Into<String>) -> Self {
        ScenarioGrid {
            name: name.into(),
            protocols: vec![Protocol::Eesmr],
            payloads: vec![16],
            schemes: vec![SigScheme::Rsa1024],
            seeds: vec![42],
            ..Default::default()
        }
    }

    /// The suite name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the protocol axis.
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = Protocol>) -> Self {
        self.protocols = protocols.into_iter().collect();
        self
    }

    /// Sets the node-count axis.
    pub fn nodes(mut self, ns: impl IntoIterator<Item = usize>) -> Self {
        self.ns = ns.into_iter().collect();
        self
    }

    /// Sets the ring k-cast degree axis.
    pub fn degrees(mut self, ks: impl IntoIterator<Item = usize>) -> Self {
        self.ks = ks.into_iter().collect();
        self
    }

    /// Sets the payload-bytes axis.
    pub fn payloads(mut self, payloads: impl IntoIterator<Item = usize>) -> Self {
        self.payloads = payloads.into_iter().collect();
        self
    }

    /// Sets the batch-policy axis. When unset, every cell keeps its
    /// protocol's default policy (and its label stays unchanged).
    pub fn batch_policies(mut self, policies: impl IntoIterator<Item = BatchPolicy>) -> Self {
        self.batch_policies = policies.into_iter().collect();
        self
    }

    /// Sets the client-workload axis (arrival process × skew × payload ×
    /// injection; see `eesmr-workload`). When unset, every cell keeps the
    /// synthetic `offered_load` feed.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// Sets the fault axis: each cell runs under the canonical
    /// [`FaultSpec`] plan sized to its `(n, Δ)` (see `eesmr_sim::faults`).
    /// When unset, every cell runs honest (and its label stays
    /// unchanged).
    pub fn faults(mut self, faults: impl IntoIterator<Item = FaultSpec>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Sets the signature-scheme axis.
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = SigScheme>) -> Self {
        self.schemes = schemes.into_iter().collect();
        self
    }

    /// Sets the seed axis.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the stop condition applied to every cartesian cell.
    pub fn stop(mut self, stop: StopWhen) -> Self {
        self.stop = Some(stop);
        self
    }

    /// A per-cell hook applied after the axis values, for settings the
    /// axes don't cover (fault plans, streaming pacing, optimizations…).
    pub fn configure(mut self, f: impl Fn(Scenario) -> Scenario + Send + Sync + 'static) -> Self {
        self.configure = Some(Box::new(f));
        self
    }

    /// Appends one explicitly-built scenario (after all cartesian cells)
    /// under the given label. Explicit scenarios bypass the axes, the
    /// stop condition, and the `configure` hook.
    pub fn scenario(mut self, label: impl Into<String>, scenario: Scenario) -> Self {
        self.explicit.push((label.into(), scenario));
        self
    }

    /// Number of runnable cells (invalid-degree cells excluded).
    pub fn len(&self) -> usize {
        self.cartesian_len() + self.explicit.len()
    }

    /// Whether the grid has no runnable cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cartesian_len(&self) -> usize {
        let valid_nk = self
            .ns
            .iter()
            .map(|&n| self.ks.iter().filter(|&&k| k >= 1 && k < n).count())
            .sum::<usize>();
        valid_nk
            * self.protocols.len()
            * self.payloads.len()
            * self.batch_policies.len().max(1)
            * self.workloads.len().max(1)
            * self.faults.len().max(1)
            * self.schemes.len()
            * self.seeds.len()
    }

    /// Materializes the grid into its deterministic cell ordering:
    /// protocol-major cartesian cells (n, then k, then payload, batch
    /// policy, workload, fault, scheme, seed innermost),
    /// then the explicit scenarios in push order.
    pub fn build(&self) -> Vec<GridCell> {
        // An unset batch axis means "each protocol's default policy",
        // without marking the policy as explicitly chosen; an unset
        // workload axis keeps the synthetic feed; an unset fault axis
        // keeps every node honest.
        let batches: Vec<Option<BatchPolicy>> = if self.batch_policies.is_empty() {
            vec![None]
        } else {
            self.batch_policies.iter().copied().map(Some).collect()
        };
        let workloads: Vec<Option<Workload>> = if self.workloads.is_empty() {
            vec![None]
        } else {
            self.workloads.iter().copied().map(Some).collect()
        };
        let faults: Vec<Option<FaultSpec>> = if self.faults.is_empty() {
            vec![None]
        } else {
            self.faults.iter().copied().map(Some).collect()
        };
        let mut cells = Vec::with_capacity(self.len());
        for &protocol in &self.protocols {
            for &n in &self.ns {
                for &k in &self.ks {
                    if k < 1 || k >= n {
                        continue;
                    }
                    for &payload in &self.payloads {
                        for &batch in &batches {
                            for &workload in &workloads {
                                for &fault in &faults {
                                    for &scheme in &self.schemes {
                                        for &seed in &self.seeds {
                                            let mut s = Scenario::new(protocol, n, k)
                                                .payload(payload)
                                                .scheme(scheme)
                                                .seed(seed);
                                            if let Some(policy) = batch {
                                                s = s.batch_policy(policy);
                                            }
                                            if let Some(w) = workload {
                                                s = s.workload(w);
                                            }
                                            if let Some(spec) = fault {
                                                s = s.fault_spec(spec);
                                            }
                                            if let Some(stop) = self.stop {
                                                s = s.stop(stop);
                                            }
                                            if let Some(hook) = &self.configure {
                                                s = hook(s);
                                            }
                                            cells.push(GridCell {
                                                index: cells.len(),
                                                label: s.label(),
                                                scenario: s,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        for (label, scenario) in &self.explicit {
            cells.push(GridCell {
                index: cells.len(),
                label: label.clone(),
                scenario: scenario.clone(),
            });
        }
        cells
    }
}

/// Shrinks a scenario to smoke-test size for quick mode: block targets
/// clamp to 3, view targets to 2, elapsed spans to 25 virtual ms.
pub(crate) fn quicken(scenario: &Scenario) -> Scenario {
    let mut quick = scenario.clone();
    quick.stop = match scenario.stop {
        StopWhen::Blocks(b) => StopWhen::Blocks(b.min(3)),
        StopWhen::ViewReached(v) => StopWhen::ViewReached(v.min(2)),
        StopWhen::Elapsed(d) => StopWhen::Elapsed(d.min(SimDuration::from_millis(25))),
    };
    quick
}

#[cfg(test)]
mod tests {
    use super::*;
    use eesmr_sim::FaultPlan;

    #[test]
    fn cartesian_product_covers_all_axes() {
        let grid = ScenarioGrid::named("t")
            .protocols([Protocol::Eesmr, Protocol::OptSync])
            .nodes([5, 6])
            .degrees([2, 3])
            .payloads([16, 64])
            .seeds([1, 2, 3])
            .stop(StopWhen::Blocks(4));
        assert_eq!(grid.len(), 2 * 2 * 2 * 2 * 3);
        let cells = grid.build();
        assert_eq!(cells.len(), grid.len());
        // Indices are dense and ordered.
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.scenario.stop, StopWhen::Blocks(4));
        }
        // Protocol is the outermost axis.
        assert_eq!(cells[0].scenario.protocol, Protocol::Eesmr);
        assert_eq!(cells.last().unwrap().scenario.protocol, Protocol::OptSync);
    }

    #[test]
    fn fault_axis_multiplies_cells_and_sets_the_spec() {
        let grid = ScenarioGrid::named("t")
            .nodes([6])
            .degrees([2])
            .faults([FaultSpec::None, FaultSpec::Withhold, FaultSpec::CrashRecovery])
            .stop(StopWhen::Blocks(2));
        assert_eq!(grid.len(), 3);
        let cells = grid.build();
        assert_eq!(cells[0].scenario.fault_spec, Some(FaultSpec::None));
        assert_eq!(cells[1].scenario.fault_spec, Some(FaultSpec::Withhold));
        assert!(cells[1].label.contains("fault=withhold"), "{}", cells[1].label);
        assert_eq!(cells[2].scenario.fault_spec, Some(FaultSpec::CrashRecovery));
        // An unset axis leaves every cell honest and unlabeled.
        let plain = ScenarioGrid::named("t").nodes([6]).degrees([2]).stop(StopWhen::Blocks(2));
        assert_eq!(plain.build()[0].scenario.fault_spec, None);
    }

    #[test]
    fn invalid_degrees_are_skipped() {
        let grid = ScenarioGrid::named("t").nodes([4, 6]).degrees([3, 5]).stop(StopWhen::Blocks(1));
        // n=4: only k=3 valid; n=6: both valid.
        assert_eq!(grid.len(), 3);
        assert_eq!(grid.build().len(), 3);
    }

    #[test]
    fn explicit_scenarios_follow_the_cartesian_cells() {
        let grid =
            ScenarioGrid::named("t").nodes([5]).degrees([2]).stop(StopWhen::Blocks(2)).scenario(
                "vc",
                Scenario::new(Protocol::Eesmr, 5, 2)
                    .faults(FaultPlan::silent_leader())
                    .stop(StopWhen::ViewReached(2)),
            );
        let cells = grid.build();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[1].label, "vc");
        assert_eq!(cells[1].index, 1);
    }

    #[test]
    fn configure_hook_applies_to_every_cartesian_cell() {
        let grid = ScenarioGrid::named("t")
            .nodes([6])
            .degrees([2])
            .stop(StopWhen::Blocks(2))
            .configure(|s| s.fault_bound(1).streaming());
        let cells = grid.build();
        assert_eq!(cells[0].scenario.fault_bound, Some(1));
        assert!(cells[0].scenario.streaming);
    }

    #[test]
    fn quicken_clamps_stop_conditions() {
        let s = Scenario::new(Protocol::Eesmr, 5, 2).stop(StopWhen::Blocks(50));
        assert_eq!(quicken(&s).stop, StopWhen::Blocks(3));
        let s = s.stop(StopWhen::Blocks(2));
        assert_eq!(quicken(&s).stop, StopWhen::Blocks(2), "already-small targets keep their size");
        let s = s.stop(StopWhen::ViewReached(9));
        assert_eq!(quicken(&s).stop, StopWhen::ViewReached(2));
        let s = s.stop(StopWhen::Elapsed(SimDuration::from_millis(500)));
        assert_eq!(quicken(&s).stop, StopWhen::Elapsed(SimDuration::from_millis(25)));
    }
}
