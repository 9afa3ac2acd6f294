//! Structured suite reports: per-cell results, summary statistics across
//! repeats, and JSON/CSV sinks.

use std::path::{Path, PathBuf};

use eesmr_sim::{CellKey, RunReport};

use crate::sink::Csv;

/// Mean/min/max of one metric across a cell's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty slice of samples; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in samples {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        Some(Summary { mean: sum / samples.len() as f64, min, max })
    }
}

/// Summary statistics for one cell, across its repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Total correct-node energy per committed block, mJ.
    pub energy_per_block_mj: Summary,
    /// Total correct-node energy, mJ.
    pub total_correct_energy_mj: Summary,
    /// Mean commit latency in µs (`None` if no repeat measured one).
    pub commit_latency_us: Option<Summary>,
    /// Per-transaction end-to-end commit-latency p50, µs (`None` if no
    /// repeat measured workload transactions).
    pub tx_latency_p50_us: Option<Summary>,
    /// Per-transaction end-to-end commit-latency p99, µs.
    pub tx_latency_p99_us: Option<Summary>,
    /// View changes completed (max over correct nodes, per repeat).
    pub view_changes: Summary,
    /// Committed height (min over correct nodes, per repeat).
    pub committed_height: Summary,
    /// Peak pending-command backlog (max over correct nodes, per repeat).
    pub peak_backlog: Summary,
    /// Mean proposed-batch fill, percent of the policy max (`None` if no
    /// repeat proposed a batch).
    pub mean_batch_fill_pct: Option<Summary>,
    /// Forward-retry rescues (sum over correct nodes, per repeat).
    pub forward_retries: Summary,
    /// Trace events dropped at `Tracer` ring capacity (sum over nodes,
    /// per repeat; 0 when the suite ran untraced).
    pub trace_dropped: Summary,
    /// Correct-node energy per attribution class, mJ, in
    /// [`EnergyClass::ALL`](eesmr_energy::EnergyClass) order.
    pub energy_by_class_mj: [Summary; eesmr_energy::N_ENERGY_CLASS],
}

impl CellStats {
    /// Aggregates a cell's repeats (panics on an empty slice — the driver
    /// always runs at least one repeat per cell).
    pub fn from_runs(runs: &[RunReport]) -> CellStats {
        assert!(!runs.is_empty(), "a cell has at least one run");
        let collect = |f: &dyn Fn(&RunReport) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
        let latencies: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.mean_commit_latency().map(|d| d.as_micros() as f64))
            .collect();
        let tx_stats: Vec<_> = runs.iter().filter_map(|r| r.tx_latency_stats()).collect();
        let tx_p50: Vec<f64> = tx_stats.iter().map(|s| s.p50_us as f64).collect();
        let tx_p99: Vec<f64> = tx_stats.iter().map(|s| s.p99_us as f64).collect();
        let fills: Vec<f64> = runs.iter().filter_map(|r| r.mean_batch_fill_pct()).collect();
        let energy_by_class_mj =
            std::array::from_fn(|i| Summary::of(&collect(&|r| r.energy_by_class_mj()[i])).unwrap());
        CellStats {
            energy_per_block_mj: Summary::of(&collect(&|r| r.energy_per_block_mj())).unwrap(),
            total_correct_energy_mj: Summary::of(&collect(&|r| r.total_correct_energy_mj()))
                .unwrap(),
            commit_latency_us: Summary::of(&latencies),
            tx_latency_p50_us: Summary::of(&tx_p50),
            tx_latency_p99_us: Summary::of(&tx_p99),
            view_changes: Summary::of(&collect(&|r| r.view_changes() as f64)).unwrap(),
            committed_height: Summary::of(&collect(&|r| r.committed_height() as f64)).unwrap(),
            peak_backlog: Summary::of(&collect(&|r| r.peak_backlog() as f64)).unwrap(),
            mean_batch_fill_pct: Summary::of(&fills),
            forward_retries: Summary::of(&collect(&|r| r.forward_retries() as f64)).unwrap(),
            trace_dropped: Summary::of(&collect(&|r| r.trace_dropped_total() as f64)).unwrap(),
            energy_by_class_mj,
        }
    }
}

/// Everything one grid cell produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cell label (defaults to the scenario's [`label`](eesmr_sim::Scenario::label)).
    pub label: String,
    /// The cell's sweep coordinates.
    pub key: CellKey,
    /// One report per repeat, in repeat order.
    pub runs: Vec<RunReport>,
    /// Summary statistics across the repeats.
    pub stats: CellStats,
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
    /// Suite name (from the grid; used for sink file names).
    pub name: String,
    /// Per-cell results, in grid order.
    pub cells: Vec<CellResult>,
}

/// Where [`SuiteReport::write`] put the suite sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuitePaths {
    /// The per-cell summary CSV.
    pub csv: PathBuf,
    /// The structured JSON report.
    pub json: PathBuf,
}

impl SuiteReport {
    /// The first cell whose key satisfies `pred`. Keys are unique across
    /// a cartesian sweep but not necessarily across explicit scenarios
    /// (a [`CellKey`] omits fault plans and stop conditions) — look
    /// those up with [`by_label`](Self::by_label) instead.
    pub fn find(&self, pred: impl Fn(&CellKey) -> bool) -> Option<&CellResult> {
        self.cells.iter().find(|c| pred(&c.key))
    }

    /// The cell with the given label.
    pub fn by_label(&self, label: &str) -> Option<&CellResult> {
        self.cells.iter().find(|c| c.label == label)
    }

    /// First-repeat reports in grid order.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.cells.iter().map(CellResult::report)
    }

    /// Writes both sinks (`<name>.suite.csv` and `<name>.suite.json`)
    /// under `dir`.
    pub fn write(&self, dir: &Path) -> SuitePaths {
        SuitePaths { csv: self.write_csv(dir), json: self.write_json(dir) }
    }

    /// Writes the per-cell summary CSV (`<name>.suite.csv`) under `dir`,
    /// sharing the [`Csv`] writer with the figure tables.
    pub fn write_csv(&self, dir: &Path) -> PathBuf {
        let mut header = vec![
            "label",
            "protocol",
            "n",
            "k",
            "payload_bytes",
            "batch_policy",
            "offered_load",
            "workload",
            "fault",
            "scheme",
            "seed",
            "repeats",
            "committed_height",
            "view_changes",
            "energy_per_block_mj_mean",
            "energy_per_block_mj_min",
            "energy_per_block_mj_max",
            "total_energy_mj_mean",
            "commit_latency_us_mean",
            "tx_latency_p50_us_mean",
            "tx_latency_p99_us_mean",
            "peak_backlog_mean",
            "mean_batch_fill_pct",
            "forward_retries_mean",
            "trace_dropped_mean",
        ];
        let class_headers: Vec<String> = eesmr_energy::EnergyClass::ALL
            .iter()
            .map(|c| format!("energy_{}_mj_mean", c.as_str()))
            .collect();
        header.extend(class_headers.iter().map(String::as_str));
        let mut csv = Csv::create(dir, &format!("{}.suite", self.name), &header);
        for cell in &self.cells {
            let s = &cell.stats;
            let mut row: Vec<String> = vec![
                cell.label.clone(),
                cell.report().protocol.to_string(),
                cell.key.n.to_string(),
                cell.key.k.to_string(),
                cell.key.payload_bytes.to_string(),
                cell.key.batch.label(),
                cell.key.offered_load.to_string(),
                cell.key.workload.map_or_else(|| "none".into(), |w| w.label()),
                cell.key.fault.label().to_string(),
                cell.key.scheme.name().to_string(),
                cell.key.seed.to_string(),
                cell.runs.len().to_string(),
                s.committed_height.mean.to_string(),
                s.view_changes.mean.to_string(),
                s.energy_per_block_mj.mean.to_string(),
                s.energy_per_block_mj.min.to_string(),
                s.energy_per_block_mj.max.to_string(),
                s.total_correct_energy_mj.mean.to_string(),
                s.commit_latency_us.map_or_else(String::new, |l| l.mean.to_string()),
                s.tx_latency_p50_us.map_or_else(String::new, |l| l.mean.to_string()),
                s.tx_latency_p99_us.map_or_else(String::new, |l| l.mean.to_string()),
                s.peak_backlog.mean.to_string(),
                s.mean_batch_fill_pct.map_or_else(String::new, |l| l.mean.to_string()),
                s.forward_retries.mean.to_string(),
                s.trace_dropped.mean.to_string(),
            ];
            row.extend(s.energy_by_class_mj.iter().map(|c| c.mean.to_string()));
            csv.row(&row);
        }
        csv.path().clone()
    }

    /// Writes the structured JSON report (`<name>.suite.json`) under
    /// `dir`. Hand-rolled serialization — the workspace has no serde.
    pub fn write_json(&self, dir: &Path) -> PathBuf {
        let path = dir.join(format!("{}.suite.json", self.name));
        std::fs::write(&path, self.to_json()).expect("can write suite JSON");
        path
    }

    /// The suite as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": {},\n", json_string(&self.name)));
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let s = &cell.stats;
            out.push_str("    {");
            out.push_str(&format!("\"label\": {}, ", json_string(&cell.label)));
            out.push_str(&format!("\"protocol\": {}, ", json_string(cell.report().protocol)));
            out.push_str(&format!(
                "\"n\": {}, \"k\": {}, \"f\": {}, \"payload_bytes\": {}, ",
                cell.key.n,
                cell.key.k,
                cell.report().f,
                cell.key.payload_bytes
            ));
            out.push_str(&format!(
                "\"batch_policy\": {}, \"offered_load\": {}, \"workload\": {}, \"fault\": {}, \"scheme\": {}, \"seed\": {}, \"repeats\": {}, ",
                json_string(&cell.key.batch.label()),
                cell.key.offered_load,
                cell.key.workload.map_or_else(|| "null".into(), |w| json_string(&w.label())),
                json_string(cell.key.fault.label()),
                json_string(cell.key.scheme.name()),
                cell.key.seed,
                cell.runs.len()
            ));
            out.push_str(&format!(
                "\"committed_height\": {}, \"view_changes\": {}, ",
                json_f64(s.committed_height.mean),
                json_f64(s.view_changes.mean)
            ));
            out.push_str(&format!(
                "\"energy_per_block_mj\": {}, ",
                json_summary(&s.energy_per_block_mj)
            ));
            out.push_str(&format!(
                "\"total_correct_energy_mj\": {}, ",
                json_summary(&s.total_correct_energy_mj)
            ));
            out.push_str(&format!(
                "\"commit_latency_us\": {}, ",
                s.commit_latency_us.as_ref().map_or_else(|| "null".into(), json_summary)
            ));
            out.push_str(&format!(
                "\"tx_latency_p50_us\": {}, \"tx_latency_p99_us\": {}, ",
                s.tx_latency_p50_us.as_ref().map_or_else(|| "null".into(), json_summary),
                s.tx_latency_p99_us.as_ref().map_or_else(|| "null".into(), json_summary)
            ));
            out.push_str(&format!(
                "\"peak_backlog\": {}, \"mean_batch_fill_pct\": {}, \"forward_retries\": {}, \"trace_dropped\": {}, ",
                json_summary(&s.peak_backlog),
                s.mean_batch_fill_pct.as_ref().map_or_else(|| "null".into(), json_summary),
                json_summary(&s.forward_retries),
                json_summary(&s.trace_dropped)
            ));
            out.push_str("\"energy_by_class_mj\": {");
            for (ci, class) in eesmr_energy::EnergyClass::ALL.into_iter().enumerate() {
                if ci > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "\"{}\": {}",
                    class.as_str(),
                    json_f64(s.energy_by_class_mj[ci].mean)
                ));
            }
            out.push('}');
            out.push_str(if i + 1 < self.cells.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_summary(s: &Summary) -> String {
    format!(
        "{{\"mean\": {}, \"min\": {}, \"max\": {}}}",
        json_f64(s.mean),
        json_f64(s.min),
        json_f64(s.max)
    )
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_samples() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[2.0, 4.0, 9.0]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
