//! The paper's evaluation as one table that is also its ledger.
//!
//! Every table and figure of the evaluation (§5: Tables 1–3, Figs. 1–3,
//! the §5.7 headline ratios) and every sweep beyond it is one [`Figure`]
//! row of [`FIGURES`]: a name, the section it reproduces, a body that runs
//! on the [`Driver`] it is handed and returns its [`Output`], and the
//! [`Claim`]s that output must show. The `figures <name|all>` binary
//! prints and writes each output and checks its claims;
//! `tests/paper_ledger.rs` checks them under `cargo test`. A paper shape
//! this reproduction does not match is a `Claim::deviation` row pinning
//! how it differs, never a looser band.
//!
//! An [`Output`] is one sink: each column is declared once, with its
//! printed header, its CSV name and its display precision, and each row
//! is written once. A cell holds the text its CSV gets; the printed table
//! and the claims read numbers back from it, which is exact because an
//! `f64`'s `Display` round-trips. A grid suite's per-cell summary,
//! `<name>.suite.csv`, is one more table ([`Table::suite`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

use eesmr_driver::{CellResult, Csv, Driver, SuiteReport};
use eesmr_energy::EnergyClass;
use eesmr_sim::{FaultSpec, RunReport};

/// A table row, one cell per value: `row![a, b]` is
/// `vec![a.to_string(), b.to_string()]`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

mod figures;

pub use figures::{traced_run, FIGURES};

/// One row of the figure table.
pub struct Figure {
    /// The name `figures <name>` selects it by.
    pub name: &'static str,
    /// The part of the paper it reproduces.
    pub section: &'static str,
    /// Runs the figure's sweeps on the given driver.
    pub run: fn(&Driver) -> Output,
    /// What its output must show.
    pub claims: &'static [Claim],
}

/// The figures `figures <arg>` runs: the whole table for `all`, else the
/// row named `arg`.
pub fn select(arg: &str) -> Option<&'static [Figure]> {
    if arg == "all" {
        return Some(FIGURES);
    }
    FIGURES.iter().position(|f| f.name == arg).map(|i| &FIGURES[i..=i])
}

impl Figure {
    /// A row of the table.
    pub(crate) const fn new(
        name: &'static str,
        section: &'static str,
        run: fn(&Driver) -> Output,
        claims: &'static [Claim],
    ) -> Figure {
        Figure { name, section, run, claims }
    }

    /// Each claim that applies at this size, with its verdict on `out`.
    /// Quick mode shrinks block targets, so only [`Claim::quick`] claims
    /// are checked there.
    pub fn verdicts(&self, out: &Output, quick: bool) -> Vec<(&Claim, Verdict)> {
        self.claims.iter().filter(|c| c.quick || !quick).map(|c| (c, (c.check)(out))).collect()
    }
}

/// How a claim measures an output.
pub type Check = fn(&Output) -> Verdict;

/// A paper claim, or a recorded deviation from one, checked on an output.
pub struct Claim {
    /// What is measured.
    pub name: &'static str,
    /// What the paper reports for it.
    pub paper: &'static str,
    /// The paper's shape does not hold here; the check pins how it fails.
    pub deviation: bool,
    /// Also checked on the quick (smoke-size) grid.
    pub quick: bool,
    /// Measures the claim.
    pub check: Check,
}

impl Claim {
    /// A claim that holds at every grid size.
    pub(crate) const fn holds(name: &'static str, paper: &'static str, check: Check) -> Claim {
        Claim { name, paper, deviation: false, quick: true, check }
    }

    /// A paper shape that does not hold: `check` passes while the output
    /// still differs from the paper the recorded way. Full size only.
    pub(crate) const fn deviation(name: &'static str, paper: &'static str, check: Check) -> Claim {
        Claim { name, paper, deviation: true, quick: false, check }
    }

    /// Checked on the full grid only: smoke-size runs are too short for it.
    pub(crate) const fn full_size(self) -> Claim {
        Claim { quick: false, ..self }
    }

    /// The ledger line for `verdict`.
    pub fn line(&self, figure: &str, v: &Verdict) -> String {
        let tag = match (v.holds, self.deviation) {
            (false, _) => "FAILS",
            (true, false) => "holds",
            (true, true) => "deviation",
        };
        format!(
            "[{tag}] {figure}: {}: measured {}, band {} (paper: {})",
            self.name, v.measured, v.band, self.paper
        )
    }

    /// The claim as a row of README's "Known deviations" table.
    pub fn readme_row(&self, v: &Verdict) -> String {
        let kind = if self.deviation { "deviation: " } else { "" };
        format!("| {} | {} | {} | {kind}{} |", self.name, self.paper, v.measured, v.band)
    }
}

/// What a claim measured, what passes, and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The claim held (for a deviation: the deviation is as recorded).
    pub holds: bool,
    /// What was measured.
    pub measured: String,
    /// What passes.
    pub band: String,
}

/// A verdict from its parts.
pub(crate) fn shape(holds: bool, measured: impl Into<String>, band: &str) -> Verdict {
    Verdict { holds, measured: measured.into(), band: band.into() }
}

/// A ratio within `tol` (relative) of the paper's `paper`.
pub(crate) fn near(ratio: f64, paper: f64, tol: f64) -> Verdict {
    let band = format!("{paper}× ± {:.0} %", tol * 100.0);
    shape((ratio / paper - 1.0).abs() <= tol, format!("{ratio:.2}×"), &band)
}

/// A ratio inside `[lo, hi]`.
pub(crate) fn ratio_within(ratio: f64, lo: f64, hi: f64) -> Verdict {
    shape((lo..=hi).contains(&ratio), format!("{ratio:.2}×"), &format!("{lo:.2}×–{hi:.2}×"))
}

/// A share (0..1) inside `[lo, hi]`, shown in percent.
pub(crate) fn share_within(share: f64, lo: f64, hi: f64) -> Verdict {
    let band = format!("{:.0}–{:.0} %", lo * 100.0, hi * 100.0);
    shape((lo..=hi).contains(&share), format!("{:.0} %", share * 100.0), &band)
}

/// `a` is below `b` at every point (`every` names the points).
pub(crate) fn below(a: &[f64], b: &[f64], every: &str) -> Verdict {
    let n = a.iter().zip(b).filter(|(a, b)| a < b).count();
    shape(n == a.len(), format!("{n} of {}", a.len()), &format!("every {every}"))
}

/// `v` rises strictly.
pub(crate) fn rises(v: &[f64]) -> Verdict {
    shape(rising(v), format!("{:.1} → {:.1}", v[0], v[v.len() - 1]), "rising")
}

/// Strictly increasing.
pub(crate) fn rising(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

/// Strictly decreasing.
pub(crate) fn falling(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] > w[1])
}

/// A cell as a number (`NaN` when it is not one).
pub(crate) fn num(cell: &str) -> f64 {
    cell.parse().unwrap_or(f64::NAN)
}

/// The mean of `values` (`None` when there are none).
pub(crate) fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (count, sum) = values.fold((0usize, 0.0), |(count, sum), v| (count + 1, sum + v));
    (count > 0).then(|| sum / count as f64)
}

/// Everything one figure produced, in print order.
#[derive(Default)]
pub struct Output {
    /// Tables and lines of text, in print order.
    pub(crate) parts: Vec<Part>,
}

/// A piece of a figure's printed output.
pub(crate) enum Part {
    /// A table (printed, written, both, or kept for the claims only).
    Table(Table),
    /// A line of text.
    Note(String),
}

impl Output {
    /// An output holding `table`.
    pub(crate) fn of(table: Table) -> Output {
        Output { parts: vec![Part::Table(table)] }
    }

    /// Appends a table.
    pub(crate) fn add(&mut self, table: Table) {
        self.parts.push(Part::Table(table));
    }

    /// Appends a line of text.
    pub(crate) fn note(&mut self, line: impl Into<String>) {
        self.parts.push(Part::Note(line.into()));
    }

    /// The table named `name`; panics if there is none (a ledger bug).
    pub fn table(&self, name: &str) -> &Table {
        let table = self.parts.iter().find_map(|p| match p {
            Part::Table(t) if t.name == name => Some(t),
            _ => None,
        });
        table.unwrap_or_else(|| panic!("no table {name:?} in this output"))
    }

    /// Column `key` of table `table`.
    pub(crate) fn col(&self, table: &str, key: &str) -> Vec<f64> {
        self.table(table).col(key)
    }

    /// Prints every part and writes every CSV under `dir`, saying where.
    pub fn emit(&self, dir: &Path) {
        for part in &self.parts {
            match part {
                Part::Table(table) => table.emit(dir),
                Part::Note(line) => println!("{line}"),
            }
        }
    }
}

/// One column, declared once for the printed table and the CSV.
#[derive(Debug, Clone, Default)]
pub(crate) struct Column {
    /// Printed header (`None`: not printed).
    pub(crate) head: Option<String>,
    /// CSV header and the name claims read it by (`None`: not written).
    pub(crate) key: Option<String>,
    /// Decimal places in the printed table (`None`: as in the CSV).
    pub(crate) decimals: Option<usize>,
    /// Appended to every printed cell.
    pub(crate) unit: &'static str,
}

/// A column printed under `head` and written as `key`.
pub(crate) fn col(head: &str, key: &str) -> Column {
    Column { head: Some(head.to_string()), ..data(key) }
}

/// A column in the printed table only.
pub(crate) fn shown(head: &str) -> Column {
    Column { head: Some(head.to_string()), ..Column::default() }
}

/// A column in the CSV (and the claims) only.
pub(crate) fn data(key: &str) -> Column {
    Column { key: Some(key.to_string()), ..Column::default() }
}

impl Column {
    /// Prints with `decimals` places.
    pub(crate) fn dp(self, decimals: usize) -> Column {
        Column { decimals: Some(decimals), ..self }
    }

    /// Prints with `unit` appended.
    pub(crate) fn unit(self, unit: &'static str) -> Column {
        Column { unit, ..self }
    }

    /// A cell as printed: `-` when empty, else rounded and with its unit.
    fn show(&self, cell: &str) -> String {
        match (cell, self.decimals) {
            ("", _) => "-".into(),
            (_, Some(d)) => format!("{:.d$}{}", num(cell), self.unit),
            _ => format!("{cell}{}", self.unit),
        }
    }
}

/// A table: printed when it has a title, written to `<name>.csv` when
/// `csv` is set, else kept for the claims only.
#[derive(Default)]
pub struct Table {
    /// Names the table for the claims and the CSV file.
    pub(crate) name: String,
    /// Printed heading.
    pub(crate) title: Option<String>,
    /// Written to `<name>.csv`.
    pub(crate) csv: bool,
    /// The columns, in order.
    pub(crate) columns: Vec<Column>,
    /// The rows, one cell per column.
    pub rows: Vec<Vec<String>>,
    /// Which rows the printed table shows (`None`: all; the CSV gets
    /// every row).
    pub(crate) print_if: Option<fn(&[String]) -> bool>,
}

impl Table {
    /// A table printed under `title` and written to `<name>.csv`.
    pub(crate) fn new(name: &str, title: &str) -> Table {
        Table { title: Some(title.to_string()), ..Table::series(name) }
    }

    /// A table written to `<name>.csv` but not printed.
    pub(crate) fn series(name: &str) -> Table {
        Table { csv: true, ..Table::ledger(name) }
    }

    /// A table kept for the claims only.
    pub(crate) fn ledger(name: &str) -> Table {
        Table { name: name.to_string(), ..Table::default() }
    }

    /// A grid suite's per-cell summary, written to `<name>.suite.csv`: a
    /// row per cell, its columns declared once, in `suite_row`.
    pub fn suite(suite: &SuiteReport) -> Table {
        let rows: Vec<_> = suite.cells.iter().map(suite_row).collect();
        let keys = rows.first().map_or_else(Vec::new, |r| r.iter().map(|(k, _)| data(k)).collect());
        let mut table = Table::series(&format!("{}.suite", suite.name)).cols(keys);
        table.extend(rows.into_iter().map(|r| r.into_iter().map(|(_, v)| v).collect()).collect());
        table
    }

    /// Not written.
    pub(crate) fn no_csv(self) -> Table {
        Table { csv: false, ..self }
    }

    /// With these columns.
    pub(crate) fn cols(self, columns: Vec<Column>) -> Table {
        Table { columns, ..self }
    }

    /// The printed table shows only the rows `keep` accepts.
    pub(crate) fn print_only(self, keep: fn(&[String]) -> bool) -> Table {
        Table { print_if: Some(keep), ..self }
    }

    /// Appends a row.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "{}: one cell per column", self.name);
        self.rows.push(cells);
    }

    /// Appends rows.
    pub(crate) fn extend(&mut self, rows: Vec<Vec<String>>) {
        rows.into_iter().for_each(|row| self.row(row));
    }

    fn index(&self, key: &str) -> usize {
        let i = self.columns.iter().position(|c| c.key.as_deref() == Some(key));
        i.unwrap_or_else(|| panic!("{}: no column {key:?}", self.name))
    }

    /// Column `key`, top to bottom, as numbers.
    pub fn col(&self, key: &str) -> Vec<f64> {
        let i = self.index(key);
        self.rows.iter().map(|r| num(&r[i])).collect()
    }

    /// Column `ys` over the rows whose column `x` reads `at`.
    pub fn col_where(&self, ys: &str, x: &str, at: impl ToString) -> Vec<f64> {
        let (xi, yi, at) = (self.index(x), self.index(ys), at.to_string());
        self.rows.iter().filter(|r| r[xi] == at).map(|r| num(&r[yi])).collect()
    }

    /// The distinct cells of column `key`, in first-seen order.
    pub(crate) fn distinct(&self, key: &str) -> Vec<String> {
        let i = self.index(key);
        let mut seen: Vec<String> = Vec::new();
        for row in &self.rows {
            if !seen.contains(&row[i]) {
                seen.push(row[i].clone());
            }
        }
        seen
    }

    /// The printed headers and cells.
    pub(crate) fn printed(&self) -> (Vec<&str>, Vec<Vec<String>>) {
        let heads = self.columns.iter().filter_map(|c| c.head.as_deref()).collect();
        let rows = self.rows.iter().filter(|r| self.print_if.is_none_or(|keep| keep(r)));
        let show = |r: &Vec<String>| {
            let cells = r.iter().zip(&self.columns).filter(|(_, c)| c.head.is_some());
            cells.map(|(cell, c)| c.show(cell)).collect()
        };
        (heads, rows.map(show).collect())
    }

    /// Prints the table if it has a title, and writes its CSV under `dir`
    /// if it has one.
    pub(crate) fn emit(&self, dir: &Path) {
        if let Some(title) = &self.title {
            let (heads, rows) = self.printed();
            print_table(title, &heads, &rows);
        }
        if !self.csv {
            return;
        }
        let keys: Vec<&str> = self.columns.iter().filter_map(|c| c.key.as_deref()).collect();
        let mut csv = Csv::create(dir, &self.name, &keys);
        for row in &self.rows {
            let cells = row.iter().zip(&self.columns).filter(|(_, c)| c.key.is_some());
            csv.row(&cells.map(|(cell, _)| cell.clone()).collect::<Vec<_>>());
        }
        println!("wrote {}", csv.path().display());
    }
}

/// One cell's row of the suite table, each column's name next to its
/// value: the cell's axes, its repeats, the means across them (empty where
/// no repeat measured one), energy per block's min and max, and the mean
/// energy of each [`EnergyClass`].
fn suite_row(cell: &CellResult) -> Vec<(String, String)> {
    let runs = &cell.runs;
    let measured = |f: &dyn Fn(&RunReport) -> Option<f64>| {
        mean(runs.iter().filter_map(f)).map_or_else(String::new, |m| m.to_string())
    };
    let each = |f: &dyn Fn(&RunReport) -> f64| measured(&|r| Some(f(r)));
    let energy = runs.iter().map(RunReport::energy_per_block_mj);
    let (min, max) =
        (energy.clone().fold(f64::INFINITY, f64::min), energy.fold(f64::NEG_INFINITY, f64::max));
    let s = &cell.scenario;
    let columns = [
        ("label", cell.label.clone()),
        ("protocol", cell.report().protocol.to_string()),
        ("n", s.n.to_string()),
        ("k", s.k.to_string()),
        ("payload_bytes", s.payload_bytes.to_string()),
        ("batch_policy", s.effective_batch_policy().label()),
        ("offered_load", s.offered_load.to_string()),
        ("workload", s.workload.map_or_else(|| "none".into(), |w| w.label())),
        ("fault", s.fault_spec.unwrap_or(FaultSpec::None).label().to_string()),
        ("scheme", s.scheme.name().to_string()),
        ("seed", s.seed.to_string()),
        ("repeats", runs.len().to_string()),
        ("committed_height", each(&|r| r.committed_height() as f64)),
        ("view_changes", each(&|r| r.view_changes() as f64)),
        ("energy_per_block_mj_mean", each(&RunReport::energy_per_block_mj)),
        ("energy_per_block_mj_min", min.to_string()),
        ("energy_per_block_mj_max", max.to_string()),
        ("total_energy_mj_mean", each(&RunReport::total_correct_energy_mj)),
        (
            "commit_latency_us_mean",
            measured(&|r| Some(r.mean_commit_latency()?.as_micros() as f64)),
        ),
        ("tx_latency_p50_us_mean", measured(&|r| Some(r.tx_latency_stats()?.p50_us as f64))),
        ("tx_latency_p99_us_mean", measured(&|r| Some(r.tx_latency_stats()?.p99_us as f64))),
        ("peak_backlog_mean", each(&|r| r.peak_backlog() as f64)),
        ("mean_batch_fill_pct", measured(&RunReport::mean_batch_fill_pct)),
        ("forward_retries_mean", each(&|r| r.forward_retries() as f64)),
        ("trace_dropped_mean", each(&|r| r.trace_dropped_total() as f64)),
    ];
    let classes = EnergyClass::ALL.iter().enumerate().map(|(i, class)| {
        let value = each(&|r| r.energy_by_class_mj()[i]);
        (format!("energy_{}_mj_mean", class.as_str()), value)
    });
    columns.into_iter().map(|(key, value)| (key.to_string(), value)).chain(classes).collect()
}

/// Prints an aligned ASCII table.
pub(crate) fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line: Vec<String> = headers.iter().zip(&widths).map(|(h, w)| format!("{h:<w$}")).collect();
    println!("{}", line.join("  "));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        let line: Vec<String> = row.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
        println!("{}", line.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &'static str) -> Table {
        let cols =
            vec![col("Size", "b").unit(" B"), col("mJ", "mj").dp(1), shown("x").dp(2), data("us")];
        let mut t = Table::new(name, "t").cols(cols).print_only(|row| num(&row[0]) < 100.0);
        t.row(row![25, 1.04999, 2.5, 7]);
        t.row(row![400, 3.0, 1.0, ""]);
        t
    }

    #[test]
    fn csv_writes_rows() {
        let dir = eesmr_driver::out_dir(None);
        sample("selftest").emit(&dir);
        let content = std::fs::read_to_string(dir.join("selftest.csv")).unwrap();
        assert_eq!(content, "b,mj,us\n25,1.04999,7\n400,3,\n");
    }

    #[test]
    fn suite_table_writes_the_suite_csv_columns_in_order() {
        let scenario = eesmr_sim::Scenario::new(eesmr_sim::Protocol::Eesmr, 4, 2)
            .stop(eesmr_sim::StopWhen::Blocks(2));
        let runs = vec![scenario.clone().run(), scenario.clone().seed(7).run()];
        let cell = CellResult { label: "cell".into(), scenario, runs };
        let suite = SuiteReport { name: "suite_selftest".into(), cells: vec![cell] };
        let table = Table::suite(&suite);
        let dir = eesmr_driver::out_dir(None);
        table.emit(&dir);
        let content = std::fs::read_to_string(dir.join("suite_selftest.suite.csv")).unwrap();
        let header = "label,protocol,n,k,payload_bytes,batch_policy,offered_load,workload,fault,\
            scheme,seed,repeats,committed_height,view_changes,energy_per_block_mj_mean,\
            energy_per_block_mj_min,energy_per_block_mj_max,total_energy_mj_mean,\
            commit_latency_us_mean,tx_latency_p50_us_mean,tx_latency_p99_us_mean,\
            peak_backlog_mean,mean_batch_fill_pct,forward_retries_mean,trace_dropped_mean,\
            energy_send_mj_mean,energy_recv_scan_mj_mean,energy_recv_decode_mj_mean,\
            energy_dup_abandoned_mj_mean,energy_shared_scan_mj_mean,energy_sign_mj_mean,\
            energy_verify_mj_mean,energy_hash_mj_mean";
        assert_eq!(content.lines().next(), Some(header));
        assert_eq!(content.lines().count(), 2, "a row per cell");
        assert_eq!(table.col("repeats"), [2.0]);
        let energy = suite.cells[0].runs.iter().map(RunReport::energy_per_block_mj);
        let energy: Vec<f64> = energy.collect();
        let stat = |s: &str| table.col(&format!("energy_per_block_mj_{s}"))[0];
        assert_eq!(stat("mean"), (energy[0] + energy[1]) / 2.0);
        assert_eq!(
            [stat("min"), stat("max")],
            [energy[0].min(energy[1]), energy[0].max(energy[1])]
        );
        assert_eq!(table.distinct("tx_latency_p50_us_mean"), [""], "no repeat ran clients");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["x", "longer"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn emit_writes_csv_and_table_rows() {
        let table = sample("emit_selftest");
        let (heads, rows) = table.printed();
        assert_eq!(heads, ["Size", "mJ", "x"]);
        assert_eq!(rows, [["25 B", "1.0", "2.50"]], "the 400 B row is CSV-only");
        assert_eq!(table.col_where("mj", "b", 400), [3.0]);
        assert_eq!(table.distinct("us"), ["7", ""]);
        let mut out = Output::of(table);
        out.note("done");
        out.emit(&eesmr_driver::out_dir(None));
        assert_eq!(out.col("emit_selftest", "mj"), [1.04999, 3.0]);
        assert_eq!(near(3.44, 2.85, 0.25).band, "2.85× ± 25 %");
        assert!(near(3.56, 2.85, 0.25).holds && !near(3.57, 2.85, 0.25).holds);
    }
}
