//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation: it prints a human-readable table to stdout and
//! writes a CSV series under the experiment output directory for
//! plotting. Scenario sweeps run through the parallel driver in
//! `eesmr-driver` (worker count via `EESMR_WORKERS`, smoke-test sizing
//! via `EESMR_QUICK=1`); this crate keeps the presentation layer — the
//! aligned-table printer and the [`Emit`] table+CSV sink the binaries
//! share. See README.md, "Known deviations from the paper", for the
//! paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

// The sinks live in `eesmr-driver` (its `SuiteReport` writes through
// them); re-exported here so the binaries and external callers keep the
// historical `eesmr_bench::{out_dir, Csv}` paths. `out_dir()` honors the
// `EESMR_OUT_DIR` override.
pub use eesmr_driver::sink::{out_dir, Csv};

/// Prints an aligned ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
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

/// The "print a table and write the CSV series" sink every binary ends
/// with, deduplicated: collect rows (display-formatted for the table,
/// raw for the CSV), then [`finish`](Emit::finish) prints the aligned
/// table, flushes the CSV, and reports where it was written.
pub struct Emit {
    title: String,
    table_headers: Vec<String>,
    rows: Vec<Vec<String>>,
    csv: Csv,
}

impl Emit {
    /// A sink titled `title`, writing `<csv_name>.csv` with `csv_headers`
    /// and printing a table with `table_headers`. The two header sets may
    /// differ: tables show formatted values, series keep full precision.
    pub fn new(title: &str, csv_name: &str, table_headers: &[&str], csv_headers: &[&str]) -> Emit {
        Emit {
            title: title.to_string(),
            table_headers: table_headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            csv: Csv::create(csv_name, csv_headers),
        }
    }

    /// A sink whose table and CSV share one header set.
    pub fn new_uniform(title: &str, csv_name: &str, headers: &[&str]) -> Emit {
        Emit::new(title, csv_name, headers, headers)
    }

    /// Appends a row with separate table and CSV cells.
    pub fn row(&mut self, table_cells: Vec<String>, csv_cells: Vec<String>) {
        self.rows.push(table_cells);
        self.csv.row(&csv_cells);
    }

    /// Appends one row to both the table and the CSV.
    pub fn row_uniform(&mut self, cells: Vec<String>) {
        self.csv.row(&cells);
        self.rows.push(cells);
    }

    /// Prints the table and a `wrote <path>` line; returns the CSV path.
    pub fn finish(self) -> PathBuf {
        let headers: Vec<&str> = self.table_headers.iter().map(String::as_str).collect();
        print_table(&self.title, &headers, &self.rows);
        let path = self.csv.path().clone();
        println!("wrote {}", path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writes_rows() {
        let mut csv = Csv::create("selftest", &["a", "b"]);
        csv.row(&["1".into(), "2".into()]);
        csv.rowd(&[&3, &4.5]);
        let content = std::fs::read_to_string(csv.path()).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4.5\n");
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table("t", &["x", "longer"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn emit_writes_csv_and_table_rows() {
        let mut emit = Emit::new("t", "emit_selftest", &["Col"], &["col_raw"]);
        emit.row(vec!["1.0".into()], vec!["1.0000001".into()]);
        let mut uniform = Emit::new_uniform("u", "emit_selftest_uniform", &["x", "y"]);
        uniform.row_uniform(vec!["3".into(), "4".into()]);
        let path = emit.finish();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "col_raw\n1.0000001\n");
        let content = std::fs::read_to_string(uniform.finish()).unwrap();
        assert_eq!(content, "x,y\n3,4\n");
    }
}
