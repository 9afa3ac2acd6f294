//! Experiment output sinks: the output directory and the CSV series
//! writer shared by the suite reports and the `eesmr-bench` figure
//! tables.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::PathBuf;

/// Environment variable overriding [`out_dir`].
pub const ENV_OUT_DIR: &str = "EESMR_OUT_DIR";

/// Directory experiment CSVs and suite reports are written to.
/// `$EESMR_OUT_DIR` if set, else `target/experiments/` at the workspace
/// root. Created on first use.
pub fn out_dir() -> PathBuf {
    let dir = match std::env::var_os(ENV_OUT_DIR) {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments"),
    };
    fs::create_dir_all(&dir).expect("can create the experiment output directory");
    // Resolve `crates/driver/../..` so the `wrote <path>` lines and the
    // returned paths are clean absolute paths.
    fs::canonicalize(&dir).unwrap_or(dir)
}

/// A CSV series writer.
pub struct Csv {
    file: File,
    path: PathBuf,
}

impl Csv {
    /// Creates `<out_dir>/<name>.csv` with the given header.
    pub fn create(name: &str, header: &[&str]) -> Csv {
        let path = out_dir().join(format!("{name}.csv"));
        let mut file = File::create(&path).expect("can create CSV");
        writeln!(file, "{}", header.join(",")).expect("can write header");
        Csv { file, path }
    }

    /// Appends one row.
    pub fn row(&mut self, values: &[String]) {
        writeln!(self.file, "{}", values.join(",")).expect("can write row");
    }

    /// Convenience for mixed display values.
    pub fn rowd(&mut self, values: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.row(&cells);
    }

    /// Where the series was written.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test (not two) so the env override cannot race the default-path
    // check: tests in one binary share the process environment.
    #[test]
    fn csv_writes_rows_and_out_dir_honors_the_env_override() {
        let mut csv = Csv::create("driver_sink_selftest", &["a", "b"]);
        csv.row(&["1".into(), "2".into()]);
        csv.rowd(&[&3, &4.5]);
        let content = std::fs::read_to_string(csv.path()).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4.5\n");

        let default_dir = out_dir();
        let override_dir = default_dir.join("override_selftest");
        std::env::set_var(ENV_OUT_DIR, &override_dir);
        let redirected = out_dir();
        std::env::remove_var(ENV_OUT_DIR);
        assert_eq!(redirected, override_dir);
        assert!(redirected.is_dir(), "out_dir creates the override directory");
        assert_eq!(out_dir(), default_dir, "clearing the override restores the default");
    }
}
