//! Experiment output sinks: the output directory and the CSV series
//! writer shared by the suite reports and the `eesmr-bench` figure
//! tables.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The directory experiment CSVs and suite reports are written to: `dir`,
/// else `target/experiments/` at the workspace root. Created if missing.
pub fn out_dir(dir: Option<&Path>) -> PathBuf {
    let dir = dir.map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments"),
        Path::to_path_buf,
    );
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
    /// Creates `<dir>/<name>.csv` with the given header.
    pub fn create(dir: &Path, name: &str, header: &[&str]) -> Csv {
        let path = dir.join(format!("{name}.csv"));
        let mut file = File::create(&path).expect("can create CSV");
        writeln!(file, "{}", header.join(",")).expect("can write header");
        Csv { file, path }
    }

    /// Appends one row.
    pub fn row(&mut self, values: &[String]) {
        writeln!(self.file, "{}", values.join(",")).expect("can write row");
    }

    /// Where the series was written.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writes_rows_into_the_directory_it_is_given() {
        let dir = out_dir(Some(&out_dir(None).join("sink_selftest")));
        assert!(dir.is_dir(), "out_dir creates the directory");
        let mut csv = Csv::create(&dir, "driver_sink_selftest", &["a", "b"]);
        csv.row(&["1".into(), "2".into()]);
        assert_eq!(csv.path(), &dir.join("driver_sink_selftest.csv"));
        let content = std::fs::read_to_string(csv.path()).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }
}
