//! Live per-run progress events.
//!
//! The worker that finished a run invokes the caller's callback, one
//! call at a time, so status lines are serialized (never interleaved) no
//! matter how many workers run. Event *order* follows completion and is
//! therefore not deterministic — only the
//! [`SuiteReport`](crate::SuiteReport) is.

use std::time::Duration;

/// One finished run, published by the worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Cell index in grid order.
    pub index: usize,
    /// Total number of cells in the grid.
    pub total: usize,
    /// Cell label.
    pub label: String,
    /// Which repeat of the cell this run was (0-based).
    pub repeat: usize,
    /// The run's one-line summary ([`RunReport::summary`](eesmr_sim::RunReport::summary)).
    pub summary: String,
    /// Wall-clock time the run took.
    pub wall: Duration,
}

impl ProgressEvent {
    /// A one-line status string, e.g. `[ 3/12] done EESMR n=6 k=3 … (0.41s)`.
    pub fn status_line(&self) -> String {
        let ProgressEvent { index, total, label, wall, .. } = self;
        format!("[{:>2}/{total}] done {label} ({:.2}s)", index + 1, wall.as_secs_f64())
    }
}

/// A ready-made callback printing [`ProgressEvent::status_line`]s to
/// stderr (stdout stays clean for the result tables).
pub fn stderr_status() -> impl Fn(ProgressEvent) + Sync + Send {
    |event| eprintln!("{}", event.status_line())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_are_informative() {
        let done = ProgressEvent {
            index: 11,
            total: 12,
            label: "cell".into(),
            repeat: 0,
            summary: String::new(),
            wall: Duration::from_millis(500),
        };
        assert_eq!(done.status_line(), "[12/12] done cell (0.50s)");
        let first = ProgressEvent { index: 2, repeat: 1, ..done };
        assert_eq!(first.status_line(), "[ 3/12] done cell (0.50s)");
    }
}
