//! `run_proc` leaves nothing behind in the temp directory.
//!
//! A UDS run keeps its socket files in `$TMPDIR/eesmr-proc-<pid>-<n>/`.
//! That directory must be gone when `run_proc` returns — after a
//! successful run and after one that fails once the directory exists.
//! One test in a file of its own: the check scans for this process's
//! prefix, so no other `run_proc` may be in flight in the same process.

use std::path::Path;

use eesmr_net::ProcTransport;
use eesmr_sim::{Protocol, Scenario, StopWhen};

fn leftover_socket_dirs() -> Vec<String> {
    let prefix = format!("eesmr-proc-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

#[test]
fn run_proc_removes_its_socket_directory() {
    let scenario = Scenario::new(Protocol::Eesmr, 4, 2).stop(StopWhen::Blocks(2));

    let replica = Path::new(env!("CARGO_BIN_EXE_proc_replica"));
    let report = scenario.run_proc(ProcTransport::Uds, replica).expect("the run succeeds");
    assert!(report.committed_height() >= 2);
    assert_eq!(leftover_socket_dirs(), Vec::<String>::new(), "after a successful run");

    // A file that exists but cannot be executed: the first spawn fails,
    // after the socket directory has been created.
    let not_a_binary = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    scenario.run_proc(ProcTransport::Uds, &not_a_binary).expect_err("spawning Cargo.toml fails");
    assert_eq!(leftover_socket_dirs(), Vec::<String>::new(), "after a failed run");
}
