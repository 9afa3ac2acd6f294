//! One replica process of a ProcNet run (see `eesmr_sim::proc`).
//!
//! `Scenario::run_proc` spawns `n` copies of this binary. Each parses its
//! command line back into the scenario cell and hands it to
//! `Scenario::run_child`, which rebuilds the cell with the builder the
//! simulator uses, checks in with the coordinator at `--control`, and on
//! its start command meshes this node's replica with its peers over TCP
//! or Unix domain sockets.

use eesmr_sim::proc::parse_child_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((scenario, delta, opts)) = parse_child_args(&args) else {
        eprintln!("proc_replica: bad arguments: {args:?}");
        std::process::exit(2);
    };
    if let Err(err) = scenario.run_child(delta, opts) {
        eprintln!("proc_replica: {err}");
        std::process::exit(1);
    }
}
