//! EESMR vs Sync HotStuff as real OS processes.
//!
//! Runs the headline comparison cell twice per protocol: once on the
//! deterministic simulator (the paper's energy numbers) and once as a
//! mesh of `proc_replica` child processes over Unix domain sockets or TCP
//! (the honest wall-clock numbers — real kernel scheduling, real sockets,
//! real bytes — and the mesh's own energy, priced by the same channel
//! model). Usage:
//!
//! ```text
//! cargo run --release -p eesmr-sim --bin proc_headline [-- uds|tcp]
//! ```
//!
//! `EESMR_QUICK=1` shrinks the cell for CI smoke runs.

use std::io;
use std::path::PathBuf;

use eesmr_net::ProcTransport;
use eesmr_sim::{Protocol, RunOptions, RunReport, Scenario, StopWhen};

/// The sibling `proc_replica` binary in the same target directory.
fn replica_binary() -> io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    let dir = me
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "current_exe has no parent"))?;
    Ok(dir.join("proc_replica"))
}

fn main() -> io::Result<()> {
    let transport = match std::env::args().nth(1).as_deref() {
        None => ProcTransport::Uds,
        Some(flag) => ProcTransport::parse(flag).unwrap_or_else(|| {
            eprintln!("proc_headline: unknown transport {flag:?} (expected uds|tcp)");
            std::process::exit(2);
        }),
    };
    let options = RunOptions::from_env().unwrap_or_else(|err| {
        eprintln!("proc_headline: {err}");
        std::process::exit(2);
    });
    let (n, k, blocks) = if options.quick { (4, 2, 4u64) } else { (7, 3, 12u64) };
    let binary = replica_binary()?;

    println!(
        "EESMR vs Sync HotStuff as {n} real processes over {} ({blocks}-block target)",
        transport.flag()
    );
    println!("wall clock from the process mesh; energy from one channel model on both backends\n");
    for protocol in [Protocol::Eesmr, Protocol::SyncHotStuff] {
        let scenario = Scenario::new(protocol, n, k).stop(StopWhen::Blocks(blocks));
        let sim = scenario.run();
        let proc = scenario.run_proc(transport, &binary)?;

        let secs = proc.elapsed_us as f64 / 1e6;
        let throughput = proc.committed_height() as f64 / secs;
        let latency = proc
            .mean_commit_latency()
            .map(|d| format!("{:.1} ms", d.as_micros() as f64 / 1e3))
            .unwrap_or_else(|| "n/a".into());
        let per_node_block =
            |r: &RunReport| r.energy_per_block_mj() / r.correct_nodes().count().max(1) as f64;
        println!("{}", proc.summary());
        println!(
            "  processes: {:.1} blocks/s wall, mean commit latency {latency}, \
             {} frames / {} KiB on the wire",
            throughput,
            proc.net.deliveries,
            proc.net.bytes_on_air / 1024,
        );
        println!(
            "  energy:    {:.2} mJ/node/block on the processes (full mesh, no relays), \
             {:.2} on the simulator ({:.1} mJ total correct-node energy)\n",
            per_node_block(&proc),
            per_node_block(&sim),
            sim.total_correct_energy_mj(),
        );
    }
    Ok(())
}
