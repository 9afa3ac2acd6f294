//! Quickstart: run EESMR on the paper's testbed topology and inspect the
//! replicated log and energy bill.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use eesmr_core::{build_replicas, Config, FaultMode};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::{NetConfig, SimDuration, SimNet};

fn main() {
    // 1. Topology: 7 CPS nodes, each k-casting to its 3 ring successors.
    let topology = ring_kcast(7, 3);
    println!(
        "topology: n={}, k={:?}, diameter={:?}",
        topology.n(),
        topology.k(),
        topology.diameter()
    );
    println!("tolerates f = {} faults (Lemma A.5 bound)", topology.necessary_fault_bound());

    // 2. Network: BLE advertisements with 99.99% reliable k-casts.
    let net_cfg = NetConfig::ble(topology, 42);
    let delta = net_cfg.delta();
    println!("synchrony bound Δ = {delta}");

    // 3. Protocol: EESMR with RSA-1024 (the paper's pick) and 16 B blocks.
    let config = Config::new(7, delta);
    let pki = Arc::new(KeyStore::generate(7, SigScheme::Rsa1024, 42));
    let replicas = build_replicas(&config, &pki, |_| FaultMode::Honest);

    // 4. Run for one virtual second.
    let mut net = SimNet::new(net_cfg, replicas);
    net.run_for(SimDuration::from_millis(1_000));

    // 5. Inspect: the log, the agreement, and the energy bill.
    let r0 = net.actor(0);
    println!("\ncommitted {} blocks; all nodes agree:", r0.committed().len());
    for id in 1..7 {
        // Commit timers fire at slightly different instants per node, so
        // compare the common prefix (that is the SMR safety guarantee).
        let log = net.actor(id).committed();
        let common = log.len().min(r0.committed().len());
        assert_eq!(&log[..common], &r0.committed()[..common], "node {id} diverged");
    }
    for (i, block_id) in r0.committed().iter().take(5).enumerate() {
        let b = r0.block(block_id).expect("committed block");
        println!(
            "  #{i}: height {} ({} B payload) {}",
            b.height,
            b.payload_len(),
            block_id.short_hex()
        );
    }
    println!("  ...");

    println!("\nper-node energy:");
    for id in 0..7 {
        let role = if id == 0 { "leader " } else { "replica" };
        println!("  node {id} ({role}): {}", net.meter(id));
    }
    let total = net.energy_of(0..7);
    println!(
        "\ntotal: {:.1} mJ for {} blocks -> {:.1} mJ per consensus unit",
        total.total_mj(),
        r0.committed().len(),
        total.total_mj() / r0.committed().len() as f64
    );
}
