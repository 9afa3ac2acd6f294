//! Battlefield survey scenario (the paper's §1 military CPS example): a
//! drone swarm maintains a shared mission log and must survive the loss —
//! or active subversion — of its coordinator.
//!
//! The view-1 coordinator equivocates (reports two different survey states
//! to different drones); the swarm detects it from the conflicting signed
//! proposals, evicts it through a view change, and continues under the
//! next coordinator. We print the timeline as it unfolds.
//!
//! ```text
//! cargo run --example drone_swarm
//! ```

use std::sync::Arc;

use eesmr_core::{build_replicas, Config, FaultMode, Replica};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::{NetConfig, SimDuration, SimNet};

fn snapshot(net: &SimNet<Replica>, label: &str) {
    let views: Vec<u64> =
        (1..net.actors().len() as u32).map(|id| net.actor(id).current_view()).collect();
    let heights: Vec<u64> =
        (1..net.actors().len() as u32).map(|id| net.actor(id).committed_height()).collect();
    println!("[{label}] views={views:?} heights={heights:?} (t = {})", net.now());
}

fn main() {
    const N: usize = 9;
    const K: usize = 3;

    let topology = ring_kcast(N, K);
    let net_cfg = NetConfig::ble(topology, 7);
    let delta = net_cfg.delta();
    let mut config = Config::new(N, delta);
    // The paper's testbed optimizations: quit on the equivocation proof
    // itself, lock-only status in the new view.
    config.opt_equivocation_speedup = true;
    config.opt_lock_only_status = true;

    let pki = Arc::new(KeyStore::generate(N, SigScheme::Rsa1024, 7));
    let replicas = build_replicas(&config, &pki, |id| {
        if id == 0 {
            FaultMode::Equivocate { in_view: 1 } // the subverted coordinator
        } else {
            FaultMode::Honest
        }
    });

    let mut net = SimNet::new(net_cfg, replicas);
    println!("swarm of {N} drones, coordinator 0 subverted, Δ = {delta}");

    net.run_for(SimDuration::from_millis(10));
    snapshot(&net, "mission start   ");

    // Run until the swarm has evicted the coordinator.
    let deadline = net.now() + SimDuration::from_millis(5_000);
    let evicted = net.run_until_all(deadline, |id, drone| id == 0 || drone.current_view() >= 2);
    assert!(evicted, "the swarm must evict the equivocator");
    snapshot(&net, "coordinator down");

    let detections: u64 =
        (1..N as u32).map(|id| net.actor(id).metrics().equivocations_detected).sum();
    println!("equivocation proofs observed by {detections} drone events; view change complete");

    // Mission continues under drone 1.
    net.run_for(SimDuration::from_millis(2_000));
    snapshot(&net, "mission resumed ");

    let survivors: Vec<u32> = (1..N as u32).collect();
    let reference = net.actor(1).committed();
    for &id in &survivors {
        let log = net.actor(id).committed();
        let common = log.len().min(reference.len());
        assert_eq!(&log[..common], &reference[..common], "drone {id} agrees");
    }
    println!(
        "all {} surviving drones agree on a {}-block mission log",
        survivors.len(),
        net.actor(1).committed().len()
    );
    let vc_energy = net.energy_of(survivors.iter().copied());
    println!("energy spent by survivors: {}", vc_energy);
}
