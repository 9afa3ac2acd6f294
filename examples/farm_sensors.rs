//! Precision-agriculture scenario (the paper's §1 motivation, via the DHS
//! report on threats to precision agriculture): a field of soil-nutrient
//! sensors must agree on a tamper-evident log of readings even if some
//! sensors are compromised and inject rogue data.
//!
//! Ten battery-powered sensors run EESMR over BLE k-casts. Each submits
//! signed readings as client commands; a base station plays the client and
//! accepts results once f+1 sensors acknowledge identically. We estimate
//! battery life from the measured energy per consensus round.
//!
//! ```text
//! cargo run --example farm_sensors
//! ```

use std::sync::Arc;

use eesmr_core::client::{Ack, AckCollector};
use eesmr_core::{build_replicas, Command, Config, FaultMode};
use eesmr_crypto::{Digest, Hashable, KeyStore, SigScheme};
use eesmr_hypergraph::topology::ring_kcast;
use eesmr_net::{NetConfig, SimDuration, SimNet};

fn main() {
    const N: usize = 10;
    const K: usize = 3;

    let topology = ring_kcast(N, K);
    let net_cfg = NetConfig::ble(topology, 2026);
    let config = Config::new(N, net_cfg.delta());
    let f = config.f;
    let pki = Arc::new(KeyStore::generate(N, SigScheme::Rsa1024, 2026));
    // Two compromised sensors go dark mid-season (view 2 onwards). The
    // field keeps operating: f = 4 tolerates them.
    let mut replicas = build_replicas(&config, &pki, |id| match id {
        7 | 8 => FaultMode::Silent { from_view: 2 },
        _ => FaultMode::Honest,
    });

    // Each sensor queues one soil reading per epoch as a client command.
    for (id, replica) in replicas.iter_mut().enumerate() {
        for epoch in 0..20u64 {
            let reading = format!(
                "sensor={id} epoch={epoch} nitrate_ppm={}",
                12 + (id as u64 * 7 + epoch) % 9
            );
            replica.submit(Command::new(reading.into_bytes()));
        }
    }

    let mut net = SimNet::new(net_cfg, replicas);
    net.run_for(SimDuration::from_millis(3_000));

    // The base station accepts a reading once f+1 sensors report the same
    // execution result (here: the digest of the committed command).
    let mut collector = AckCollector::new(f);
    let mut accepted = 0usize;
    for id in 0..N as u32 {
        if matches!(id, 7 | 8) {
            continue; // compromised sensors do not report
        }
        let r = net.actor(id);
        for block in r.committed() {
            for cmd in &block.payload {
                let cmd_digest = cmd.digest();
                let result = Digest::of_parts(&[b"executed", cmd_digest.as_bytes()]);
                if collector.observe(Ack { replica: id, command: cmd_digest, result }).is_some() {
                    accepted += 1;
                }
            }
        }
    }

    let height = net.actor(0).committed_height();
    println!("field of {N} sensors, f = {f}, two compromised mid-season");
    println!("log height: {height}; readings accepted by the base station: {accepted}");

    // Energy budget: a CR2477 coin cell holds ~2900 J usable.
    let correct: Vec<u32> = (0..N as u32).filter(|id| !matches!(id, 7 | 8)).collect();
    let worst_node_mj = correct.iter().map(|&id| net.meter(id).total_mj()).fold(0.0f64, f64::max);
    let per_round_mj = worst_node_mj / height.max(1) as f64;
    let battery_mj = 2_900_000.0;
    let rounds = battery_mj / per_round_mj;
    println!(
        "worst-case node spent {:.0} mJ over {height} rounds ({:.0} mJ/round)",
        worst_node_mj, per_round_mj
    );
    println!(
        "a 2900 J coin cell sustains ~{:.0} consensus rounds (~{:.1} years at one round/hour)",
        rounds,
        rounds / (24.0 * 365.0)
    );

    assert!(accepted > 0, "the base station accepted readings");
}
