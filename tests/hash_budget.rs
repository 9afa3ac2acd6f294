//! The hash budget: SHA-256 compression-function calls are a pure function
//! of the seed, so they are pinned **exactly**. A block hashed twice, a key
//! schedule rebuilt per signature or a signing digest materialised through
//! a second pass shows up here as a changed count, where wall-clock noise
//! would hide it. A deliberate change to what is hashed updates the pins in
//! the same commit (and says why).

use std::sync::Arc;

use eesmr_baselines::{HsConfig, HsFault, HsReplica, HsVariant};
use eesmr_core::{Config, FaultMode, Replica};
use eesmr_crypto::sha256::compressions;
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_net::harness::Harness;
use eesmr_net::{Actor, SimDuration};
use eesmr_sim::{Protocol, Scenario, StopWhen};
use eesmr_trace::TraceLevel;

/// Compressions spent by one whole run (key generation included) at the
/// paper's Fig. 3 midpoint, and the blocks it committed.
fn run_cost(protocol: Protocol) -> (u64, u64) {
    // Tracing fingerprints commands (a hash each), and other shards are
    // other threads with their own counters: pin both against the env.
    let scenario = Scenario::new(protocol, 13, 7)
        .seed(42)
        .shards(1)
        .trace(TraceLevel::Off)
        .stop(StopWhen::Blocks(50));
    let before = compressions();
    let report = scenario.run();
    (compressions() - before, report.committed_height())
}

#[test]
fn compressions_per_committed_block_are_pinned() {
    // EESMR: ≈ 75 per block — one 5-compression proposal check per node,
    // plus the leader's block id and signature. Sync HotStuff: 628 per
    // block — every node also checks every vote and a 7-signature
    // certificate per proposal. That ratio is the paper's argument.
    assert_eq!(run_cost(Protocol::Eesmr), (3_737, 50));
    assert_eq!(run_cost(Protocol::SyncHotStuff), (31_400, 50));
}

/// Starts `leader`, hands its proposal to `replica` twice, and returns the
/// compressions the first and the second delivery cost.
fn deliver_twice<A: Actor>(mut leader: Harness<A>, mut replica: Harness<A>) -> (u64, u64)
where
    A::Msg: Clone,
{
    replica.start();
    let proposal = leader
        .start()
        .iter()
        .find_map(|o| o.message().cloned())
        .expect("the view-1 leader proposes on start");
    let at = compressions();
    replica.deliver(0, proposal.clone());
    let first = compressions() - at;
    replica.deliver(0, proposal);
    (first, compressions() - at - first)
}

#[test]
fn a_duplicate_proposal_delivery_costs_no_hashing() {
    let n = 4;
    let delta = SimDuration::from_millis(2);
    let pki = Arc::new(KeyStore::generate(n, SigScheme::Rsa1024, 11));

    let eesmr = |id| {
        Harness::new(id, Replica::new(id, Config::new(n, delta), pki.clone(), FaultMode::Honest))
    };
    let (first, duplicate) = deliver_twice(eesmr(0), eesmr(1));
    assert!(first > 0, "the first copy is verified");
    assert_eq!(duplicate, 0, "EESMR: a duplicate copy is dropped by block id, unhashed");

    let hs = |id| {
        let config = HsConfig::new(n, delta, HsVariant::SyncHotStuff);
        Harness::new(id, HsReplica::new(id, config, pki.clone(), HsFault::Honest))
    };
    let (first, duplicate) = deliver_twice(hs(0), hs(1));
    assert!(first > 0, "the first copy is verified");
    assert_eq!(duplicate, 0, "Sync HotStuff: a duplicate copy is dropped by block id, unhashed");
}
