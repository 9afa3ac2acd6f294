//! The certificate a Sync HotStuff / OptSync leader justifies its next
//! proposal with, driven through the single-actor harness: which signers
//! it carries and in which order, whatever order their votes arrive in.

use std::sync::Arc;

use eesmr_baselines::sync_hotstuff::{HsConfig, HsFault, HsMsg, HsPayload, HsReplica, HsVariant};
use eesmr_core::{Envelope, TimerToken};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_net::harness::{Harness, Output};
use eesmr_net::{NodeId, SimDuration};

const N: usize = 7; // certificate quorum 4, OptSync's fast quorum 6; node 0 leads view 1

/// The proposals among `out`.
fn proposals(out: &[Output<HsMsg, TimerToken>]) -> Vec<HsMsg> {
    out.iter()
        .filter_map(Output::message)
        .filter(|m| matches!(m.payload, HsPayload::Propose { .. }))
        .cloned()
        .collect()
}

fn next_proposal_justifies_with_the_lowest_signers(variant: HsVariant) {
    let pki = Arc::new(KeyStore::generate(N, SigScheme::Rsa1024, 17));
    let config = HsConfig::new(N, SimDuration::from_millis(10), variant);
    let quorum = config.cert_quorum();
    let mut h = Harness::new(0, HsReplica::new(0, config, pki.clone(), HsFault::Honest));
    let [first] = proposals(&h.start()).try_into().expect("the leader proposes on start");
    let HsPayload::Propose { block, .. } = &first.payload else { unreachable!() };
    let (block_id, height) = (block.id(), block.height);
    // The loopback copy: the leader votes for its own block.
    h.deliver(0, first);
    // Every other node's vote, those completing the quorum in descending
    // id order: arrival order is not the certificate's order.
    let mut out = Vec::new();
    for signer in [3, 2, 1, 6, 5, 4] {
        let vote = Envelope::new(HsPayload::Vote { block_id, height }, 1, pki.keypair(signer));
        out.extend(h.deliver(signer, vote));
    }
    if variant == HsVariant::SyncHotStuff {
        // No responsive path: the next proposal waits for the 2Δ commit.
        assert!(proposals(&out).is_empty(), "{variant:?}: the leader waits for its commit");
        out = h.fire(TimerToken::Commit { view: 1, block: block_id });
    }
    let [next] = proposals(&out).try_into().expect("one next proposal");
    let HsPayload::Propose { block, justify: Some(qc) } = &next.payload else {
        panic!("{variant:?}: the next proposal carries its parent's certificate: {next:?}")
    };
    assert_eq!((block.parent, qc.data), (block_id, block_id), "{variant:?}");
    let signers: Vec<NodeId> = qc.sigs.iter().map(|(n, _)| *n).collect();
    let lowest: Vec<NodeId> = (0..quorum as NodeId).collect();
    assert_eq!(signers, lowest, "{variant:?}: the first n/2+1 signers, ascending");
}

#[test]
fn the_next_proposal_is_justified_by_signers_zero_to_quorum_in_ascending_order() {
    next_proposal_justifies_with_the_lowest_signers(HsVariant::SyncHotStuff);
    next_proposal_justifies_with_the_lowest_signers(HsVariant::OptSync);
}
