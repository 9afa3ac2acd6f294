//! White-box validation tests: hand-crafted (including adversarial)
//! messages against a single replica, via the `eesmr_net::harness`.
//!
//! These pin down the local acceptance rules Appendix B's proofs rely on:
//! what a replica relays, rejects, or escalates.

use std::sync::Arc;

use eesmr_core::{
    Block, Command, Config, FaultMode, Payload, Replica, Shared, SignedMsg, TimerToken,
};
use eesmr_crypto::{KeyStore, SigScheme};
use eesmr_net::harness::{Harness, Output};
use eesmr_net::SimDuration;

const N: usize = 4;

fn pki() -> Arc<KeyStore> {
    Arc::new(KeyStore::generate(N, SigScheme::Rsa1024, 11))
}

fn replica(id: u32, pki: &Arc<KeyStore>) -> Harness<Replica> {
    let config = Config::new(N, SimDuration::from_millis(2));
    Harness::new(id, Replica::new(id, config, pki.clone(), FaultMode::Honest))
}

/// A leader-signed steady-state proposal for view 1.
fn proposal(pki: &Arc<KeyStore>, round: u64, payload_tag: u64) -> (Block, SignedMsg) {
    let block =
        Block::extending(&Block::genesis(), 1, round, vec![Command::synthetic(payload_tag, 16)]);
    let msg = SignedMsg::new(
        Payload::Propose { block: block.clone(), round, justify: None },
        1,
        pki.keypair(0), // node 0 leads view 1 (round robin)
    );
    (block, msg)
}

#[test]
fn accepts_leader_proposal_relays_and_arms_commit_timer() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    let (block, msg) = proposal(&pki, 3, 1);
    let out = h.deliver(0, msg.clone());

    assert!(
        out.iter().any(|o| matches!(o, Output::Multicast(m) if m == &msg)),
        "the proposal must be relayed once (the implicit vote)"
    );
    assert!(
        out.iter().any(|o| matches!(
            o,
            Output::SetTimer { token: TimerToken::Commit { block: b, .. }, delay, .. }
                if *b == block.id() && delay.as_micros() == 8_000 // 4Δ
        )),
        "T_commit(B) = 4Δ must be armed"
    );
    assert_eq!(h.actor().current_round(), 4, "NextRound advanced");
}

#[test]
fn rejects_proposal_from_non_leader() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    let block = Block::extending(&Block::genesis(), 1, 3, vec![]);
    // Node 2 signs a proposal although node 0 leads view 1.
    let forged =
        SignedMsg::new(Payload::Propose { block, round: 3, justify: None }, 1, pki.keypair(2));
    let out = h.deliver(2, forged);
    assert!(out.is_empty(), "nothing is relayed or armed");
    assert_eq!(h.actor().metrics().proposals_rejected, 1);
    assert_eq!(h.actor().current_round(), 3, "round unchanged");
}

#[test]
fn rejects_proposal_with_tampered_signature() {
    let pki = pki();
    let other_universe = KeyStore::generate(N, SigScheme::Rsa1024, 999);
    let mut h = replica(1, &pki);
    h.start();
    let block = Block::extending(&Block::genesis(), 1, 3, vec![]);
    // Signed by "node 0" of a different PKI — verification must fail.
    let forged = SignedMsg::new(
        Payload::Propose { block, round: 3, justify: None },
        1,
        other_universe.keypair(0),
    );
    let out = h.deliver(0, forged);
    assert!(out.is_empty());
    assert_eq!(h.actor().metrics().proposals_rejected, 1);
}

#[test]
fn duplicate_proposal_is_not_relayed_twice() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    let (_, msg) = proposal(&pki, 3, 1);
    let first = h.deliver(0, msg.clone());
    assert!(!first.is_empty());
    let verifies_before = h.meter().count(eesmr_energy::EnergyCategory::Verify);
    let second = h.deliver(3, msg); // same proposal via another relayer
    assert!(second.is_empty(), "no re-relay, no new timers");
    assert_eq!(
        h.meter().count(eesmr_energy::EnergyCategory::Verify),
        verifies_before,
        "duplicates are deduplicated by content before any signature check"
    );
}

#[test]
fn equivocation_triggers_blame_with_proof_and_cancels_commits() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    let (_, first) = proposal(&pki, 3, 1);
    let (_, twin) = proposal(&pki, 3, 2); // same round, different block
    h.deliver(0, first);
    let out = h.deliver(0, twin);

    let blame = out.iter().find_map(|o| match o {
        Output::Flood { msg, target: None } => match &msg.payload {
            Payload::Shared(Shared::Blame { proof: Some(_) }) => Some(msg),
            _ => None,
        },
        _ => None,
    });
    assert!(blame.is_some(), "a blame carrying the equivocation proof is flooded");
    assert!(
        out.iter().any(|o| matches!(o, Output::CancelTimer(_))),
        "commit timers are cancelled to preserve safety"
    );
    assert_eq!(h.actor().metrics().equivocations_detected, 1);
}

#[test]
fn crash_only_variant_ignores_equivocation() {
    let pki = pki();
    let mut config = Config::new(N, SimDuration::from_millis(2));
    config.crash_only = true;
    let mut h = Harness::new(1, Replica::new(1, config, pki.clone(), FaultMode::Honest));
    h.start();
    let (_, first) = proposal(&pki, 3, 1);
    let (_, twin) = proposal(&pki, 3, 2);
    h.deliver(0, first);
    let out = h.deliver(0, twin);
    assert!(
        !out.iter().any(|o| matches!(
            o,
            Output::Flood { msg, .. } if matches!(msg.payload, Payload::Shared(Shared::Blame { .. }))
        )),
        "the crash variant drops the equivocation handlers (Alg. 2 lines 220/224)"
    );
    assert_eq!(h.actor().metrics().equivocations_detected, 0);
}

#[test]
fn quorum_of_blames_produces_blame_certificate() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    // f = 1 for n = 4, so f+1 = 2 blames form the certificate.
    let blame_from = |id: u32| {
        SignedMsg::new(Payload::Shared(Shared::Blame { proof: None }), 1, pki.keypair(id))
    };
    let out1 = h.deliver(2, blame_from(2));
    assert!(
        !out1.iter().any(|o| matches!(
            o,
            Output::Flood { msg, .. } if matches!(msg.payload, Payload::Shared(Shared::BlameQc(_)))
        )),
        "one blame is below the quorum"
    );
    let out2 = h.deliver(3, blame_from(3));
    let qc = out2.iter().find_map(|o| match o {
        Output::Flood { msg, target: None } => match &msg.payload {
            Payload::Shared(Shared::BlameQc(qc)) => Some(qc.clone()),
            _ => None,
        },
        _ => None,
    });
    let qc = qc.expect("f+1 blames must produce a flooded blame certificate");
    assert_eq!(qc.sigs.len(), 2);
    assert!(
        out2.iter().any(|o| matches!(
            o,
            Output::SetTimer { token: TimerToken::QuitWait { view: 1 }, delay, .. }
                if delay.as_micros() == 2_000 // Δ
        )),
        "the Δ quit wait is scheduled"
    );
}

#[test]
fn duplicate_blames_from_one_node_do_not_reach_quorum() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    let blame = SignedMsg::new(Payload::Shared(Shared::Blame { proof: None }), 1, pki.keypair(2));
    h.deliver(2, blame.clone());
    let out = h.deliver(2, blame);
    assert!(
        !out.iter().any(|o| matches!(
            o,
            Output::Flood { msg, .. } if matches!(msg.payload, Payload::Shared(Shared::BlameQc(_)))
        )),
        "the same signer cannot count twice towards f+1"
    );
}

#[test]
fn invalid_equivocation_proof_is_ignored() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    // "Proof" whose two proposals are for different rounds — not an
    // equivocation.
    let (_, a) = proposal(&pki, 3, 1);
    let (_, b) = proposal(&pki, 4, 2);
    let bogus = SignedMsg::new(
        Payload::Shared(Shared::Blame { proof: Some(Box::new((a, b))) }),
        1,
        pki.keypair(2),
    );
    h.deliver(2, bogus);
    assert_eq!(h.actor().metrics().equivocations_detected, 0);
}

#[test]
fn sync_request_is_answered_with_ancestors() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    let (block, msg) = proposal(&pki, 3, 1);
    h.deliver(0, msg);
    let request = SignedMsg::new(
        Payload::Shared(Shared::SyncRequest { want: block.id() }),
        1,
        pki.keypair(3),
    );
    let out = h.deliver(3, request);
    let reply = out.iter().find_map(|o| match o {
        Output::Flood { msg, target: Some(3) } => match &msg.payload {
            Payload::Shared(Shared::SyncResponse { blocks }) => Some(blocks.clone()),
            _ => None,
        },
        _ => None,
    });
    let blocks = reply.expect("a targeted sync response goes back to the requester");
    assert_eq!(blocks[0].id(), block.id());
    assert!(blocks.iter().any(|b| b.height == 0), "the walk reaches genesis");
}

#[test]
fn blame_timeout_floods_a_blame_once_per_view() {
    let pki = pki();
    let mut h = replica(1, &pki);
    h.start();
    let out = h.fire(TimerToken::Blame { view: 1 });
    assert!(
        out.iter().any(|o| matches!(
            o,
            Output::Flood { msg, .. } if matches!(msg.payload, Payload::Shared(Shared::Blame { proof: None }))
        )),
        "no progress within T_blame ⇒ ⟨blame, v⟩ is flooded"
    );
    // A stale token for an old view is ignored.
    let stale = h.fire(TimerToken::Blame { view: 0 });
    assert!(stale.is_empty());
}

#[test]
fn leader_proposes_on_start_and_blocks_on_outstanding() {
    let pki = pki();
    let mut h = replica(0, &pki); // node 0 leads view 1
    let out = h.start();
    let proposed = out.iter().find_map(|o| match o {
        Output::Multicast(m) => match &m.payload {
            Payload::Propose { block, round: 3, .. } => Some(block.clone()),
            _ => None,
        },
        _ => None,
    });
    let block = proposed.expect("the leader proposes for round 3 at start");
    assert_eq!(block.height, 1);

    // Blocking pacing: accepting its own proposal leaves one outstanding
    // block, so no second proposal until the commit timer fires.
    let own = out
        .iter()
        .find_map(|o| match o {
            Output::Multicast(m) => Some(m.clone()),
            _ => None,
        })
        .expect("found above");
    let after_loopback = h.deliver(0, own);
    assert!(
        !after_loopback.iter().any(|o| matches!(
            o,
            Output::Multicast(m) if matches!(m.payload, Payload::Propose { .. })
        )),
        "blocking pacing: one outstanding proposal at a time"
    );
    // Commit fires → the next round's proposal goes out.
    h.advance(SimDuration::from_millis(8));
    let after_commit = h.fire(TimerToken::Commit { view: 1, block: block.id() });
    assert!(
        after_commit.iter().any(|o| matches!(
            o,
            Output::Multicast(m) if matches!(&m.payload, Payload::Propose { round: 4, .. })
        )),
        "the leader proposes round 4 after committing round 3"
    );
    assert_eq!(h.actor().committed_height(), 1);
}
