//! One-shot Byzantine Broadcast via the EESMR technique (paper §3.5,
//! "Extensions to BA and BB").
//!
//! The paper observes that "lack of equivocation within 4Δ" almost gives
//! Byzantine Broadcast, but naively a Byzantine sender can equivocate so
//! that only *some* correct nodes accept, and nobody can ever terminate —
//! a run with a correct sender is indistinguishable from one where
//! equivocation is still in flight. The fix (following Abraham et al.) is
//! a **termination certificate**: after the 4Δ equivocation-free window a
//! node signs a commit vote; `f+1` such votes prove at least one correct
//! node saw a clean window, and the certificate itself is re-broadcast so
//! every correct node terminates with the same value.
//!
//! Per broadcast the steady path costs one sender signature plus one
//! commit-vote signature per node — certificates appear only in this final
//! round, so "the benefits of such an approach … is limited to the
//! reduction of usage of certificates in the first iteration only" (§3.5).
//!
//! The module is self-contained (its own message type) and runs on the
//! same simulated network as the SMR protocols.

use std::collections::BTreeMap;
use std::sync::Arc;

use eesmr_crypto::{Digest, KeyStore, Signature};
use eesmr_net::codec::WireEnum;
use eesmr_net::{Actor, Context, Message, NodeId, SimDuration, TimerId};

use crate::message::{first_sigs, signing_bytes, MsgKind, QuorumCert};

/// Byzantine Broadcast messages.
#[derive(Debug, Clone, PartialEq)]
pub enum BbPayload {
    /// The designated sender's value.
    Value {
        /// The broadcast payload.
        value: Vec<u8>,
    },
    /// A commit vote: the signer saw `value_digest` and 4Δ of silence.
    CommitVote {
        /// Digest of the voted value.
        value_digest: Digest,
    },
    /// A termination certificate (f+1 commit votes) plus the value.
    Terminate {
        /// The certificate.
        cert: QuorumCert,
        /// The certified value.
        value: Vec<u8>,
    },
}

/// A signed Byzantine Broadcast message.
#[derive(Debug, Clone, PartialEq)]
pub struct BbMsg {
    /// Payload.
    pub payload: BbPayload,
    /// Sender.
    pub signer: NodeId,
    /// Signature over the payload digest.
    pub sig: Signature,
}

impl BbPayload {
    fn signing_digest(&self) -> Digest {
        match self {
            BbPayload::Value { value } => Digest::of_parts(&[b"bb-value", value]),
            BbPayload::CommitVote { value_digest } => *value_digest,
            BbPayload::Terminate { cert, .. } => {
                use eesmr_crypto::Hashable as _;
                cert.digest()
            }
        }
    }
}

impl BbMsg {
    fn new(payload: BbPayload, pki: &KeyStore, id: NodeId) -> Self {
        let bytes = signing_bytes(payload.tag(), 0, &payload.signing_digest());
        BbMsg { sig: pki.keypair(id).sign(&bytes), signer: id, payload }
    }

    fn verify_sig(&self, pki: &KeyStore) -> bool {
        if self.sig.signer() != self.signer {
            return false;
        }
        let bytes = signing_bytes(self.payload.tag(), 0, &self.payload.signing_digest());
        pki.verify(&bytes, &self.sig)
    }
}

impl Message for BbMsg {
    fn wire_size(&self) -> usize {
        eesmr_net::WireCodec::encoded_len(self)
    }

    fn flood_key(&self) -> u64 {
        Digest::of_parts(&[
            &[self.payload.tag() as u8],
            &self.signer.to_le_bytes(),
            self.payload.signing_digest().as_bytes(),
        ])
        .to_u64()
    }

    fn phase(&self) -> eesmr_energy::EnergyPhase {
        use eesmr_energy::EnergyPhase;
        match &self.payload {
            BbPayload::Value { .. } => EnergyPhase::Propose,
            BbPayload::CommitVote { .. } => EnergyPhase::Vote,
            BbPayload::Terminate { .. } => EnergyPhase::Commit,
        }
    }
}

/// Timer tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbTimer {
    /// The 4Δ equivocation-free window before commit-voting.
    CommitWindow,
}

/// Outcome of a broadcast at one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BbOutput {
    /// Terminated with the sender's value.
    Value(Vec<u8>),
    /// Detected sender equivocation (provably faulty sender).
    SenderFaulty,
}

/// One Byzantine Broadcast participant.
pub struct BbNode {
    id: NodeId,
    n: usize,
    f: usize,
    sender: NodeId,
    delta: SimDuration,
    pki: Arc<KeyStore>,
    /// For the designated sender: the value(s) to broadcast. Giving two
    /// values makes the sender a (fault-injected) equivocator.
    inputs: Vec<Vec<u8>>,
    accepted: Option<(Digest, Vec<u8>)>,
    equivocated: bool,
    commit_timer: Option<TimerId>,
    votes: BTreeMap<NodeId, Signature>,
    output: Option<BbOutput>,
}

type Ctx<'a> = Context<'a, BbMsg, BbTimer>;

impl core::fmt::Debug for BbNode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BbNode").field("id", &self.id).field("output", &self.output).finish()
    }
}

impl BbNode {
    /// Creates a participant. `inputs` is non-empty only at the designated
    /// sender; two inputs make it equivocate.
    pub fn new(
        id: NodeId,
        n: usize,
        f: usize,
        sender: NodeId,
        delta: SimDuration,
        pki: Arc<KeyStore>,
        inputs: Vec<Vec<u8>>,
    ) -> Self {
        BbNode {
            id,
            n,
            f,
            sender,
            delta,
            pki,
            inputs,
            accepted: None,
            equivocated: false,
            commit_timer: None,
            votes: BTreeMap::new(),
            output: None,
        }
    }

    /// The node's decision, once terminated.
    pub fn output(&self) -> Option<&BbOutput> {
        self.output.as_ref()
    }

    fn quorum(&self) -> usize {
        self.f + 1
    }

    fn on_value(&mut self, msg: BbMsg, ctx: &mut Ctx<'_>) {
        let BbPayload::Value { value } = &msg.payload else { return };
        if msg.signer != self.sender {
            return;
        }
        ctx.meter().charge_verify(self.pki.scheme());
        if !msg.verify_sig(&self.pki) {
            return;
        }
        let digest = msg.payload.signing_digest();
        match &self.accepted {
            None => {
                self.accepted = Some((digest, value.clone()));
                // Equivocation-free window (the EESMR 4Δ trick).
                self.commit_timer = Some(ctx.set_timer(self.delta * 4, BbTimer::CommitWindow));
            }
            Some((seen, _)) if *seen != digest && !self.equivocated => {
                // Sender equivocation: provable with the two signed values.
                self.equivocated = true;
                if let Some(t) = self.commit_timer.take() {
                    ctx.cancel_timer(t);
                }
                if self.output.is_none() {
                    self.output = Some(BbOutput::SenderFaulty);
                }
            }
            _ => {}
        }
    }

    fn on_commit_vote(&mut self, msg: BbMsg, ctx: &mut Ctx<'_>) {
        let BbPayload::CommitVote { value_digest } = &msg.payload else { return };
        let Some((accepted, value)) = self.accepted.clone() else { return };
        if *value_digest != accepted || self.output.is_some() {
            return;
        }
        ctx.meter().charge_verify(self.pki.scheme());
        if !msg.verify_sig(&self.pki) {
            return;
        }
        self.votes.insert(msg.signer, msg.sig.clone());
        if self.votes.len() >= self.quorum() {
            // Termination certificate: f+1 commit votes include one from a
            // correct node that saw a clean 4Δ window — everyone can adopt.
            let sigs = first_sigs(&self.votes, self.quorum());
            let cert =
                QuorumCert { kind: MsgKind::Certify, view: 0, data: accepted, height: 0, sigs };
            let msg =
                BbMsg::new(BbPayload::Terminate { cert, value: value.clone() }, &self.pki, self.id);
            ctx.meter().charge_sign(self.pki.scheme());
            ctx.flood(msg);
            self.output = Some(BbOutput::Value(value));
        }
    }

    fn on_terminate(&mut self, msg: BbMsg, ctx: &mut Ctx<'_>) {
        let BbPayload::Terminate { cert, value } = &msg.payload else { return };
        if self.output.is_some() {
            return;
        }
        let expected = Digest::of_parts(&[b"bb-value", value]);
        if cert.kind != MsgKind::Certify || cert.data != expected {
            return;
        }
        let (ok, checks) = cert.verify(&self.pki, self.quorum(), |_, _| false);
        for _ in 0..checks {
            ctx.meter().charge_verify(self.pki.scheme());
        }
        if !ok {
            return;
        }
        // Adopt even if we saw an equivocation or a different value: the
        // certificate carries a correct node's clean-window vote, which is
        // exactly the agreement anchor.
        self.output = Some(BbOutput::Value(value.clone()));
    }
}

impl Actor for BbNode {
    type Msg = BbMsg;
    type Timer = BbTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.id == self.sender {
            for value in self.inputs.clone() {
                let msg = BbMsg::new(BbPayload::Value { value }, &self.pki, self.id);
                ctx.meter().charge_sign(self.pki.scheme());
                ctx.flood(msg);
            }
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: BbMsg, ctx: &mut Ctx<'_>) {
        match msg.payload {
            BbPayload::Value { .. } => self.on_value(msg, ctx),
            BbPayload::CommitVote { .. } => self.on_commit_vote(msg, ctx),
            BbPayload::Terminate { .. } => self.on_terminate(msg, ctx),
        }
    }

    fn on_timer(&mut self, token: BbTimer, ctx: &mut Ctx<'_>) {
        match token {
            BbTimer::CommitWindow => {
                if self.equivocated || self.output.is_some() {
                    return;
                }
                let Some((digest, _)) = self.accepted else { return };
                let vote =
                    BbMsg::new(BbPayload::CommitVote { value_digest: digest }, &self.pki, self.id);
                ctx.meter().charge_sign(self.pki.scheme());
                // Our own vote counts.
                self.votes.insert(self.id, vote.sig.clone());
                ctx.flood(vote);
                let _ = self.n; // n reserved for future > f+1 quorums
            }
        }
    }
}

/// Builds a Byzantine Broadcast instance: `n` nodes, designated `sender`,
/// broadcasting `values` (one value = honest, two = equivocating sender).
pub fn build_bb_nodes(
    n: usize,
    f: usize,
    sender: NodeId,
    delta: SimDuration,
    pki: &Arc<KeyStore>,
    values: Vec<Vec<u8>>,
) -> Vec<BbNode> {
    (0..n as NodeId)
        .map(|id| {
            let inputs = if id == sender { values.clone() } else { Vec::new() };
            BbNode::new(id, n, f, sender, delta, pki.clone(), inputs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eesmr_crypto::SigScheme;
    use eesmr_hypergraph::topology::ring_kcast;
    use eesmr_net::{NetConfig, SimNet};

    fn run_bb(values: Vec<Vec<u8>>, seed: u64) -> SimNet<BbNode> {
        let n = 7;
        let net_cfg = NetConfig::ble(ring_kcast(n, 3), seed);
        let delta = net_cfg.delta();
        let pki = Arc::new(KeyStore::generate(n, SigScheme::Rsa1024, seed));
        let nodes = build_bb_nodes(n, 3, 0, delta, &pki, values);
        let mut net = SimNet::new(net_cfg, nodes);
        net.run_for(SimDuration::from_millis(200));
        net
    }

    #[test]
    fn honest_sender_all_terminate_with_its_value() {
        let net = run_bb(vec![b"attack at dawn".to_vec()], 1);
        for id in 0..7 {
            assert_eq!(
                net.actor(id).output(),
                Some(&BbOutput::Value(b"attack at dawn".to_vec())),
                "node {id}"
            );
        }
    }

    #[test]
    fn equivocating_sender_still_agrees() {
        // The sender sends two conflicting values. Nodes that saw both
        // mark the sender faulty; but if any termination certificate
        // forms, everyone adopts that value — agreement either way.
        let net = run_bb(vec![b"attack".to_vec(), b"retreat".to_vec()], 2);
        let outputs: Vec<_> = (1..7).map(|id| net.actor(id).output().cloned()).collect();
        // All correct nodes decided something.
        assert!(outputs.iter().all(|o| o.is_some()));
        // And every node that decided a value decided the SAME value.
        let values: std::collections::BTreeSet<_> = outputs
            .iter()
            .filter_map(|o| match o {
                Some(BbOutput::Value(v)) => Some(v.clone()),
                _ => None,
            })
            .collect();
        assert!(values.len() <= 1, "two different values terminated: {values:?}");
    }

    #[test]
    fn termination_costs_one_signature_per_node_plus_sender() {
        let net = run_bb(vec![b"v".to_vec()], 3);
        for id in 0..7u32 {
            let signs = net.meter(id).count(eesmr_energy::EnergyCategory::Sign);
            // sender: value + its own commit vote (+ terminate) — others:
            // commit vote (+ possibly the terminate broadcast).
            assert!(signs <= 3, "node {id} signed {signs} times");
            assert!(signs >= 1, "node {id} participated");
        }
    }

    #[test]
    fn no_sender_message_no_termination() {
        // The sender is silent: nobody ever accepts or terminates (BB
        // validity only constrains runs where the sender sends; liveness
        // for silent senders needs the SMR's blame path, out of scope for
        // the one-shot primitive).
        let net = run_bb(vec![], 4);
        for id in 0..7 {
            assert_eq!(net.actor(id).output(), None);
        }
    }
}
