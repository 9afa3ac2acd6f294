//! The trusted-baseline protocol (paper §5.1): "all the CPS nodes are
//! directly connected to the trusted node using the expensive medium".
//!
//! Every consensus unit, each CPS node (a *spoke*) uploads its pending
//! commands to the trusted node (the *hub*, node 0 of a star), which orders
//! them into a block, signs it once and multicasts it back; spokes verify
//! the one signature and commit. The hub is externally powered: harnesses
//! exclude its meter from CPS energy, as the paper's accounting does.
//!
//! [`TrustedRule`] is a commit rule on the replica skeleton with
//! [`Params::hub`] set. Every spoke message is one k-cast: a flood or a
//! `send_to` from a spoke would be re-broadcast by the hub to every spoke.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use eesmr_core::smr::WINDOW;
use eesmr_core::{
    BatchPolicy, Block, Command, Commands, Envelope, FaultMode, Params, Rule, Shared,
    SignedPayload, Smr, SmrPayload, TimerToken,
};
use eesmr_crypto::sha256::Sha256;
use eesmr_crypto::{Digest, Hashable, KeySet, KeyStore};
use eesmr_net::codec::family;
use eesmr_net::{NodeId, SimDuration, TraceClass, TraceEventKind};

/// The hub's id in the star topology.
pub const HUB: NodeId = 0;

/// The baseline's configuration is what the skeleton reads off it.
pub type TbConfig = Params;

/// A spoke's default upload batch: up to 16 commands per consensus unit.
pub const UPLOAD_BATCH: BatchPolicy = BatchPolicy::Fixed(16);

/// The star's [`Params`] for `n` nodes (the hub included) and one hop's Δ
/// (the hub orders every 2Δ): [`UPLOAD_BATCH`] uploads of 16-byte
/// commands fed by a unit synthetic load. f = 0 and no view change, so the
/// blame, sync and forward knobs are never read.
pub fn tb_config(n: usize, delta: SimDuration) -> TbConfig {
    assert!(n >= 2, "the trusted baseline needs a hub and a spoke");
    Params {
        n,
        delta,
        blame_quorum: 1,
        forward_batch: 1,
        batch_policy: UPLOAD_BATCH,
        payload_bytes: 16,
        offered_load: 1,
        steady_blame_multiple: 0,
        ignores_equivocation: true, // the trusted hub signs the only chain
        quits_on_equivocation: false,
        sync_cap: 0,
        forward_retry_window: None,
        replays_through_gate: false,
        hub: Some(HUB),
    }
}

/// Message payloads: the hub's block, the upload, and the shared variants.
#[derive(Debug, Clone, PartialEq)]
pub enum TbPayload {
    /// The hub's ordered block (its slot is the height).
    Propose {
        /// The block.
        block: Block,
    },
    /// A spoke's upload of pending commands.
    Upload {
        /// The commands (Arc-backed so clones are refcount bumps).
        batch: Commands,
        /// Upload sequence number (one per consensus unit).
        seq: u64,
    },
    /// Blames, chain sync, forwarding and repair: the variants every
    /// family shares. On the star only `Repair` and `RepairReply` are sent.
    Shared(Shared<TbPayload>),
}

impl SignedPayload for TbPayload {
    const FAMILY: u8 = family::TB_MSG;

    fn signing_digest(&self, view: u64) -> Digest {
        match self {
            TbPayload::Propose { block } => block.id(),
            TbPayload::Upload { batch, seq } => {
                let mut h = Sha256::new();
                h.update(b"tb-upload");
                h.update(&seq.to_le_bytes());
                batch.iter().for_each(|c| c.encode_into(&mut h));
                h.finalize()
            }
            TbPayload::Shared(shared) => shared.signing_digest(view),
        }
    }
}

impl SmrPayload for TbPayload {
    const DOMAIN: &'static [u8] = b"tb-";

    fn shared(&self) -> Option<&Shared<Self>> {
        match self {
            TbPayload::Shared(shared) => Some(shared),
            _ => None,
        }
    }

    fn from_shared(shared: Shared<Self>) -> Self {
        TbPayload::Shared(shared)
    }

    fn proposal(&self) -> Option<(&Block, u64)> {
        match self {
            TbPayload::Propose { block } => Some((block, block.height)),
            _ => None,
        }
    }
}

/// A signed trusted-baseline message.
pub type TbMsg = Envelope<TbPayload>;

type Ctx<'a> = eesmr_core::smr::Ctx<'a, TrustedRule>;

/// The trusted-baseline rule: a spoke's upload and repair state, the
/// hub's uploads.
#[derive(Debug)]
pub struct TrustedRule {
    /// The configuration.
    pub config: TbConfig,
    seq: u64,        // spoke: the next upload's sequence number
    repairing: bool, // spoke: a repair request is outstanding
    uploaded: bool,  // spoke: an upload is out since its last post-commit turn
    ticking: bool,   // hub: the ordering tick is armed
    /// Hub: the uploads taken since the last tick, in the order the next
    /// block holds them.
    uploads: BTreeMap<(u64, NodeId), Commands>,
    /// Hub: every upload taken, by `(spoke, seq)`. A spoke's copies are
    /// plain k-casts, which the network never dedups.
    taken: Taken,
}

/// Hub: the uploads taken. An upload names no height, so its key is
/// `(spoke, seq)`; what the floor prunes is told by the height of the
/// block it went into.
#[derive(Debug)]
enum Taken {
    /// Nothing taken at height [`WINDOW`] or above yet: one plain set, so
    /// a run shorter than the window keeps what an unpruned one would.
    First(KeySet<(NodeId, u64)>),
    /// From height `W` on.
    Windowed(Box<Windowed>),
}

/// The uploads taken once the hub has reached height [`WINDOW`].
#[derive(Debug, Default)]
struct Windowed {
    /// Every upload taken and not pruned. Those taken below height `W`
    /// are not in `order`, so they stay for the run: at most `W` blocks'
    /// worth.
    set: KeySet<(NodeId, u64)>,
    /// The keys taken from height `W` on, in the order they were taken,
    /// each with its block's height: what the floor pops.
    order: VecDeque<(u64, (NodeId, u64))>,
    /// Per spoke, the seq below which every upload is stale: one past the
    /// highest of its seqs the floor has popped (none where it ends).
    stale_below: Vec<u64>,
}

impl Taken {
    /// Whether `spoke`'s upload `seq` is below its floor.
    fn is_stale(&self, spoke: NodeId, seq: u64) -> bool {
        let Taken::Windowed(w) = self else { return false };
        seq < w.stale_below.get(spoke as usize).copied().unwrap_or(0)
    }

    /// Takes `key` into the block at `height`; returns whether it was new.
    fn take(&mut self, height: u64, key: (NodeId, u64)) -> bool {
        if let Taken::First(set) = self {
            if height < WINDOW {
                return set.insert(key);
            }
            let set = std::mem::take(set);
            *self = Taken::Windowed(Box::new(Windowed { set, ..Windowed::default() }));
        }
        let Taken::Windowed(w) = self else { unreachable!("windowed above") };
        if !w.set.insert(key) {
            return false;
        }
        w.order.push_back((height, key));
        true
    }

    /// Drops the uploads taken below `floor`, and makes their seqs stale.
    fn prune_below(&mut self, floor: u64) {
        let Taken::Windowed(w) = self else { return };
        while let Some(&(_, key)) = w.order.front().filter(|(height, _)| *height < floor) {
            w.order.pop_front();
            w.set.remove(&key);
            let (spoke, seq) = (key.0 as usize, key.1);
            if w.stale_below.len() <= spoke {
                w.stale_below.resize(spoke + 1, 0);
            }
            w.stale_below[spoke] = w.stale_below[spoke].max(seq + 1);
        }
    }

    /// The uploads held.
    fn len(&self) -> usize {
        match self {
            Taken::First(set) => set.len(),
            Taken::Windowed(w) => w.set.len(),
        }
    }
}

/// A trusted-baseline participant: the hub (node 0) or a CPS node.
pub type TbReplica = Smr<TrustedRule>;

impl Rule for TrustedRule {
    type Payload = TbPayload;
    type Config = TbConfig;

    const NAME: &'static str = "TbReplica";

    fn new(config: TbConfig, _genesis: Digest) -> Self {
        TrustedRule {
            config,
            seq: 0,
            repairing: false,
            uploaded: false,
            ticking: false,
            uploads: BTreeMap::new(),
            taken: Taken::First(KeySet::default()),
        }
    }

    fn params(&self) -> Params {
        self.config
    }

    fn proposes_after_commit(&self) -> bool {
        false // no commit timers
    }

    /// The hub sends each block once: another copy is a duplicate (the
    /// hub's own loopback included).
    fn processed(_: &TbReplica, _view: u64, _height: u64, _block: &Digest) -> bool {
        true
    }

    /// Hub: arm the ordering tick. Spoke: upload the next batch, once plus
    /// a storm's extra copies.
    fn try_propose(r: &mut TbReplica, ctx: &mut Ctx<'_>) {
        if r.is_leader() {
            if !std::mem::replace(&mut r.rule.ticking, true) {
                ctx.set_timer(r.params.delta * 2, TimerToken::Order);
            }
            return;
        }
        // A workload-fed spoke uploads real transactions only, once per
        // hub block: a client arrival uploads only when the spoke's last
        // post-commit turn found its pool empty.
        if r.workload.is_some() && (r.txpool.is_empty() || r.rule.uploaded) {
            return;
        }
        r.rule.uploaded = true;
        let batch = r.next_batch();
        let seq = r.rule.seq;
        r.rule.seq += 1;
        if ctx.traces(TraceClass::Commit) {
            for cmd in &batch {
                ctx.trace(TraceEventKind::TxForward { tx: cmd.fingerprint(), leader: HUB });
            }
        }
        let msg = r.sign(TbPayload::Upload { batch: batch.into(), seq }, ctx);
        for _ in 0..r.fault.storm_repeats_in(r.v_cur) {
            ctx.multicast(msg.clone());
        }
        ctx.multicast(msg);
    }

    /// Spoke: commit the hub's block if it extends the committed tip, ask
    /// the hub for the gap if it is further ahead; then upload again.
    fn on_proposal(r: &mut TbReplica, _from: NodeId, msg: TbMsg, ctx: &mut Ctx<'_>) {
        let TbPayload::Propose { block } = &msg.payload else { return };
        if block.parent != r.b_com {
            if block.height > r.b_com_height + 1 && !std::mem::replace(&mut r.rule.repairing, true)
            {
                r.request_repair(ctx);
            }
            return;
        }
        let id = r.store.insert(block.clone());
        r.commit_block(id, ctx);
        r.rule.uploaded = false;
        TrustedRule::try_propose(r, ctx);
    }

    /// Hub: take each signed upload once. One whose seq the floor has
    /// passed is stale: its `taken` entry may be pruned, so it is dropped
    /// unchecked.
    fn on_message(r: &mut TbReplica, _from: NodeId, msg: TbMsg, ctx: &mut Ctx<'_>) {
        let TbPayload::Upload { batch, seq } = &msg.payload else { return };
        if !r.is_leader()
            || r.rule.taken.is_stale(msg.signer, *seq)
            || !r.verify_envelope(&msg, ctx)
        {
            return;
        }
        // Taken into the block the next tick cuts.
        if r.rule.taken.take(r.b_com_height + 1, (msg.signer, *seq)) {
            r.rule.uploads.insert((*seq, msg.signer), batch.clone());
        }
    }

    /// Hub: every tick with uploads orders them all into one block,
    /// commits it, signs it once and multicasts it.
    fn on_timer(r: &mut TbReplica, token: TimerToken, ctx: &mut Ctx<'_>) {
        if token != TimerToken::Order {
            return;
        }
        if !r.rule.uploads.is_empty() {
            let uploads = std::mem::take(&mut r.rule.uploads);
            let batch: Vec<Command> = uploads.values().flat_map(|c| c.iter().cloned()).collect();
            let parent = r.store.get(&r.b_com).expect("committed tip stored").clone();
            let block = r.cut_block(&parent, parent.height + 1, batch, ctx);
            let (id, height) = (block.id(), block.height);
            r.commit_block(id, ctx);
            let msg = r.sign(TbPayload::Propose { block }, ctx);
            r.proposals_seen.insert_new(height, (r.v_cur, height), (id, msg.clone()));
            ctx.multicast(msg);
        }
        ctx.set_timer(r.params.delta * 2, TimerToken::Order);
    }

    /// The skeleton's restart repair request is the outstanding one.
    fn wipe_volatile(&mut self) {
        self.repairing = true;
    }

    /// Caught up (as far as one capped reply gets): resume uploading.
    fn on_repaired(r: &mut TbReplica, _tip: &Block, ctx: &mut Ctx<'_>) {
        r.rule.repairing = false;
        r.rule.uploaded = false;
        TrustedRule::try_propose(r, ctx);
    }

    fn prune_below(&mut self, floor: u64) {
        self.taken.prune_below(floor);
    }

    fn bookkeeping(&self) -> Vec<(&'static str, usize)> {
        vec![("taken", self.taken.len())]
    }
}

/// Builds the hub (node 0) plus `n − 1` CPS nodes. `faults` assigns a
/// behaviour to each spoke; the externally powered hub is honest whatever
/// the closure returns for node 0.
pub fn build_tb_replicas(
    config: &TbConfig,
    pki: &Arc<KeyStore>,
    faults: impl Fn(NodeId) -> FaultMode,
) -> Vec<TbReplica> {
    (0..config.n as NodeId)
        .map(|id| {
            let fault = if id == HUB { FaultMode::Honest } else { faults(id) };
            TbReplica::new(id, *config, pki.clone(), fault)
        })
        .collect()
}
