//! Blocks and the hash-linked chain store.
//!
//! A block is the unit of the linearizable log (§2, "Blocks"):
//! `block.parent` is the hash of the parent block and `block.contents` the
//! batch of client commands. Genesis has height 0; heights increase by one
//! along parent links. The paper's concrete instantiation (§5.6) is
//! `B = ⟨m, H(b_m), H(h_{m−1}), ⟨i, H(b_i)⟩_L⟩` — height, payload hash,
//! parent hash, leader signature; our wire sizes follow that layout.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use eesmr_crypto::digest::ByteSink;
use eesmr_crypto::{Digest, Hashable, KeySet};

/// A client command (opaque request bytes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Command(Vec<u8>);

impl Command {
    /// Wraps raw request bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        Command(bytes)
    }

    /// A synthetic command of exactly `len` bytes with an embedded sequence
    /// number, for workload generation (the paper's fixed-size `b_i`).
    pub fn synthetic(seq: u64, len: usize) -> Self {
        let mut bytes = vec![0u8; len.max(8)];
        bytes[..8].copy_from_slice(&seq.to_le_bytes());
        Command(bytes)
    }

    /// The request bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the command is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// 64-bit trace fingerprint: the first 8 bytes of the command's
    /// SHA-256 digest, little-endian. Stable across runs and cheap to
    /// carry in trace events; call sites gate on the trace level first
    /// so the untraced path never pays for the hash.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.digest())
    }
}

/// The 64-bit trace fingerprint of a digest (first 8 bytes,
/// little-endian).
pub fn fingerprint(d: &Digest) -> u64 {
    d.to_u64()
}

impl Hashable for Command {
    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.extend_from_slice(&(self.0.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.0);
    }
}

/// An immutable, shared batch of [`Command`]s — the payload body carried
/// by blocks and forward messages.
///
/// Fan-out is the simulator's hot path: one broadcast clones its message
/// once per receiver, and under the old `Vec<Command>` representation
/// each clone copied every command. `Commands` wraps the batch in an
/// `Arc<[Command]>` so a clone is a refcount bump — O(1) in payload size.
/// The batch is immutable after construction (no `&mut` access exists),
/// which is what makes the sharing sound: every holder observes the same
/// bytes forever, so digests, wire sizes, and flood keys are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commands(Arc<[Command]>);

impl Commands {
    /// Number of commands in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over the commands.
    pub fn iter(&self) -> std::slice::Iter<'_, Command> {
        self.0.iter()
    }
}

impl Default for Commands {
    fn default() -> Self {
        Commands(Arc::from(Vec::new()))
    }
}

impl From<Vec<Command>> for Commands {
    fn from(v: Vec<Command>) -> Self {
        Commands(v.into())
    }
}

impl std::ops::Deref for Commands {
    type Target = [Command];
    fn deref(&self) -> &[Command] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Commands {
    type Item = &'a Command;
    type IntoIter = std::slice::Iter<'a, Command>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// One block of the replicated log: a cheap, immutable handle.
///
/// A clone is a refcount bump, so the block store, the proposal dedup
/// table, queued network events and every in-flight copy of a message
/// share one allocation per block. The fields are read through `Deref`
/// (`block.height`, `block.payload`); nothing can write them, and the only
/// constructors are [`Block::new`], [`Block::genesis`],
/// [`Block::extending`] and the wire decoder — each of which derives the
/// id from the content. That is what lets [`Block::id`] be a field read:
/// the id is hashed once per block, and never taken from a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block(Arc<BlockInner>);

/// The content of a [`Block`] (see there; reached through `Deref`).
#[derive(Debug, PartialEq, Eq)]
pub struct BlockInner {
    /// Hash of the canonical encoding of the fields below.
    id: Digest,
    /// Hash of the parent block ([`Digest::ZERO`] for genesis).
    pub parent: Digest,
    /// Distance from genesis.
    pub height: u64,
    /// View in which the block was proposed (0 for genesis).
    pub view: u64,
    /// Round in which the block was proposed (0 for genesis).
    pub round: u64,
    /// The commands `Cmds`.
    pub payload: Commands,
}

impl std::ops::Deref for Block {
    type Target = BlockInner;
    fn deref(&self) -> &BlockInner {
        &self.0
    }
}

impl Block {
    /// A block with exactly this content; hashes it once for [`Block::id`].
    pub fn new(
        parent: Digest,
        height: u64,
        view: u64,
        round: u64,
        payload: impl Into<Commands>,
    ) -> Self {
        let mut inner =
            BlockInner { id: Digest::ZERO, parent, height, view, round, payload: payload.into() };
        inner.id = inner.digest();
        Block(Arc::new(inner))
    }

    /// The genesis block `G`.
    pub fn genesis() -> Self {
        Block::new(Digest::ZERO, 0, 0, 0, Commands::default())
    }

    /// Creates the proposal block extending `parent` (the `CreateProposal`
    /// helper of Algorithm 1).
    pub fn extending(parent: &Block, view: u64, round: u64, payload: impl Into<Commands>) -> Self {
        Block::new(parent.id(), parent.height + 1, view, round, payload)
    }

    /// This block's identifier: the hash of its canonical encoding,
    /// computed when the block was built.
    pub fn id(&self) -> Digest {
        self.id
    }

    /// 64-bit trace fingerprint of this block's id (see
    /// [`fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.id)
    }

    /// Total payload bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.iter().map(Command::len).sum()
    }

    /// Bytes this block occupies on the wire: exactly its encoded length —
    /// parent hash (32) + height/view/round (24) + length-prefixed
    /// commands (see [`crate::codec`]).
    pub fn wire_size(&self) -> usize {
        eesmr_net::WireCodec::encoded_len(self)
    }
}

/// The canonical encoding the id is the hash of (the id itself excluded).
impl Hashable for BlockInner {
    fn encode_into<S: ByteSink>(&self, out: &mut S) {
        out.extend_from_slice(b"block");
        out.extend_from_slice(self.parent.as_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.view.to_le_bytes());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        for cmd in &self.payload {
            cmd.encode_into(out);
        }
    }
}

/// Lineage of one block relative to another, with an explicit "unknown"
/// for gaps (see [`BlockStore::lineage`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lineage {
    /// Same block.
    Equal,
    /// The first block is a descendant of (extends) the second.
    Extends,
    /// The first block is an ancestor of the second.
    ExtendedBy,
    /// Provably on different branches.
    Fork,
    /// Cannot be determined from locally known blocks.
    Unknown,
}

impl Lineage {
    /// Whether the two blocks are *provably* on conflicting branches.
    pub fn is_fork(self) -> bool {
        matches!(self, Lineage::Fork)
    }
}

/// A stored block handle that hashes and compares as the id it carries,
/// so the store keys each block by its own id instead of a second copy.
#[derive(Debug, Clone)]
struct ById(Block);

impl PartialEq for ById {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}

impl Eq for ById {}

/// Exactly what the id's own `Hash` feeds the hasher (the `Borrow` contract).
impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl Borrow<Digest> for ById {
    fn borrow(&self) -> &Digest {
        &self.0.id
    }
}

/// A store of blocks indexed by hash, tolerant of orphans (blocks whose
/// parents have not arrived yet — chain synchronization fills the gaps).
/// Each entry is the block's handle alone, looked up by the id it carries.
#[derive(Debug, Clone)]
pub struct BlockStore {
    blocks: KeySet<ById>,
    genesis: Digest,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStore {
    /// A store holding only genesis.
    pub fn new() -> Self {
        let g = Block::genesis();
        let id = g.id();
        let mut blocks = KeySet::default();
        blocks.insert(ById(g));
        BlockStore { blocks, genesis: id }
    }

    /// The genesis block id.
    pub fn genesis_id(&self) -> Digest {
        self.genesis
    }

    /// Inserts a block (idempotent: the first handle stored for an id
    /// stays). Returns its id.
    pub fn insert(&mut self, block: Block) -> Digest {
        let id = block.id();
        self.blocks.insert(ById(block));
        id
    }

    /// Looks a block up by id.
    pub fn get(&self, id: &Digest) -> Option<&Block> {
        self.blocks.get(id).map(|stored| &stored.0)
    }

    /// Whether the block is present.
    pub fn contains(&self, id: &Digest) -> bool {
        self.blocks.contains(id)
    }

    /// Number of stored blocks (including genesis).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether only genesis is stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() <= 1
    }

    /// Walks parent links from `id` up to (at most) `limit` blocks,
    /// returning the visited blocks (nearest first). Stops at genesis or at
    /// a gap.
    pub fn ancestors(&self, id: &Digest, limit: usize) -> Vec<&Block> {
        let mut out = Vec::new();
        let mut cur = *id;
        while out.len() < limit {
            match self.get(&cur) {
                Some(b) => {
                    out.push(b);
                    if b.height == 0 {
                        break;
                    }
                    cur = b.parent;
                }
                None => break,
            }
        }
        out
    }

    /// Whether `descendant` extends (is equal to or a descendant of)
    /// `ancestor`. Returns `false` when the walk hits a gap, so callers
    /// treat unknown lineage as non-extending and trigger chain sync.
    pub fn extends(&self, descendant: &Digest, ancestor: &Digest) -> bool {
        let Some(anc) = self.get(ancestor) else { return false };
        let mut cur = *descendant;
        loop {
            if cur == *ancestor {
                return true;
            }
            match self.get(&cur) {
                Some(b) if b.height > anc.height => cur = b.parent,
                _ => return false,
            }
        }
    }

    /// Lineage of `a` relative to `b`, distinguishing *provable* forks from
    /// gaps in the local store (callers must not treat "unknown because I
    /// am missing blocks" as a conflict — that is what chain sync is for).
    pub fn lineage(&self, a: &Digest, b: &Digest) -> Lineage {
        if a == b {
            return Lineage::Equal;
        }
        let (Some(ba), Some(bb)) = (self.get(a), self.get(b)) else {
            return Lineage::Unknown;
        };
        if ba.height == bb.height {
            return Lineage::Fork; // same height, different ids
        }
        let (low, high, high_is_a) =
            if ba.height < bb.height { (ba, *b, false) } else { (bb, *a, true) };
        let mut cur = high;
        loop {
            match self.get(&cur) {
                Some(blk) if blk.height > low.height => cur = blk.parent,
                Some(blk) => {
                    return if blk.id == low.id {
                        if high_is_a {
                            Lineage::Extends
                        } else {
                            Lineage::ExtendedBy
                        }
                    } else {
                        Lineage::Fork
                    };
                }
                None => return Lineage::Unknown,
            }
        }
    }

    /// The chain segment `(ancestor, descendant]` in parent→child order, or
    /// `None` if `descendant` does not extend `ancestor` (or a gap
    /// intervenes). Used by the commit rule: committing a block commits all
    /// uncommitted ancestors.
    pub fn segment(&self, ancestor: &Digest, descendant: &Digest) -> Option<Vec<Digest>> {
        if !self.extends(descendant, ancestor) {
            return None;
        }
        let mut out = Vec::new();
        let mut cur = *descendant;
        while cur != *ancestor {
            out.push(cur);
            cur = self.get(&cur)?.parent;
        }
        out.reverse();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(store: &mut BlockStore, len: usize) -> Vec<Digest> {
        let mut ids = vec![store.genesis_id()];
        for i in 0..len {
            let parent = store.get(ids.last().unwrap()).unwrap().clone();
            let b =
                Block::extending(&parent, 1, 3 + i as u64, vec![Command::synthetic(i as u64, 16)]);
            ids.push(store.insert(b));
        }
        ids
    }

    #[test]
    fn genesis_is_present_and_height_zero() {
        let store = BlockStore::new();
        let g = store.get(&store.genesis_id()).unwrap();
        assert_eq!(g.height, 0);
        assert_eq!(g.parent, Digest::ZERO);
        assert!(store.is_empty());
    }

    #[test]
    fn extending_increments_height_and_links_parent() {
        let g = Block::genesis();
        let b = Block::extending(&g, 1, 3, vec![]);
        assert_eq!(b.height, 1);
        assert_eq!(b.parent, g.id());
        assert_ne!(b.id(), g.id());
    }

    #[test]
    fn id_changes_with_any_field() {
        let g = Block::genesis();
        let b1 = Block::extending(&g, 1, 3, vec![Command::synthetic(0, 16)]);
        let b2 = Block::extending(&g, 1, 4, vec![Command::synthetic(0, 16)]);
        let b3 = Block::extending(&g, 2, 3, vec![Command::synthetic(0, 16)]);
        let b4 = Block::extending(&g, 1, 3, vec![Command::synthetic(1, 16)]);
        let ids = [b1.id(), b2.id(), b3.id(), b4.id()];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j], "blocks {i} and {j}");
            }
        }
    }

    #[test]
    fn extends_walks_the_chain() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 5);
        assert!(store.extends(&ids[5], &ids[0]));
        assert!(store.extends(&ids[5], &ids[3]));
        assert!(store.extends(&ids[2], &ids[2]), "reflexive");
        assert!(!store.extends(&ids[2], &ids[4]), "not backwards");
    }

    #[test]
    fn forks_conflict() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 3);
        let base = store.get(&ids[2]).unwrap().clone();
        let fork = Block::extending(&base, 2, 7, vec![Command::synthetic(99, 8)]);
        let fork_id = store.insert(fork);
        assert_eq!(store.lineage(&fork_id, &ids[3]), Lineage::Fork);
        assert_eq!(store.lineage(&ids[2], &fork_id), Lineage::ExtendedBy);
        assert_eq!(store.lineage(&fork_id, &ids[2]), Lineage::Extends);
        assert_eq!(store.lineage(&fork_id, &fork_id), Lineage::Equal);
    }

    #[test]
    fn gaps_read_as_non_extending() {
        let mut store = BlockStore::new();
        let g = store.get(&store.genesis_id()).unwrap().clone();
        let a = Block::extending(&g, 1, 3, vec![]);
        let b = Block::extending(&a, 1, 4, vec![]);
        // Insert only the grandchild: the walk hits a gap.
        let b_id = store.insert(b);
        assert!(!store.extends(&b_id, &store.genesis_id()));
        // After sync fills the gap, lineage resolves.
        store.insert(a);
        assert!(store.extends(&b_id, &store.genesis_id()));
    }

    #[test]
    fn segment_returns_path_oldest_first() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 4);
        let seg = store.segment(&ids[1], &ids[4]).unwrap();
        assert_eq!(seg, vec![ids[2], ids[3], ids[4]]);
        assert_eq!(store.segment(&ids[4], &ids[1]), None, "wrong direction");
        assert_eq!(store.segment(&ids[2], &ids[2]).unwrap(), Vec::<Digest>::new());
    }

    #[test]
    fn ancestors_respects_limit_and_gaps() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 5);
        let anc = store.ancestors(&ids[5], 3);
        assert_eq!(anc.len(), 3);
        assert_eq!(anc[0].id(), ids[5]);
        let all = store.ancestors(&ids[5], 100);
        assert_eq!(all.len(), 6, "stops at genesis");
    }

    #[test]
    fn lineage_distinguishes_forks_from_gaps() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 3);
        assert_eq!(store.lineage(&ids[3], &ids[1]), Lineage::Extends);
        assert_eq!(store.lineage(&ids[1], &ids[3]), Lineage::ExtendedBy);
        assert_eq!(store.lineage(&ids[2], &ids[2]), Lineage::Equal);

        // A fork at the same base is provable.
        let base = store.get(&ids[2]).unwrap().clone();
        let fork = Block::extending(&base, 9, 9, vec![]);
        let fork_id = store.insert(fork);
        assert_eq!(store.lineage(&fork_id, &ids[3]), Lineage::Fork);
        assert!(store.lineage(&fork_id, &ids[3]).is_fork());

        // A gap reads as Unknown, not Fork.
        let far = Block::extending(
            &Block::new(Digest::of(b"?"), 10, 9, 9, Commands::default()),
            9,
            10,
            vec![],
        );
        let far_id = store.insert(far);
        assert_eq!(store.lineage(&far_id, &ids[3]), Lineage::Unknown);
        assert_eq!(store.lineage(&Digest::of(b"missing"), &ids[1]), Lineage::Unknown);
    }

    #[test]
    fn command_synthetic_has_exact_size() {
        let c = Command::synthetic(7, 16);
        assert_eq!(c.len(), 16);
        assert!(!c.is_empty());
        let tiny = Command::synthetic(7, 2);
        assert_eq!(tiny.len(), 8, "minimum carries the sequence number");
    }

    #[test]
    fn clones_share_one_allocation() {
        let b = Block::extending(&Block::genesis(), 1, 3, vec![Command::synthetic(0, 16)]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(std::ptr::eq(&*b, &*c), "a block clone is a refcount bump");
        assert!(std::ptr::eq(b.payload.as_ptr(), b.payload.clone().as_ptr()));
    }

    #[test]
    fn wire_size_matches_layout() {
        let g = Block::genesis();
        let b = Block::extending(&g, 1, 3, vec![Command::synthetic(0, 100)]);
        // parent 32 + height/view/round 24 + command count 4
        // + one command (4-byte length prefix + 100 bytes).
        assert_eq!(b.wire_size(), 32 + 24 + 4 + (4 + 100));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut store = BlockStore::new();
        let g = store.get(&store.genesis_id()).unwrap().clone();
        let b = Block::extending(&g, 1, 3, vec![]);
        let id1 = store.insert(b.clone());
        let id2 = store.insert(b);
        assert_eq!(id1, id2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn a_stored_handle_hashes_as_the_id_it_borrows() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let table = BuildHasherDefault::<eesmr_crypto::KeyHasher>::default();
        for b in [Block::genesis(), Block::extending(&Block::genesis(), 1, 3, vec![])] {
            let stored = ById(b.clone());
            assert_eq!(table.hash_one(&stored), table.hash_one(b.id()));
            assert_eq!(Borrow::<Digest>::borrow(&stored), &b.id());
        }
    }

    #[test]
    fn a_lookup_by_id_finds_that_block_and_no_other() {
        let mut store = BlockStore::new();
        let ids = chain(&mut store, 3);
        for (height, id) in ids.iter().enumerate() {
            let b = store.get(id).expect("stored");
            assert_eq!((b.id(), b.height), (*id, height as u64));
            assert!(store.contains(id));
        }
        let stranger = Digest::of(b"no stored block has this id");
        assert_eq!(store.get(&stranger), None);
        assert!(!store.contains(&stranger));
    }

    #[test]
    fn a_second_handle_with_the_same_id_keeps_the_first() {
        let mut store = BlockStore::new();
        let first = Block::extending(&Block::genesis(), 1, 3, vec![Command::synthetic(0, 16)]);
        let second =
            Block::new(first.parent, first.height, first.view, first.round, first.payload.clone());
        assert_eq!(first.id(), second.id());
        assert!(!Arc::ptr_eq(&first.0, &second.0), "two allocations of one block");
        store.insert(first.clone());
        store.insert(second);
        assert!(Arc::ptr_eq(&store.get(&first.id()).expect("stored").0, &first.0));
        assert_eq!(store.len(), 2);
    }
}
