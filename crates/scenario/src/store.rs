//! The Structure-of-Arrays block arena of the columnar engine.
//!
//! The reference simulator boxes every block in a `Block` struct inside a
//! `Vec<Block>`; at the million-slot scale the execution loop touches
//! only two or three fields of a few blocks per slot, so the
//! array-of-structs layout drags five cold fields through the cache for
//! every hot one. [`ColumnarStore`] keeps one copy of each per-block
//! fact: slot and issuer columns (`u32` throughout) over the
//! workspace-wide [`AncestorIndex`], which already holds every parent
//! and depth and answers ancestry queries in `O(log n)` — `O(1)`
//! amortized per mint, zero steady-state allocation. Heights are the
//! index depths above the root, and honesty is read off the issuer.

use multihonest_core::AncestorIndex;
use multihonest_sim::consistency::DivergenceOps;

/// Sentinel issuer for adversarial blocks (mirrors the reference engine's
/// `usize::MAX − 1` in `u32` space).
pub const ADVERSARY: u32 = u32::MAX - 1;
/// Sentinel issuer for genesis.
pub const GENESIS_ISSUER: u32 = u32::MAX;

/// An append-only SoA block arena: column `i` of each vector describes
/// block id `i`; id `0` is genesis. Ids are interchangeable with the
/// reference engine's [`BlockId`](multihonest_sim::BlockId) — for
/// identical histories the two arenas assign identical ids.
#[derive(Debug, Clone)]
pub struct ColumnarStore {
    slot: Vec<u32>,
    issuer: Vec<u32>,
    /// Parent links and depths (genesis self-parents at depth 0).
    anc: AncestorIndex,
    /// The absolute height of block 0: 0 for genesis, the compacted
    /// root's height after [`reset_to_root`](ColumnarStore::reset_to_root).
    root_height: u32,
}

impl Default for ColumnarStore {
    fn default() -> ColumnarStore {
        ColumnarStore::new()
    }
}

impl ColumnarStore {
    /// A store holding only genesis.
    pub fn new() -> ColumnarStore {
        ColumnarStore::with_capacity(0)
    }

    /// A store holding only genesis, with room for `blocks` more.
    pub fn with_capacity(blocks: usize) -> ColumnarStore {
        let mut s = ColumnarStore {
            slot: Vec::with_capacity(blocks + 1),
            issuer: Vec::with_capacity(blocks + 1),
            anc: AncestorIndex::new(),
            root_height: 0,
        };
        s.slot.push(0);
        s.issuer.push(GENESIS_ISSUER);
        s
    }

    /// Reserves room for at least `additional` more blocks.
    pub fn reserve(&mut self, additional: usize) {
        self.slot.reserve(additional);
        self.issuer.reserve(additional);
        self.anc.reserve(additional);
    }

    /// Resets the store to the genesis-only state, keeping every column
    /// allocation — the arena-reuse hook: a store that has run one
    /// execution resets in `O(1)` heap traffic for the next seed.
    pub fn reset(&mut self) {
        self.slot.clear();
        self.issuer.clear();
        self.anc.clear();
        self.slot.push(0);
        self.issuer.push(GENESIS_ISSUER);
        self.root_height = 0;
    }

    /// Resets the store to hold a single **compacted root** block with
    /// the given absolute coordinates — the store-side half of horizon
    /// compaction. The root takes over id 0 (self-parenting, like
    /// genesis), so every id-0-relative invariant keeps holding, while
    /// its slot and height stay absolute: minting still asserts
    /// `slot > parent_slot` and heights keep accumulating, so a
    /// compacted execution is indistinguishable from the uncompacted one
    /// above the root. Keeps allocations, like
    /// [`reset`](ColumnarStore::reset).
    pub fn reset_to_root(&mut self, slot: usize, height: usize, issuer: u32) {
        self.reset();
        self.slot[0] = slot as u32;
        self.issuer[0] = issuer;
        self.root_height = height as u32;
    }

    /// Mints a block on `parent` at `slot` by `issuer` and returns its id;
    /// the block is honest unless `issuer` is [`ADVERSARY`].
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not exist or `slot` does not exceed the
    /// parent's slot (hash-chaining makes backdating impossible).
    pub fn mint(&mut self, parent: u32, slot: usize, issuer: u32) -> u32 {
        let p = parent as usize;
        assert!(
            slot > self.slot[p] as usize,
            "child slot {slot} must exceed parent slot {}",
            self.slot[p]
        );
        let id = self.slot.len() as u32;
        self.slot.push(slot as u32);
        self.issuer.push(issuer);
        let idx = self.anc.push(p);
        debug_assert_eq!(idx, id as usize);
        id
    }

    /// Number of blocks including genesis.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Always `false` (genesis is always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The slot of `b`.
    #[inline]
    pub fn slot(&self, b: u32) -> usize {
        self.slot[b as usize] as usize
    }

    /// The chain height of `b` (genesis has 0; a compacted root keeps
    /// its absolute height).
    #[inline]
    pub fn height(&self, b: u32) -> usize {
        self.root_height as usize + self.anc.depth(b as usize)
    }

    /// The parent of `b`, or `None` for genesis.
    #[inline]
    pub fn parent(&self, b: u32) -> Option<u32> {
        self.anc.parent(b as usize).map(|p| p as u32)
    }

    /// The issuer of `b` ([`ADVERSARY`]/[`GENESIS_ISSUER`] sentinels).
    #[inline]
    pub fn issuer(&self, b: u32) -> u32 {
        self.issuer[b as usize]
    }

    /// Whether `b` was minted by an honest leader (genesis counts as
    /// honest).
    #[inline]
    pub fn is_honest(&self, b: u32) -> bool {
        self.issuer[b as usize] != ADVERSARY
    }

    /// The last common block of the chains at `a` and `b`, `O(log n)`.
    #[inline]
    pub fn last_common_block(&self, a: u32, b: u32) -> u32 {
        self.anc.lca(a as usize, b as usize) as u32
    }

    /// Whether `a` lies on the chain ending at `b` (inclusive) —
    /// equivalent to `last_common_block(a, b) == a` but one directed
    /// skew-binary descent instead of a full meet computation.
    #[inline]
    pub fn is_ancestor(&self, a: u32, b: u32) -> bool {
        self.anc.is_ancestor_or_equal(a as usize, b as usize)
    }

    /// The chain from genesis to `tip`, inclusive.
    pub fn chain(&self, tip: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.height(tip) + 1);
        let mut cur = tip;
        loop {
            out.push(cur);
            match self.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        out.reverse();
        out
    }
}

impl DivergenceOps for ColumnarStore {
    fn block_count(&self) -> usize {
        self.len()
    }

    fn slot_of(&self, b: u32) -> usize {
        self.slot(b)
    }

    fn parent_of(&self, b: u32) -> u32 {
        self.parent(b).unwrap_or(0)
    }

    fn lca(&self, a: u32, b: u32) -> u32 {
        self.last_common_block(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_and_minting() {
        let mut s = ColumnarStore::new();
        assert_eq!(s.len(), 1);
        assert_eq!(s.parent(0), None);
        let a = s.mint(0, 1, 0);
        let b = s.mint(a, 2, 1);
        let c = s.mint(a, 3, ADVERSARY);
        assert_eq!(s.height(b), 2);
        assert_eq!(s.parent(c), Some(a));
        assert!(!s.is_honest(c));
        assert_eq!(s.last_common_block(b, c), a);
        assert_eq!(s.chain(b), vec![0, a, b]);
    }

    #[test]
    fn reset_matches_fresh_store() {
        let mut s = ColumnarStore::with_capacity(8);
        let a = s.mint(0, 1, 0);
        let _ = s.mint(a, 2, ADVERSARY);
        s.reset();
        assert_eq!(s.len(), 1);
        assert_eq!(s.parent(0), None);
        assert_eq!(s.issuer(0), GENESIS_ISSUER);
        // Rebuilding after reset gives the same ids and ancestry answers.
        let a = s.mint(0, 1, 0);
        let b = s.mint(a, 2, 1);
        let c = s.mint(a, 3, ADVERSARY);
        assert_eq!((a, b, c), (1, 2, 3));
        assert_eq!(s.last_common_block(b, c), a);
    }

    /// A compacted root reads its absolute height, slot and issuer
    /// through the derived columns, and its children build on them.
    #[test]
    fn compacted_roots_read_through_the_derived_columns() {
        let mut s = ColumnarStore::new();
        let a = s.mint(0, 1, 0);
        let _ = s.mint(a, 2, ADVERSARY);
        for (issuer, honest) in [(3, true), (ADVERSARY, false)] {
            s.reset_to_root(40, 17, issuer);
            assert_eq!(s.len(), 1);
            assert_eq!((s.slot(0), s.height(0), s.issuer(0)), (40, 17, issuer));
            assert_eq!(s.is_honest(0), honest);
            assert_eq!(s.parent(0), None);
            assert_eq!(DivergenceOps::parent_of(&s, 0), 0);
            let b = s.mint(0, 42, 1);
            let c = s.mint(b, 45, ADVERSARY);
            assert_eq!((b, c), (1, 2));
            assert_eq!((s.height(b), s.height(c)), (18, 19));
            assert_eq!((s.parent(b), s.parent(c)), (Some(0), Some(b)));
            assert_eq!(DivergenceOps::parent_of(&s, c), b);
            assert!(s.is_honest(b) && !s.is_honest(c));
            assert_eq!(s.chain(c), vec![0, b, c]);
        }
        // A plain reset forgets the root height.
        s.reset();
        assert_eq!((s.slot(0), s.height(0)), (0, 0));
        let a = s.mint(0, 1, 0);
        assert_eq!(s.height(a), 1);
    }

    #[test]
    #[should_panic(expected = "must exceed parent slot")]
    fn backdating_rejected() {
        let mut s = ColumnarStore::new();
        let a = s.mint(0, 5, 0);
        let _ = s.mint(a, 5, 1);
    }
}
