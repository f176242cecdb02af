//! The indexed consistency-query layer: settlement sweeps in one pass.
//!
//! Paper Definition 3 calls slot `s` *`k`-settled* when no observation at
//! a slot `t ≥ s + k` exhibits two honest views (or a rollback pair)
//! whose chains diverge prior to `s`. The naive check re-scans every
//! observation slot `t` and every tip pair per query — `O(slots² · tips²
//! · log n)` for a full sweep over all anchors `s`, repeated per `k`.
//!
//! This module folds the whole execution into a [`DivergenceIndex`] once:
//! for every anchor slot `s` it records the **earliest** and **latest**
//! observation slots at which some pair of simultaneous honest views, or
//! a rollback pair, diverges prior to `s`. Every settlement query then
//! becomes an array lookup:
//!
//! * `settlement_violation(s, k)` ⇔ `latest[s] ≥ s + k` — `O(1)`;
//! * a full sweep `settlement_violations(k)` — `O(slots)` for *any* `k`;
//! * `first_violating_slot(k)` — `O(slots)` worst case, `O(1)` when the
//!   execution has no violation at all (checked against the maximum lag).
//!
//! The fold rests on a structural fact about longest-chain views. Fix an
//! observation slot `t` with distinct honest tips `T_t` and let `L_t` be
//! the last block common to *all* of them. Blocks above `L_t` carry slots
//! strictly greater than `slot(L_t)`, so for `s ≤ slot(L_t)` every view
//! agrees prior to `s`; and for `s > slot(L_t)` two views differ at `s`
//! exactly when **some** tip's chain carries a block at slot `s` (were the
//! same slot-`s` block on every chain, it would be a common block deeper
//! than `L_t`). The per-`t` diverging-anchor set is therefore
//!
//! ```text
//! U_t = { s > slot(L_t) : some tip chain at t has a block at slot s }
//! ```
//!
//! which the builder walks once per *distinct* tip set (consecutive slots
//! with unchanged tips share their `U_t`, so only run boundaries pay),
//! marking visited blocks so shared suffixes above `L_t` are not
//! re-walked. Rollback pairs `(t, old, new)` contribute the slots above
//! `lca(old, new)` on both chains directly. Total build cost:
//! `O(blocks + Σ_{tip-set changes} |subtree above L_t| + tips · log n)` —
//! in healthy executions the diverging subtree is a short suffix, making
//! the pass effectively linear in `blocks + slots · tips`.

use crate::block::{BlockId, BlockStore};

/// The store-side ancestry queries the divergence fold needs, over bare
/// `u32` block ids (the common currency of the reference [`BlockStore`]
/// and the scenario crate's columnar arena). Implementations must satisfy
/// the arena invariants the fold relies on: id `0` is genesis at slot 0,
/// parents exist before children, and slots strictly increase along
/// parent links.
pub trait DivergenceOps {
    /// Number of blocks including genesis (sizes the visited-mark table).
    fn block_count(&self) -> usize;
    /// The slot of block `b`.
    fn slot_of(&self, b: u32) -> usize;
    /// The parent of `b`; genesis may return itself (the fold never walks
    /// past a block whose slot is at or below the meet slot).
    fn parent_of(&self, b: u32) -> u32;
    /// The last common block of `a` and `b`.
    fn lca(&self, a: u32, b: u32) -> u32;
}

impl DivergenceOps for BlockStore {
    fn block_count(&self) -> usize {
        self.len()
    }

    fn slot_of(&self, b: u32) -> usize {
        self.block(BlockId(b)).slot
    }

    fn parent_of(&self, b: u32) -> u32 {
        self.block(BlockId(b)).parent.unwrap_or(BlockId(0)).0
    }

    fn lca(&self, a: u32, b: u32) -> u32 {
        self.last_common_block(BlockId(a), BlockId(b)).0
    }
}

/// The **streaming** builder behind [`DivergenceIndex`]: observations are
/// fed in chronological slot order ([`DivergenceFold::observe_tips`] once
/// per slot, [`DivergenceFold::observe_rollback`] as rollbacks happen)
/// and folded into `O(slots)` state on the fly — no per-slot trace needs
/// to be retained. The reference simulator's batch index build and the
/// columnar scenario engine's streaming mode both drive this same fold —
/// the columnar engine through
/// [`DivergenceFold::observe_tips_divergence`], which leaves the fold in
/// the state `observe_tips` would — so their indices are identical.
///
/// Chronological interleaving is equivalent to the batch order
/// (all tip runs, then all rollbacks): `latest` updates are pure maxima,
/// and `earliest` updates are pure minima — the run branch only writes an
/// unset entry, and in chronological order any earlier rollback write is
/// already the minimum.
#[derive(Debug, Clone)]
pub struct DivergenceFold {
    slots: usize,
    /// Anchors `≤ base` have been drained out of the window (segmented
    /// executions advance it at compaction points); `earliest[i]` /
    /// `latest[i]` describe anchor `base + i + 1`. Full-horizon folds
    /// keep `base = 0` forever.
    base: usize,
    earliest: Vec<usize>,
    latest: Vec<usize>,
    /// Anchors diverging under the currently open run of identical tip
    /// sets.
    current: Vec<usize>,
    /// Epoch-stamped visited mark per block so shared chain suffixes are
    /// walked once per recomputation; grown lazily as the arena grows.
    mark: Vec<u32>,
    epoch: u32,
    /// The previous slot's distinct tip set (runs of identical sets share
    /// one recomputation).
    prev: Vec<u32>,
    prev_slot: usize,
    /// The slot divergence of `prev`, as
    /// [`DivergenceFold::observe_tips_divergence`] last computed it.
    prev_div: usize,
    /// The chain walk's pointers: `(block, its slot, the highest tip slot
    /// merged into the pointer)`.
    walk: Vec<(u32, usize, usize)>,
}

impl DivergenceFold {
    /// A fold covering anchor slots `1..=slots`.
    pub fn new(slots: usize) -> DivergenceFold {
        DivergenceFold {
            slots,
            base: 0,
            earliest: vec![0; slots],
            latest: vec![0; slots],
            current: Vec::new(),
            mark: Vec::new(),
            epoch: 0,
            prev: Vec::new(),
            prev_slot: 0,
            prev_div: 0,
            walk: Vec::new(),
        }
    }

    /// A **windowed** fold over the same anchor domain `1..=slots`, but
    /// with lazily grown arrays: memory tracks the span since the last
    /// [`DivergenceFold::advance_base`] instead of the full horizon —
    /// the shape the segmented horizon driver needs at 10⁸ slots, where
    /// eager `O(slots)` arrays alone would be ≈ 1.6 GB.
    pub fn windowed(slots: usize) -> DivergenceFold {
        DivergenceFold {
            slots,
            base: 0,
            earliest: Vec::new(),
            latest: Vec::new(),
            current: Vec::new(),
            mark: Vec::new(),
            epoch: 0,
            prev: Vec::new(),
            prev_slot: 0,
            prev_div: 0,
            walk: Vec::new(),
        }
    }

    /// A windowed fold resumed at a compaction point: anchors `≤ base`
    /// were drained by the run being resumed, the observation clock
    /// stands at `base`, and the last observation was unanimous on the
    /// (rebased) root block `0`.
    pub fn resume_at(slots: usize, base: usize) -> DivergenceFold {
        let mut fold = DivergenceFold::windowed(slots);
        fold.base = base;
        fold.prev_slot = base;
        fold.prev.push(0);
        fold
    }

    /// Grows the window to cover anchor `s` (no-op for full-size folds).
    #[inline]
    fn ensure_anchor(&mut self, s: usize) {
        let need = s - self.base;
        if self.latest.len() < need {
            self.latest.resize(need, 0);
            self.earliest.resize(need, 0);
        }
    }

    /// Drains every settled anchor `base < s ≤ new_base` out of the
    /// window — calling `drain(s, earliest, latest)` for each anchor
    /// with a diverging observation — and advances the base. The caller
    /// must be at a **fully settled** observation point: the clock
    /// stands exactly at `new_base` and the last observation was
    /// unanimous (so no run is open and no future observation can touch
    /// a drained anchor — post-compaction blocks all carry slots
    /// `> new_base`).
    pub fn advance_base<F: FnMut(usize, usize, usize)>(&mut self, new_base: usize, mut drain: F) {
        debug_assert!(
            self.current.is_empty(),
            "compaction requires a closed (unanimous) run"
        );
        debug_assert_eq!(
            self.prev_slot, new_base,
            "compaction point must be the current observation slot"
        );
        debug_assert!(new_base >= self.base, "base can only advance");
        // Every recorded anchor is a block slot ≤ the observation clock,
        // so the whole window drains; nothing shifts.
        debug_assert!(self.latest.len() <= new_base - self.base);
        for i in 0..self.latest.len() {
            if self.latest[i] != 0 {
                drain(self.base + i + 1, self.earliest[i], self.latest[i]);
            }
        }
        self.earliest.clear();
        self.latest.clear();
        self.base = new_base;
    }

    /// Re-points the previous unanimous observation at the rebased root
    /// block `0` — the fold-side half of a store compaction, where the
    /// unanimous tip becomes the new root id. Requires the last
    /// observation to have been unanimous (or the never-materialized
    /// genesis-unanimous state).
    pub fn rebase_unanimous_root(&mut self) {
        debug_assert!(self.current.is_empty(), "open run at a rebase point");
        debug_assert!(self.prev.len() <= 1, "rebase requires unanimous tips");
        self.prev.clear();
        self.prev.push(0);
    }

    /// Closes the final run and drains every remaining anchor of the
    /// window — the windowed analogue of [`DivergenceFold::finish`],
    /// for drivers that aggregate instead of materialising a
    /// [`DivergenceIndex`].
    pub fn finish_windowed<F: FnMut(usize, usize, usize)>(mut self, mut drain: F) {
        for &s in &self.current {
            let i = s - 1 - self.base;
            self.latest[i] = self.latest[i].max(self.slots);
        }
        for i in 0..self.latest.len() {
            if self.latest[i] != 0 {
                drain(self.base + i + 1, self.earliest[i], self.latest[i]);
            }
        }
    }

    /// Observes the distinct honest tips at the end of slot `t`. Must be
    /// called exactly once per slot, in increasing order.
    pub fn observe_tips<S: DivergenceOps>(&mut self, store: &S, t: usize, tips: &[u32]) {
        debug_assert_eq!(t, self.prev_slot + 1, "tips must arrive in slot order");
        if t > 1 && tips == self.prev {
            self.prev_slot = t;
            return; // same views, same diverging anchors: run stays open
        }
        // Close the previous run: its anchors were last seen at t − 1.
        for &s in &self.current {
            self.latest[s - 1 - self.base] = self.latest[s - 1 - self.base].max(t - 1);
        }
        self.current.clear();
        if tips.len() > 1 {
            self.ensure_anchor(t);
            if self.mark.len() < store.block_count() {
                self.mark.resize(store.block_count(), 0);
            }
            let mut meet = tips[0];
            for &tip in &tips[1..] {
                meet = store.lca(meet, tip);
            }
            let meet_slot = store.slot_of(meet);
            self.epoch += 1;
            for &tip in tips {
                let mut cur = tip;
                while store.slot_of(cur) > meet_slot && self.mark[cur as usize] != self.epoch {
                    self.mark[cur as usize] = self.epoch;
                    self.current.push(store.slot_of(cur));
                    cur = store.parent_of(cur);
                }
            }
            for &s in &self.current {
                if self.earliest[s - 1 - self.base] == 0 {
                    self.earliest[s - 1 - self.base] = t;
                }
            }
        }
        self.prev.clear();
        self.prev.extend_from_slice(tips);
        self.prev_slot = t;
    }

    /// Advances the fold to slot `t` **without** re-presenting the tip
    /// set, asserting the caller's knowledge that the distinct honest
    /// tips at `t` equal those at `t − 1`. Equivalent to — and
    /// bit-identical with — calling [`DivergenceFold::observe_tips`]
    /// with an unchanged set (the open run simply stays open), but
    /// skips the set comparison entirely: the columnar engine's
    /// quiet-slot fast path proves "no mint, no delivery ⇒ tips
    /// unchanged" structurally and pays one store here instead.
    #[inline]
    pub fn observe_tips_unchanged(&mut self, t: usize) {
        debug_assert_eq!(t, self.prev_slot + 1, "tips must arrive in slot order");
        self.prev_slot = t;
    }

    /// Observes the tip set `{parent, child}` at slot `t`, where `child`
    /// is a **fresh block minted on the previous slot's unanimous tip**
    /// `parent` — the columnar engine's single-mint fast case.
    /// Bit-identical to [`DivergenceFold::observe_tips`] with that pair,
    /// with every derived quantity precomputed by the caller's structural
    /// knowledge: the meet of the pair *is* `parent` (no LCA), the only
    /// chain suffix above it *is* `child` (no walk, no visited marks),
    /// and the previous run — unanimous on `parent` — carries no
    /// diverging anchors (its close loop is empty).
    ///
    /// Callers must guarantee: the previous observation was the unanimous
    /// `[parent]`, `child`'s parent is `parent`, and `child` was minted at
    /// slot `child_slot = t ≥ 1`.
    #[inline]
    pub fn observe_fresh_child(&mut self, t: usize, parent: u32, child: u32, child_slot: usize) {
        debug_assert_eq!(t, self.prev_slot + 1, "tips must arrive in slot order");
        // An empty `prev` with `parent == 0` is the never-materialized
        // genesis-unanimous state: every slot so far was quiet, so the
        // tips were never re-presented. Structurally identical to
        // `prev == [0]`.
        debug_assert!(
            (self.prev.is_empty() && parent == 0) || self.prev.as_slice() == [parent],
            "previous tips must be unanimous on parent"
        );
        // Close the (unanimous, anchor-free) previous run.
        self.close_run(t);
        self.ensure_anchor(t);
        self.current.push(child_slot);
        if self.earliest[child_slot - 1 - self.base] == 0 {
            self.earliest[child_slot - 1 - self.base] = t;
        }
        self.prev.clear();
        self.prev.push(parent);
        self.prev.push(child);
        self.prev_slot = t;
        self.prev_div = 0;
    }

    /// Observes the distinct honest tips at the end of slot `t` and
    /// returns their **slot divergence**: the largest
    /// `min(slot(a), slot(b)) − slot(lca(a, b))` over tip pairs, 0 for a
    /// single tip. Leaves the fold in the state
    /// [`DivergenceFold::observe_tips`] would, with no LCA query and no
    /// visited marks: an unchanged set returns the previous slot's
    /// divergence, and a changed one is resolved by one walk down the
    /// tips' chains.
    ///
    /// The walk keeps one pointer per tip and always steps a pointer at
    /// the highest slot, so every pointer that will reach a block arrives
    /// there before any pointer leaves it. A pointer landing on another's
    /// block merges with it: that block is the last common block of every
    /// pair of tips across the two, so the largest such pair term is the
    /// smaller of their highest tip slots minus the block's slot. The
    /// walk stops when one pointer remains, on the meet of all tips, and
    /// the blocks it stepped from are exactly the blocks above the meet:
    /// the diverging anchors `observe_tips` marks.
    ///
    /// `tips` must be distinct and in a canonical order (the engines
    /// sort them), since an unchanged set is detected by equality. A fold
    /// is driven either by this method or by `observe_tips`, never both:
    /// only this method keeps the cached divergence.
    pub fn observe_tips_divergence<S: DivergenceOps>(
        &mut self,
        store: &S,
        t: usize,
        tips: &[u32],
    ) -> usize {
        debug_assert_eq!(t, self.prev_slot + 1, "tips must arrive in slot order");
        if t > 1 && tips == self.prev {
            self.prev_slot = t;
            return self.prev_div; // same views, same anchors and divergence
        }
        self.close_run(t);
        let mut div = 0;
        if tips.len() > 1 {
            self.ensure_anchor(t);
            let walk = &mut self.walk;
            walk.clear();
            walk.extend(
                tips.iter()
                    .map(|&b| (b, store.slot_of(b), store.slot_of(b))),
            );
            while walk.len() > 1 {
                let (i, &(block, slot, reach)) = walk
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, p)| p.1)
                    .expect("two or more pointers");
                self.current.push(slot);
                let parent = store.parent_of(block);
                match walk.iter().position(|p| p.0 == parent) {
                    Some(j) => {
                        div = div.max(reach.min(walk[j].2) - walk[j].1);
                        walk[j].2 = walk[j].2.max(reach);
                        walk.swap_remove(i);
                    }
                    None => walk[i] = (parent, store.slot_of(parent), reach),
                }
            }
            for &s in &self.current {
                if self.earliest[s - 1 - self.base] == 0 {
                    self.earliest[s - 1 - self.base] = t;
                }
            }
        }
        self.prev.clear();
        self.prev.extend_from_slice(tips);
        self.prev_slot = t;
        self.prev_div = div;
        div
    }

    /// Closes the open run of identical tip sets: its anchors were last
    /// seen at `t − 1`.
    fn close_run(&mut self, t: usize) {
        for &s in &self.current {
            self.latest[s - 1 - self.base] = self.latest[s - 1 - self.base].max(t - 1);
        }
        self.current.clear();
    }

    /// Observes a rollback at slot `t`: an honest node abandoned the
    /// chain at `old` for the non-descendant chain at `new`. The chains
    /// above their last common block diverge prior to every block slot on
    /// either side.
    pub fn observe_rollback<S: DivergenceOps>(&mut self, store: &S, t: usize, old: u32, new: u32) {
        let meet = store.lca(old, new);
        let meet_slot = store.slot_of(meet);
        self.ensure_anchor(t.min(self.slots));
        for tip in [old, new] {
            let mut cur = tip;
            while store.slot_of(cur) > meet_slot {
                let s = store.slot_of(cur);
                if s <= self.slots {
                    debug_assert!(s > self.base, "rollback anchor below the drained base");
                    let i = s - 1 - self.base;
                    if self.earliest[i] == 0 || t < self.earliest[i] {
                        self.earliest[i] = t;
                    }
                    self.latest[i] = self.latest[i].max(t);
                }
                cur = store.parent_of(cur);
            }
        }
    }

    /// Closes the final run and produces the queryable index. Only
    /// full-horizon folds (base never advanced) can produce one —
    /// segmented drivers drain through
    /// [`DivergenceFold::finish_windowed`] instead.
    pub fn finish(mut self) -> DivergenceIndex {
        assert_eq!(
            self.base, 0,
            "a base-advanced fold cannot build a full index"
        );
        self.earliest.resize(self.slots, 0);
        self.latest.resize(self.slots, 0);
        for &s in &self.current {
            self.latest[s - 1] = self.latest[s - 1].max(self.slots);
        }
        let max_lag = (1..=self.slots)
            .filter(|&s| self.latest[s - 1] != 0)
            .map(|s| self.latest[s - 1] - s)
            .max();
        DivergenceIndex {
            earliest: self.earliest,
            latest: self.latest,
            max_lag,
        }
    }
}

/// Per-anchor divergence observations of one finished execution; see the
/// [module docs](self) for the underlying characterisation.
///
/// Anchor slots are **1-based** (`1..=slots`), matching
/// [`Simulation::tips_at`](crate::Simulation::tips_at); queries outside
/// that domain report "no divergence" rather than panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceIndex {
    /// `earliest[s − 1]`: first observation slot with a pair diverging
    /// prior to `s` (0 = never).
    earliest: Vec<usize>,
    /// `latest[s − 1]`: last such observation slot (0 = never).
    latest: Vec<usize>,
    /// `max_s (latest[s] − s)`, cached at build time so the emptiness
    /// checks behind [`DivergenceIndex::first_violation`] and
    /// [`Metrics::observed_settlement_violation`] are truly `O(1)`.
    ///
    /// [`Metrics::observed_settlement_violation`]:
    /// crate::Metrics::observed_settlement_violation
    max_lag: Option<usize>,
}

impl DivergenceIndex {
    /// Folds the recorded per-slot honest views and rollback events into
    /// the index, in a single forward pass — a batch driver over the
    /// streaming [`DivergenceFold`].
    pub(crate) fn build(
        store: &BlockStore,
        tips_per_slot: &[Vec<BlockId>],
        rollbacks: &[(usize, BlockId, BlockId)],
    ) -> DivergenceIndex {
        let slots = tips_per_slot.len();
        let mut fold = DivergenceFold::new(slots);
        let mut buf: Vec<u32> = Vec::new();
        for (t, tips) in tips_per_slot.iter().enumerate() {
            buf.clear();
            buf.extend(tips.iter().map(|b| b.0));
            fold.observe_tips(store, t + 1, &buf);
        }
        for &(t, old, new) in rollbacks {
            fold.observe_rollback(store, t, old.0, new.0);
        }
        fold.finish()
    }

    /// Number of simulated slots the index covers.
    pub fn slots(&self) -> usize {
        self.latest.len()
    }

    /// The first observation slot at which two honest views or a rollback
    /// pair diverged prior to `slot`, if any ever did. Slots outside
    /// `1..=slots` report `None`.
    pub fn earliest_diverging_observation(&self, slot: usize) -> Option<usize> {
        match slot {
            s if s == 0 || s > self.earliest.len() => None,
            s => match self.earliest[s - 1] {
                0 => None,
                t => Some(t),
            },
        }
    }

    /// The last such observation slot; `settlement_violation(s, k)` holds
    /// exactly when this is `≥ s + k`.
    pub fn latest_diverging_observation(&self, slot: usize) -> Option<usize> {
        match slot {
            s if s == 0 || s > self.latest.len() => None,
            s => match self.latest[s - 1] {
                0 => None,
                t => Some(t),
            },
        }
    }

    /// Whether the execution exhibits a `(slot, k)`-settlement violation:
    /// some observation at `t ≥ slot + k` saw divergence prior to `slot`.
    /// `O(1)`. Anchors outside `1..=slots` are vacuously settled.
    pub fn violates(&self, slot: usize, k: usize) -> bool {
        if slot == 0 || slot > self.latest.len() {
            return false;
        }
        let t = self.latest[slot - 1];
        t != 0 && t >= slot.saturating_add(k)
    }

    /// The full settlement sweep at parameter `k`: entry `s − 1` is
    /// [`DivergenceIndex::violates`]`(s, k)` for `s ∈ 1..=slots`.
    pub fn violations(&self, k: usize) -> Vec<bool> {
        (1..=self.latest.len())
            .map(|s| self.violates(s, k))
            .collect()
    }

    /// Number of violating anchors `s ≤ upto` at parameter `k`, without
    /// materialising the sweep; `upto` is clamped to the horizon, so
    /// callers may pass `usize::MAX` for "all anchors".
    pub fn count_violations(&self, k: usize, upto: usize) -> usize {
        (1..=upto.min(self.latest.len()))
            .filter(|&s| self.violates(s, k))
            .count()
    }

    /// [`DivergenceIndex::count_violations`] at every parameter of `ks`
    /// in one pass over the anchors: entry `i` is
    /// `count_violations(ks[i], upto)`. The pass is skipped outright when
    /// the cached maximum lag lies below the smallest `k`. A campaign
    /// folds four `k`s per execution this way: 2.0 µs per default-grid
    /// execution on a 2-vCPU Xeon, against 6.4 µs for four per-`k`
    /// passes.
    pub fn violation_counts(&self, ks: &[usize], upto: usize) -> Vec<usize> {
        let mut counts = vec![0; ks.len()];
        let Some(min_k) = ks.iter().copied().min() else {
            return counts;
        };
        if self.max_lag.is_none_or(|lag| lag < min_k) {
            return counts;
        }
        let anchors = upto.min(self.latest.len());
        for (s, &t) in (1..=anchors).zip(&self.latest) {
            // As in `violates`; a never-diverging anchor (`t = 0`) fails
            // this too.
            if t < s.saturating_add(min_k) {
                continue;
            }
            let lag = t - s;
            for (count, &k) in counts.iter_mut().zip(ks) {
                *count += usize::from(lag >= k);
            }
        }
        counts
    }

    /// The smallest violating anchor at parameter `k`, if any — `O(1)`
    /// when nothing violates at `k` (the cached maximum lag rules it
    /// out), `O(slots)` otherwise.
    pub fn first_violation(&self, k: usize) -> Option<usize> {
        if self.max_lag.is_none_or(|lag| lag < k) {
            return None;
        }
        (1..=self.latest.len()).find(|&s| self.violates(s, k))
    }

    /// The largest `k` for which *some* anchor is violated: the maximum of
    /// `latest[s] − s` over anchors with a diverging observation, cached
    /// at build time. `None` when the execution never showed divergence
    /// at all, in which case every `(s, k)` is settled.
    pub fn max_settlement_lag(&self) -> Option<usize> {
        self.max_lag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built two-chain scenario: a common prefix (slots 1, 2), a
    /// fork at slots 3/4 per side, views split during slots 4–6, healed
    /// from slot 7 on.
    fn split_views() -> (BlockStore, Vec<Vec<BlockId>>) {
        let mut store = BlockStore::new();
        let p1 = store.mint(BlockId::GENESIS, 1, 0, true);
        let p2 = store.mint(p1, 2, 1, true);
        let a3 = store.mint(p2, 3, 0, true);
        let b4 = store.mint(p2, 4, 1, true);
        let a5 = store.mint(a3, 5, 0, true);
        let tips = vec![
            vec![p1],     // slot 1
            vec![p2],     // slot 2
            vec![a3],     // slot 3
            vec![a3, b4], // slot 4: views split
            vec![a3, b4], // slot 5
            vec![a5, b4], // slot 6: one side extends
            vec![a5],     // slot 7: healed
            vec![a5],     // slot 8
        ];
        (store, tips)
    }

    #[test]
    fn concurrent_views_are_indexed_with_earliest_and_latest() {
        let (store, tips) = split_views();
        let idx = DivergenceIndex::build(&store, &tips, &[]);
        // Anchors 1, 2 sit on the common prefix: never diverging.
        assert_eq!(idx.latest_diverging_observation(1), None);
        assert_eq!(idx.latest_diverging_observation(2), None);
        // Anchor 3 (and 4) diverge from observation 4 through 6.
        assert_eq!(idx.earliest_diverging_observation(3), Some(4));
        assert_eq!(idx.latest_diverging_observation(3), Some(6));
        assert_eq!(idx.earliest_diverging_observation(4), Some(4));
        assert_eq!(idx.latest_diverging_observation(4), Some(6));
        // Anchor 5 appears once a5 joins the split views at slot 6.
        assert_eq!(idx.earliest_diverging_observation(5), Some(6));
        assert_eq!(idx.latest_diverging_observation(5), Some(6));
        // Violations: anchor 3 with k ≤ 3 (6 ≥ 3 + 3), not k = 4.
        assert!(idx.violates(3, 3));
        assert!(!idx.violates(3, 4));
        assert!(idx.violates(4, 2));
        assert!(!idx.violates(4, 3));
        assert_eq!(idx.max_settlement_lag(), Some(3));
        assert_eq!(idx.first_violation(3), Some(3));
        assert_eq!(idx.first_violation(4), None);
        let sweep = idx.violations(2);
        assert_eq!(sweep.len(), 8);
        assert!(sweep[2] && sweep[3] && !sweep[0]);
    }

    #[test]
    fn rollbacks_extend_the_latest_observation() {
        let (store, mut tips) = split_views();
        // All views sit on a5 from slot 7 on, but at slot 8 a rollback
        // onto b4's branch is recorded.
        let b8 = {
            let b4 = tips[5][1];
            let mut s = store.clone();
            let b8 = s.mint(b4, 8, 2, false);
            tips[7] = vec![b8];
            (s, b8)
        };
        let (store, b8) = b8;
        let a5 = tips[6][0];
        let idx = DivergenceIndex::build(&store, &tips, &[(8, a5, b8)]);
        // The rollback pair diverges prior to anchors 3..=5 and 8.
        assert_eq!(idx.latest_diverging_observation(3), Some(8));
        assert_eq!(idx.latest_diverging_observation(5), Some(8));
        assert_eq!(idx.latest_diverging_observation(8), Some(8));
        // Boundary: t = s + k exactly is a violation (t ≥ s + k).
        assert!(idx.violates(3, 5));
        assert!(!idx.violates(3, 6));
    }

    #[test]
    fn out_of_domain_anchors_are_settled() {
        let (store, tips) = split_views();
        let idx = DivergenceIndex::build(&store, &tips, &[]);
        assert!(!idx.violates(0, 0));
        assert!(!idx.violates(9, 0));
        assert_eq!(idx.earliest_diverging_observation(0), None);
        assert_eq!(idx.latest_diverging_observation(100), None);
    }

    /// The largest `min(slot(a), slot(b)) − slot(lca(a, b))` over pairs:
    /// the reference engine's pairwise slot divergence.
    fn pairwise_divergence(store: &BlockStore, tips: &[u32]) -> usize {
        let mut div = 0;
        for (i, &a) in tips.iter().enumerate() {
            for &b in &tips[i + 1..] {
                let first = store.slot_of(a).min(store.slot_of(b));
                div = div.max(first.saturating_sub(store.slot_of(store.lca(a, b))));
            }
        }
        div
    }

    /// `observe_tips_divergence` against its two oracles on random
    /// append-only trees with same-slot siblings (concurrent honest
    /// leaders, event M): the fold it drives finishes to the index of a
    /// twin driven by `observe_tips`, and every divergence it returns is
    /// the pairwise-LCA maximum. Tip sets repeat, shrink to one tip, pair
    /// a block with its ancestor, contain genesis, follow a fresh child
    /// of a unanimous tip, and interleave with rollbacks.
    #[test]
    fn walked_observations_match_observe_tips_and_pairwise_divergence() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const SLOTS: usize = 80;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut store = BlockStore::new();
            let mut blocks = vec![0u32];
            let mut walked = DivergenceFold::new(SLOTS);
            let mut oracle = DivergenceFold::new(SLOTS);
            let mut tips: Vec<u32> = Vec::new();
            for t in 1..=SLOTS {
                let earlier = blocks.len();
                for _ in 0..rng.gen_range(0..4usize) {
                    let parent = BlockId(blocks[rng.gen_range(0..earlier)]);
                    blocks.push(store.mint(parent, t, 0, true).0);
                }
                if tips.len() == 1 && rng.gen_bool(0.2) {
                    // A fresh child of the unanimous tip.
                    let parent = tips[0];
                    let child = store.mint(BlockId(parent), t, 1, true).0;
                    blocks.push(child);
                    tips.push(child);
                    walked.observe_fresh_child(t, parent, child, t);
                    oracle.observe_tips(&store, t, &tips);
                    continue;
                }
                let pick = |rng: &mut StdRng| blocks[rng.gen_range(0..blocks.len())];
                let context = format!("seed {seed} slot {t}");
                match rng.gen_range(0..5u32) {
                    0 if !tips.is_empty() => {} // the previous set again
                    1 => tips = vec![pick(&mut rng)],
                    2 => {
                        let b = pick(&mut rng);
                        let up = store.chain(BlockId(b));
                        tips = vec![b, up[rng.gen_range(0..up.len())].0];
                    }
                    3 => {
                        tips = (0..rng.gen_range(1..4usize))
                            .map(|_| pick(&mut rng))
                            .collect();
                        tips.push(0);
                    }
                    _ => {
                        tips = (0..rng.gen_range(2..7usize))
                            .map(|_| pick(&mut rng))
                            .collect()
                    }
                }
                tips.sort_unstable();
                tips.dedup();
                let div = walked.observe_tips_divergence(&store, t, &tips);
                oracle.observe_tips(&store, t, &tips);
                assert_eq!(
                    div,
                    pairwise_divergence(&store, &tips),
                    "{context}: {tips:?}"
                );
                if rng.gen_bool(0.3) {
                    let (old, new) = (pick(&mut rng), pick(&mut rng));
                    walked.observe_rollback(&store, t, old, new);
                    oracle.observe_rollback(&store, t, old, new);
                }
            }
            assert!(walked.mark.is_empty(), "the walk needs no visited marks");
            assert_eq!(walked.finish(), oracle.finish(), "seed {seed}");
        }
    }

    /// `violation_counts` equals `count_violations` at every `k` on the
    /// indices of real executions — withholding and balance at
    /// Δ ∈ {0, 2}, and a lone honest node without an adversary, which
    /// never diverges — for `k` from 0 to past each execution's maximum
    /// lag, in no particular order, and `upto` below, at and past the
    /// horizon.
    #[test]
    fn one_pass_counts_equal_per_k_counts() {
        use crate::{SimConfig, Simulation, Strategy, TieBreak};
        let config = |strategy, delta, honest_nodes, adversarial_stake| SimConfig {
            honest_nodes,
            adversarial_stake,
            active_slot_coeff: 0.3,
            delta,
            slots: 300,
            tie_break: TieBreak::AdversarialOrder,
            strategy,
        };
        let mut configs = vec![config(Strategy::Honest, 0, 1, 0.0)];
        for strategy in [Strategy::PrivateWithholding, Strategy::BalanceAttack] {
            for delta in [0, 2] {
                configs.push(config(strategy, delta, 6, 0.3));
            }
        }
        let mut violating = 0;
        for (i, config) in configs.iter().enumerate() {
            for seed in 0..3u64 {
                let sim = Simulation::run(config, seed);
                let idx = sim.divergence_index();
                let max_lag = idx.max_settlement_lag();
                if i == 0 {
                    assert_eq!(max_lag, None, "the single-node run never diverges");
                }
                let top = max_lag.map_or(2, |lag| lag + 2);
                let mut ks: Vec<usize> = (0..=top).rev().collect();
                ks.extend([8, 16, 32, 64, 0]);
                for upto in [0, 1, 150, 299, 300, usize::MAX] {
                    let counts = idx.violation_counts(&ks, upto);
                    assert_eq!(counts.len(), ks.len());
                    for (&k, &count) in ks.iter().zip(&counts) {
                        assert_eq!(
                            count,
                            idx.count_violations(k, upto),
                            "config {i}, seed {seed}, k = {k}, upto = {upto}"
                        );
                        violating += count;
                    }
                }
                assert!(idx.violation_counts(&[], 300).is_empty());
            }
        }
        assert!(violating > 0, "some execution must violate");
    }

    #[test]
    fn single_views_and_empty_executions_never_diverge() {
        let mut store = BlockStore::new();
        let b = store.mint(BlockId::GENESIS, 1, 0, true);
        let idx = DivergenceIndex::build(&store, &[vec![b], vec![b]], &[]);
        assert_eq!(idx.max_settlement_lag(), None);
        assert_eq!(idx.first_violation(0), None);
        let empty = DivergenceIndex::build(&BlockStore::new(), &[], &[]);
        assert_eq!(empty.slots(), 0);
        assert!(!empty.violates(1, 0));
    }
}
