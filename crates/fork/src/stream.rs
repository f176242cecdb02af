//! Streaming Δ-axiom validation: online (F1)–(F4Δ) checking as a fork is
//! built, one vertex at a time.
//!
//! [`validate_delta`] re-derives every axiom from scratch in `O(V + H²)`
//! (H = honest slots with vertices) — fine as a definitional oracle,
//! prohibitive inside a million-slot execution loop. This module
//! maintains the same verdict *incrementally*:
//!
//! * [`StreamValidator`] — a detached checker fed per-slot symbols and
//!   per-vertex `(label, depth)` observations, spending `O(log n)` per
//!   vertex. The (F4Δ) depth-monotonicity axiom (Definition 21: honest
//!   slots `i + Δ < j` must satisfy `d(i) < depth` of every honest vertex
//!   at `j`) is checked against two growable Fenwick trees over honest
//!   slots — a prefix-maximum and a suffix-minimum of observed honest
//!   depths — so a violating pair is caught the moment its *later-arriving*
//!   vertex is observed, regardless of insertion order.
//! * [`ForkFold`] — the incremental fork builder: owns a [`Fork`] and a
//!   `StreamValidator` (which keeps the [`SemiString`]), consuming the
//!   same per-slot `(symbol, vertices)` event stream the execution
//!   engines produce.
//!   Million-slot columnar runs route through it to get axiom validation
//!   with no reference-engine replay.
//!
//! ## Parity contract
//!
//! For every complete stream, [`StreamValidator::finish`] is `Ok` exactly
//! when the batch oracle is `Ok` (property-tested over random
//! strategy × Δ × fault executions). The *first reported error* may
//! legitimately differ: the batch oracle scans axioms in a fixed order
//! over the finished fork, while the stream reports the first violation
//! *witnessable at observation time*. Both always report a genuine
//! violation of the same fork.

use crate::fork::{Fork, VertexId};
use crate::validate::{validate_delta, ForkError};
use multihonest_chars::{SemiString, SemiSymbol, Symbol};

/// Sentinel for "no honest depth observed" in the prefix-maximum tree.
const NO_MAX: (usize, usize) = (0, 0);
/// Sentinel for "no honest depth observed" in the suffix-minimum tree.
const NO_MIN: (usize, usize) = (usize::MAX, 0);

/// Growable Fenwick tree over slots `1..=n` answering
/// "maximum `(depth, slot)` entry at any slot `≤ i`" in `O(log n)`.
///
/// Classic orientation: node `t[i]` covers the block `(i − lowbit(i), i]`,
/// point updates ascend (`i += lowbit(i)`), prefix queries descend
/// (`i −= lowbit(i)`). Appending position `p` initialises `t[p]` by
/// folding the already-complete sub-blocks inside `(p − lowbit(p), p)`.
#[derive(Debug, Clone, Default)]
struct PrefixMaxTree {
    /// 1-based; `tree[0]` unused.
    tree: Vec<(usize, usize)>,
}

impl PrefixMaxTree {
    fn new() -> PrefixMaxTree {
        PrefixMaxTree { tree: vec![NO_MAX] }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Extends the domain by one slot (initially holding no entry).
    fn push(&mut self) {
        let p = self.tree.len();
        let mut val = NO_MAX;
        let mut k = 1;
        while k < lowbit(p) {
            val = val.max(self.tree[p - k]);
            k <<= 1;
        }
        self.tree.push(val);
    }

    /// Records depth `d` at slot `i` (keeps the maximum per slot).
    fn update(&mut self, i: usize, d: usize) {
        let entry = (d, i);
        let mut i = i;
        while i <= self.len() {
            if entry > self.tree[i] {
                self.tree[i] = entry;
            }
            i += lowbit(i);
        }
    }

    /// Maximum entry over slots `1..=i`; [`NO_MAX`] when empty.
    fn query(&self, i: usize) -> (usize, usize) {
        let mut best = NO_MAX;
        let mut i = i.min(self.len());
        while i > 0 {
            best = best.max(self.tree[i]);
            i -= lowbit(i);
        }
        best
    }
}

/// Growable Fenwick tree over slots `1..=n` answering
/// "minimum `(depth, slot)` entry at any slot `≥ i`" in `O(log n)`.
///
/// Mirrored orientation: node `t[i]` covers `[i, i + lowbit(i) − 1]`,
/// point updates descend (`i −= lowbit(i)`), suffix queries ascend
/// (`i += lowbit(i)`, capped at the current length). A freshly appended
/// node starts at the sentinel: every slot its block covers is either
/// itself or a *future* slot, so no existing entry can belong to it.
#[derive(Debug, Clone, Default)]
struct SuffixMinTree {
    /// 1-based; `tree[0]` unused.
    tree: Vec<(usize, usize)>,
}

impl SuffixMinTree {
    fn new() -> SuffixMinTree {
        SuffixMinTree { tree: vec![NO_MIN] }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Extends the domain by one slot (initially holding no entry).
    fn push(&mut self) {
        self.tree.push(NO_MIN);
    }

    /// Records depth `d` at slot `i` (keeps the minimum per slot).
    fn update(&mut self, i: usize, d: usize) {
        let entry = (d, i);
        let mut i = i;
        while i > 0 {
            if entry < self.tree[i] {
                self.tree[i] = entry;
            }
            i -= lowbit(i);
        }
    }

    /// Minimum entry over slots `i..=n`; [`NO_MIN`] when empty.
    fn query(&self, i: usize) -> (usize, usize) {
        let mut best = NO_MIN;
        let mut i = i;
        while i <= self.len() {
            best = best.min(self.tree[i]);
            i += lowbit(i);
        }
        best
    }
}

fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// Online Δ-fork axiom checker: feed it the characteristic string one
/// [`SemiSymbol`] at a time and every vertex as a `(label, depth)`
/// observation; it maintains the [`validate_delta`] verdict in `O(log n)`
/// per observation.
///
/// The validator is *detached*: it never touches the fork itself, so it
/// composes with any producer — [`ForkFold`], the settlement game's
/// challenger/adversary loop, or a columnar execution. Structural
/// integrity (F1: tree shape; F2: monotone labels — the conditions
/// [`Fork::push_vertex`] already enforces by construction) is assumed;
/// what is checked online is label range, (F3) honest-slot
/// multiplicities, and (F4Δ) honest-depth monotonicity.
///
/// Errors are **sticky**: the first violation is latched and returned by
/// every later [`status`](StreamValidator::status) /
/// [`finish`](StreamValidator::finish) call.
#[derive(Debug, Clone)]
pub struct StreamValidator {
    delta: usize,
    /// The characteristic string seen so far.
    syms: SemiString,
    /// Vertices observed per slot, `counts[slot]` (index 0 unused).
    counts: Vec<usize>,
    /// Max honest depth per honest slot, for the `i + Δ < j` check.
    prefix: PrefixMaxTree,
    /// Min honest depth per honest slot, for the mirrored direction.
    suffix: SuffixMinTree,
    /// Vertices observed so far (excluding the implicit root).
    observed: u32,
    error: Option<ForkError>,
}

impl StreamValidator {
    /// A fresh validator for delay bound `delta` over the empty string.
    pub fn new(delta: usize) -> StreamValidator {
        StreamValidator {
            delta,
            syms: SemiString::new(),
            counts: vec![0],
            prefix: PrefixMaxTree::new(),
            suffix: SuffixMinTree::new(),
            observed: 0,
            error: None,
        }
    }

    /// Reserves room for `slots` more slots.
    fn reserve(&mut self, slots: usize) {
        self.syms.reserve(slots);
        self.counts.reserve(slots);
        self.prefix.tree.reserve(slots);
        self.suffix.tree.reserve(slots);
    }

    /// The delay bound Δ this validator checks (F4Δ) against.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Slots seen so far.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether no slot has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Vertices observed so far (excluding the implicit root).
    pub fn observed_vertices(&self) -> usize {
        self.observed as usize
    }

    /// The characteristic string observed so far.
    pub fn characteristic_string(&self) -> &SemiString {
        &self.syms
    }

    /// Appends the next slot's symbol.
    pub fn push_symbol(&mut self, s: SemiSymbol) {
        self.syms.push(s);
        self.counts.push(0);
        self.prefix.push();
        self.suffix.push();
    }

    /// Observes one vertex: its slot label and its depth in the fork.
    /// Labels may arrive out of slot order (adversarial vertices are
    /// routinely backdated to reserve slots); each observation costs
    /// `O(log n)`.
    pub fn observe(&mut self, label: usize, depth: usize) {
        self.observed += 1;
        if self.error.is_some() {
            return;
        }
        let v = VertexId(self.observed);
        let n = self.syms.len();
        if label < 1 || label > n {
            self.error = Some(ForkError::LabelOutOfRange {
                vertex: v,
                label,
                len: n,
            });
            return;
        }
        let sym = self.syms.get(label);
        debug_assert!(
            !sym.is_empty_slot(),
            "vertex {v:?} labelled with empty slot {label}"
        );
        self.counts[label] += 1;
        if sym == SemiSymbol::UniqueHonest && self.counts[label] > 1 {
            self.error = Some(ForkError::UniqueHonestMultiplicity {
                slot: label,
                count: self.counts[label],
            });
            return;
        }
        if !sym.is_honest() {
            return;
        }
        // (F4Δ) both directions around the new honest vertex. Whichever
        // vertex of a violating pair is observed later triggers the check,
        // so insertion order never hides a violation.
        if label > self.delta + 1 {
            let (d, s) = self.prefix.query(label - self.delta - 1);
            if d >= depth && s != 0 {
                self.error = Some(ForkError::HonestDepthOrder {
                    earlier_slot: s,
                    earlier_depth: d,
                    later_slot: label,
                    later_depth: depth,
                });
                return;
            }
        }
        if label + self.delta < n {
            let (d, s) = self.suffix.query(label + self.delta + 1);
            if s != 0 && depth >= d {
                self.error = Some(ForkError::HonestDepthOrder {
                    earlier_slot: label,
                    earlier_depth: depth,
                    later_slot: s,
                    later_depth: d,
                });
                return;
            }
        }
        self.prefix.update(label, depth);
        self.suffix.update(label, depth);
    }

    /// The verdict over everything observed so far. `Ok` here does **not**
    /// yet certify (F3) completeness — honest slots may still be awaiting
    /// their vertices; [`finish`](StreamValidator::finish) adds that check.
    pub fn status(&self) -> Result<(), ForkError> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// The end-of-stream verdict: the latched error if any, else the
    /// (F3) completeness scan (every `h` slot has exactly one vertex,
    /// every `H` slot at least one).
    pub fn finish(&self) -> Result<(), ForkError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        for (slot, sym) in self.syms.iter_slots() {
            match sym {
                SemiSymbol::UniqueHonest if self.counts[slot] != 1 => {
                    return Err(ForkError::UniqueHonestMultiplicity {
                        slot,
                        count: self.counts[slot],
                    });
                }
                SemiSymbol::MultiHonest if self.counts[slot] == 0 => {
                    return Err(ForkError::MultiHonestMissing { slot });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// A finished [`ForkFold`]: the built fork, its characteristic string,
/// and the streaming validation verdict.
#[derive(Debug, Clone)]
pub struct StreamedFork {
    /// The fork built from the event stream.
    pub fork: Fork,
    /// The characteristic string the stream described (`⊥` retained).
    pub semi: SemiString,
    /// The online [`validate_delta`]-equivalent verdict.
    pub validation: Result<(), ForkError>,
}

impl StreamedFork {
    /// Re-runs the batch oracle over the finished fork. Equal to
    /// [`StreamedFork::validation`] at the `is_ok` level by the parity
    /// contract; kept for equivalence testing.
    pub fn batch_validation(&self, delta: usize) -> Result<(), ForkError> {
        validate_delta(&self.fork, &self.semi, delta)
    }
}

/// Incremental fork builder with online Δ-axiom validation: the streaming
/// pipeline's entry point shared by `sim::ExtractedFork` extraction, the
/// columnar engine's per-slot hook, and any other producer of per-slot
/// `(symbol, vertices)` events.
///
/// Drive it strictly slot by slot: [`push_symbol`](ForkFold::push_symbol)
/// for slot `t`, then [`push_vertex`](ForkFold::push_vertex) for every
/// vertex minted *during* slot `t` (their labels may still point at older
/// reserved slots). Vertex ids are assigned densely in push order, so a
/// producer whose block ids are already dense (the columnar store) gets a
/// 1:1 id correspondence for free.
#[derive(Debug, Clone)]
pub struct ForkFold {
    fork: Fork,
    /// Also holds the characteristic string streamed so far.
    validator: StreamValidator,
}

impl ForkFold {
    /// An empty fold for delay bound `delta`.
    pub fn new(delta: usize) -> ForkFold {
        ForkFold {
            fork: Fork::trivial(),
            validator: StreamValidator::new(delta),
        }
    }

    /// The delay bound Δ validated against.
    pub fn delta(&self) -> usize {
        self.validator.delta()
    }

    /// Reserves room for `slots` more slots and `vertices` more vertices,
    /// so a producer that knows its horizon folds without reallocating.
    pub fn reserve(&mut self, slots: usize, vertices: usize) {
        self.fork.reserve(slots, vertices);
        self.validator.reserve(slots);
    }

    /// The fork built so far.
    pub fn fork(&self) -> &Fork {
        &self.fork
    }

    /// The characteristic string streamed so far (`⊥` retained).
    pub fn characteristic_string(&self) -> &SemiString {
        self.validator.characteristic_string()
    }

    /// Appends the next slot's symbol. Inside the fork's own
    /// [`CharString`](multihonest_chars::CharString) an empty slot is
    /// recorded as adversarial (the standard `⊥ → A` coercion — an empty
    /// slot never carries vertices, which the validator enforces).
    pub fn push_symbol(&mut self, s: SemiSymbol) {
        self.fork
            .push_symbol(s.to_symbol().unwrap_or(Symbol::Adversarial));
        self.validator.push_symbol(s);
    }

    /// Adds a vertex under `parent` labelled `label`, observing it for
    /// validation. Panics if `label` points at an empty slot or outside
    /// the string streamed so far (producer bugs, not adversarial moves).
    pub fn push_vertex(&mut self, parent: VertexId, label: usize) -> VertexId {
        let semi = self.characteristic_string();
        assert!(
            label >= 1 && label <= semi.len() && !semi.get(label).is_empty_slot(),
            "vertex labelled with empty or out-of-range slot {label}"
        );
        let v = self.fork.push_vertex(parent, label);
        self.validator.observe(label, self.fork.depth(v));
        v
    }

    /// The verdict so far (see [`StreamValidator::status`]).
    pub fn status(&self) -> Result<(), ForkError> {
        self.validator.status()
    }

    /// Finishes the stream: closes (F3) completeness and hands back the
    /// fork, its string and the verdict.
    pub fn finish(self) -> StreamedFork {
        let validation = self.validator.finish();
        StreamedFork {
            fork: self.fork,
            semi: self.validator.syms,
            validation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_chars::SemiString;

    fn semi(s: &str) -> SemiString {
        s.parse().expect("valid semi-characteristic string")
    }

    /// Replays a finished fork through a fresh validator in vertex-id
    /// order and asserts `is_ok` parity with the batch oracle.
    fn assert_parity(fork: &Fork, w: &SemiString, delta: usize) {
        let mut val = StreamValidator::new(delta);
        for (_, sym) in w.iter_slots() {
            val.push_symbol(sym);
        }
        for v in fork.vertices().skip(1) {
            val.observe(fork.label(v), fork.depth(v));
        }
        let batch = validate_delta(fork, w, delta);
        assert_eq!(
            val.finish().is_ok(),
            batch.is_ok(),
            "stream/batch verdicts split on {w:?} Δ={delta}: stream {:?} vs batch {batch:?}",
            val.finish(),
        );
    }

    fn build(w: &str, edges: &[(u32, usize)]) -> (Fork, SemiString) {
        let s = semi(w);
        let mapped = s
            .iter_slots()
            .map(|(_, x)| x.to_symbol().unwrap_or(Symbol::Adversarial))
            .collect();
        let mut fork = Fork::new(mapped);
        for &(parent, label) in edges {
            fork.push_vertex(VertexId(parent), label);
        }
        (fork, s)
    }

    #[test]
    fn valid_forks_stream_ok() {
        for delta in 0..=3 {
            let (fork, w) = build("hAh", &[(0, 1), (1, 2), (2, 3)]);
            assert_parity(&fork, &w, delta);
            let (fork, w) = build("HhA", &[(0, 1), (0, 1), (1, 2), (2, 3)]);
            assert_parity(&fork, &w, delta);
        }
    }

    #[test]
    fn missing_honest_vertex_caught_at_finish() {
        let (fork, w) = build("hAh", &[(0, 1), (1, 2)]);
        let mut val = StreamValidator::new(0);
        for (_, sym) in w.iter_slots() {
            val.push_symbol(sym);
        }
        for v in fork.vertices().skip(1) {
            val.observe(fork.label(v), fork.depth(v));
        }
        assert!(val.status().is_ok(), "incomplete streams are not errors");
        assert!(matches!(
            val.finish(),
            Err(ForkError::UniqueHonestMultiplicity { slot: 3, count: 0 })
        ));
        assert_parity(&fork, &w, 0);
    }

    #[test]
    fn duplicate_unique_honest_caught_eagerly() {
        let (fork, w) = build("hA", &[(0, 1), (0, 1)]);
        let mut val = StreamValidator::new(1);
        for (_, sym) in w.iter_slots() {
            val.push_symbol(sym);
        }
        val.observe(1, 1);
        assert!(val.status().is_ok());
        val.observe(1, 1);
        assert!(matches!(
            val.status(),
            Err(ForkError::UniqueHonestMultiplicity { slot: 1, count: 2 })
        ));
        assert_parity(&fork, &w, 1);
    }

    #[test]
    fn multi_honest_missing_caught_at_finish() {
        let (fork, w) = build("hH", &[(0, 1)]);
        let mut val = StreamValidator::new(0);
        for (_, sym) in w.iter_slots() {
            val.push_symbol(sym);
        }
        val.observe(1, 1);
        assert!(matches!(
            val.finish(),
            Err(ForkError::MultiHonestMissing { slot: 2 })
        ));
        assert_parity(&fork, &w, 0);
    }

    #[test]
    fn depth_order_violation_caught_at_later_arrival() {
        // Honest slots 1 and 3 with equal depth 1 violate (F4) at Δ=0 but
        // not at Δ=1 (paper Definition 21).
        let (fork, w) = build("hAh", &[(0, 1), (0, 3), (1, 2)]);
        assert_parity(&fork, &w, 0);
        assert_parity(&fork, &w, 1);

        let mut val = StreamValidator::new(0);
        for (_, sym) in w.iter_slots() {
            val.push_symbol(sym);
        }
        val.observe(1, 1);
        assert!(val.status().is_ok());
        val.observe(3, 1);
        assert!(matches!(
            val.status(),
            Err(ForkError::HonestDepthOrder {
                earlier_slot: 1,
                earlier_depth: 1,
                later_slot: 3,
                later_depth: 1,
            })
        ));
    }

    #[test]
    fn depth_order_violation_caught_when_earlier_arrives_later() {
        // Same violating pair, observed in the opposite order: the
        // suffix-minimum direction fires.
        let w = semi("hAh");
        let mut val = StreamValidator::new(0);
        for (_, sym) in w.iter_slots() {
            val.push_symbol(sym);
        }
        val.observe(3, 1);
        assert!(val.status().is_ok());
        val.observe(1, 1);
        assert!(matches!(
            val.status(),
            Err(ForkError::HonestDepthOrder {
                earlier_slot: 1,
                earlier_depth: 1,
                later_slot: 3,
                later_depth: 1,
            })
        ));
    }

    #[test]
    fn delta_window_permits_nearby_equal_depths() {
        // Mirrors `validate::delta_relaxation_permits_nearby_equal_depths`:
        // honest slots 1 and 2 at equal depth are invalid synchronously
        // but fine with Δ ≥ 1 (1 + 1 < 2 fails, so no constraint), while
        // slots 1 and 3 stay constrained at Δ = 1 and relax at Δ = 2.
        let (fork, w) = build("hh", &[(0, 1), (0, 2)]);
        let mut val = StreamValidator::new(1);
        for (_, sym) in w.iter_slots() {
            val.push_symbol(sym);
        }
        val.observe(1, 1);
        val.observe(2, 1);
        assert!(val.finish().is_ok());
        for delta in 0..=1 {
            assert_parity(&fork, &w, delta);
        }

        let (fork, w) = build("h.h", &[(0, 1), (0, 3)]);
        for delta in 0..=2 {
            assert_parity(&fork, &w, delta);
        }
        let mut val = StreamValidator::new(2);
        for (_, sym) in w.iter_slots() {
            val.push_symbol(sym);
        }
        val.observe(1, 1);
        val.observe(3, 1);
        assert!(val.finish().is_ok());
    }

    #[test]
    fn label_out_of_range_is_latched() {
        let mut val = StreamValidator::new(0);
        val.push_symbol(SemiSymbol::UniqueHonest);
        val.observe(2, 1);
        assert!(matches!(
            val.status(),
            Err(ForkError::LabelOutOfRange {
                label: 2,
                len: 1,
                ..
            })
        ));
        // Sticky: a later valid observation does not clear it.
        val.observe(1, 1);
        assert!(val.finish().is_err());
    }

    #[test]
    fn fork_fold_builds_and_validates() {
        let mut fold = ForkFold::new(0);
        fold.push_symbol(SemiSymbol::UniqueHonest);
        let a = fold.push_vertex(VertexId::ROOT, 1);
        fold.push_symbol(SemiSymbol::Adversarial);
        let b = fold.push_vertex(a, 2);
        fold.push_symbol(SemiSymbol::MultiHonest);
        fold.push_vertex(b, 3);
        fold.push_vertex(b, 3);
        assert!(fold.status().is_ok());
        let out = fold.finish();
        assert!(out.validation.is_ok());
        assert_eq!(out.fork.vertex_count(), 5);
        assert_eq!(out.semi.len(), 3);
        assert_eq!(out.validation.is_ok(), out.batch_validation(0).is_ok());
    }

    #[test]
    fn fork_fold_empty_slots_coerce_to_adversarial() {
        let mut fold = ForkFold::new(1);
        fold.push_symbol(SemiSymbol::UniqueHonest);
        fold.push_vertex(VertexId::ROOT, 1);
        fold.push_symbol(SemiSymbol::Empty);
        let out = fold.finish();
        assert!(out.validation.is_ok());
        assert_eq!(out.fork.string().get(2), Symbol::Adversarial);
        assert_eq!(out.semi.get(2), SemiSymbol::Empty);
    }

    #[test]
    #[should_panic(expected = "empty or out-of-range slot")]
    fn fork_fold_rejects_vertices_on_empty_slots() {
        let mut fold = ForkFold::new(0);
        fold.push_symbol(SemiSymbol::Empty);
        fold.push_vertex(VertexId::ROOT, 1);
    }

    #[test]
    fn fenwick_trees_match_naive_scan() {
        // Deterministic pseudo-random interleaving of pushes, updates and
        // queries, cross-checked against flat vectors.
        let mut pre = PrefixMaxTree::new();
        let mut suf = SuffixMinTree::new();
        let mut naive: Vec<Option<(usize, usize)>> = Vec::new();
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            match next() % 3 {
                0 => {
                    pre.push();
                    suf.push();
                    naive.push(None);
                }
                1 if !naive.is_empty() => {
                    let i = (next() as usize % naive.len()) + 1;
                    let d = next() as usize % 50 + 1;
                    pre.update(i, d);
                    suf.update(i, d);
                    let cur = naive[i - 1];
                    naive[i - 1] = Some(match cur {
                        Some((lo, hi)) => (lo.min(d), hi.max(d)),
                        None => (d, d),
                    });
                }
                _ if !naive.is_empty() => {
                    let i = (next() as usize % naive.len()) + 1;
                    let want_max = naive[..i]
                        .iter()
                        .enumerate()
                        .filter_map(|(j, e)| e.map(|(_, hi)| (hi, j + 1)))
                        .max()
                        .unwrap_or(NO_MAX);
                    assert_eq!(pre.query(i).0, want_max.0);
                    let want_min = naive[i - 1..]
                        .iter()
                        .enumerate()
                        .filter_map(|(j, e)| e.map(|(lo, _)| (lo, i + j)))
                        .min()
                        .unwrap_or(NO_MIN);
                    assert_eq!(suf.query(i).0, want_min.0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn random_forks_stream_equals_batch() {
        use crate::generate::{random_fork, GenerateConfig};
        use multihonest_chars::BernoulliCondition;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf0_1d);
        let cond = BernoulliCondition::new(0.15, 0.35).unwrap();
        for _ in 0..60 {
            let n = rng.gen_range(1..20);
            let w: multihonest_chars::CharString = cond.sample(&mut rng, n);
            let fork = random_fork(&w, &mut rng, GenerateConfig::default());
            let s: SemiString = w.iter_slots().map(|(_, x)| SemiSymbol::from(x)).collect();
            for delta in 0..3 {
                assert_parity(&fork, &s, delta);
            }
        }
    }
}
