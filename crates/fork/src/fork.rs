//! The fork tree itself: vertices, labels, tines, depths, viability.

use multihonest_chars::{CharString, Symbol};
use multihonest_core::AncestorIndex;

/// Identifier of a fork vertex; the root (genesis) is always
/// [`VertexId::ROOT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub(crate) u32);

impl VertexId {
    /// The root vertex (the genesis block, label 0).
    pub const ROOT: VertexId = VertexId(0);

    /// The arena index of this vertex.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The vertex at arena index `index` — the inverse of
    /// [`VertexId::index`], for producers whose own ids are dense in
    /// insertion order (the columnar store's block ids).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn from_index(index: usize) -> VertexId {
        VertexId(u32::try_from(index).expect("vertex index fits in u32"))
    }
}

/// A fork `F ⊢ w` for a characteristic string `w` (paper Definition 2).
///
/// The tree is stored as an arena; vertex 0 is the root with label 0.
/// Every *tine* (root-to-vertex path) is identified by its terminal
/// [`VertexId`] — note that a tine need not end at a leaf.
///
/// `Fork` enforces only the cheap structural invariants on insertion
/// (labels strictly increase along edges and refer to existing slots);
/// the full axioms (F1)–(F4) are checked by [`Fork::validate`].
///
/// # Examples
///
/// Build the two-chain fork from the paper's introduction and inspect it:
///
/// ```
/// use multihonest_fork::{Fork, VertexId};
///
/// let w = "hAH".parse()?;
/// let mut f = Fork::new(w);
/// let a = f.push_vertex(VertexId::ROOT, 1); // honest block at slot 1
/// let b = f.push_vertex(a, 2);              // adversarial block at slot 2
/// let c = f.push_vertex(a, 3);              // honest block at slot 3
/// assert_eq!(f.depth(b), 2);
/// assert_eq!(f.depth(c), 2);
/// assert_eq!(f.height(), 2);
/// assert!(f.validate().is_ok());
/// # Ok::<(), multihonest_chars::ParseCharStringError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fork {
    w: CharString,
    /// Slot labels, `u32` like the block stores' slot columns.
    labels: Vec<u32>,
    /// Shared ancestry layer: parent links, depths and the skew-binary
    /// jump pointers (one per vertex) behind every `O(log n)` ancestry
    /// query below.
    anc: AncestorIndex,
    /// Maximum depth over all vertices, maintained incrementally.
    height: usize,
}

impl Fork {
    /// Creates the trivial fork (a lone genesis vertex) for `w`.
    pub fn new(w: CharString) -> Fork {
        Fork {
            w,
            labels: vec![0],
            anc: AncestorIndex::new(),
            height: 0,
        }
    }

    /// Reserves room for `slots` more symbols and `vertices` more
    /// vertices, so a producer that knows its horizon grows the fork
    /// without reallocating.
    pub(crate) fn reserve(&mut self, slots: usize, vertices: usize) {
        self.w.reserve(slots);
        self.labels.reserve(vertices);
        self.anc.reserve(vertices);
    }

    /// Creates the trivial fork for the empty string `ε`.
    pub fn trivial() -> Fork {
        Fork::new(CharString::new())
    }

    /// The characteristic string this fork is built over.
    pub fn string(&self) -> &CharString {
        &self.w
    }

    /// Extends the underlying characteristic string by one symbol.
    ///
    /// Any fork for `w` is also a fork prefix for `w·b`; this method is how
    /// game-playing adversaries grow the horizon slot by slot.
    pub fn push_symbol(&mut self, s: Symbol) {
        self.w.push(s);
    }

    /// The number of vertices, including the root.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Iterates over all vertex ids, root first, in insertion order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.labels.len() as u32).map(VertexId)
    }

    /// Adds a vertex labelled `label` under `parent` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not exist, if `label` exceeds the string
    /// length, or if `label` is not strictly greater than the parent's
    /// label (axiom (F2)).
    pub fn push_vertex(&mut self, parent: VertexId, label: usize) -> VertexId {
        assert!(
            parent.index() < self.labels.len(),
            "parent {parent:?} does not exist"
        );
        assert!(
            label >= 1 && label <= self.w.len(),
            "label {label} out of range 1..={}",
            self.w.len()
        );
        assert!(
            label > self.label(parent),
            "label {label} not greater than parent label {}",
            self.label(parent)
        );
        let id = VertexId(self.labels.len() as u32);
        self.labels
            .push(u32::try_from(label).expect("label fits in u32"));
        let idx = self.anc.push(parent.index());
        debug_assert_eq!(idx, id.index());
        self.height = self.height.max(self.anc.depth(idx));
        id
    }

    /// The slot label `ℓ(v)` (0 for the root).
    #[inline]
    pub fn label(&self, v: VertexId) -> usize {
        self.labels[v.index()] as usize
    }

    /// The parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.anc.parent(v.index()).map(|i| VertexId(i as u32))
    }

    /// The shared ancestry index underlying this fork's `O(log n)`
    /// ancestry queries (jump tables over parent links). Exposed so
    /// analyses layered on top (e.g. the incremental reach engine) can
    /// run their own LCA / pre-order queries without duplicating it.
    #[inline]
    pub fn ancestry(&self) -> &AncestorIndex {
        &self.anc
    }

    /// The depth of `v` — equivalently the *length* of the tine ending at
    /// `v` (paper Definition 9).
    #[inline]
    pub fn depth(&self, v: VertexId) -> usize {
        self.anc.depth(v.index())
    }

    /// Returns `true` when `v` is honest: the root, or labelled by an
    /// honest slot of `w`.
    #[inline]
    pub fn is_honest(&self, v: VertexId) -> bool {
        let l = self.label(v);
        l == 0 || self.w.get(l).is_honest()
    }

    /// The height of the fork: the length of its longest tine.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// All vertices of maximum depth (the endpoints of maximum-length
    /// tines).
    pub fn max_length_tines(&self) -> Vec<VertexId> {
        let h = self.height();
        self.vertices().filter(|v| self.depth(*v) == h).collect()
    }

    /// Returns `true` when the fork is *closed*: every leaf is honest
    /// (paper Definition 12). The trivial fork is closed.
    pub fn is_closed(&self) -> bool {
        let mut has_child = vec![false; self.vertex_count()];
        for v in self.vertices().skip(1) {
            has_child[self.anc.parent(v.index()).expect("non-root")] = true;
        }
        self.vertices()
            .all(|v| has_child[v.index()] || self.is_honest(v))
    }

    /// All vertices labelled `label`.
    pub fn vertices_with_label(&self, label: usize) -> Vec<VertexId> {
        self.vertices()
            .filter(|v| self.label(*v) == label)
            .collect()
    }

    /// The path from the root to `v`, root first, `v` last.
    pub fn path(&self, v: VertexId) -> Vec<VertexId> {
        let mut p = Vec::with_capacity(self.depth(v) + 1);
        let mut cur = Some(v);
        while let Some(u) = cur {
            p.push(u);
            cur = self.parent(u);
        }
        p.reverse();
        p
    }

    /// Returns `true` when `anc` lies on the tine ending at `v`
    /// (i.e. the tine `anc` is a non-strict prefix of the tine `v`),
    /// in `O(log n)` via the shared ancestry index.
    pub fn is_ancestor_or_equal(&self, anc: VertexId, v: VertexId) -> bool {
        self.anc.is_ancestor_or_equal(anc.index(), v.index())
    }

    /// The last common vertex `t1 ∩ t2` of the tines ending at `a` and
    /// `b`, in `O(log n)` via the shared ancestry index.
    pub fn last_common_vertex(&self, a: VertexId, b: VertexId) -> VertexId {
        VertexId(self.anc.lca(a.index(), b.index()) as u32)
    }

    /// The deepest vertex on the tine ending at `v` whose label is at most
    /// `max_label` (possibly the root), in `O(log n)`: labels strictly
    /// increase along tines, so the jump tables can descend on them.
    pub fn truncate_to_label(&self, v: VertexId, max_label: usize) -> VertexId {
        VertexId(
            self.anc
                .last_key_at_most(v.index(), max_label, |i| self.labels[i] as usize)
                as u32,
        )
    }

    /// The ancestor of `v` at depth `depth` (clamped at the root), in
    /// `O(log n)` via the shared ancestry index.
    pub fn ancestor_at_depth(&self, v: VertexId, depth: usize) -> VertexId {
        VertexId(self.anc.ancestor_at_depth(v.index(), depth) as u32)
    }

    /// The vertex with label `slot` on the tine ending at `v`, if any.
    pub fn tine_vertex_with_label(&self, v: VertexId, slot: usize) -> Option<VertexId> {
        let u = self.truncate_to_label(v, slot);
        (self.label(u) == slot).then_some(u)
    }

    /// The honest-depth function `d(i)` (paper Section 2): the maximum
    /// depth of a vertex labelled by the honest slot `i`; `None` if the
    /// fork has no vertex with that label.
    pub fn honest_depth(&self, slot: usize) -> Option<usize> {
        debug_assert!(slot >= 1 && slot <= self.w.len() && self.w.get(slot).is_honest());
        self.vertices()
            .filter(|v| self.label(*v) == slot)
            .map(|v| self.depth(v))
            .max()
    }

    /// The maximum honest depth over honest slots `< slot` (0 when there is
    /// none): the length an honest chain-holder is guaranteed to have seen
    /// by the onset of `slot`.
    pub fn max_honest_depth_before(&self, slot: usize) -> usize {
        self.vertices()
            .filter(|v| {
                let l = self.label(*v);
                l >= 1 && l < slot && self.w.get(l).is_honest()
            })
            .map(|v| self.depth(v))
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` when the tine ending at `v` is *viable*: its length
    /// is no smaller than the depth of every honest vertex `u` with
    /// `ℓ(u) ≤ ℓ(v)` (paper Section 2, "viable tines").
    pub fn is_viable(&self, v: VertexId) -> bool {
        self.depth(v) >= self.max_honest_depth_before(self.label(v) + 1)
    }

    /// Returns `true` when the tine ending at `v` is viable *at the onset
    /// of slot `slot`*: the portion of the tine over slots `0..slot` is at
    /// least as long as every honest depth from those slots.
    pub fn is_viable_at_onset(&self, v: VertexId, slot: usize) -> bool {
        let u = self.truncate_to_label(v, slot.saturating_sub(1));
        self.depth(u) >= self.max_honest_depth_before(slot)
    }

    /// Tests whether `self` is a fork prefix of `other` (`F ⊑ F'`, paper
    /// Definition 10): `self.string()` is a prefix of `other.string()` and
    /// `self` embeds in `other` as a consistently-labelled subgraph rooted
    /// at the root.
    ///
    /// The embedding is found by backtracking over same-labelled children;
    /// worst-case exponential, but forks have small label multiplicities in
    /// practice.
    pub fn is_fork_prefix_of(&self, other: &Fork) -> bool {
        if !self.w.is_prefix_of(other.string()) {
            return false;
        }
        let pair = ForkPair {
            small: self,
            big: other,
            small_children: self.child_lists(),
            big_children: other.child_lists(),
        };
        pair.embed(VertexId::ROOT, VertexId::ROOT)
    }

    /// The children of every vertex, in id order, from the parent links.
    fn child_lists(&self) -> Vec<Vec<VertexId>> {
        let mut children = vec![Vec::new(); self.vertex_count()];
        for v in self.vertices().skip(1) {
            children[self.anc.parent(v.index()).expect("non-root")].push(v);
        }
        children
    }
}

/// The two forks of one [`Fork::is_fork_prefix_of`] query, with their
/// child lists built once for the embedding search.
struct ForkPair<'a> {
    small: &'a Fork,
    big: &'a Fork,
    small_children: Vec<Vec<VertexId>>,
    big_children: Vec<Vec<VertexId>>,
}

impl ForkPair<'_> {
    /// Whether the subtree of `small` rooted at `sv` embeds into the
    /// subtree of `big` rooted at `bv` (labels must match; `sv`'s children
    /// must map to distinct children of `bv`).
    fn embed(&self, sv: VertexId, bv: VertexId) -> bool {
        let b_children = &self.big_children[bv.index()];
        self.small.label(sv) == self.big.label(bv)
            && self.match_children(
                &self.small_children[sv.index()],
                b_children,
                &mut vec![false; b_children.len()],
            )
    }

    fn match_children(
        &self,
        s_children: &[VertexId],
        b_children: &[VertexId],
        used: &mut [bool],
    ) -> bool {
        let Some((&sc, rest)) = s_children.split_first() else {
            return true;
        };
        for (j, &bc) in b_children.iter().enumerate() {
            if used[j] || !self.embed(sc, bc) {
                continue;
            }
            used[j] = true;
            if self.match_children(rest, b_children, used) {
                return true;
            }
            used[j] = false;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> CharString {
        s.parse().unwrap()
    }

    #[test]
    fn figure1_structure() {
        let f = crate::figures::figure1();
        assert_eq!(f.vertex_count(), 15);
        assert!(f.validate().is_ok());
        // Three maximum-length paths of length 6 ("three disjoint paths of
        // maximum depth" in the figure caption).
        assert_eq!(f.height(), 6);
        let maxes = f.max_length_tines();
        assert_eq!(maxes.len(), 3);
        // Two honest vertices labelled 6 and two labelled 9.
        assert_eq!(f.vertices_with_label(6).len(), 2);
        assert_eq!(f.vertices_with_label(9).len(), 2);
    }

    #[test]
    fn depths_and_paths() {
        let mut f = Fork::new(w("hAh"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        let b = f.push_vertex(a, 2);
        let c = f.push_vertex(b, 3);
        assert_eq!(f.depth(VertexId::ROOT), 0);
        assert_eq!(f.depth(c), 3);
        assert_eq!(f.path(c), vec![VertexId::ROOT, a, b, c]);
        assert!(f.is_ancestor_or_equal(a, c));
        assert!(f.is_ancestor_or_equal(c, c));
        assert!(!f.is_ancestor_or_equal(c, a));
    }

    #[test]
    fn last_common_vertex_and_truncate() {
        let mut f = Fork::new(w("hAAh"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        let b1 = f.push_vertex(a, 2);
        let b2 = f.push_vertex(a, 3);
        let c = f.push_vertex(b1, 4);
        assert_eq!(f.last_common_vertex(c, b2), a);
        assert_eq!(f.last_common_vertex(c, c), c);
        assert_eq!(f.last_common_vertex(b1, b2), a);
        assert_eq!(f.truncate_to_label(c, 3), b1);
        assert_eq!(f.truncate_to_label(c, 1), a);
        assert_eq!(f.truncate_to_label(c, 0), VertexId::ROOT);
        assert_eq!(f.tine_vertex_with_label(c, 2), Some(b1));
        assert_eq!(f.tine_vertex_with_label(c, 3), None);
        assert_eq!(f.ancestor_at_depth(c, 1), a);
    }

    #[test]
    fn honesty_and_closedness() {
        let mut f = Fork::new(w("hA"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        assert!(f.is_honest(VertexId::ROOT));
        assert!(f.is_honest(a));
        assert!(f.is_closed());
        let b = f.push_vertex(a, 2);
        assert!(!f.is_honest(b));
        assert!(!f.is_closed()); // adversarial leaf
    }

    #[test]
    fn honest_depths_and_viability() {
        // w = hh: two honest chains of depth 1 and 2.
        let mut f = Fork::new(w("hh"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        let b = f.push_vertex(a, 2);
        assert_eq!(f.honest_depth(1), Some(1));
        assert_eq!(f.honest_depth(2), Some(2));
        assert_eq!(f.max_honest_depth_before(2), 1);
        assert_eq!(f.max_honest_depth_before(3), 2);
        assert!(f.is_viable(b));
        // Viability of a tine only considers honest vertices with labels up
        // to the tine's own label, so tine `a` stays viable even though `b`
        // is deeper.
        assert!(f.is_viable(a));
        assert!(f.is_viable_at_onset(a, 2));
        // At the onset of slot 3 the honest depth-2 chain from slot 2 is
        // known to everyone; tine `a` (length 1) is no longer viable.
        assert!(!f.is_viable_at_onset(a, 3));
    }

    #[test]
    fn viability_ignores_longer_adversarial_tines() {
        // Adversarial depth does not constrain viability.
        let mut f = Fork::new(w("hAA"));
        let a = f.push_vertex(VertexId::ROOT, 1);
        let b = f.push_vertex(a, 2);
        let _c = f.push_vertex(b, 3); // adversarial tine of length 3
        assert!(f.is_viable(a)); // honest depths: only d(1) = 1
    }

    #[test]
    fn fork_prefix_relation() {
        let mut f1 = Fork::new(w("hA"));
        let a1 = f1.push_vertex(VertexId::ROOT, 1);
        let mut f2 = Fork::new(w("hAh"));
        let a2 = f2.push_vertex(VertexId::ROOT, 1);
        let b2 = f2.push_vertex(a2, 2);
        let _c2 = f2.push_vertex(b2, 3);
        assert!(f1.is_fork_prefix_of(&f2));
        assert!(!f2.is_fork_prefix_of(&f1));
        // Adding a second slot-1 vertex to f1 breaks the embedding (f2 has
        // only one vertex labelled 1).
        let _ = f1.push_vertex(VertexId::ROOT, 1);
        assert!(!f1.is_fork_prefix_of(&f2));
        let _ = a1;
    }

    #[test]
    fn fork_prefix_with_ambiguous_children() {
        // Two same-labelled children must be matched injectively; one of
        // them has a deeper subtree, forcing backtracking.
        let mut small = Fork::new(w("Ah"));
        let x1 = small.push_vertex(VertexId::ROOT, 1);
        let _x2 = small.push_vertex(x1, 2);
        let _y1 = small.push_vertex(VertexId::ROOT, 1);
        let mut big = Fork::new(w("Ahh"));
        let a1 = big.push_vertex(VertexId::ROOT, 1); // will have no child
        let a2 = big.push_vertex(VertexId::ROOT, 1); // has the slot-2 child
        let _ = big.push_vertex(a2, 2);
        let _ = big.push_vertex(a2, 3);
        let _ = a1;
        assert!(small.is_fork_prefix_of(&big));
    }

    #[test]
    #[should_panic(expected = "not greater than parent label")]
    fn push_vertex_rejects_label_order_violation() {
        let mut f = Fork::new(w("hA"));
        let a = f.push_vertex(VertexId::ROOT, 2);
        let _ = f.push_vertex(a, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_vertex_rejects_out_of_range_label() {
        let mut f = Fork::new(w("h"));
        let _ = f.push_vertex(VertexId::ROOT, 2);
    }

    #[test]
    fn push_symbol_extends_string() {
        let mut f = Fork::trivial();
        f.push_symbol(Symbol::UniqueHonest);
        let a = f.push_vertex(VertexId::ROOT, 1);
        f.push_symbol(Symbol::Adversarial);
        let _b = f.push_vertex(a, 2);
        assert_eq!(f.string().to_string(), "hA");
        assert!(f.validate().is_ok());
    }
}
