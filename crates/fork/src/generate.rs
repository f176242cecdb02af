//! Random and exhaustive fork generation for cross-validation.
//!
//! The margin recurrences of `multihonest-margin` (paper Theorem 5) claim
//! to equal a supremum over **all** forks. These generators provide the
//! other side of that equality in tests:
//!
//! * [`random_fork`] draws a uniformly-haphazard valid fork — every fork it
//!   can emit satisfies (F1)–(F4) — so `µ_x(F) ≤ µ_x(y)` can be asserted on
//!   arbitrary samples;
//! * [`enumerate_forks`] visits **every** closed fork of a tiny string
//!   (with bounded per-slot multiplicities), so the supremum itself can be
//!   checked exhaustively.

use multihonest_chars::{CharString, Symbol};
use rand::Rng;

use crate::fork::{Fork, VertexId};

/// Limits on per-slot vertex multiplicities for generated forks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerateConfig {
    /// Maximum vertices added for a multiply honest (`H`) slot (≥ 1).
    pub max_multi_honest: usize,
    /// Maximum vertices added for an adversarial (`A`) slot (may be 0).
    pub max_adversarial: usize,
}

impl Default for GenerateConfig {
    fn default() -> GenerateConfig {
        GenerateConfig {
            max_multi_honest: 2,
            max_adversarial: 2,
        }
    }
}

/// Candidate parents for a new honest vertex at `slot`: any vertex whose
/// depth is at least the maximum honest depth among earlier slots (so the
/// new vertex's depth strictly exceeds it, satisfying (F4)).
fn honest_parent_candidates(fork: &Fork, slot: usize) -> Vec<VertexId> {
    let d_req = fork.max_honest_depth_before(slot);
    fork.vertices()
        .filter(|v| fork.depth(*v) >= d_req && fork.label(*v) < slot)
        .collect()
}

/// Samples a random valid fork for `w`.
///
/// Honest vertices pick a uniformly random admissible parent; `H` slots add
/// a uniform `1..=max_multi_honest` vertices; `A` slots add a uniform
/// `0..=max_adversarial` vertices under uniformly random parents.
/// The result always satisfies axioms (F1)–(F4), but is **not** necessarily
/// closed (adversarial leaves may remain).
pub fn random_fork<R: Rng + ?Sized>(w: &CharString, rng: &mut R, cfg: GenerateConfig) -> Fork {
    let mut fork = Fork::new(w.clone());
    for (slot, sym) in w.iter_slots() {
        match sym {
            Symbol::UniqueHonest => {
                let cands = honest_parent_candidates(&fork, slot);
                let p = cands[rng.gen_range(0..cands.len())];
                fork.push_vertex(p, slot);
            }
            Symbol::MultiHonest => {
                let count = rng.gen_range(1..=cfg.max_multi_honest.max(1));
                for _ in 0..count {
                    let cands = honest_parent_candidates(&fork, slot);
                    let p = cands[rng.gen_range(0..cands.len())];
                    fork.push_vertex(p, slot);
                }
            }
            Symbol::Adversarial => {
                let count = rng.gen_range(0..=cfg.max_adversarial);
                for _ in 0..count {
                    let cands: Vec<VertexId> =
                        fork.vertices().filter(|v| fork.label(*v) < slot).collect();
                    let p = cands[rng.gen_range(0..cands.len())];
                    fork.push_vertex(p, slot);
                }
            }
        }
    }
    fork
}

/// Prunes adversarial leaves until the fork is closed, returning a closed
/// sub-fork for the same string (every fork contains a maximal closed
/// sub-fork obtained by repeatedly deleting adversarial leaves).
pub fn close(fork: &Fork) -> Fork {
    // Mark vertices to keep: those with an honest descendant-or-self.
    let n = fork.vertex_count();
    let mut keep = vec![false; n];
    // Process in reverse insertion order: children always come after
    // parents, so a reverse scan settles every child before its parent.
    for i in (1..n).rev() {
        let v = VertexId(i as u32);
        keep[i] |= fork.is_honest(v);
        if keep[i] {
            keep[fork.parent(v).expect("non-root").index()] = true;
        }
    }
    let mut out = Fork::new(fork.string().clone());
    let mut remap = vec![VertexId::ROOT; n];
    for v in fork.vertices() {
        if v == VertexId::ROOT || !keep[v.index()] {
            continue;
        }
        let p = fork.parent(v).expect("non-root");
        debug_assert!(keep[p.index()], "kept vertex with pruned parent");
        remap[v.index()] = out.push_vertex(remap[p.index()], fork.label(v));
    }
    out
}

/// Visits every closed fork of `w` with per-slot multiplicities bounded by
/// `cfg`, calling `visit` on each.
///
/// Runtime is exponential in `|w|`; intended for `|w| ≤ 5` in tests.
pub fn enumerate_forks<F: FnMut(&Fork)>(w: &CharString, cfg: GenerateConfig, visit: &mut F) {
    let fork = Fork::new(w.clone());
    recurse(&fork, w, 1, cfg, visit);
}

fn recurse<F: FnMut(&Fork)>(
    fork: &Fork,
    w: &CharString,
    slot: usize,
    cfg: GenerateConfig,
    visit: &mut F,
) {
    if slot > w.len() {
        let closed = close(fork);
        visit(&closed);
        return;
    }
    match w.get(slot) {
        Symbol::UniqueHonest => {
            for p in honest_parent_candidates(fork, slot) {
                let mut f = fork.clone();
                f.push_vertex(p, slot);
                recurse(&f, w, slot + 1, cfg, visit);
            }
        }
        Symbol::MultiHonest => {
            // Choose an unordered multiset of parents of size 1..=cap.
            let cands = honest_parent_candidates(fork, slot);
            for count in 1..=cfg.max_multi_honest.max(1) {
                enumerate_multisets(&cands, count, &mut |parents| {
                    let mut f = fork.clone();
                    for &p in parents {
                        f.push_vertex(p, slot);
                    }
                    recurse(&f, w, slot + 1, cfg, visit);
                });
            }
        }
        Symbol::Adversarial => {
            let cands: Vec<VertexId> = fork.vertices().filter(|v| fork.label(*v) < slot).collect();
            for count in 0..=cfg.max_adversarial {
                enumerate_multisets(&cands, count, &mut |parents| {
                    let mut f = fork.clone();
                    for &p in parents {
                        f.push_vertex(p, slot);
                    }
                    recurse(&f, w, slot + 1, cfg, visit);
                });
            }
        }
    }
}

/// Enumerates all non-decreasing index multisets of size `count` over
/// `items`, invoking `visit` with each selection.
fn enumerate_multisets<F: FnMut(&[VertexId])>(items: &[VertexId], count: usize, visit: &mut F) {
    let mut selection = Vec::with_capacity(count);
    fn go<F: FnMut(&[VertexId])>(
        items: &[VertexId],
        count: usize,
        start: usize,
        selection: &mut Vec<VertexId>,
        visit: &mut F,
    ) {
        if selection.len() == count {
            visit(selection);
            return;
        }
        for i in start..items.len() {
            selection.push(items[i]);
            go(items, count, i, selection, visit);
            selection.pop();
        }
    }
    if count == 0 {
        visit(&selection);
    } else {
        go(items, count, 0, &mut selection, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn w(s: &str) -> CharString {
        s.parse().unwrap()
    }

    #[test]
    fn random_forks_are_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        for s in ["hAhAh", "HHAAH", "hHAhHAhA", "AAAA", "hhhh"] {
            let ws = w(s);
            for _ in 0..50 {
                let f = random_fork(&ws, &mut rng, GenerateConfig::default());
                assert!(f.validate().is_ok(), "invalid fork for {s}");
            }
        }
    }

    #[test]
    fn close_produces_closed_subfork() {
        let mut rng = StdRng::seed_from_u64(4);
        let ws = w("hAhAAhA");
        for _ in 0..50 {
            let f = random_fork(&ws, &mut rng, GenerateConfig::default());
            let c = close(&f);
            assert!(c.is_closed());
            assert!(c.validate().is_ok());
            assert!(c.vertex_count() <= f.vertex_count());
            assert!(
                c.is_fork_prefix_of(&f),
                "closed sub-fork embeds into original"
            );
            // Maximal: every vertex with an honest descendant-or-self stays.
            let honest: Vec<VertexId> = f.vertices().filter(|v| f.is_honest(*v)).collect();
            let kept = f
                .vertices()
                .filter(|&v| honest.iter().any(|&h| f.is_ancestor_or_equal(v, h)))
                .count();
            assert_eq!(c.vertex_count(), kept);
        }
    }

    #[test]
    fn enumeration_counts_small_cases() {
        // w = "h": exactly one fork (root + the honest vertex).
        let mut count = 0;
        enumerate_forks(&w("h"), GenerateConfig::default(), &mut |f| {
            assert!(f.is_closed());
            assert!(f.validate().is_ok());
            count += 1;
        });
        assert_eq!(count, 1);
        // w = "A": adversarial multiplicity 0..=2, but closing prunes all
        // adversarial leaves → all collapse to the trivial fork (visited
        // once per raw shape).
        let mut shapes = std::collections::HashSet::new();
        enumerate_forks(&w("A"), GenerateConfig::default(), &mut |f| {
            shapes.insert(f.vertex_count());
        });
        assert_eq!(shapes.len(), 1);
        // w = "hH": honest vertex at slot 1; H slot may add 1 or 2 vertices,
        // parents must have depth ≥ 1 (only the slot-1 vertex) → exactly
        // two closed forks (one or two vertices at slot 2).
        let mut count = 0;
        enumerate_forks(&w("hH"), GenerateConfig::default(), &mut |f| {
            assert!(f.validate().is_ok());
            count += 1;
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn enumerated_forks_are_all_valid_and_closed() {
        for s in ["hAh", "HAH", "AhH", "hHA"] {
            enumerate_forks(&w(s), GenerateConfig::default(), &mut |f| {
                assert!(f.is_closed(), "{s}");
                assert!(f.validate().is_ok(), "{s}");
            });
        }
    }
}
