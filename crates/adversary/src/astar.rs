//! The optimal online adversary `A*` of paper Figure 4 (Section 6.5).
//!
//! `A*` scans the characteristic string left to right, maintaining a
//! closed fork. Adversarial symbols leave the fork untouched (banking
//! reserve); honest symbols trigger one or two **conservative extensions**
//! — a zero-reach tine is padded with exactly `gap` withheld adversarial
//! blocks and capped with the new honest vertex at depth `height + 1`
//! (Definition 15), so the new tine has reach exactly 0 (Fact 5).
//!
//! The subtle part is *which* tine to extend. Following Figure 4:
//!
//! * if a single zero-reach tine exists, extend it;
//! * otherwise pick the zero-reach tine `z₁` that diverges **earliest**
//!   from some maximum-reach tine `r₁` (minimising `ℓ(r₁ ∩ z₁)`);
//! * on a multiply honest symbol with `ρ(F) = 0`, extend *both* `z₁` and
//!   `r₁`, freezing the earliest possible divergence into two tied chains.
//!
//! The result is a **canonical fork** (Theorem 6): it attains the maximum
//! relative margin `µ_x(y)` of Theorem 5's recurrence for *every* prefix
//! decomposition `w = xy` simultaneously. [`is_canonical`] checks exactly
//! this, giving the library an end-to-end cross-validation between the
//! game-theoretic and the algebraic views.
//!
//! ## Two implementations, one fork
//!
//! [`OptimalAdversary::build`] drives an [`AstarBuilder`], which keeps an
//! incremental [`ReachEngine`] across steps: reach values and the
//! zero/maximum-reach sets are `O(1)` bucket lookups, the
//! earliest-diverging pair resolves through per-bucket LCA aggregates and
//! `O(log n)` meets, and conservative extensions take their reserve slots
//! from a maintained adversarial-slot list instead of rescanning the
//! string backwards — `O(n log n)`-flavoured instead of super-quadratic.
//! The pre-engine implementation — a fresh definitional
//! [`ReachAnalysis`] per honest symbol plus explicit pair scans — survives
//! verbatim in [`reference`](mod@reference) as the equivalence oracle;
//! the two paths are asserted **bit-identical** over exhaustive short
//! strings and seeded random long strings.

use multihonest_chars::{CharString, Symbol};
use multihonest_fork::{Fork, ReachAnalysis, ReachEngine, VertexId};
use multihonest_margin::recurrence;

/// The optimal online adversary `A*` (paper Figure 4).
///
/// # Examples
///
/// ```
/// use multihonest_adversary::{is_canonical, OptimalAdversary};
///
/// let w = "hAhAhHAAH".parse()?;
/// let fork = OptimalAdversary::build(&w);
/// assert!(fork.validate().is_ok());
/// assert!(is_canonical(&fork));
/// # Ok::<(), multihonest_chars::ParseCharStringError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimalAdversary;

impl OptimalAdversary {
    /// Builds the canonical fork for `w` through the incremental engine.
    pub fn build(w: &CharString) -> Fork {
        let mut builder = AstarBuilder::new();
        for (_, sym) in w.iter_slots() {
            builder.step(sym);
        }
        builder.into_fork()
    }

    /// Extends a canonical fork for some prefix `w` into one for `w·b`.
    ///
    /// The fork must have been produced by [`OptimalAdversary`] (or be the
    /// trivial fork); the method appends `b` to the fork's string and
    /// performs `A*`'s move. This is the definitional single-step entry
    /// point (it re-analyses the fork from scratch); for building whole
    /// forks or stepping in a loop, [`AstarBuilder`] amortises the
    /// analysis across steps and produces bit-identical forks.
    pub fn step(fork: &mut Fork, b: Symbol) {
        reference::step(fork, b);
    }
}

/// Incremental `A*`: one [`ReachEngine`] carried across steps.
///
/// # Examples
///
/// ```
/// use multihonest_adversary::{is_canonical, AstarBuilder};
/// use multihonest_chars::Symbol;
///
/// let mut builder = AstarBuilder::new();
/// for sym in [Symbol::UniqueHonest, Symbol::Adversarial, Symbol::UniqueHonest] {
///     builder.step(sym);
/// }
/// assert_eq!(builder.rho(), 0);
/// assert!(is_canonical(builder.fork()));
/// ```
#[derive(Debug, Clone)]
pub struct AstarBuilder {
    engine: ReachEngine,
    /// Reused scratch for the reserve-slot labels of one conservative
    /// extension (avoids an allocation per honest symbol).
    reserve_scratch: Vec<usize>,
}

impl Default for AstarBuilder {
    fn default() -> AstarBuilder {
        AstarBuilder::new()
    }
}

impl AstarBuilder {
    /// Starts from the trivial fork over the empty string.
    pub fn new() -> AstarBuilder {
        AstarBuilder {
            engine: ReachEngine::new(Fork::trivial()),
            reserve_scratch: Vec::new(),
        }
    }

    /// Resumes from a canonical fork built by `A*` (replays it into the
    /// incremental state in `O(V log V)`).
    pub fn from_fork(fork: Fork) -> AstarBuilder {
        AstarBuilder {
            engine: ReachEngine::new(fork),
            reserve_scratch: Vec::new(),
        }
    }

    /// The fork built so far.
    pub fn fork(&self) -> &Fork {
        self.engine.fork()
    }

    /// Unwraps the canonical fork.
    pub fn into_fork(self) -> Fork {
        self.engine.into_fork()
    }

    /// `ρ` of the fork built so far — maintained incrementally, so
    /// margin/ρ sweeps over long strings never re-analyse the fork.
    pub fn rho(&self) -> i64 {
        self.engine.rho()
    }

    /// Starts incremental maintenance of the relative margin `µ_cut` (and
    /// a witness pair) over the growing canonical fork: `O(log n)` per
    /// vertex from here on, `O(1)` per query. By Theorem 6,
    /// `µ_x(F) = µ_x(y)` for the canonical fork of `w = xy`, so a tracked
    /// cut gives the settlement recurrence's value online, with a
    /// concrete fork witness the recurrence alone cannot provide.
    pub fn track_cut(&mut self, cut: usize) {
        self.engine.track_cut(cut);
    }

    /// `µ_cut` of the fork built so far (`None` if the cut is untracked).
    /// For cuts at or beyond the current length this saturates at
    /// `ρ(F)` — every tine pair qualifies.
    pub fn relative_margin(&self, cut: usize) -> Option<i64> {
        self.engine.margin(cut)
    }

    /// A witness pair attaining [`relative_margin`](Self::relative_margin):
    /// two tine endpoints meeting at label `≤ cut` whose min-reach equals
    /// `µ_cut` (equal endpoints encode a self-pair). `None` if untracked.
    pub fn margin_witness(&self, cut: usize) -> Option<(VertexId, VertexId)> {
        self.engine.margin_witness(cut)
    }

    /// Appends `b` and performs `A*`'s move for it.
    pub fn step(&mut self, b: Symbol) {
        if b == Symbol::Adversarial {
            self.engine.push_symbol(b);
            return;
        }
        // Analyse reach with respect to the current prefix — all O(1)
        // bucket lookups plus O(log n) meets on the shared ancestry index.
        let zero_empty = self.engine.zero_reach_tines().is_empty();
        let selection: [Option<VertexId>; 2] = if zero_empty {
            // No zero-reach tine (possible after a surplus of adversarial
            // slots): extend a maximum-reach tine — the prefix-aware
            // fallback of footnote 4.
            [Some(self.engine.max_reach_tines()[0]), None]
        } else {
            let rho_positive = self.engine.rho() >= 1;
            let (r1, z1) = self.engine.earliest_diverging_pair();
            if b == Symbol::UniqueHonest || rho_positive {
                [Some(z1), None]
            } else {
                // ρ(F) = 0 and b = H: freeze the earliest divergence into
                // two tied zero-reach chains. When the zero-reach tine is
                // unique (r1 = z1), extend it TWICE — Figure 4's literal
                // "|Z| = 1 ⇒ single extension" shortcut would fail to be
                // canonical already on w = "H" (µ_ε(H) = 0 needs two
                // concurrent leaders); Proposition 2's proof confirms two
                // extensions are intended whenever ρ = µ-candidate = 0.
                [Some(z1), Some(r1)]
            }
        };
        let gaps = selection.map(|tip| tip.map(|t| self.engine.gap(t)));
        self.engine.push_symbol(b);
        let new_label = self.engine.fork().string().len();
        for (tip, gap) in selection.into_iter().zip(gaps).flat_map(|(t, g)| t.zip(g)) {
            self.conservative_extend(tip, gap, new_label);
        }
    }

    /// Conservatively extends the tine ending at `tip`: adds `gap`
    /// adversarial vertices — the *latest* reserve slots after `ℓ(tip)`,
    /// read off the engine's adversarial-slot list instead of a backwards
    /// string scan — and one honest vertex labelled `new_label` on top.
    fn conservative_extend(&mut self, tip: VertexId, gap: i64, new_label: usize) {
        self.reserve_scratch.clear();
        self.reserve_scratch
            .extend_from_slice(self.engine.latest_adversarial_slots(gap as usize));
        if let Some(&earliest) = self.reserve_scratch.first() {
            assert!(
                earliest > self.engine.fork().label(tip),
                "zero-reach tine must have reserve ≥ gap (Fact 5)"
            );
        }
        let mut cur = tip;
        for i in 0..self.reserve_scratch.len() {
            cur = self.engine.push_vertex(cur, self.reserve_scratch[i]);
        }
        self.engine.push_vertex(cur, new_label);
    }
}

/// The pre-engine `A*` implementation, kept verbatim as the equivalence
/// oracle: a fresh definitional [`ReachAnalysis`] per honest symbol,
/// explicit `R × Z` pair scans for the earliest divergence, and a
/// backwards string scan per conservative extension. Quadratic-and-worse —
/// use [`OptimalAdversary::build`] for anything long — but it transcribes
/// Figure 4 directly from the definitions, which is exactly what an oracle
/// should do. [`OptimalAdversary::build`] is asserted to produce
/// bit-identical forks.
pub mod reference {
    use super::*;

    /// Builds the canonical fork for `w` by repeated definitional steps.
    pub fn build(w: &CharString) -> Fork {
        let mut fork = Fork::trivial();
        for (_, sym) in w.iter_slots() {
            step(&mut fork, sym);
        }
        fork
    }

    /// Performs one definitional `A*` step (see [`OptimalAdversary::step`]).
    pub fn step(fork: &mut Fork, b: Symbol) {
        if b == Symbol::Adversarial {
            fork.push_symbol(b);
            return;
        }
        // Analyse reach with respect to the current prefix.
        let (rho, zero, max_reach, gaps) = {
            let ra = ReachAnalysis::new(fork);
            let rho = ra.rho();
            let zero: Vec<VertexId> = ra.tines_with_reach(0);
            let max_reach: Vec<VertexId> = ra.tines_with_reach(rho);
            let gaps: Vec<i64> = fork.vertices().map(|v| ra.gap(v)).collect();
            (rho, zero, max_reach, gaps)
        };
        let rho_positive = rho >= 1;
        let selection: Vec<VertexId> = if zero.is_empty() {
            vec![max_reach[0]]
        } else {
            let (r1, z1) = earliest_diverging_pair(fork, &max_reach, &zero);
            if b == Symbol::UniqueHonest || rho_positive {
                vec![z1]
            } else {
                vec![z1, r1]
            }
        };
        fork.push_symbol(b);
        let new_label = fork.string().len();
        for tip in selection {
            conservative_extend(fork, tip, gaps[tip.index()], new_label);
        }
    }

    /// Finds `(r₁, z₁) ∈ R × Z` minimising `ℓ(r₁ ∩ z₁)` by scanning every
    /// pair.
    ///
    /// Distinct pairs always weakly beat equal pairs (`ℓ(r ∩ z) ≤ ℓ(z)`
    /// since the last common vertex is an ancestor of `z`), so an equal
    /// pair is returned only when `R × Z` contains no distinct pair —
    /// i.e. when both sets are the same singleton.
    fn earliest_diverging_pair(
        fork: &Fork,
        max_reach: &[VertexId],
        zero: &[VertexId],
    ) -> (VertexId, VertexId) {
        let mut best: Option<(usize, VertexId, VertexId)> = None;
        for &r in max_reach {
            for &z in zero {
                if r == z {
                    continue;
                }
                let l = fork.label(fork.last_common_vertex(r, z));
                if best.is_none_or(|(bl, _, _)| l < bl) {
                    best = Some((l, r, z));
                }
            }
        }
        match best {
            Some((_, r1, z1)) => (r1, z1),
            // R and Z are the same singleton {z}: the "pair" is (z, z).
            None => (zero[0], zero[0]),
        }
    }

    /// Conservatively extends the tine ending at `tip`: adds `gap`
    /// adversarial vertices (consuming the latest available adversarial
    /// slots after `ℓ(tip)`, found by scanning the string backwards) and
    /// one honest vertex labelled `new_label` on top, reaching depth
    /// `height + 1`.
    fn conservative_extend(fork: &mut Fork, tip: VertexId, gap: i64, new_label: usize) {
        let mut labels = Vec::with_capacity(gap as usize);
        // Latest `gap` adversarial slots strictly after ℓ(tip), before
        // new_label.
        let mut t = new_label - 1;
        while labels.len() < gap as usize {
            assert!(
                t > fork.label(tip),
                "zero-reach tine must have reserve ≥ gap (Fact 5)"
            );
            if fork.string().get(t).is_adversarial() {
                labels.push(t);
            }
            t -= 1;
        }
        labels.reverse();
        let mut cur = tip;
        for l in labels {
            cur = fork.push_vertex(cur, l);
        }
        fork.push_vertex(cur, new_label);
    }
}

/// Verifies that a closed fork is **canonical** (paper Definition 19):
/// `ρ(F) = ρ(w)` and `µ_x(F) = µ_x(y)` for every decomposition `w = xy`,
/// where the right-hand sides are computed by the Theorem 5 recurrences.
///
/// The definitional `µ` side is the `O(V²)` pair scan — the bottleneck
/// when verifying long canonical forks — so it runs through the
/// thread-parallel [`ReachAnalysis::relative_margins_parallel`] (exact:
/// an integer max-reduction, identical to the serial oracle for every
/// thread count).
pub fn is_canonical(fork: &Fork) -> bool {
    if !fork.is_closed() {
        return false;
    }
    let w = fork.string();
    let ra = ReachAnalysis::new(fork);
    if ra.rho() != recurrence::rho(w) {
        return false;
    }
    let definitional = ra.relative_margins_parallel();
    (0..=w.len()).all(|cut| definitional[cut] == recurrence::relative_margin(w, cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_catalan::exhaustive_strings;
    use multihonest_chars::BernoulliCondition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn w(s: &str) -> CharString {
        s.parse().unwrap()
    }

    #[test]
    fn builds_valid_closed_forks() {
        for s in ["", "h", "A", "H", "hAhAhA", "hAhAhHAAH", "AAAAhh", "HHHHH"] {
            let fork = OptimalAdversary::build(&w(s));
            assert!(fork.validate().is_ok(), "invalid fork for {s:?}");
            assert!(fork.is_closed(), "open fork for {s:?}");
        }
    }

    #[test]
    fn canonical_on_all_strings_up_to_length_8() {
        // Theorem 6, verified exhaustively: 3^8 = 6561 strings.
        for n in 0..=8 {
            for s in exhaustive_strings(n) {
                let fork = OptimalAdversary::build(&s);
                assert!(is_canonical(&fork), "A* fork not canonical for {s}");
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_all_strings_up_to_length_8() {
        // The incremental engine must replicate the definitional oracle
        // bit for bit — same vertices, same parents, same insertion order.
        for n in 0..=8 {
            for s in exhaustive_strings(n) {
                let engine = OptimalAdversary::build(&s);
                let oracle = reference::build(&s);
                assert_eq!(engine, oracle, "engine diverged from oracle on {s}");
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_random_longer_strings() {
        let mut rng = StdRng::seed_from_u64(2024);
        for (eps, p_h) in [(0.1, 0.3), (0.3, 0.05), (0.05, 0.45), (0.2, 0.0)] {
            let cond = BernoulliCondition::new(eps, p_h).unwrap();
            for len in [60usize, 150, 400] {
                let s = cond.sample(&mut rng, len);
                let engine = OptimalAdversary::build(&s);
                let oracle = reference::build(&s);
                assert_eq!(engine, oracle, "engine diverged from oracle on {s}");
            }
        }
    }

    #[test]
    fn canonical_on_random_longer_strings() {
        let cond = BernoulliCondition::new(0.1, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..30 {
            let s = cond.sample(&mut rng, 40);
            let fork = OptimalAdversary::build(&s);
            assert!(is_canonical(&fork), "A* fork not canonical for {s}");
        }
    }

    #[test]
    fn incremental_steps_match_batch_build() {
        let s = w("hAHAhHA");
        let batch = OptimalAdversary::build(&s);
        // Definitional single-step entry point.
        let mut inc = Fork::trivial();
        for &sym in s.symbols() {
            OptimalAdversary::step(&mut inc, sym);
        }
        assert_eq!(batch, inc);
        // Engine-backed stepping, resumed from a half-built fork.
        let mut builder = AstarBuilder::new();
        for &sym in &s.symbols()[..3] {
            builder.step(sym);
        }
        let mut resumed = AstarBuilder::from_fork(builder.into_fork());
        for &sym in &s.symbols()[3..] {
            resumed.step(sym);
        }
        assert_eq!(batch, resumed.into_fork());
    }

    #[test]
    fn balanced_fork_realised_on_figure2_string() {
        // µ_ε(hAhAhA) ≥ 0, so the canonical fork must witness an
        // ε-balanced fork after trimming to equal lengths — at minimum the
        // final margins must match the recurrence.
        let s = w("hAhAhA");
        let fork = OptimalAdversary::build(&s);
        let ra = ReachAnalysis::new(&fork);
        assert_eq!(ra.relative_margin(0), recurrence::relative_margin(&s, 0));
        assert!(ra.relative_margin(0) >= 0);
    }

    #[test]
    fn multi_honest_double_extension_freezes_divergence() {
        // On w = H with ρ = µ = 0, the two concurrent honest leaders give
        // the adversary two tied chains for free: A* extends the root
        // twice, and µ_ε(H) = 0 is witnessed by the two slot-1 vertices.
        let fork = OptimalAdversary::build(&w("H"));
        assert_eq!(fork.vertex_count(), 3);
        assert_eq!(fork.vertices_with_label(1).len(), 2);
        assert!(is_canonical(&fork));
        // On HH both branches advance in lockstep: 5 vertices, margin 0.
        let fork = OptimalAdversary::build(&w("HH"));
        assert_eq!(fork.vertex_count(), 5);
        assert_eq!(fork.max_length_tines().len(), 2);
        assert!(is_canonical(&fork));
        // But a uniquely honest slot collapses the tie: the h of "Hh" must
        // extend one branch only (F3 allows exactly one slot-2 vertex).
        let fork = OptimalAdversary::build(&w("Hh"));
        assert_eq!(fork.vertices_with_label(2).len(), 1);
        assert!(is_canonical(&fork));
    }

    /// Asserts every tracked cut of `builder` agrees with the Theorem 5
    /// recurrence on `prefix` (Theorem 6: the canonical fork attains
    /// `µ_x(y)` for every decomposition simultaneously), and that the
    /// reported witness pair qualifies and attains the value.
    fn check_tracked(builder: &AstarBuilder, prefix: &CharString, cuts: &[usize]) {
        let n = prefix.len();
        let fork = builder.fork();
        let ra = ReachAnalysis::new(fork);
        for &cut in cuts {
            let want = recurrence::relative_margin(prefix, cut.min(n));
            let got = builder.relative_margin(cut).expect("cut is tracked");
            assert_eq!(got, want, "µ at cut {cut} after {prefix}");
            let (a, b) = builder.margin_witness(cut).expect("cut is tracked");
            let meet = fork.last_common_vertex(a, b);
            assert!(
                fork.label(meet) <= cut,
                "witness for cut {cut} must qualify (meet label ≤ cut) after {prefix}"
            );
            assert_eq!(
                ra.reach(a).min(ra.reach(b)),
                want,
                "witness must attain µ at cut {cut} after {prefix}"
            );
        }
    }

    #[test]
    fn tracked_margins_match_recurrence_on_all_strings_up_to_length_7() {
        let cuts = [0usize, 1, 2, 3, 5, 9];
        for n in 0..=7 {
            for s in exhaustive_strings(n) {
                let mut builder = AstarBuilder::new();
                for &cut in &cuts {
                    builder.track_cut(cut);
                }
                let mut prefix = w("");
                check_tracked(&builder, &prefix, &cuts);
                for &sym in s.symbols() {
                    builder.step(sym);
                    prefix.push(sym);
                    check_tracked(&builder, &prefix, &cuts);
                }
            }
        }
    }

    #[test]
    fn tracked_margins_match_recurrence_on_random_longer_strings() {
        let cond = BernoulliCondition::new(0.1, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(4242);
        let cuts = [0usize, 7, 40, 120];
        for _ in 0..8 {
            let s = cond.sample(&mut rng, 120);
            let mut builder = AstarBuilder::new();
            for &cut in &cuts {
                builder.track_cut(cut);
            }
            let mut prefix = w("");
            for (i, &sym) in s.symbols().iter().enumerate() {
                builder.step(sym);
                prefix.push(sym);
                if (i + 1) % 15 == 0 {
                    check_tracked(&builder, &prefix, &cuts);
                }
            }
            check_tracked(&builder, &prefix, &cuts);
            // Tracking a cut late must replay to the same state — and the
            // replay path has to cope with the backdated reserve vertices
            // conservative extensions insert below past labels.
            let mut late = AstarBuilder::new();
            for &sym in s.symbols() {
                late.step(sym);
            }
            late.track_cut(40);
            assert_eq!(late.relative_margin(40), builder.relative_margin(40));
            assert_eq!(late.margin_witness(40), builder.margin_witness(40));
        }
    }

    #[test]
    fn adversarial_reserve_is_materialised_on_demand() {
        // w = hAAh: the final h extends the maximum-reach tine v1 (no
        // zero-reach tine exists after two A's); no adversarial vertices
        // are needed because v1 is already at maximum length.
        let s = w("hAAh");
        let fork = OptimalAdversary::build(&s);
        assert!(is_canonical(&fork));
        assert_eq!(fork.vertex_count(), 3); // root, v1, v4

        // w = hAh: when the final h arrives, the root is the unique
        // zero-reach tine with gap 1; the conservative extension must
        // materialise one withheld adversarial block (label 2) beneath the
        // new honest vertex — exactly the µ_ε(hAh) = 0 witness fork
        // (root→1 and root→2→3, the latter of maximum length).
        let s = w("hAh");
        let fork = OptimalAdversary::build(&s);
        assert!(is_canonical(&fork));
        let adversarial = fork.vertices().filter(|v| !fork.is_honest(*v)).count();
        assert_eq!(
            adversarial, 1,
            "conservative extension must consume reserve"
        );
        assert_eq!(fork.vertex_count(), 4);
    }
}
