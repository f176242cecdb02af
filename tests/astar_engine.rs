//! Equivalence suite for the incremental `A*` engine: the engine-built
//! fork must be **bit-identical** to the definitional oracle at every
//! prefix (not just at the end), the [`ReachEngine`] must agree with a
//! fresh definitional [`ReachAnalysis`] after every step, and the frozen
//! canonical/Monte-Carlo pins in `testutil` must reproduce exactly.

use multihonest::adversary::{astar, is_canonical, AstarBuilder, OptimalAdversary};
use multihonest::catalan::exhaustive_strings;
use multihonest::chars::{BernoulliCondition, CharString, Symbol};
use multihonest::fork::{Fork, ReachAnalysis, ReachEngine};
use multihonest::margin::recurrence;
use multihonest_testutil::{golden, rng};
use proptest::prelude::*;

fn arb_symbol() -> impl Strategy<Value = Symbol> {
    prop_oneof![
        Just(Symbol::UniqueHonest),
        Just(Symbol::MultiHonest),
        Just(Symbol::Adversarial),
    ]
}

fn arb_string(max_len: usize) -> impl Strategy<Value = CharString> {
    prop::collection::vec(arb_symbol(), 0..=max_len).prop_map(CharString::from_symbols)
}

/// Steps the engine and the definitional oracle side by side over `w`,
/// asserting after **every** symbol that the two forks are bit-identical
/// and that the engine's reach state matches a fresh definitional
/// analysis of the fork.
fn assert_lockstep_equivalence(w: &CharString) {
    let mut builder = AstarBuilder::new();
    let mut oracle = Fork::trivial();
    for (slot, sym) in w.iter_slots() {
        builder.step(sym);
        astar::reference::step(&mut oracle, sym);
        assert_eq!(
            builder.fork(),
            &oracle,
            "engine fork diverged from the oracle after slot {slot} of {w}"
        );
        // The reach state over the engine's own fork must agree with the
        // definitional analysis (reach per tine, ρ, reach-level sets).
        let mut engine = ReachEngine::new(oracle.clone());
        let ra = ReachAnalysis::new(&oracle);
        assert_eq!(
            engine.rho(),
            ra.rho(),
            "ρ diverged after slot {slot} of {w}"
        );
        for v in oracle.vertices() {
            assert_eq!(engine.reach(v), ra.reach(v), "reach({v:?}) of {w}");
            assert_eq!(engine.gap(v), ra.gap(v), "gap({v:?}) of {w}");
        }
        for r in [-1, 0, engine.rho()] {
            assert_eq!(
                engine.tines_with_reach(r),
                ra.tines_with_reach(r).as_slice(),
                "reach-{r} set diverged after slot {slot} of {w}"
            );
        }
        if !ra.tines_with_reach(0).is_empty() {
            // The engine's selection must match the definitional pair scan.
            let rho = ra.rho();
            let (max_reach, zero) = (ra.tines_with_reach(rho), ra.tines_with_reach(0));
            let mut best: Option<(usize, _, _)> = None;
            for &r in &max_reach {
                for &z in &zero {
                    if r == z {
                        continue;
                    }
                    let l = oracle.label(oracle.last_common_vertex(r, z));
                    if best.is_none_or(|(bl, _, _)| l < bl) {
                        best = Some((l, r, z));
                    }
                }
            }
            let expected = best.map_or((zero[0], zero[0]), |(_, r, z)| (r, z));
            assert_eq!(
                engine.earliest_diverging_pair(),
                expected,
                "diverging pair after slot {slot} of {w}"
            );
        }
    }
}

#[test]
fn lockstep_equivalence_on_all_strings_up_to_length_6() {
    // 3^0 + … + 3^6 = 1093 strings, every prefix of each checked.
    for n in 0..=6 {
        for w in exhaustive_strings(n) {
            assert_lockstep_equivalence(&w);
        }
    }
}

/// Engine ≡ oracle on two 400-symbol strings at ε = 0.2, p_h = 0.4,
/// well past the proptest's 120-symbol bound, and the engine fork's own
/// ρ(F) equals the recurrence ρ(w) (Theorem 6).
#[test]
fn engine_matches_oracle_and_recurrence_at_n_400() {
    let cond = BernoulliCondition::new(0.2, 0.4).unwrap();
    for seed in [4u64, 5] {
        let w = cond.sample(&mut rng(seed ^ 400), 400);
        let fork = OptimalAdversary::build(&w);
        assert_eq!(fork, astar::reference::build(&w), "seed {seed}");
        assert_eq!(
            ReachAnalysis::new(&fork).rho(),
            recurrence::rho(&w),
            "seed {seed}"
        );
    }
}

#[test]
fn canonical_and_mc_pins_reproduce() {
    golden::assert_canonical_pins();
    golden::assert_canonical_mc_pins();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Engine ≡ oracle, prefix by prefix, on random strings.
    #[test]
    fn lockstep_equivalence_on_random_strings(w in arb_string(18)) {
        assert_lockstep_equivalence(&w);
    }

    /// Batch engine builds equal the oracle and stay canonical on longer
    /// random strings (final forks only — lockstep above covers prefixes).
    #[test]
    fn batch_equivalence_on_longer_strings(w in arb_string(120)) {
        let fork = OptimalAdversary::build(&w);
        prop_assert_eq!(&fork, &astar::reference::build(&w));
        prop_assert!(is_canonical(&fork));
    }
}
