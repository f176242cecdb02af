//! The indexed consistency-query layer must be observationally identical
//! to the naive Definition-3 scan it replaced: every `(s, k)` settlement
//! query, on every strategy, delay bound and seed, through both the
//! batch sweep and the retained per-query oracle — plus frozen
//! settled-slot counts on the canonical presets.

use multihonest::prelude::*;
use multihonest_testutil::golden;
// Selective: `proptest::prelude::*` would bring a second `Strategy`
// (the generator trait) into scope next to the simulator's enum.
use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig};

fn equivalence_config(strategy: Strategy, delta: usize) -> SimConfig {
    SimConfig {
        honest_nodes: 6,
        adversarial_stake: 0.4,
        active_slot_coeff: 0.3,
        delta,
        slots: 200,
        tie_break: TieBreak::AdversarialOrder,
        strategy,
    }
}

#[test]
fn indexed_sweep_matches_oracle_exhaustively() {
    // All three strategies × Δ ∈ {0, 2, 3} × 8 seeds × several k: the
    // batch sweep, the O(1) point query and the naive oracle must agree
    // on every anchor.
    for strategy in Strategy::ALL {
        for delta in [0usize, 2, 3] {
            for seed in 0..8u64 {
                let cfg = equivalence_config(strategy, delta);
                let sim = Simulation::run(&cfg, seed);
                for k in [0usize, 1, 5, 12, 40] {
                    let batch = sim.settlement_violations(k);
                    assert_eq!(batch.len(), cfg.slots);
                    for s in 1..=cfg.slots {
                        let oracle = sim.settlement_violation_oracle(s, k);
                        assert_eq!(
                            batch[s - 1],
                            oracle,
                            "batch vs oracle at s={s}, k={k}, {strategy}, \
                             Δ={delta}, seed {seed}"
                        );
                        assert_eq!(
                            sim.settlement_violation(s, k),
                            oracle,
                            "point query vs oracle at s={s}, k={k}"
                        );
                    }
                    assert_eq!(
                        sim.first_violating_slot(k),
                        batch.iter().position(|&v| v).map(|i| i + 1),
                        "first_violating_slot at k={k}, {strategy}, Δ={delta}, seed {seed}"
                    );
                    assert_eq!(
                        sim.metrics().observed_settlement_violation(k),
                        batch.iter().any(|&v| v),
                        "max settlement lag disagrees with the sweep at k={k}"
                    );
                    assert_eq!(
                        sim.count_violating_slots(k, cfg.slots),
                        batch.iter().filter(|&&v| v).count(),
                        "count_violating_slots disagrees with the sweep at k={k}"
                    );
                    assert_eq!(
                        sim.count_violating_slots(k, usize::MAX),
                        batch.iter().filter(|&&v| v).count()
                    );
                }
            }
        }
    }
}

#[test]
fn indexed_sweep_matches_oracle_on_the_settlement_table_config() {
    // The `settlement --quick` execution: 600 slots of private
    // withholding, three times the horizon of the grid above.
    let cfg = SimConfig {
        honest_nodes: 10,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.25,
        delta: 2,
        slots: 600,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    };
    let sim = Simulation::run(&cfg, 9);
    for k in [5usize, 10, 20, 40, 80, 160] {
        let oracle: Vec<bool> = (1..=cfg.slots)
            .map(|s| sim.settlement_violation_oracle(s, k))
            .collect();
        assert_eq!(sim.settlement_violations(k), oracle, "k = {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random configurations (stake, Δ, strategy, tie-breaking, seed, k)
    /// keep the indexed path equivalent to the oracle on every anchor.
    #[test]
    fn indexed_violation_matches_oracle_on_random_configs(
        seed in 0u64..10_000,
        delta in 0usize..4,
        strat in 0usize..3,
        consistent_ties in any::<bool>(),
        k in 0usize..30,
        stake_pct in 0usize..50,
    ) {
        let cfg = SimConfig {
            honest_nodes: 5,
            adversarial_stake: stake_pct as f64 / 100.0,
            active_slot_coeff: 0.35,
            delta,
            slots: 120,
            tie_break: if consistent_ties {
                TieBreak::Consistent
            } else {
                TieBreak::AdversarialOrder
            },
            strategy: Strategy::ALL[strat],
        };
        let sim = Simulation::run(&cfg, seed);
        let batch = sim.settlement_violations(k);
        for s in 1..=cfg.slots {
            prop_assert_eq!(
                batch[s - 1],
                sim.settlement_violation_oracle(s, k),
                "s={}, k={}, cfg={:?}", s, k, cfg
            );
        }
    }
}

#[test]
fn slot_domain_edges_are_guarded() {
    let cfg = equivalence_config(Strategy::PrivateWithholding, 2);
    let sim = Simulation::run(&cfg, 1);
    // The genesis boundary (slot 0) is out of the 1-based domain: no
    // recorded views, vacuously settled, no panic.
    assert!(sim.tips_at(0).is_empty());
    assert!(!sim.settlement_violation(0, 0));
    assert!(!sim.settlement_violation(0, 25));
    // Anchors beyond the horizon are vacuously settled too.
    assert!(!sim.settlement_violation(cfg.slots + 7, 0));
    // The divergence index exposes the per-anchor observations directly.
    let idx = sim.divergence_index();
    assert_eq!(idx.slots(), cfg.slots);
    for s in 1..=cfg.slots {
        match (
            idx.earliest_diverging_observation(s),
            idx.latest_diverging_observation(s),
        ) {
            (Some(e), Some(l)) => {
                assert!(s <= e && e <= l, "observation order at anchor {s}");
                assert!(sim.settlement_violation(s, l - s));
                assert!(!sim.settlement_violation(s, l - s + 1));
            }
            (None, None) => assert!(!sim.settlement_violation(s, 0)),
            other => panic!("half-set observation at anchor {s}: {other:?}"),
        }
    }
}

#[test]
fn preset_settled_slot_counts_are_frozen() {
    golden::assert_sim_settled_pins();
}
