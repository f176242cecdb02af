//! Equivalence suite for the columnar scenario engine: every execution
//! must be **bit-identical** to `sim::reference` — tip trajectories,
//! rollback records, metrics and the settlement index — across the
//! built-in strategy grid, the scenario library (lagged releases,
//! burst/jitter schedules, heterogeneous stake/latency profiles), and
//! random configurations; and the frozen long-horizon fingerprints in
//! `testutil` must reproduce exactly.

use multihonest::prelude::*;
use multihonest::scenario::{
    scenario_library, ColumnarSchedule, ColumnarSimulation, LaggedWithholding, NetworkSchedule,
    NodeProfile,
};
use multihonest::sim::MetricsAccumulator;
// `Strategy` would be ambiguous between the prelude's enum and
// proptest's trait under two glob imports — pin the enum explicitly.
use multihonest::sim::Strategy;
use multihonest_testutil::golden;
use proptest::prelude::*;

/// Asserts a columnar run of `config` is trace-identical to the
/// reference engine, comparing tips, rollbacks, metrics, the settlement
/// index and several violation sweeps.
fn assert_bit_identical(config: &SimConfig, seed: u64, context: &str) {
    let cols = ColumnarSimulation::run(config, seed);
    let refr = Simulation::run(config, seed);
    for t in 0..=config.slots {
        let expect: Vec<u32> = refr.tips_at(t).iter().map(|b| b.index() as u32).collect();
        assert_eq!(
            cols.tips_at(t),
            expect.as_slice(),
            "{context}: tips diverged at slot {t}"
        );
    }
    let expect_rb: Vec<(u32, u32, u32)> = refr
        .rollbacks()
        .iter()
        .map(|&(t, o, n)| (t as u32, o.index() as u32, n.index() as u32))
        .collect();
    assert_eq!(
        cols.rollbacks(),
        expect_rb.as_slice(),
        "{context}: rollbacks diverged"
    );
    assert_eq!(
        cols.metrics(),
        refr.metrics(),
        "{context}: metrics diverged"
    );
    assert_eq!(
        cols.divergence_index(),
        refr.divergence_index(),
        "{context}: settlement index diverged"
    );
    for k in [0usize, 1, 5, 20] {
        assert_eq!(
            cols.settlement_violations(k),
            refr.settlement_violations(k),
            "{context}: violations diverged at k = {k}"
        );
        assert_eq!(
            cols.first_violating_slot(k),
            refr.first_violating_slot(k),
            "{context}: first violation diverged at k = {k}"
        );
    }
}

#[test]
fn exhaustive_strategy_delta_seed_grid_is_bit_identical() {
    // The acceptance grid: every built-in strategy × Δ × tie-break ×
    // seed, at a horizon long enough for releases, races and rollbacks.
    for strategy in Strategy::ALL {
        for delta in [0usize, 1, 3] {
            for tie_break in [TieBreak::AdversarialOrder, TieBreak::Consistent] {
                for seed in 0..3u64 {
                    let config = SimConfig {
                        honest_nodes: 6,
                        adversarial_stake: 0.35,
                        active_slot_coeff: 0.35,
                        delta,
                        slots: 250,
                        tie_break,
                        strategy,
                    };
                    assert_bit_identical(
                        &config,
                        seed,
                        &format!("{strategy}/Δ={delta}/{tie_break:?}/seed={seed}"),
                    );
                }
            }
        }
    }
}

#[test]
fn scenario_library_is_bit_identical_to_reference() {
    // Every library scenario — lagged withholding, burst and jitter
    // schedules, zipf stake, latency profiles — replayed on both engines
    // with the same strategy objects and schedules.
    for sc in scenario_library(400) {
        let mut ref_strategy = sc.strategy();
        let reference = Simulation::run_with_schedule(
            &sc.config,
            sc.reference_schedule(13),
            ref_strategy.as_mut(),
        );
        let mut col_strategy = sc.strategy();
        let schedule = sc.schedule(13);
        let cols =
            ColumnarSimulation::run_with_schedule(&sc.config, &schedule, col_strategy.as_mut());
        assert_eq!(cols.metrics(), reference.metrics(), "{}", sc.name);
        assert_eq!(
            cols.divergence_index(),
            reference.divergence_index(),
            "{}",
            sc.name
        );
        for t in 1..=sc.config.slots {
            let expect: Vec<u32> = reference
                .tips_at(t)
                .iter()
                .map(|b| b.index() as u32)
                .collect();
            assert_eq!(cols.tips_at(t), expect.as_slice(), "{}: slot {t}", sc.name);
        }
        let expect_rb: Vec<(u32, u32, u32)> = reference
            .rollbacks()
            .iter()
            .map(|&(t, o, n)| (t as u32, o.index() as u32, n.index() as u32))
            .collect();
        assert_eq!(cols.rollbacks(), expect_rb.as_slice(), "{}", sc.name);
    }
}

#[test]
fn scenario_strategies_respect_the_delta_axioms_on_the_reference_engine() {
    // The Δ-window clamp invariant, checked through the fork axioms: run
    // scenario strategies on the reference engine and validate the
    // extracted fork against (F1)–(F3) + (F4Δ). No release lag, schedule
    // or latency profile can break them, because both engines clamp
    // honest deliveries into [slot, slot + Δ].
    let config = SimConfig {
        honest_nodes: 5,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.3,
        delta: 3,
        slots: 200,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    };
    for (lag, net) in [
        (0usize, NetworkSchedule::EdgeOfWindow),
        (7, NetworkSchedule::Immediate),
        (
            2,
            NetworkSchedule::Burst {
                period: 9,
                width: 4,
            },
        ),
        (12, NetworkSchedule::Jitter { salt: 3 }),
    ] {
        let profile = NodeProfile::uniform().with_latency(vec![5, 0, 1, 8, 2]);
        let mut strategy = LaggedWithholding::new(lag, net, profile);
        let sim = Simulation::run_with(&config, 17, &mut strategy);
        assert_eq!(
            sim.fork().validate_against_axioms(),
            Ok(()),
            "lag {lag} / {net:?} broke the Δ axioms"
        );
    }
}

#[test]
fn streaming_mode_retains_nothing_but_loses_nothing() {
    // Metrics and settlement index from a streaming run (no per-slot
    // traces) must equal the trace-retaining run's, and the user sink
    // must see the same observation stream the internal accumulator does.
    let config = SimConfig {
        honest_nodes: 8,
        adversarial_stake: 0.4,
        active_slot_coeff: 0.3,
        delta: 2,
        slots: 2_000,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    };
    let schedule = ColumnarSchedule::sample(
        config.honest_nodes,
        config.adversarial_stake,
        config.active_slot_coeff,
        config.slots,
        23,
    );
    let mut s1 = config.strategy.instantiate();
    let traced = ColumnarSimulation::run_with_schedule(&config, &schedule, s1.as_mut());
    let mut s2 = config.strategy.instantiate();
    let mut sink = MetricsAccumulator::new();
    let (metrics, index) =
        ColumnarSimulation::run_streaming(&config, &schedule, s2.as_mut(), &mut sink);
    assert_eq!(&metrics, traced.metrics());
    assert_eq!(&index, traced.divergence_index());
    assert_eq!(sink.max_slot_divergence(), metrics.max_slot_divergence);
}

#[test]
fn long_horizon_fingerprints_reproduce() {
    // The 10⁵-slot withholding execution and the 2·10⁴-slot scenario
    // presets, pinned in testutil.
    golden::assert_scenario_fingerprints();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Columnar ≡ reference on random configurations.
    #[test]
    fn random_configs_are_bit_identical(
        nodes in 1usize..9,
        stake in 0usize..5,
        f in 1usize..7,
        delta in 0usize..4,
        slots in 20usize..220,
        strategy_idx in 0usize..3,
        tie in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let config = SimConfig {
            honest_nodes: nodes,
            adversarial_stake: stake as f64 / 10.0,
            active_slot_coeff: f as f64 / 10.0,
            delta,
            slots,
            tie_break: if tie == 0 { TieBreak::AdversarialOrder } else { TieBreak::Consistent },
            strategy: Strategy::ALL[strategy_idx],
        };
        assert_bit_identical(&config, seed, &format!("{config:?}"));
    }
}
