//! The batch law: [`BatchExecution`] is a pure amortization of
//! independent streaming runs. For every seed, the batched trial output
//! (metrics, settlement index, degradation ledger) must be identical to
//! a standalone [`ColumnarSimulation::run_streaming_faults_in`] on a
//! fresh arena over a freshly sampled schedule — for any batch size,
//! under fault plans,
//! and regardless of the arena history the batch driver has accumulated
//! (a short horizon after a long one reuses the same buffers).

use multihonest::scenario::{
    BatchExecution, ColumnarSchedule, ColumnarSimulation, ExecutionArena, LeaderProbs, TrialOutput,
};
use multihonest::sim::{FaultDirective, FaultPlan, SimConfig, Strategy, TieBreak};

const SEEDS: [u64; 6] = [3, 11, 29, 42, 77, 104];

fn cfg(strategy: Strategy, slots: usize) -> SimConfig {
    SimConfig {
        honest_nodes: 6,
        adversarial_stake: 0.25,
        active_slot_coeff: 0.3,
        delta: 2,
        slots,
        tie_break: TieBreak::AdversarialOrder,
        strategy,
    }
}

fn stakes(config: &SimConfig) -> Vec<f64> {
    let share = (1.0 - config.adversarial_stake) / config.honest_nodes as f64;
    vec![share; config.honest_nodes]
}

/// One independent trial: fresh arena, freshly sampled schedule, fresh
/// strategy — the unbatched ground truth of the law.
fn independent(config: &SimConfig, plan: &FaultPlan, seed: u64) -> TrialOutput {
    let schedule = ColumnarSchedule::sample_weighted(
        &stakes(config),
        config.adversarial_stake,
        config.active_slot_coeff,
        config.slots,
        seed,
    );
    let mut strategy = config.strategy.instantiate();
    let (metrics, divergence, ledger) = ColumnarSimulation::run_streaming_faults_in(
        &mut ExecutionArena::new(),
        config,
        &schedule,
        strategy.as_mut(),
        plan,
        &mut (),
    );
    TrialOutput {
        seed,
        metrics,
        divergence,
        ledger,
    }
}

/// Runs `SEEDS` through one batch driver in sub-batches of `batch_size`
/// and collects every output.
fn batched(config: &SimConfig, plan: &FaultPlan, batch_size: usize) -> Vec<TrialOutput> {
    let probs = LeaderProbs::weighted(
        &stakes(config),
        config.adversarial_stake,
        config.active_slot_coeff,
    );
    let mut batch = BatchExecution::new();
    let mut outputs = Vec::new();
    for group in SEEDS.chunks(batch_size) {
        batch.run(
            config,
            &probs,
            plan,
            group.iter().copied(),
            |_| config.strategy.instantiate(),
            |out| outputs.push(out),
        );
    }
    outputs
}

fn assert_law(config: &SimConfig, plan: &FaultPlan) {
    let truth: Vec<TrialOutput> = SEEDS
        .iter()
        .map(|&seed| independent(config, plan, seed))
        .collect();
    for batch_size in [1, 2, SEEDS.len()] {
        let got = batched(config, plan, batch_size);
        assert_eq!(got, truth, "batch size {batch_size}");
    }
}

#[test]
fn batching_equals_independent_runs_withholding() {
    assert_law(
        &cfg(Strategy::PrivateWithholding, 1500),
        &FaultPlan::default(),
    );
}

#[test]
fn batching_equals_independent_runs_balance() {
    assert_law(&cfg(Strategy::BalanceAttack, 1200), &FaultPlan::default());
}

#[test]
fn batching_equals_independent_runs_under_faults() {
    let plan = FaultPlan::new()
        .with(FaultDirective::Crash {
            node: 1,
            at: 100,
            recover_slot: 400,
        })
        .with(FaultDirective::Partition {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            start: 600,
            heal_slot: 750,
        });
    assert_law(&cfg(Strategy::PrivateWithholding, 1500), &plan);
}

/// Arena-history independence: a short horizon executed right after a
/// much longer one through the same driver must match a fresh run —
/// the short-after-long regression guard on [`ExecutionArena`] reuse
/// (stale tail state in any column would surface here).
///
/// [`ExecutionArena`]: multihonest::scenario::ExecutionArena
#[test]
fn short_horizon_after_long_is_identical() {
    let long = cfg(Strategy::PrivateWithholding, 20_000);
    let short = cfg(Strategy::PrivateWithholding, 800);
    let plan = FaultPlan::default();
    let probs = LeaderProbs::weighted(
        &stakes(&long),
        long.adversarial_stake,
        long.active_slot_coeff,
    );
    let mut batch = BatchExecution::new();
    let mut sink = Vec::new();
    batch.run(
        &long,
        &probs,
        &plan,
        [7u64],
        |_| long.strategy.instantiate(),
        |out| sink.push(out),
    );
    sink.clear();
    batch.run(
        &short,
        &probs,
        &plan,
        SEEDS.iter().copied(),
        |_| short.strategy.instantiate(),
        |out| sink.push(out),
    );
    let truth: Vec<TrialOutput> = SEEDS
        .iter()
        .map(|&seed| independent(&short, &plan, seed))
        .collect();
    assert_eq!(sink, truth);
}
