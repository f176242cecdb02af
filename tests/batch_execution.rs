//! The batch law: running many trials through one reused
//! [`ExecutionArena`] and one reused [`ColumnarSchedule`] — the loop
//! every campaign sweep worker runs — is a pure amortization of
//! independent streaming runs. For every seed, the trial outcome
//! (metrics, settlement index, degradation ledger) must be identical to
//! a standalone [`ColumnarSimulation::run_streaming_faults_in`] on a
//! fresh arena over a freshly sampled schedule — in any trial order,
//! under fault plans, across the cells of a campaign grid, and
//! regardless of the arena history (a short horizon after a long one
//! reuses the same buffers).

use multihonest::scenario::{ColumnarSchedule, ColumnarSimulation, ExecutionArena, LeaderProbs};
use multihonest::sim::{
    AdversaryStrategy, DegradationLedger, DivergenceIndex, FaultDirective, FaultPlan, Metrics,
    SimConfig, Strategy, TieBreak,
};
use multihonest::sweep::{CampaignSpec, FaultProfile};

const SEEDS: [u64; 6] = [3, 11, 29, 42, 77, 104];

/// What one trial yields.
type Outcome = (Metrics, DivergenceIndex, DegradationLedger);

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
/// strategy — the unamortized ground truth of the law.
fn independent(
    config: &SimConfig,
    stakes: &[f64],
    plan: &FaultPlan,
    mut strategy: Box<dyn AdversaryStrategy>,
    seed: u64,
) -> Outcome {
    let schedule = ColumnarSchedule::sample_weighted(
        stakes,
        config.adversarial_stake,
        config.active_slot_coeff,
        config.slots,
        seed,
    );
    ColumnarSimulation::run_streaming_faults_in(
        &mut ExecutionArena::new(),
        config,
        &schedule,
        strategy.as_mut(),
        plan,
        &mut (),
    )
}

/// The reused buffers of one worker, driven one trial at a time exactly
/// as a sweep worker drives them.
struct Worker {
    arena: ExecutionArena,
    schedule: ColumnarSchedule,
}

impl Worker {
    fn new() -> Worker {
        Worker {
            arena: ExecutionArena::new(),
            schedule: ColumnarSchedule::empty(),
        }
    }

    fn trial(
        &mut self,
        config: &SimConfig,
        probs: &LeaderProbs,
        plan: &FaultPlan,
        mut strategy: Box<dyn AdversaryStrategy>,
        seed: u64,
    ) -> Outcome {
        self.schedule.resample_from_probs(probs, config.slots, seed);
        ColumnarSimulation::run_streaming_faults_in(
            &mut self.arena,
            config,
            &self.schedule,
            strategy.as_mut(),
            plan,
            &mut (),
        )
    }
}

fn probs_for(config: &SimConfig) -> LeaderProbs {
    LeaderProbs::weighted(
        &stakes(config),
        config.adversarial_stake,
        config.active_slot_coeff,
    )
}

/// Runs `SEEDS` through one worker forwards, then backwards (the arena
/// history carrying over), and checks every outcome against the
/// independent run of its seed.
fn assert_law(config: &SimConfig, plan: &FaultPlan) {
    let truth: Vec<Outcome> = SEEDS
        .iter()
        .map(|&seed| {
            independent(
                config,
                &stakes(config),
                plan,
                config.strategy.instantiate(),
                seed,
            )
        })
        .collect();
    let probs = probs_for(config);
    let mut worker = Worker::new();
    let forwards = SEEDS.iter().enumerate();
    for (i, &seed) in forwards.clone().chain(forwards.rev()) {
        let got = worker.trial(config, &probs, plan, config.strategy.instantiate(), seed);
        assert_eq!(got, truth[i], "seed {seed}");
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
/// much longer one through the same buffers must match a fresh run —
/// the short-after-long regression guard on [`ExecutionArena`] reuse
/// (stale tail state in any column would surface here).
///
/// [`ExecutionArena`]: multihonest::scenario::ExecutionArena
#[test]
fn short_horizon_after_long_is_identical() {
    let long = cfg(Strategy::PrivateWithholding, 20_000);
    let short = cfg(Strategy::PrivateWithholding, 800);
    let plan = FaultPlan::default();
    let probs = probs_for(&long);
    let mut worker = Worker::new();
    worker.trial(&long, &probs, &plan, long.strategy.instantiate(), 7);
    for seed in SEEDS {
        let got = worker.trial(&short, &probs, &plan, short.strategy.instantiate(), seed);
        let truth = independent(
            &short,
            &stakes(&short),
            &plan,
            short.strategy.instantiate(),
            seed,
        );
        assert_eq!(got, truth, "seed {seed}");
    }
}

/// Cross-cell reuse, as a sweep worker sees it: one arena and one
/// schedule carried across every cell of the quick campaign grid with
/// a fault axis — uniform and Zipf stake tables, every sweep strategy,
/// Δ ∈ {0, 2, 4}, no fault, a partition and a crash — with a few trials
/// per cell checked against fresh runs.
#[test]
fn one_worker_across_campaign_cells_is_identical() {
    let spec = CampaignSpec {
        faults: vec![
            FaultProfile::None,
            FaultProfile::PartitionHalves,
            FaultProfile::CrashRecover,
        ],
        ..CampaignSpec::quick_grid()
    };
    let mut worker = Worker::new();
    for cell in spec.cells() {
        let config = spec.config_for(&cell);
        let stakes = spec.stakes_for(&cell);
        let plan = cell.fault.plan(spec.honest_nodes, spec.slots);
        let probs = LeaderProbs::weighted(&stakes, spec.adversarial_stake, spec.active_slot_coeff);
        for trial in 0..3 {
            let seed = spec.trial_seed(cell.index, trial);
            let got = worker.trial(&config, &probs, &plan, cell.strategy.instantiate(), seed);
            let truth = independent(&config, &stakes, &plan, cell.strategy.instantiate(), seed);
            assert_eq!(got, truth, "cell {cell:?}, trial {trial}");
        }
    }
}
