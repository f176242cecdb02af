//! Batched multi-seed executions: one arena, one schedule buffer, many
//! trials.
//!
//! A Monte-Carlo campaign runs the *same* configuration over thousands
//! of seeds. Driven naïvely, every trial pays for a fresh block arena, a
//! fresh schedule allocation and a fresh `φ(stake)` table — none of
//! which depend on the seed. [`BatchExecution`] owns the reusable pieces
//! and exposes one entry point that runs a whole seed list through them:
//!
//! * the [`ExecutionArena`] (block store, delivery ring, node tips,
//!   scratch buffers) is reset in place between seeds — zero
//!   steady-state allocation, guarded by the arena's debug audit;
//! * the [`ColumnarSchedule`] buffer is resampled in place from a shared
//!   [`LeaderProbs`] table, hoisting the stake validation and `powf`
//!   table out of the seed loop;
//! * each trial gets a fresh strategy from the caller's factory, so no
//!   adversarial state leaks between seeds.
//!
//! **The batch law.** Batching is a pure amortization: for every seed,
//! the produced [`TrialOutput`] is identical to an independent
//! [`ColumnarSimulation::run_streaming_faults_in`] on a fresh
//! [`ExecutionArena`] over a freshly sampled schedule — for any batch
//! size, any trial order within the driving
//! loop, and any arena history (a short horizon after a long one reuses
//! the same buffers). `tests/batch_execution.rs` pins this law, and the
//! campaign sweep builds on it: its reports and checkpoints are
//! byte-identical across batch sizes and thread counts.

use multihonest_sim::consistency::DivergenceIndex;
use multihonest_sim::fault::{DegradationLedger, FaultPlan};
use multihonest_sim::metrics::Metrics;
use multihonest_sim::strategy::AdversaryStrategy;
use multihonest_sim::SimConfig;

use crate::engine::{ColumnarSimulation, ExecutionArena};
use crate::schedule::{ColumnarSchedule, LeaderProbs};

/// The complete observable outcome of one batched trial — exactly what
/// the streaming fault-aware entry point returns, plus the seed that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutput {
    /// The schedule seed of this trial.
    pub seed: u64,
    /// End-of-run metrics.
    pub metrics: Metrics,
    /// The settlement/divergence index.
    pub divergence: DivergenceIndex,
    /// What fault injection did (empty ledger for the empty plan).
    pub ledger: DegradationLedger,
}

/// Reusable state for running many seeds of one configuration through a
/// single arena. See the module docs for the amortization inventory and
/// the batch law.
#[derive(Debug)]
pub struct BatchExecution {
    arena: ExecutionArena,
    schedule: ColumnarSchedule,
}

impl Default for BatchExecution {
    fn default() -> BatchExecution {
        BatchExecution::new()
    }
}

impl BatchExecution {
    /// An empty batch driver; the first trial sizes its buffers, later
    /// trials reuse them.
    pub fn new() -> BatchExecution {
        BatchExecution {
            arena: ExecutionArena::new(),
            schedule: ColumnarSchedule::empty(),
        }
    }

    /// Runs every seed of `seeds` as one streaming fault-aware execution
    /// and hands each [`TrialOutput`] to `each`, in seed-list order.
    ///
    /// `make_strategy` is called once per seed and must return a fresh
    /// strategy (batching shares buffers, never adversarial state).
    /// `probs` carries the stake distribution; `config.slots` sets the
    /// horizon of every trial.
    ///
    /// # Panics
    ///
    /// Panics if the probability table covers a different node count
    /// than `config` — a mixed-up cell wiring, not a tunable.
    pub fn run<I, F, E>(
        &mut self,
        config: &SimConfig,
        probs: &LeaderProbs,
        plan: &FaultPlan,
        seeds: I,
        mut make_strategy: F,
        mut each: E,
    ) where
        I: IntoIterator<Item = u64>,
        F: FnMut(u64) -> Box<dyn AdversaryStrategy>,
        E: FnMut(TrialOutput),
    {
        assert_eq!(
            probs.honest_nodes(),
            config.honest_nodes,
            "probability table and config disagree on the honest node count"
        );
        for seed in seeds {
            self.schedule.resample_from_probs(probs, config.slots, seed);
            let mut strategy = make_strategy(seed);
            let (metrics, divergence, ledger) = ColumnarSimulation::run_streaming_faults_in(
                &mut self.arena,
                config,
                &self.schedule,
                strategy.as_mut(),
                plan,
                &mut (),
            );
            each(TrialOutput {
                seed,
                metrics,
                divergence,
                ledger,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_sim::{Strategy, TieBreak};

    fn cfg(slots: usize) -> SimConfig {
        SimConfig {
            honest_nodes: 5,
            adversarial_stake: 0.2,
            active_slot_coeff: 0.3,
            delta: 2,
            slots,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::PrivateWithholding,
        }
    }

    #[test]
    fn probs_table_matches_per_call_sampling() {
        let stakes = [0.3, 0.2, 0.15, 0.1, 0.05];
        let probs = LeaderProbs::weighted(&stakes, 0.2, 0.3);
        let mut reused = ColumnarSchedule::empty();
        for seed in [0u64, 3, 17] {
            reused.resample_from_probs(&probs, 500, seed);
            let fresh = ColumnarSchedule::sample_weighted(&stakes, 0.2, 0.3, 500, seed);
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn uniform_probs_match_equal_split() {
        let probs = LeaderProbs::uniform(5, 0.2, 0.3);
        let mut sched = ColumnarSchedule::empty();
        sched.resample_from_probs(&probs, 300, 7);
        assert_eq!(sched, ColumnarSchedule::sample(5, 0.2, 0.3, 300, 7));
    }

    #[test]
    #[should_panic(expected = "disagree on the honest node count")]
    fn mismatched_node_count_rejected() {
        let probs = LeaderProbs::uniform(4, 0.2, 0.3);
        BatchExecution::new().run(
            &cfg(50),
            &probs,
            &FaultPlan::default(),
            [1u64],
            |_| Strategy::PrivateWithholding.instantiate(),
            |_| {},
        );
    }

    #[test]
    fn outputs_arrive_in_seed_order() {
        let probs = LeaderProbs::uniform(5, 0.2, 0.3);
        let mut seen = Vec::new();
        BatchExecution::new().run(
            &cfg(200),
            &probs,
            &FaultPlan::default(),
            [9u64, 2, 5],
            |_| Strategy::PrivateWithholding.instantiate(),
            |out| seen.push(out.seed),
        );
        assert_eq!(seen, [9, 2, 5]);
    }
}
