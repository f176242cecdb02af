//! Per-cell campaign aggregates: commutative integer folds.
//!
//! Everything a campaign retains per grid cell is an integer sum, max,
//! or order-invariant fingerprint over its trials — so merging chunk
//! results in *any* order (different thread counts, work-stealing claim
//! orders, interrupt/resume splits) yields bit-identical aggregates, and
//! every derived statistic in the report layer is computed from these
//! integers deterministically at the end. No floating-point accumulation
//! happens during the run at all.

use multihonest_sim::consistency::DivergenceIndex;
use multihonest_sim::metrics::Metrics;
use serde::Serialize;

use crate::spec::mix;

/// The retained aggregate of one grid cell. All counters fold
/// commutatively; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CellAggregate {
    /// Trials folded in so far.
    pub trials: u64,
    /// Per `k` (aligned with the spec's `ks`): executions with at least
    /// one violating anchor.
    pub violating_executions: Vec<u64>,
    /// Per `k`: total violating anchor slots summed over executions.
    pub violating_anchors: Vec<u64>,
    /// Total honest rollbacks over all trials.
    pub rollbacks: u64,
    /// Maximum slot divergence observed in any trial.
    pub max_slot_divergence: u64,
    /// Maximum settlement lag observed in any trial (`-1` = none ever).
    pub max_settlement_lag: i64,
    /// Total blocks on final chains, summed over trials.
    pub chain_blocks: u64,
    /// Honest blocks among [`CellAggregate::chain_blocks`].
    pub honest_chain_blocks: u64,
    /// Final chain heights summed over trials.
    pub final_height: u64,
    /// Slots with at least one leader, summed over trials.
    pub active_slots: u64,
    /// Fault-deferred delivery events (parks and re-parks) summed over
    /// trials; 0 in fault-free cells.
    pub deferred_deliveries: u64,
    /// Fault-parked deliveries dropped at the horizon, summed over
    /// trials; 0 for bounded fault plans.
    pub dropped_deliveries: u64,
    /// Worst observed effective Δ (delivery slot − broadcast slot over
    /// fault-deferred honest deliveries) in any trial; 0 when no fault
    /// ever deferred.
    pub worst_effective_delta: u64,
    /// Order-invariant fingerprint: the wrapping sum of one SplitMix64
    /// word per trial (seed + headline outcomes). Any drift in any
    /// trial's execution flips it; trial order cannot. The degradation
    /// counters above stay **outside** this word, so a fault-free cell's
    /// fingerprint is unchanged from pre-fault-axis campaigns.
    pub fingerprint: u64,
}

impl CellAggregate {
    /// An empty aggregate for `num_ks` settlement parameters.
    pub fn new(num_ks: usize) -> CellAggregate {
        CellAggregate {
            trials: 0,
            violating_executions: vec![0; num_ks],
            violating_anchors: vec![0; num_ks],
            rollbacks: 0,
            max_slot_divergence: 0,
            max_settlement_lag: -1,
            chain_blocks: 0,
            honest_chain_blocks: 0,
            final_height: 0,
            active_slots: 0,
            deferred_deliveries: 0,
            dropped_deliveries: 0,
            worst_effective_delta: 0,
            fingerprint: 0,
        }
    }

    /// Folds one trial's fault
    /// [`DegradationLedger`](multihonest_sim::DegradationLedger) in (call
    /// alongside [`CellAggregate::record`] for cells with a non-empty
    /// fault plan).
    pub fn record_faults(&mut self, ledger: &multihonest_sim::DegradationLedger) {
        self.deferred_deliveries += ledger.deferred;
        self.dropped_deliveries += ledger.dropped;
        self.worst_effective_delta = self
            .worst_effective_delta
            .max(ledger.worst_effective_delta as u64);
    }

    /// Folds one finished trial in.
    pub fn record(
        &mut self,
        trial_seed: u64,
        metrics: &Metrics,
        index: &DivergenceIndex,
        ks: &[usize],
        slots: usize,
    ) {
        debug_assert_eq!(ks.len(), self.violating_executions.len());
        self.trials += 1;
        let mut word = mix(trial_seed);
        for (i, anchors) in index.violation_counts(ks, slots).into_iter().enumerate() {
            let anchors = anchors as u64;
            self.violating_anchors[i] += anchors;
            self.violating_executions[i] += u64::from(anchors > 0);
            word = mix(word ^ anchors);
        }
        self.rollbacks += metrics.rollback_count as u64;
        self.max_slot_divergence = self
            .max_slot_divergence
            .max(metrics.max_slot_divergence as u64);
        let lag = metrics.max_settlement_lag.map_or(-1, |l| l as i64);
        self.max_settlement_lag = self.max_settlement_lag.max(lag);
        self.chain_blocks += metrics.chain_blocks as u64;
        self.honest_chain_blocks += metrics.honest_chain_blocks as u64;
        self.final_height += metrics.final_height as u64;
        self.active_slots += metrics.active_slots as u64;
        word = mix(word ^ metrics.final_height as u64);
        word = mix(word ^ metrics.rollback_count as u64);
        word = mix(word ^ metrics.max_slot_divergence as u64);
        word = mix(word ^ lag as u64);
        // Wrapping sum: commutative, so claim order cannot matter.
        self.fingerprint = self.fingerprint.wrapping_add(word);
    }

    /// Merges another aggregate of the same shape in (chunk → cell).
    ///
    /// # Panics
    ///
    /// Panics if the two aggregates track different `k` counts.
    pub fn merge(&mut self, other: &CellAggregate) {
        assert_eq!(
            self.violating_executions.len(),
            other.violating_executions.len(),
            "aggregates track different settlement parameter sets"
        );
        self.trials += other.trials;
        for (a, b) in self
            .violating_executions
            .iter_mut()
            .zip(&other.violating_executions)
        {
            *a += b;
        }
        for (a, b) in self
            .violating_anchors
            .iter_mut()
            .zip(&other.violating_anchors)
        {
            *a += b;
        }
        self.rollbacks += other.rollbacks;
        self.max_slot_divergence = self.max_slot_divergence.max(other.max_slot_divergence);
        self.max_settlement_lag = self.max_settlement_lag.max(other.max_settlement_lag);
        self.chain_blocks += other.chain_blocks;
        self.honest_chain_blocks += other.honest_chain_blocks;
        self.final_height += other.final_height;
        self.active_slots += other.active_slots;
        self.deferred_deliveries += other.deferred_deliveries;
        self.dropped_deliveries += other.dropped_deliveries;
        self.worst_effective_delta = self.worst_effective_delta.max(other.worst_effective_delta);
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_scenario::{ColumnarSchedule, ColumnarSimulation};
    use multihonest_sim::{SimConfig, Strategy, TieBreak};

    fn trial(seed: u64) -> (Metrics, DivergenceIndex) {
        let config = SimConfig {
            honest_nodes: 5,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.3,
            delta: 2,
            slots: 150,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::PrivateWithholding,
        };
        let schedule = ColumnarSchedule::sample(5, 0.3, 0.3, 150, seed);
        let mut s = config.strategy.instantiate();
        ColumnarSimulation::run_streaming(&config, &schedule, s.as_mut(), &mut ())
    }

    #[test]
    fn merge_is_commutative_and_matches_sequential_fold() {
        let ks = [4usize, 16];
        let mut all = CellAggregate::new(2);
        let mut left = CellAggregate::new(2);
        let mut right = CellAggregate::new(2);
        for seed in 0..12u64 {
            let (m, idx) = trial(seed);
            all.record(seed, &m, &idx, &ks, 150);
            let half = if seed % 2 == 0 { &mut left } else { &mut right };
            half.record(seed, &m, &idx, &ks, 150);
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, all, "split fold must equal the sequential fold");
        assert_eq!(rl, all, "merge order must not matter");
    }

    #[test]
    fn fingerprint_is_sensitive_to_any_trial() {
        let ks = [16usize];
        let mut a = CellAggregate::new(1);
        let mut b = CellAggregate::new(1);
        for seed in 0..4u64 {
            let (m, idx) = trial(seed);
            a.record(seed, &m, &idx, &ks, 150);
            // b records the same trials but mislabels one seed.
            b.record(if seed == 2 { 99 } else { seed }, &m, &idx, &ks, 150);
        }
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(a.trials, b.trials);
    }

    #[test]
    #[should_panic(expected = "different settlement parameter sets")]
    fn shape_mismatch_rejected() {
        let mut a = CellAggregate::new(2);
        a.merge(&CellAggregate::new(3));
    }
}
