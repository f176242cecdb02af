//! Columnar leader schedules: the flat-array counterpart of
//! [`LeaderSchedule`](multihonest_sim::LeaderSchedule).
//!
//! The reference schedule allocates one `Vec<usize>` per slot; over a
//! million slots that is a million heap objects read once each. The
//! columnar schedule stores all honest leaders in one flat column plus a
//! prefix-offset column, and the adversarial flags in a third — three
//! allocations total, with the **same sampling draw order** as the
//! reference (per-node Bernoulli draws in node order, then the
//! adversarial draw, per slot), so equal seeds give equal schedules.

use multihonest_chars::{SemiString, SemiSymbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The cached per-node slot-leader election probabilities of one
/// campaign cell: `φ(stake) = 1 − (1 − f)^stake` per honest node plus
/// the adversarial aggregate — everything about a stake distribution
/// that schedule sampling actually consumes.
///
/// Sampling a schedule is seed-specific, but the `φ` table is not: a
/// batch of trials over one cell shares stakes, adversarial share and
/// activity coefficient across every seed. Building a [`LeaderProbs`]
/// once and driving [`ColumnarSchedule::resample_from_probs`] with it
/// hoists the `powf` table, its allocation and the stake-partition
/// validation out of the per-seed loop — the shared-sampling half of
/// [`BatchExecution`](crate::BatchExecution).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderProbs {
    /// `φ(stake_i)` per honest node, node order.
    p_honest: Vec<f64>,
    /// `φ(adversarial stake)`.
    p_adv: f64,
}

impl LeaderProbs {
    /// Probabilities for **heterogeneous** honest stakes — the cached
    /// form of the table [`ColumnarSchedule::resample_weighted`] builds
    /// per call.
    ///
    /// # Panics
    ///
    /// Panics if the parameters leave their documented ranges, a stake
    /// is negative, or the stakes do not sum (with the adversary) to 1 —
    /// the same validation as the sampling entry points.
    pub fn weighted(
        honest_stakes: &[f64],
        adversarial_stake: f64,
        active_slot_coeff: f64,
    ) -> LeaderProbs {
        assert!(!honest_stakes.is_empty(), "need at least one honest node");
        assert!(
            (0.0..1.0).contains(&adversarial_stake),
            "adversarial stake in [0, 1)"
        );
        assert!(
            active_slot_coeff > 0.0 && active_slot_coeff < 1.0,
            "active slot coefficient in (0, 1)"
        );
        // Kahan-compensated, size-scaled validation shared with the
        // reference schedule (the two copies had drifted; see the helper).
        multihonest_sim::validate_stake_partition(honest_stakes, adversarial_stake);
        let phi = |alpha: f64| 1.0 - (1.0 - active_slot_coeff).powf(alpha);
        LeaderProbs {
            p_honest: honest_stakes.iter().map(|&s| phi(s)).collect(),
            p_adv: phi(adversarial_stake),
        }
    }

    /// Probabilities with honest stake split equally — the cached form
    /// of [`ColumnarSchedule::sample`]'s table.
    ///
    /// # Panics
    ///
    /// Panics as [`LeaderProbs::weighted`] does.
    pub fn uniform(
        honest_nodes: usize,
        adversarial_stake: f64,
        active_slot_coeff: f64,
    ) -> LeaderProbs {
        assert!(honest_nodes > 0, "need at least one honest node");
        let share = (1.0 - adversarial_stake) / honest_nodes as f64;
        LeaderProbs::weighted(
            &vec![share; honest_nodes],
            adversarial_stake,
            active_slot_coeff,
        )
    }

    /// The number of honest nodes the table covers.
    pub fn honest_nodes(&self) -> usize {
        self.p_honest.len()
    }
}

/// A full leader schedule in Structure-of-Arrays layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarSchedule {
    /// All honest leaders, slot-major.
    honest: Vec<u32>,
    /// `start[t − 1]..start[t]` indexes `honest` for slot `t` (1-based);
    /// length `slots + 1`.
    start: Vec<u32>,
    /// Whether adversarial stake leads each slot.
    adversarial: Vec<bool>,
}

impl ColumnarSchedule {
    /// An empty (0-slot) schedule — the placeholder batch drivers hold
    /// before their first [`resample_weighted`] call.
    ///
    /// [`resample_weighted`]: ColumnarSchedule::resample_weighted
    pub fn empty() -> ColumnarSchedule {
        ColumnarSchedule {
            honest: Vec::new(),
            start: vec![0],
            adversarial: Vec::new(),
        }
    }

    /// Samples a schedule with honest stake split equally — draw-for-draw
    /// identical to [`LeaderSchedule::sample`] for the same parameters
    /// and seed.
    ///
    /// [`LeaderSchedule::sample`]: multihonest_sim::LeaderSchedule::sample
    ///
    /// # Panics
    ///
    /// Panics if the parameters leave their documented ranges (matching
    /// the reference schedule's validation).
    pub fn sample(
        honest_nodes: usize,
        adversarial_stake: f64,
        active_slot_coeff: f64,
        slots: usize,
        seed: u64,
    ) -> ColumnarSchedule {
        assert!(honest_nodes > 0, "need at least one honest node");
        let share = (1.0 - adversarial_stake) / honest_nodes as f64;
        ColumnarSchedule::sample_weighted(
            &vec![share; honest_nodes],
            adversarial_stake,
            active_slot_coeff,
            slots,
            seed,
        )
    }

    /// Samples a schedule with **heterogeneous** honest stake — the
    /// columnar counterpart of [`LeaderSchedule::sample_weighted`], with
    /// identical draw order.
    ///
    /// [`LeaderSchedule::sample_weighted`]:
    /// multihonest_sim::LeaderSchedule::sample_weighted
    ///
    /// # Panics
    ///
    /// Panics if the parameters leave their documented ranges, a stake is
    /// negative, or the stakes do not sum (with the adversary) to 1.
    pub fn sample_weighted(
        honest_stakes: &[f64],
        adversarial_stake: f64,
        active_slot_coeff: f64,
        slots: usize,
        seed: u64,
    ) -> ColumnarSchedule {
        let mut schedule = ColumnarSchedule {
            honest: Vec::new(),
            start: Vec::new(),
            adversarial: Vec::new(),
        };
        schedule.resample_weighted(
            honest_stakes,
            adversarial_stake,
            active_slot_coeff,
            slots,
            seed,
        );
        schedule
    }

    /// Resamples `self` in place with the same semantics (and draw order)
    /// as [`ColumnarSchedule::sample_weighted`], reusing the existing
    /// column allocations — the batch entry point campaign sweeps use to
    /// run millions of seeds without re-allocating a schedule per trial.
    ///
    /// # Panics
    ///
    /// Panics if the parameters leave their documented ranges, a stake is
    /// negative, or the stakes do not sum (with the adversary) to 1.
    pub fn resample_weighted(
        &mut self,
        honest_stakes: &[f64],
        adversarial_stake: f64,
        active_slot_coeff: f64,
        slots: usize,
        seed: u64,
    ) {
        let probs = LeaderProbs::weighted(honest_stakes, adversarial_stake, active_slot_coeff);
        self.resample_from_probs(&probs, slots, seed);
    }

    /// Resamples `self` in place from a pre-built probability table —
    /// the seed-loop body of batched sampling, with the `φ` table, its
    /// allocation and the stake validation hoisted into the caller's
    /// [`LeaderProbs`]. Draw-for-draw identical to
    /// [`ColumnarSchedule::resample_weighted`] over the stakes the table
    /// was built from.
    pub fn resample_from_probs(&mut self, probs: &LeaderProbs, slots: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        self.resample_segment(probs, slots, &mut rng);
    }

    /// Resamples `self` as the next `slots`-slot **segment** of a longer
    /// draw sequence: the caller owns the `StdRng` and threads it across
    /// calls. Because every slot consumes exactly `nodes + 1` draws
    /// regardless of outcome, consecutive segments reproduce draw-for-draw
    /// the schedule a single [`ColumnarSchedule::resample_from_probs`]
    /// over the concatenated horizon would produce — the property that
    /// lets the bounded-memory horizon driver sample 10⁸ slots one window
    /// at a time (and re-derive its RNG position on resume by replaying
    /// whole segments).
    pub fn resample_segment(&mut self, probs: &LeaderProbs, slots: usize, rng: &mut StdRng) {
        // Expected leaders ≈ slots × Σ p_i; reserve with headroom so the
        // flat column settles after at most one growth step.
        let expected = (slots as f64 * probs.p_honest.iter().sum::<f64>() * 1.1) as usize + 16;
        self.honest.clear();
        self.honest.reserve(expected);
        self.start.clear();
        self.start.reserve(slots + 1);
        self.adversarial.clear();
        self.adversarial.reserve(slots);
        self.start.push(0);
        for _ in 0..slots {
            for (node, &p) in probs.p_honest.iter().enumerate() {
                if rng.gen::<f64>() < p {
                    self.honest.push(node as u32);
                }
            }
            self.start.push(self.honest.len() as u32);
            self.adversarial.push(rng.gen::<f64>() < probs.p_adv);
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.adversarial.len()
    }

    /// Returns `true` when the schedule covers no slots.
    pub fn is_empty(&self) -> bool {
        self.adversarial.is_empty()
    }

    /// The honest leaders of `slot` (1-based), in node order.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is 0 or exceeds the schedule length.
    #[inline]
    pub fn leaders(&self, slot: usize) -> &[u32] {
        &self.honest[self.start[slot - 1] as usize..self.start[slot] as usize]
    }

    /// Whether adversarial stake leads `slot` (1-based).
    #[inline]
    pub fn adversarial(&self, slot: usize) -> bool {
        self.adversarial[slot - 1]
    }

    /// The characteristic-string classification of `slot`.
    pub fn classify(&self, slot: usize) -> SemiSymbol {
        if self.adversarial(slot) {
            SemiSymbol::Adversarial
        } else {
            match self.leaders(slot).len() {
                0 => SemiSymbol::Empty,
                1 => SemiSymbol::UniqueHonest,
                _ => SemiSymbol::MultiHonest,
            }
        }
    }

    /// Honest leader seats plus adversarially led slots: the blocks a
    /// fault-free execution mints when the adversary mints at most once
    /// per slot it leads, as the built-in strategies do. A capacity hint
    /// for per-block storage.
    pub(crate) fn block_hint(&self) -> usize {
        self.honest.len() + self.adversarial.iter().filter(|&&a| a).count()
    }

    /// Slots with at least one leader.
    pub fn active_slots(&self) -> usize {
        (1..=self.len())
            .filter(|&t| self.adversarial(t) || !self.leaders(t).is_empty())
            .count()
    }

    /// The semi-synchronous characteristic string of the schedule.
    pub fn characteristic_string(&self) -> SemiString {
        (1..=self.len()).map(|t| self.classify(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_sim::LeaderSchedule;

    #[test]
    fn matches_reference_schedule_bit_for_bit() {
        for seed in [0u64, 7, 99] {
            let cols = ColumnarSchedule::sample(6, 0.3, 0.25, 400, seed);
            let aos = LeaderSchedule::sample(6, 0.3, 0.25, 400, seed);
            assert_eq!(cols.len(), aos.len());
            for t in 1..=400 {
                let expect: Vec<u32> = aos.leaders(t).honest.iter().map(|&n| n as u32).collect();
                assert_eq!(cols.leaders(t), expect.as_slice(), "slot {t} seed {seed}");
                assert_eq!(cols.adversarial(t), aos.leaders(t).adversarial);
                assert_eq!(cols.classify(t), aos.leaders(t).classify());
            }
            assert_eq!(
                cols.characteristic_string(),
                aos.characteristic_string(),
                "seed {seed}"
            );
            assert_eq!(
                cols.active_slots(),
                aos.characteristic_string().count_nonempty()
            );
        }
    }

    #[test]
    fn weighted_matches_reference_weighted() {
        let stakes = [0.4, 0.2, 0.1, 0.05];
        let adv = 0.25;
        let cols = ColumnarSchedule::sample_weighted(&stakes, adv, 0.3, 300, 5);
        let aos = LeaderSchedule::sample_weighted(&stakes, adv, 0.3, 300, 5);
        for t in 1..=300 {
            let expect: Vec<u32> = aos.leaders(t).honest.iter().map(|&n| n as u32).collect();
            assert_eq!(cols.leaders(t), expect.as_slice(), "slot {t}");
            assert_eq!(cols.adversarial(t), aos.leaders(t).adversarial);
        }
        // Heavier nodes lead more often.
        let lead_count = |node: u32| {
            (1..=300)
                .filter(|&t| cols.leaders(t).contains(&node))
                .count()
        };
        assert!(lead_count(0) > lead_count(3));
    }

    #[test]
    #[should_panic(expected = "partition the total")]
    fn mismatched_stakes_rejected() {
        let _ = ColumnarSchedule::sample_weighted(&[0.5, 0.4], 0.3, 0.2, 10, 1);
    }
}
