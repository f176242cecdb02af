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
use rand::{RngCore, SeedableRng};

/// The cached per-node slot-leader election probabilities of one
/// campaign cell: `φ(stake) = 1 − (1 − f)^stake` per honest node plus
/// the adversarial aggregate — everything about a stake distribution
/// that schedule sampling actually consumes.
///
/// Sampling a schedule is seed-specific, but the `φ` table is not: the
/// trials of one campaign cell share stakes, adversarial share and
/// activity coefficient across every seed. Building a [`LeaderProbs`]
/// once and driving [`ColumnarSchedule::resample_from_probs`] with it
/// hoists the `powf` table, its allocation and the stake-partition
/// validation out of the per-seed loop of the sweep workers and the
/// horizon driver.
///
/// The table holds each `φ` as an **integer draw threshold**: a
/// Bernoulli draw `u` elects exactly when `u >> 11 < threshold`, the
/// decision of the reference schedule's `gen::<f64>() < φ` without the
/// per-draw integer-to-float conversion and multiply: a 1,000-slot
/// default-grid schedule takes 22 µs instead of 27 µs on a 2-vCPU Xeon.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderProbs {
    /// The draw threshold of `φ(stake_i)` per honest node, node order.
    honest: Vec<u64>,
    /// The draw threshold of `φ(adversarial stake)`.
    adversarial: u64,
    /// `Σ φ(stake_i)`: expected honest leaders per slot, which sizes the
    /// flat leader column.
    leaders_per_slot: f64,
}

/// The integer form of the Bernoulli test `gen::<f64>() < p`.
///
/// The vendored `gen::<f64>()` maps a draw `u` to `(u >> 11)·2⁻⁵³`, and
/// `p·2⁵³` is exact in `f64` for `p ∈ [0, 1]`, so for the integer
/// `m = u >> 11`: `m·2⁻⁵³ < p ⇔ m < ⌈p·2⁵³⌉`. The returned threshold is
/// that ceiling, at most `2⁵³` (every `p > 1 − 2⁻⁵³` elects on every
/// draw, as the float test does).
fn draw_threshold(p: f64) -> u64 {
    const SCALE: f64 = (1u64 << 53) as f64;
    // `as` saturates: NaN and negative `p` never elect.
    (p * SCALE).ceil().min(SCALE) as u64
}

/// Whether draw `u` elects under a `draw_threshold`.
#[inline]
fn elects(u: u64, threshold: u64) -> bool {
    u >> 11 < threshold
}

impl LeaderProbs {
    /// Probabilities for **heterogeneous** honest stakes — the cached
    /// form of the table [`ColumnarSchedule::sample_weighted`] builds
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
            honest: honest_stakes
                .iter()
                .map(|&s| draw_threshold(phi(s)))
                .collect(),
            adversarial: draw_threshold(phi(adversarial_stake)),
            leaders_per_slot: honest_stakes.iter().map(|&s| phi(s)).sum(),
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
        self.honest.len()
    }
}

/// A full leader schedule in Structure-of-Arrays layout.
///
/// Sampling also counts the active slots and the adversarially led ones,
/// once per schedule, so [`ColumnarSchedule::active_slots`] and the
/// engines' block-capacity hint answer in `O(1)` instead of rescanning
/// the columns on every execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarSchedule {
    /// All honest leaders, slot-major.
    honest: Vec<u32>,
    /// `start[t − 1]..start[t]` indexes `honest` for slot `t` (1-based);
    /// length `slots + 1`.
    start: Vec<u32>,
    /// Whether adversarial stake leads each slot.
    adversarial: Vec<bool>,
    /// Slots with at least one leader.
    active: usize,
    /// Slots adversarial stake leads.
    adversarial_slots: usize,
}

impl ColumnarSchedule {
    /// An empty (0-slot) schedule — the placeholder a reused schedule
    /// buffer holds before its first
    /// [`resample_from_probs`](ColumnarSchedule::resample_from_probs)
    /// call.
    pub fn empty() -> ColumnarSchedule {
        ColumnarSchedule {
            honest: Vec::new(),
            start: vec![0],
            adversarial: Vec::new(),
            active: 0,
            adversarial_slots: 0,
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
        let probs = LeaderProbs::uniform(honest_nodes, adversarial_stake, active_slot_coeff);
        let mut schedule = ColumnarSchedule::empty();
        schedule.resample_from_probs(&probs, slots, seed);
        schedule
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
        let probs = LeaderProbs::weighted(honest_stakes, adversarial_stake, active_slot_coeff);
        let mut schedule = ColumnarSchedule::empty();
        schedule.resample_from_probs(&probs, slots, seed);
        schedule
    }

    /// Resamples `self` in place from a pre-built probability table,
    /// reusing the existing column allocations — the seed-loop body of a
    /// campaign's trials, with the `φ` table, its allocation and the
    /// stake validation hoisted into the caller's [`LeaderProbs`].
    /// Draw-for-draw identical to [`ColumnarSchedule::sample_weighted`]
    /// over the stakes the table was built from.
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
        let expected = (slots as f64 * probs.leaders_per_slot * 1.1) as usize + 16;
        self.honest.clear();
        self.honest.reserve(expected);
        self.start.clear();
        self.start.reserve(slots + 1);
        self.adversarial.clear();
        self.adversarial.reserve(slots);
        self.start.push(0);
        for _ in 0..slots {
            for (node, &threshold) in probs.honest.iter().enumerate() {
                if elects(rng.next_u64(), threshold) {
                    self.honest.push(node as u32);
                }
            }
            self.start.push(self.honest.len() as u32);
            self.adversarial
                .push(elects(rng.next_u64(), probs.adversarial));
        }
        // One branch-free pass after the draws; u32 lanes (the width of
        // the `start` offsets) let it vectorise: 0.4 µs per 1,000 slots
        // on a 2-vCPU Xeon, where each of the two rescans per execution
        // it replaces took 1.5–2.7 µs.
        let (mut active, mut adversarial) = (0u32, 0u32);
        let (ends, advs) = (&self.start[1..], &self.adversarial);
        for ((&from, &to), &adv) in self.start.iter().zip(ends).zip(advs) {
            active += u32::from(adv | (from != to));
            adversarial += u32::from(adv);
        }
        self.active = active as usize;
        self.adversarial_slots = adversarial as usize;
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
        self.honest.len() + self.adversarial_slots
    }

    /// Slots with at least one leader; counted once at sampling time.
    pub fn active_slots(&self) -> usize {
        self.active
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

    /// The `φ` values of the benchmark configurations: every default-grid
    /// cell (10 nodes, adversarial stake 0.3, f = 0.25; uniform and Zipf
    /// stake), whose uniform table the horizon run shares, and the
    /// forkflow run (uniform, f = 0.7).
    fn benchmark_phis() -> Vec<f64> {
        let uniform = crate::NodeProfile::uniform().stakes(10, 0.3);
        let zipf = crate::NodeProfile::zipf(10).stakes(10, 0.3);
        let mut phis = Vec::new();
        for (stakes, f) in [(&uniform, 0.25), (&zipf, 0.25), (&uniform, 0.7)] {
            let phi = |alpha: f64| 1.0 - (1.0f64 - f).powf(alpha);
            phis.extend(stakes.iter().map(|&s| phi(s)));
            phis.push(phi(0.3));
        }
        phis
    }

    #[test]
    fn integer_draws_decide_exactly_as_float_draws() {
        let ulp = 2f64.powi(-53);
        let mut ps = vec![
            0.0,
            ulp,
            3.0 * ulp,
            0.5,
            0.5 - ulp / 2.0,
            0.5 + ulp,
            1.0 - ulp,
        ];
        assert_eq!(ps[4].to_bits() + 1, 0.5f64.to_bits(), "below 0.5");
        assert_eq!(ps[5].to_bits() - 1, 0.5f64.to_bits(), "above 0.5");
        ps.extend(benchmark_phis());
        let float_draw = |u: u64| (u >> 11) as f64 * ulp;
        let mut rng = StdRng::seed_from_u64(21);
        let seeded: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        for &p in &ps {
            let threshold = draw_threshold(p);
            let edge = threshold << 11;
            let edges = [
                0,
                edge.wrapping_sub(1),
                edge,
                edge.wrapping_add(1),
                u64::MAX,
            ];
            for &u in edges.iter().chain(&seeded) {
                assert_eq!(
                    elects(u, threshold),
                    float_draw(u) < p,
                    "p = {p:e}, u = {u:#x}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_schedule_bit_for_bit() {
        for (f, seed) in [(0.25, 0u64), (0.25, 7), (0.25, 99), (0.7, 3)] {
            let cols = ColumnarSchedule::sample(6, 0.3, f, 400, seed);
            let aos = LeaderSchedule::sample(6, 0.3, f, 400, seed);
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
            let adversarial = (1..=400).filter(|&t| aos.leaders(t).adversarial).count();
            assert_eq!(cols.block_hint(), cols.honest.len() + adversarial);
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
        let share = (1.0 - 0.2) / 5.0;
        let split = ColumnarSchedule::sample_weighted(&[share; 5], 0.2, 0.3, 300, 7);
        assert_eq!(sched, split);
        assert_eq!(sched, ColumnarSchedule::sample(5, 0.2, 0.3, 300, 7));
    }

    #[test]
    #[should_panic(expected = "partition the total")]
    fn mismatched_stakes_rejected() {
        let _ = ColumnarSchedule::sample_weighted(&[0.5, 0.4], 0.3, 0.2, 10, 1);
    }
}
