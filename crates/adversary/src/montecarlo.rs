//! Parallel Monte-Carlo estimation of settlement, UVP and Catalan
//! statistics over sampled characteristic strings ([`MonteCarlo`]) and
//! of canonical-fork statistics ([`CanonicalMonteCarlo`]).
//!
//! Every estimator samples i.i.d. strings from a [`BernoulliCondition`]
//! and evaluates a *deterministic* predicate from the sibling crates
//! (margin recurrence, Catalan scan, the `A*` builder). The results come
//! with Wilson confidence intervals so that the experiment harness can
//! print honest error bars next to the exact DP values and the analytic
//! bounds. Settlement frequencies over full protocol executions come
//! from the campaign sweep (`multihonest-sweep`), whose report puts each
//! cell's Wilson interval next to the exact DP.

use multihonest_catalan::CatalanAnalysis;
use multihonest_chars::BernoulliCondition;
use multihonest_margin::recurrence;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::astar::AstarBuilder;

/// A binomial estimate with Wilson confidence intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Number of trials in which the event occurred.
    pub hits: u64,
    /// Total number of trials.
    pub trials: u64,
}

impl Estimate {
    /// The point estimate `hits / trials`.
    pub fn frequency(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.hits as f64 / self.trials as f64
    }

    /// The Wilson score interval at `z` standard deviations (use
    /// `z = 1.96` for 95%).
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.frequency();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }
}

/// Parallel Monte-Carlo driver over a Bernoulli condition.
///
/// # Examples
///
/// ```
/// use multihonest_chars::BernoulliCondition;
/// use multihonest_adversary::MonteCarlo;
///
/// let cond = BernoulliCondition::new(0.4, 0.4)?;
/// let mc = MonteCarlo::new(cond, 2_000, 42);
/// let est = mc.settlement_violation(50, 10);
/// assert!(est.frequency() < 0.5);
/// # Ok::<(), multihonest_chars::DistributionError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    cond: BernoulliCondition,
    trials: u64,
    seed: u64,
    threads: usize,
}

impl MonteCarlo {
    /// Creates a driver running `trials` samples with the given seed,
    /// using all available parallelism.
    pub fn new(cond: BernoulliCondition, trials: u64, seed: u64) -> MonteCarlo {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        MonteCarlo {
            cond,
            trials,
            seed,
            threads,
        }
    }

    /// Overrides the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> MonteCarlo {
        self.threads = threads.max(1);
        self
    }

    /// The condition being sampled.
    pub fn condition(&self) -> BernoulliCondition {
        self.cond
    }

    /// Trials per work block. Each block derives its RNG from the block
    /// index alone, so the estimate is a pure function of `(seed, trials)`
    /// — identical for every thread count — while threads steal blocks
    /// from a shared counter for load balance.
    const BLOCK: u64 = 1024;

    /// The RNG seed of work block `b` — independent of which worker runs
    /// it (SplitMix64-style odd multiplier to decorrelate nearby blocks).
    fn block_seed(&self, b: u64) -> u64 {
        self.seed ^ (b.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Runs `predicate` on `trials` sampled strings of length `len` and
    /// counts hits. The predicate must be deterministic.
    ///
    /// The result is **seed-stable across thread counts**: trials are
    /// partitioned into fixed-size blocks seeded by block index (not by
    /// worker), workers claim blocks through an atomic counter, and hit
    /// counts are summed (a commutative integer reduction), so
    /// `with_threads(1)` and `with_threads(n)` return identical estimates.
    pub fn estimate<F>(&self, len: usize, predicate: F) -> Estimate
    where
        F: Fn(&multihonest_chars::CharString) -> bool + Sync,
    {
        let cond = self.cond;
        let blocks = self.trials.div_ceil(Self::BLOCK);
        let count_block = |b: u64| {
            let quota = Self::BLOCK.min(self.trials - b * Self::BLOCK);
            let mut rng = StdRng::seed_from_u64(self.block_seed(b));
            let mut local = 0u64;
            for _ in 0..quota {
                let w = cond.sample(&mut rng, len);
                if predicate(&w) {
                    local += 1;
                }
            }
            local
        };
        let hits = reduce_claimed(blocks, self.threads, 0, count_block, |a, b| a + b);
        Estimate {
            hits,
            trials: self.trials,
        }
    }

    /// Frequency of `µ_x(y) ≥ 0` at `|x| = prefix_len`, `|y| = k` — the
    /// Monte-Carlo counterpart of
    /// [`ExactSettlement::violation_probability`].
    ///
    /// [`ExactSettlement::violation_probability`]:
    /// multihonest_margin::ExactSettlement::violation_probability
    pub fn settlement_violation(&self, prefix_len: usize, k: usize) -> Estimate {
        self.estimate(prefix_len + k, |w| {
            recurrence::margin_trace(w, prefix_len)[k] >= 0
        })
    }

    /// Frequency of a violation at **any** horizon in `k..=horizon`
    /// (matching [`ExactSettlement::violation_by_horizon`]).
    ///
    /// [`ExactSettlement::violation_by_horizon`]:
    /// multihonest_margin::ExactSettlement::violation_by_horizon
    pub fn settlement_violation_by_horizon(
        &self,
        prefix_len: usize,
        k: usize,
        horizon: usize,
    ) -> Estimate {
        self.estimate(prefix_len + horizon, |w| {
            recurrence::margin_trace(w, prefix_len)
                .iter()
                .enumerate()
                .any(|(len, &m)| len >= k && m >= 0)
        })
    }

    /// Frequency of the Bound-1 failure event: the window
    /// `[start, start + k − 1]` of a length-`len` string contains **no
    /// uniquely honest Catalan slot** (Catalan with respect to the whole
    /// string).
    pub fn no_unique_catalan_in_window(&self, len: usize, start: usize, k: usize) -> Estimate {
        self.estimate(len, |w| {
            CatalanAnalysis::new(w)
                .first_uniquely_honest_catalan_in(start, start + k - 1)
                .is_none()
        })
    }

    /// Frequency of the Bound-2 failure event: the window contains no two
    /// **consecutive** Catalan slots.
    pub fn no_consecutive_catalan_in_window(&self, len: usize, start: usize, k: usize) -> Estimate {
        self.estimate(len, |w| {
            CatalanAnalysis::new(w)
                .first_consecutive_catalan_in(start, start + k - 1)
                .is_none()
        })
    }
}

/// Claims jobs `i ∈ 0..n` from a shared atomic counter across up to
/// `workers` scoped threads and merges `f(i)` with the commutative,
/// associative `merge` — the reduction behind both drivers: an integer
/// hit sum for [`MonteCarlo`], integer partials for
/// [`CanonicalMonteCarlo`]. The result is a pure function of `(n, f)`
/// whatever the parallelism, provided `merge` really is commutative and
/// associative (integer sums, maxima and counts are; float sums are
/// **not**).
fn reduce_claimed<T, F, M>(n: u64, workers: usize, init: T, f: F, merge: M) -> T
where
    T: Send,
    F: Fn(u64) -> T + Sync,
    M: Fn(T, T) -> T + Sync + Send,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    let workers = (workers as u64).clamp(1, n.max(1)) as usize;
    let mut total = init;
    if workers <= 1 {
        for i in 0..n {
            total = merge(total, f(i));
        }
        return total;
    }
    let counter = AtomicU64::new(0);
    let mut locals: Vec<T> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let counter = &counter;
            let f = &f;
            let merge = &merge;
            handles.push(scope.spawn(move || {
                let mut local: Option<T> = None;
                loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let v = f(i);
                    local = Some(match local {
                        None => v,
                        Some(acc) => merge(acc, v),
                    });
                }
                local
            }));
        }
        for h in handles {
            if let Some(local) = h.join().expect("worker panicked") {
                locals.push(local);
            }
        }
    });
    for local in locals {
        total = merge(total, local);
    }
    total
}

/// Aggregate statistics of canonical forks over sampled characteristic
/// strings — the output of [`CanonicalMonteCarlo::summary`].
///
/// The `rho_agreements` field is the Theorem-6 cross-validation at scale:
/// for every sampled string the game-side `ρ(F)` of the `A*`-built fork
/// (read off the incremental engine in `O(1)`) is compared against the
/// algebraic `ρ(w)` of the Theorem-5 recurrence; canonical forks must
/// agree on all trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanonicalSummary {
    /// Number of sampled strings.
    pub trials: u64,
    /// Length of each sampled string.
    pub len: usize,
    /// Trials where the fork's `ρ(F)` equals the recurrence `ρ(w)`
    /// (Theorem 6 demands all of them).
    pub rho_agreements: u64,
    /// Mean `ρ` over trials.
    pub mean_rho: f64,
    /// Maximum `ρ` over trials.
    pub max_rho: i64,
    /// Mean plain margin `µ_ε(w)` (Theorem-5 recurrence) over trials.
    pub mean_margin: f64,
    /// Trials with `µ_ε(w) ≥ 0` (an ε-balanced fork exists).
    pub nonneg_margin_trials: u64,
    /// Mean vertex count of the canonical forks.
    pub mean_vertices: f64,
}

/// Per-block integer partials behind [`CanonicalSummary`] — everything is
/// summed or maxed in integers so the reduction is exact and
/// thread-count-invariant.
#[derive(Debug, Clone, Copy)]
struct CanonicalPartial {
    rho_sum: i64,
    rho_max: i64,
    margin_sum: i64,
    nonneg_margin: u64,
    vertices: u64,
    agreements: u64,
}

impl CanonicalPartial {
    const ZERO: CanonicalPartial = CanonicalPartial {
        rho_sum: 0,
        rho_max: i64::MIN,
        margin_sum: 0,
        nonneg_margin: 0,
        vertices: 0,
        agreements: 0,
    };

    fn merge(a: CanonicalPartial, b: CanonicalPartial) -> CanonicalPartial {
        CanonicalPartial {
            rho_sum: a.rho_sum + b.rho_sum,
            rho_max: a.rho_max.max(b.rho_max),
            margin_sum: a.margin_sum + b.margin_sum,
            nonneg_margin: a.nonneg_margin + b.nonneg_margin,
            vertices: a.vertices + b.vertices,
            agreements: a.agreements + b.agreements,
        }
    }
}

/// Parallel Monte-Carlo driver over **canonical forks**: each trial
/// samples a characteristic string, runs the incremental `A*` engine over
/// it, and folds margin/ρ statistics — the game-theoretic side of the
/// theory-vs-game experiments at horizons (`n = 10⁴–10⁵`) the definitional
/// path could never reach.
///
/// Seed-stable like [`MonteCarlo`]: trials are partitioned into fixed
/// blocks seeded by block index, workers steal blocks from an atomic
/// counter, and the reduction is exact integer arithmetic — so the
/// summary is a pure function of `(condition, trials, seed, len)`,
/// identical for every thread count.
///
/// # Examples
///
/// ```
/// use multihonest_chars::BernoulliCondition;
/// use multihonest_adversary::CanonicalMonteCarlo;
///
/// let cond = BernoulliCondition::new(0.3, 0.4)?;
/// let mc = CanonicalMonteCarlo::new(cond, 50, 11);
/// let s = mc.summary(200);
/// assert_eq!(s.rho_agreements, s.trials); // Theorem 6, every trial
/// # Ok::<(), multihonest_chars::DistributionError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CanonicalMonteCarlo {
    cond: BernoulliCondition,
    trials: u64,
    seed: u64,
    threads: usize,
}

impl CanonicalMonteCarlo {
    /// Trials per work block — small, because a single canonical build at
    /// `n = 10⁵` already takes ~0.1 s, and small blocks keep the workers
    /// load-balanced.
    const BLOCK: u64 = 4;

    /// Creates a driver running `trials` canonical builds with the given
    /// seed, using all available parallelism.
    pub fn new(cond: BernoulliCondition, trials: u64, seed: u64) -> CanonicalMonteCarlo {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        CanonicalMonteCarlo {
            cond,
            trials,
            seed,
            threads,
        }
    }

    /// Overrides the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> CanonicalMonteCarlo {
        self.threads = threads.max(1);
        self
    }

    /// The condition being sampled.
    pub fn condition(&self) -> BernoulliCondition {
        self.cond
    }

    /// The RNG seed of work block `b` (same scheme as [`MonteCarlo`]).
    fn block_seed(&self, b: u64) -> u64 {
        self.seed ^ (b.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Builds canonical forks for `trials` sampled strings of length
    /// `len` and returns the aggregated margin/ρ statistics.
    pub fn summary(&self, len: usize) -> CanonicalSummary {
        let cond = self.cond;
        let blocks = self.trials.div_ceil(Self::BLOCK);
        let total = reduce_claimed(
            blocks,
            self.threads,
            CanonicalPartial::ZERO,
            |b| {
                let quota = Self::BLOCK.min(self.trials - b * Self::BLOCK);
                let mut rng = StdRng::seed_from_u64(self.block_seed(b));
                let mut acc = CanonicalPartial::ZERO;
                for _ in 0..quota {
                    let w = cond.sample(&mut rng, len);
                    let mut builder = AstarBuilder::new();
                    for &sym in w.symbols() {
                        builder.step(sym);
                    }
                    let rho = builder.rho();
                    let margin = recurrence::relative_margin(&w, 0);
                    acc = CanonicalPartial::merge(
                        acc,
                        CanonicalPartial {
                            rho_sum: rho,
                            rho_max: rho,
                            margin_sum: margin,
                            nonneg_margin: u64::from(margin >= 0),
                            vertices: builder.fork().vertex_count() as u64,
                            agreements: u64::from(rho == recurrence::rho(&w)),
                        },
                    );
                }
                acc
            },
            CanonicalPartial::merge,
        );
        let t = self.trials.max(1) as f64;
        CanonicalSummary {
            trials: self.trials,
            len,
            rho_agreements: total.agreements,
            mean_rho: total.rho_sum as f64 / t,
            max_rho: total.rho_max,
            mean_margin: total.margin_sum as f64 / t,
            nonneg_margin_trials: total.nonneg_margin,
            mean_vertices: total.vertices as f64 / t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_margin::ExactSettlement;

    #[test]
    fn wilson_interval_sanity() {
        let e = Estimate {
            hits: 50,
            trials: 100,
        };
        let (lo, hi) = e.wilson_interval(1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.25);
        let empty = Estimate { hits: 0, trials: 0 };
        assert_eq!(empty.wilson_interval(1.96), (0.0, 1.0));
        assert_eq!(empty.frequency(), 0.0);
    }

    #[test]
    fn estimate_is_deterministic_given_seed() {
        let cond = BernoulliCondition::new(0.3, 0.4).unwrap();
        let mc = MonteCarlo::new(cond, 1_000, 7).with_threads(2);
        let a = mc.settlement_violation(20, 8);
        let b = mc.settlement_violation(20, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_is_stable_across_thread_counts() {
        // Block-indexed seeding: the estimate is a pure function of
        // (seed, trials), whatever the parallelism — including trial
        // counts that don't divide evenly into blocks.
        let cond = BernoulliCondition::new(0.3, 0.4).unwrap();
        for trials in [1_000u64, 2_048, 5_000] {
            let single = MonteCarlo::new(cond, trials, 7)
                .with_threads(1)
                .settlement_violation(20, 8);
            for threads in [2usize, 3, 8] {
                let multi = MonteCarlo::new(cond, trials, 7)
                    .with_threads(threads)
                    .settlement_violation(20, 8);
                assert_eq!(
                    single, multi,
                    "thread count changed the estimate ({trials} trials, {threads} threads)"
                );
            }
        }
    }

    #[test]
    fn frequency_matches_exact_dp() {
        let cond = BernoulliCondition::new(0.35, 0.4).unwrap();
        let mc = MonteCarlo::new(cond, 30_000, 11);
        let k = 10;
        let prefix = 200;
        let est = mc.settlement_violation(prefix, k);
        let exact =
            ExactSettlement::new(cond).violation_probabilities_finite_prefix(prefix, &[k])[0];
        let (lo, hi) = est.wilson_interval(3.5);
        assert!(
            lo <= exact && exact <= hi,
            "exact {exact} outside MC interval [{lo}, {hi}]"
        );
    }

    #[test]
    fn horizon_variant_at_least_pointwise() {
        let cond = BernoulliCondition::new(0.3, 0.5).unwrap();
        let mc = MonteCarlo::new(cond, 5_000, 13);
        let point = mc.settlement_violation(50, 8).frequency();
        let horizon = mc.settlement_violation_by_horizon(50, 8, 30).frequency();
        assert!(horizon >= point - 0.02);
    }

    #[test]
    fn canonical_summary_is_thread_count_invariant_and_agrees() {
        let cond = BernoulliCondition::new(0.25, 0.35).unwrap();
        for trials in [10u64, 33] {
            let single = CanonicalMonteCarlo::new(cond, trials, 5)
                .with_threads(1)
                .summary(120);
            assert_eq!(
                single.rho_agreements, trials,
                "Theorem 6 must hold on every sampled string"
            );
            assert_eq!(single.trials, trials);
            assert!(single.mean_rho >= 0.0);
            assert!(single.mean_vertices >= 121.0, "{single:?}"); // ≥ one vertex per honest slot + root
            for threads in [2usize, 3, 8] {
                let multi = CanonicalMonteCarlo::new(cond, trials, 5)
                    .with_threads(threads)
                    .summary(120);
                assert_eq!(single, multi, "thread count changed the summary");
            }
        }
    }

    #[test]
    fn canonical_summary_margin_statistics_track_epsilon() {
        // A weak adversary (large ε) should settle: mostly negative
        // margins; a strong one mostly non-negative.
        let weak = CanonicalMonteCarlo::new(BernoulliCondition::new(0.6, 0.5).unwrap(), 40, 9)
            .summary(160);
        let strong = CanonicalMonteCarlo::new(BernoulliCondition::new(0.02, 0.3).unwrap(), 40, 9)
            .summary(160);
        assert!(weak.mean_margin < strong.mean_margin);
        assert!(weak.nonneg_margin_trials <= strong.nonneg_margin_trials);
        assert!(weak.max_rho <= strong.max_rho + 5);
    }

    #[test]
    fn catalan_window_events_shrink_with_k() {
        let cond = BernoulliCondition::new(0.4, 0.55).unwrap();
        let mc = MonteCarlo::new(cond, 4_000, 17);
        let small = mc.no_unique_catalan_in_window(120, 40, 10).frequency();
        let large = mc.no_unique_catalan_in_window(120, 40, 40).frequency();
        assert!(
            large <= small + 0.02,
            "longer windows catch more Catalan slots"
        );
        let cons = mc.no_consecutive_catalan_in_window(120, 40, 40).frequency();
        assert!(
            cons >= large - 0.02,
            "consecutive pairs are rarer than singles"
        );
    }
}
