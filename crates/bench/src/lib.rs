//! Shared experiment code for the `table1` and `experiments` binaries and
//! the Criterion benches.
//!
//! Every artifact of the paper's evaluation maps to a function here (see
//! DESIGN.md's experiment index E1–E10); the binaries are thin clients
//! that format the returned structures as text or JSON.

use serde::Serialize;

use multihonest::chars::{BernoulliCondition, SemiSyncCondition};
use multihonest::margin::ExactSettlement;
use multihonest::prelude::*;

pub mod regress;

/// One regenerated cell of paper Table 1.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Table1Cell {
    /// Adversarial probability `α = Pr[A]`.
    pub alpha: f64,
    /// The `Pr[h]/(1 − α)` row parameter.
    pub ratio: f64,
    /// Settlement horizon `k`.
    pub k: usize,
    /// Exact violation probability.
    pub probability: f64,
}

/// The α columns of the published table.
pub const TABLE1_ALPHAS: [f64; 6] = [0.01, 0.10, 0.20, 0.30, 0.40, 0.49];
/// The `Pr[h]/(1 − α)` row groups of the published table.
pub const TABLE1_RATIOS: [f64; 6] = [1.0, 0.9, 0.8, 0.5, 0.25, 0.01];
/// The `k` rows of the published table.
pub const TABLE1_KS: [usize; 5] = [100, 200, 300, 400, 500];

/// The Bernoulli condition of a Table-1 cell (canonical parameterization:
/// [`BernoulliCondition::from_alpha_ratio`]).
pub fn table1_condition(alpha: f64, ratio: f64) -> BernoulliCondition {
    BernoulliCondition::from_alpha_ratio(alpha, ratio).expect("table parameters are valid")
}

/// The default worker count for the parallel experiment grids: all
/// available hardware parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs jobs `0..n` on up to `threads` scoped workers pulling from a
/// shared atomic counter, and returns the results **in job order** —
/// deterministic output whatever the parallelism. Used by every
/// experiment-grid fan-out below (the repo is offline, so no rayon;
/// `std::thread::scope` carries the borrow of `f`).
fn run_jobs<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let counter = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let counter = &counter;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    out.push((i, f(i)));
                }
                out
            }));
        }
        for h in handles {
            for (i, v) in h.join().expect("worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect()
}

/// Regenerates Table 1 (experiment E1) for the given parameter subsets,
/// sharing one banded DP pass per `(α, ratio)` pair, with pairs fanned
/// out across [`default_threads`] workers. Pass smaller `ks` for a quick
/// look.
pub fn generate_table1(alphas: &[f64], ratios: &[f64], ks: &[usize]) -> Vec<Table1Cell> {
    generate_table1_threads(alphas, ratios, ks, default_threads())
}

/// [`generate_table1`] with an explicit worker count (the `--threads`
/// knob of the `table1` binary). Cell order is identical for every
/// thread count.
pub fn generate_table1_threads(
    alphas: &[f64],
    ratios: &[f64],
    ks: &[usize],
    threads: usize,
) -> Vec<Table1Cell> {
    table1_grid_timed(alphas, ratios, ks, threads).0
}

/// The parallel Table-1 grid plus per-`(α, ratio)`-pair wall-clock
/// seconds (job order: ratio-major, matching the cell order).
fn table1_grid_timed(
    alphas: &[f64],
    ratios: &[f64],
    ks: &[usize],
    threads: usize,
) -> (Vec<Table1Cell>, Vec<f64>) {
    let pairs: Vec<(f64, f64)> = ratios
        .iter()
        .flat_map(|&ratio| alphas.iter().map(move |&alpha| (alpha, ratio)))
        .collect();
    let per_pair = run_jobs(pairs.len(), threads, |i| {
        let (alpha, ratio) = pairs[i];
        let start = std::time::Instant::now();
        let exact = ExactSettlement::new(table1_condition(alpha, ratio));
        let ps = exact.violation_probabilities(ks);
        let cells: Vec<Table1Cell> = ks
            .iter()
            .zip(&ps)
            .map(|(&k, &probability)| Table1Cell {
                alpha,
                ratio,
                k,
                probability,
            })
            .collect();
        (cells, start.elapsed().as_secs_f64())
    });
    let mut cells = Vec::with_capacity(pairs.len() * ks.len());
    let mut seconds = Vec::with_capacity(pairs.len());
    for (pair_cells, secs) in per_pair {
        cells.extend(pair_cells);
        seconds.push(secs);
    }
    (cells, seconds)
}

/// Formats cells in the paper's layout: one block per ratio, rows = k,
/// columns = α.
pub fn render_table1(cells: &[Table1Cell], alphas: &[f64], ratios: &[f64], ks: &[usize]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Exact probabilities of k-settlement violations (paper Table 1)"
    );
    for &ratio in ratios {
        let _ = writeln!(out, "\nPr[h]/(1-α) = {ratio}");
        let _ = write!(out, "{:>5} |", "k");
        for &alpha in alphas {
            let _ = write!(out, " {alpha:>9} |");
        }
        let _ = writeln!(out);
        for &k in ks {
            let _ = write!(out, "{k:>5} |");
            for &alpha in alphas {
                let cell = cells
                    .iter()
                    .find(|c| c.alpha == alpha && c.ratio == ratio && c.k == k)
                    .expect("cell generated");
                let _ = write!(out, " {:>9.2e} |", cell.probability);
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// E6: exact DP vs the analytic Theorem-1 machinery.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BoundVsExactRow {
    /// Honest margin `ε`.
    pub epsilon: f64,
    /// Uniquely honest probability `p_h`.
    pub p_h: f64,
    /// Horizon `k`.
    pub k: usize,
    /// Exact DP violation probability.
    pub exact: f64,
    /// Near-exact series tail of Bound 1 (no-unique-Catalan event).
    pub bound1_series: f64,
    /// Rigorous Chernoff form of Theorem 1.
    pub theorem1: f64,
}

/// Runs experiment E6 over a small grid, one scoped worker per
/// `(ε, p_h)` point (see [`bound_vs_exact_threads`]).
pub fn bound_vs_exact(ks: &[usize]) -> Vec<BoundVsExactRow> {
    bound_vs_exact_threads(ks, default_threads())
}

/// [`bound_vs_exact`] with an explicit worker count; row order is
/// identical for every thread count.
pub fn bound_vs_exact_threads(ks: &[usize], threads: usize) -> Vec<BoundVsExactRow> {
    let points = [(0.2, 0.4), (0.3, 0.3), (0.4, 0.6), (0.1, 0.2)];
    run_jobs(points.len(), threads, |i| {
        let (epsilon, p_h) = points[i];
        let cond = BernoulliCondition::new(epsilon, p_h).expect("valid");
        let exact = ExactSettlement::new(cond);
        let ps = exact.violation_probabilities(ks);
        let b1 = Bound1::new(epsilon, p_h).expect("valid");
        ks.iter()
            .zip(&ps)
            .map(|(&k, &e)| BoundVsExactRow {
                epsilon,
                p_h,
                k,
                exact: e,
                bound1_series: b1.tail_exact(k),
                theorem1: b1.tail(k),
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// E7: the consistent tie-breaking regime (`p_h = 0`).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TiebreakRow {
    /// Honest margin `ε`.
    pub epsilon: f64,
    /// Horizon `k`.
    pub k: usize,
    /// Bound 2's rigorous tail (Theorem 2).
    pub theorem2: f64,
    /// Monte-Carlo frequency of the Bound-2 failure event.
    pub mc_no_consecutive_catalan: f64,
    /// Mean max slot divergence under adversarial ties (balance attack).
    pub sim_divergence_adversarial_ties: f64,
    /// Mean max slot divergence under the consistent rule.
    pub sim_divergence_consistent: f64,
}

/// Runs experiment E7.
pub fn tiebreak_experiment(trials: u64, sim_runs: u64) -> Vec<TiebreakRow> {
    let mut rows = Vec::new();
    for epsilon in [0.3, 0.5] {
        let cond = BernoulliCondition::new(epsilon, 0.0).expect("bivalent condition");
        let mc = MonteCarlo::new(cond, trials, 101);
        let b2 = Bound2::new(epsilon).expect("valid");
        for k in [50usize, 100, 200] {
            let est = mc.no_consecutive_catalan_in_window(3 * k, k, k);
            let (div_adv, div_con) = balance_divergences(epsilon, sim_runs);
            rows.push(TiebreakRow {
                epsilon,
                k,
                theorem2: b2.tail(k),
                mc_no_consecutive_catalan: est.frequency(),
                sim_divergence_adversarial_ties: div_adv,
                sim_divergence_consistent: div_con,
            });
        }
    }
    rows
}

fn balance_divergences(epsilon: f64, runs: u64) -> (f64, f64) {
    let stake = (1.0 - epsilon) / 2.0;
    let mk = |tie| SimConfig {
        honest_nodes: 8,
        adversarial_stake: stake,
        active_slot_coeff: 0.5,
        delta: 0,
        slots: 600,
        tie_break: tie,
        strategy: Strategy::BalanceAttack,
    };
    let mean = |tie| -> f64 {
        (0..runs)
            .map(|seed| {
                Simulation::run(&mk(tie), seed)
                    .metrics()
                    .max_slot_divergence as f64
            })
            .sum::<f64>()
            / runs as f64
    };
    (mean(TieBreak::AdversarialOrder), mean(TieBreak::Consistent))
}

/// E8: the Δ-synchronous setting.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DeltaRow {
    /// Delay bound `Δ`.
    pub delta: usize,
    /// Effective reduced margin `ε_Δ` (condition (20)).
    pub effective_epsilon: f64,
    /// Theorem 7's bound at `k`.
    pub theorem7: f64,
    /// Horizon used.
    pub k: usize,
    /// Observed settlement violations in simulation (count over anchors).
    pub sim_violations: usize,
}

/// Runs experiment E8 for a sparse chain (`f = 0.05`).
pub fn delta_experiment(k: usize, slots: usize) -> Vec<DeltaRow> {
    let cond = SemiSyncCondition::new(0.05, 0.01, 0.03).expect("valid");
    let mut rows = Vec::new();
    for delta in [0usize, 2, 4, 8] {
        let effective_epsilon = cond.effective_epsilon(delta).unwrap_or(f64::NAN);
        let theorem7 = multihonest::analytic::theorem7_bound(&cond, delta, k).unwrap_or(1.0);
        let cfg = SimConfig {
            honest_nodes: 8,
            adversarial_stake: 0.2,
            active_slot_coeff: 0.05,
            delta,
            slots,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::PrivateWithholding,
        };
        let sim = Simulation::run(&cfg, 77);
        // Indexed count; anchors past slots − 2k are excluded as before
        // (their observation windows are clipped).
        let sim_violations = sim.count_violating_slots(k, slots.saturating_sub(2 * k));
        rows.push(DeltaRow {
            delta,
            effective_epsilon,
            theorem7,
            k,
            sim_violations,
        });
    }
    rows
}

/// E9: which analyses admit which parameter points, and what the exact
/// error is there.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ThresholdRow {
    /// `p_h`.
    pub p_h: f64,
    /// `p_H`.
    pub p_hh: f64,
    /// `p_A`.
    pub p_a: f64,
    /// This paper's threshold.
    pub optimal: bool,
    /// Praos/Genesis threshold.
    pub praos: bool,
    /// Sleepy/Snow White threshold.
    pub snow_white: bool,
    /// Exact violation probability at the probe horizon.
    pub exact_at_k: f64,
    /// The probe horizon.
    pub k: usize,
}

/// Runs experiment E9 across a stake grid with fixed `p_A`, one scoped
/// worker per stake split (see [`threshold_experiment_threads`]).
pub fn threshold_experiment(k: usize) -> Vec<ThresholdRow> {
    threshold_experiment_threads(k, default_threads())
}

/// [`threshold_experiment`] with an explicit worker count; row order is
/// identical for every thread count.
pub fn threshold_experiment_threads(k: usize, threads: usize) -> Vec<ThresholdRow> {
    let p_a = 0.40;
    run_jobs(6, threads, |split| {
        let p_h = (1.0 - p_a) * split as f64 / 5.0;
        let p_hh = 1.0 - p_a - p_h;
        let cond = BernoulliCondition::from_probabilities(p_h, p_hh, p_a).expect("valid");
        let a = multihonest::analytic::baselines::classify(&cond);
        let exact = ExactSettlement::new(cond).violation_probability(k);
        ThresholdRow {
            p_h,
            p_hh,
            p_a,
            optimal: a.optimal,
            praos: a.praos_genesis,
            snow_white: a.sleepy_snow_white,
            exact_at_k: exact,
            k,
        }
    })
}

/// E10: Catalan-slot tail events, Monte Carlo vs the series tails.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CatalanTailRow {
    /// Honest margin `ε`.
    pub epsilon: f64,
    /// Uniquely honest probability.
    pub p_h: f64,
    /// Window length `k`.
    pub k: usize,
    /// MC frequency of "no uniquely honest Catalan slot in window".
    pub mc_unique: f64,
    /// Bound 1 series tail.
    pub bound1_series: f64,
    /// MC frequency of "no consecutive Catalan pair in window".
    pub mc_consecutive: f64,
    /// Bound 2 series tail.
    pub bound2_series: f64,
}

/// Runs experiment E10.
pub fn catalan_tail_experiment(trials: u64) -> Vec<CatalanTailRow> {
    let mut rows = Vec::new();
    for (epsilon, p_h) in [(0.3, 0.4), (0.5, 0.5)] {
        let cond = BernoulliCondition::new(epsilon, p_h).expect("valid");
        let mc = MonteCarlo::new(cond, trials, 303);
        let b1 = Bound1::new(epsilon, p_h).expect("valid");
        let b2 = Bound2::new(epsilon).expect("valid");
        for k in [20usize, 40, 80] {
            let unique = mc.no_unique_catalan_in_window(3 * k, k, k);
            let consecutive = mc.no_consecutive_catalan_in_window(3 * k, k, k);
            rows.push(CatalanTailRow {
                epsilon,
                p_h,
                k,
                mc_unique: unique.frequency(),
                bound1_series: b1.tail_exact(k),
                mc_consecutive: consecutive.frequency(),
                bound2_series: b2.tail_exact(k),
            });
        }
    }
    rows
}

/// Minimal CLI parsing shared by the bench binaries (bare
/// `std::env::args` handling; no argument-parser crate offline).
///
/// Malformed command lines are reported, not panicked on: every parser
/// returns a [`CliError`](cli::CliError) describing what was wrong, and
/// the binaries convert it into a usage message plus exit status 2 via
/// [`or_usage`](cli::or_usage). A value-taking flag followed by another
/// `--`-prefixed token is an error — `--seed --quick` used to silently
/// parse `--quick` as the seed.
pub mod cli {
    use std::fmt;
    use std::str::FromStr;

    /// A malformed command line, human-readable.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CliError(String);

    impl fmt::Display for CliError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// The value following `--flag`.
    ///
    /// `Ok(None)` when the flag is absent; an error when the flag is
    /// present but followed by nothing or by another `--`-prefixed
    /// token (which is a flag, not a value).
    pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
        let Some(i) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        match args.get(i + 1).map(String::as_str) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            Some(v) => Err(CliError(format!(
                "{flag} expects a value, found flag '{v}'"
            ))),
            None => Err(CliError(format!("{flag} expects a value"))),
        }
    }

    /// The value of `--flag` parsed as `T`; `Ok(None)` when absent.
    pub fn parsed_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError> {
        match flag_value(args, flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError(format!("{flag}: invalid value '{v}'"))),
        }
    }

    /// The value of `--flag` parsed as a count that must be at least 1;
    /// `Ok(None)` when absent.
    pub fn positive_flag(args: &[String], flag: &str) -> Result<Option<usize>, CliError> {
        match parsed_flag(args, flag)? {
            Some(0) => Err(CliError(format!("{flag} must be at least 1, found 0"))),
            value => Ok(value),
        }
    }

    /// Fails on any `--` token outside `known` — catches typos like
    /// `--thread` before they are silently ignored.
    pub fn reject_unknown_flags(args: &[String], known: &[&str]) -> Result<(), CliError> {
        match args
            .iter()
            .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
        {
            Some(flag) => Err(CliError(format!("unknown flag '{flag}'"))),
            None => Ok(()),
        }
    }

    /// Positional (non-`--`) arguments, excluding the values consumed by
    /// the listed value-taking flags.
    pub fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
        args.iter()
            .enumerate()
            .filter(|(i, a)| {
                !a.starts_with("--")
                    && !i
                        .checked_sub(1)
                        .map(|p| value_flags.contains(&args[p].as_str()))
                        .unwrap_or(false)
            })
            .map(|(_, a)| a.as_str())
            .collect()
    }

    /// [`positionals`], failing on any outside `known` — catches a
    /// mistyped subcommand or section name before it silently selects
    /// nothing.
    pub fn known_positionals<'a>(
        args: &'a [String],
        value_flags: &[&str],
        known: &[&str],
    ) -> Result<Vec<&'a str>, CliError> {
        let found = positionals(args, value_flags);
        match found.iter().find(|p| !known.contains(p)) {
            Some(p) => Err(CliError(format!("unknown argument '{p}'"))),
            None => Ok(found),
        }
    }

    /// Unwraps a parse result or prints `error: ...` plus the usage
    /// string to stderr and exits with status 2.
    pub fn or_usage<T>(result: Result<T, CliError>, usage: &str) -> T {
        match result {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("usage: {usage}");
                std::process::exit(2);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(tokens: &[&str]) -> Vec<String> {
            tokens.iter().map(|t| t.to_string()).collect()
        }

        #[test]
        fn absent_flag_is_none() {
            assert_eq!(flag_value(&args(&["--quick"]), "--seed"), Ok(None));
            assert_eq!(parsed_flag::<u64>(&args(&[]), "--seed"), Ok(None));
        }

        #[test]
        fn present_flag_yields_its_value() {
            let a = args(&["--seed", "17", "--quick"]);
            assert_eq!(flag_value(&a, "--seed"), Ok(Some("17")));
            assert_eq!(parsed_flag::<u64>(&a, "--seed"), Ok(Some(17)));
        }

        #[test]
        fn flag_shaped_value_rejected() {
            // The bug this module's rewrite fixes: "--seed --quick" must
            // not parse "--quick" as the seed.
            let a = args(&["--seed", "--quick"]);
            let err = flag_value(&a, "--seed").unwrap_err();
            assert!(err.to_string().contains("found flag '--quick'"), "{err}");
            assert!(parsed_flag::<u64>(&a, "--seed").is_err());
        }

        #[test]
        fn trailing_flag_without_value_rejected() {
            let err = flag_value(&args(&["--out"]), "--out").unwrap_err();
            assert_eq!(err.to_string(), "--out expects a value");
        }

        #[test]
        fn unparseable_value_names_the_flag() {
            let err = parsed_flag::<u64>(&args(&["--seed", "abc"]), "--seed").unwrap_err();
            assert_eq!(err.to_string(), "--seed: invalid value 'abc'");
        }

        #[test]
        fn zero_count_names_the_flag() {
            let err = positive_flag(&args(&["--segment", "0"]), "--segment").unwrap_err();
            assert_eq!(err.to_string(), "--segment must be at least 1, found 0");
            assert_eq!(
                positive_flag(&args(&["--slots", "5"]), "--slots"),
                Ok(Some(5))
            );
            assert_eq!(positive_flag(&args(&[]), "--slots"), Ok(None));
        }

        #[test]
        fn unknown_flags_are_caught() {
            let a = args(&["--thread", "4"]);
            assert!(reject_unknown_flags(&a, &["--threads"]).is_err());
            assert_eq!(reject_unknown_flags(&a, &["--thread"]), Ok(()));
        }

        #[test]
        fn positionals_skip_flag_values() {
            let a = args(&["run", "--seed", "3", "fast", "--quick"]);
            assert_eq!(positionals(&a, &["--seed"]), vec!["run", "fast"]);
        }

        #[test]
        fn unknown_positionals_are_caught() {
            let a = args(&["run", "--seed", "3", "fast"]);
            assert_eq!(
                known_positionals(&a, &["--seed"], &["run", "fast"]),
                Ok(vec!["run", "fast"])
            );
            let err = known_positionals(&a, &["--seed"], &["run"]).unwrap_err();
            assert_eq!(err.to_string(), "unknown argument 'fast'");
        }
    }
}

/// A machine-readable timing record of one Table-1 grid regeneration —
/// the repo's margin-DP perf trajectory (`BENCH_margin.json`). Every PR
/// that touches the kernel can diff a fresh run against the committed
/// baseline.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// What was timed.
    pub name: String,
    /// Worker threads used for the `(α, ratio)` fan-out.
    pub threads: usize,
    /// Grid: α columns.
    pub alphas: Vec<f64>,
    /// Grid: `Pr[h]/(1 − α)` rows.
    pub ratios: Vec<f64>,
    /// Grid: settlement horizons.
    pub ks: Vec<usize>,
    /// Number of cells produced (`alphas × ratios × ks`).
    pub cells: usize,
    /// End-to-end wall-clock seconds for the whole grid.
    pub total_seconds: f64,
    /// Cells per wall-clock second.
    pub cells_per_second: f64,
    /// Fastest single `(α, ratio)` DP pass, seconds.
    pub pair_seconds_min: f64,
    /// Median `(α, ratio)` DP pass, seconds.
    pub pair_seconds_median: f64,
    /// Mean `(α, ratio)` DP pass, seconds.
    pub pair_seconds_mean: f64,
    /// Slowest single `(α, ratio)` DP pass, seconds.
    pub pair_seconds_max: f64,
    /// Sum of all cell probabilities — a cheap cross-run equivalence
    /// fingerprint of the kernel's numerical output.
    pub probability_checksum: f64,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_seconds: u64,
}

/// Times a Table-1 grid regeneration and returns the cells plus the
/// [`BenchReport`] describing the run (the `bench-report` mode of the
/// `table1` binary).
pub fn bench_report(
    alphas: &[f64],
    ratios: &[f64],
    ks: &[usize],
    threads: usize,
) -> (Vec<Table1Cell>, BenchReport) {
    let start = std::time::Instant::now();
    let (cells, mut pair_seconds) = table1_grid_timed(alphas, ratios, ks, threads);
    let total_seconds = start.elapsed().as_secs_f64();
    pair_seconds.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let pairs = pair_seconds.len().max(1) as f64;
    let report = BenchReport {
        schema: "multihonest-bench-margin/v1".to_string(),
        name: "table1_grid".to_string(),
        threads,
        alphas: alphas.to_vec(),
        ratios: ratios.to_vec(),
        ks: ks.to_vec(),
        cells: cells.len(),
        total_seconds,
        cells_per_second: cells.len() as f64 / total_seconds.max(f64::MIN_POSITIVE),
        pair_seconds_min: pair_seconds.first().copied().unwrap_or(0.0),
        pair_seconds_median: pair_seconds
            .get(pair_seconds.len() / 2)
            .copied()
            .unwrap_or(0.0),
        pair_seconds_mean: pair_seconds.iter().sum::<f64>() / pairs,
        pair_seconds_max: pair_seconds.last().copied().unwrap_or(0.0),
        probability_checksum: cells.iter().map(|c| c.probability).sum(),
        unix_time_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    };
    (cells, report)
}

/// A machine-readable timing record of one simulator settlement sweep —
/// the consistency-layer perf trajectory (`BENCH_sim.json`), mirroring
/// [`BenchReport`] for the margin DP. The oracle timings come from the
/// retained naive scan, and the builder asserts the two paths produce
/// **bit-identical** violating-slot sets before reporting any numbers.
#[derive(Debug, Clone, Serialize)]
pub struct SimBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// What was timed.
    pub name: String,
    /// Simulated slots.
    pub slots: usize,
    /// Honest nodes.
    pub honest_nodes: usize,
    /// Adversarial stake.
    pub adversarial_stake: f64,
    /// Active-slot coefficient `f`.
    pub active_slot_coeff: f64,
    /// Network delay bound `Δ`.
    pub delta: usize,
    /// Adversarial strategy.
    pub strategy: String,
    /// Execution seed.
    pub seed: u64,
    /// Settlement parameters swept.
    pub ks: Vec<usize>,
    /// Wall-clock seconds for `Simulation::run` (includes folding the
    /// divergence index).
    pub run_seconds: f64,
    /// Full `(1..=slots) × ks` sweep through the indexed batch API.
    pub indexed_sweep_seconds: f64,
    /// The same sweep through the naive per-query scan.
    pub oracle_sweep_seconds: f64,
    /// `oracle_sweep_seconds / indexed_sweep_seconds`.
    pub sweep_speedup: f64,
    /// Violating anchors per `k` — the equivalence fingerprint.
    pub violating_slots_per_k: Vec<usize>,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_seconds: u64,
}

/// The canonical sim-bench configuration: the 2000-slot private
/// withholding execution named by the ROADMAP as the simulator's
/// remaining hot path (identical to the criterion `sim_bench` shape).
pub fn sim_bench_config(slots: usize) -> SimConfig {
    SimConfig {
        honest_nodes: 10,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.25,
        delta: 2,
        slots,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    }
}

/// Runs the settlement-sweep benchmark: one execution, then the full
/// `(1..=slots) × ks` violation sweep through both the indexed batch API
/// and the naive oracle, timing each.
///
/// # Panics
///
/// Panics if the two paths disagree on any violating-slot set — the
/// equivalence check is part of the benchmark, so a drifting index can
/// never produce a plausible-looking baseline.
pub fn sim_bench_report(cfg: &SimConfig, seed: u64, ks: &[usize]) -> SimBenchReport {
    let run_start = std::time::Instant::now();
    let sim = Simulation::run(cfg, seed);
    let run_seconds = run_start.elapsed().as_secs_f64();

    let indexed_start = std::time::Instant::now();
    let indexed: Vec<Vec<bool>> = ks.iter().map(|&k| sim.settlement_violations(k)).collect();
    let indexed_sweep_seconds = indexed_start.elapsed().as_secs_f64();

    let oracle_start = std::time::Instant::now();
    let oracle: Vec<Vec<bool>> = ks
        .iter()
        .map(|&k| {
            (1..=cfg.slots)
                .map(|s| sim.settlement_violation_oracle(s, k))
                .collect()
        })
        .collect();
    let oracle_sweep_seconds = oracle_start.elapsed().as_secs_f64();

    for ((&k, idx), orc) in ks.iter().zip(&indexed).zip(&oracle) {
        assert_eq!(
            idx, orc,
            "indexed settlement sweep diverged from the oracle at k = {k}"
        );
    }
    SimBenchReport {
        schema: "multihonest-bench-sim/v1".to_string(),
        name: "settlement_sweep".to_string(),
        slots: cfg.slots,
        honest_nodes: cfg.honest_nodes,
        adversarial_stake: cfg.adversarial_stake,
        active_slot_coeff: cfg.active_slot_coeff,
        delta: cfg.delta,
        strategy: cfg.strategy.name().to_string(),
        seed,
        ks: ks.to_vec(),
        run_seconds,
        indexed_sweep_seconds,
        oracle_sweep_seconds,
        sweep_speedup: oracle_sweep_seconds / indexed_sweep_seconds.max(f64::MIN_POSITIVE),
        violating_slots_per_k: indexed
            .iter()
            .map(|v| v.iter().filter(|&&b| b).count())
            .collect(),
        unix_time_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

/// A machine-readable timing record of the optimal adversary `A*` —
/// the game-side perf trajectory (`BENCH_astar.json`), mirroring
/// [`BenchReport`] (margin DP) and [`SimBenchReport`] (simulator). The
/// oracle timings come from the retained definitional implementation
/// (`astar::reference`), and the builder asserts the two paths produce
/// **bit-identical forks** before reporting any numbers.
#[derive(Debug, Clone, Serialize)]
pub struct AstarBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// What was timed.
    pub name: String,
    /// Honest margin `ε` of the sampled condition.
    pub epsilon: f64,
    /// Uniquely honest probability `p_h` of the sampled condition.
    pub p_h: f64,
    /// Seed for the per-`n` sampled strings.
    pub seed: u64,
    /// String lengths timed through the incremental engine.
    pub ns: Vec<usize>,
    /// Best-of-3 engine build seconds per `n`.
    pub engine_seconds: Vec<f64>,
    /// Canonical-fork vertex counts per `n` — the structural fingerprint.
    pub vertices: Vec<usize>,
    /// `ρ(F)` of the engine-built fork per `n`, asserted equal to the
    /// recurrence `ρ(w)` (Theorem 6) — the semantic fingerprint.
    pub rhos: Vec<i64>,
    /// The subset of `ns` also driven through the definitional oracle.
    pub oracle_ns: Vec<usize>,
    /// Best-of-3 oracle build seconds per oracle `n`.
    pub oracle_seconds: Vec<f64>,
    /// `oracle_seconds / engine_seconds` per oracle `n`.
    pub speedups: Vec<f64>,
    /// The speedup at the largest oracle-checked `n` — the headline
    /// number of the seed-audit hot path.
    pub speedup_at_largest_oracle_n: f64,
    /// Monte-Carlo sweep: string length.
    pub mc_len: usize,
    /// Monte-Carlo sweep: trials.
    pub mc_trials: u64,
    /// Monte-Carlo sweep: worker threads.
    pub mc_threads: usize,
    /// Monte-Carlo sweep: wall-clock seconds.
    pub mc_seconds: f64,
    /// Monte-Carlo sweep: trials where game-side `ρ(F)` matched the
    /// recurrence `ρ(w)` (must equal `mc_trials`).
    pub mc_rho_agreements: u64,
    /// Monte-Carlo sweep: mean `ρ` over trials.
    pub mc_mean_rho: f64,
    /// Monte-Carlo sweep: mean `µ_ε(w)` over trials.
    pub mc_mean_margin: f64,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_seconds: u64,
}

/// The canonical astar-bench condition (matches `astar_bench.rs`).
pub fn astar_bench_condition() -> BernoulliCondition {
    BernoulliCondition::new(0.2, 0.4).expect("valid condition")
}

/// Runs the `A*` benchmark: per `n`, a seeded string is built into a
/// canonical fork through the incremental engine (best-of-3 timing); for
/// every `n` also listed in `oracle_ns`, the definitional oracle builds
/// the same string and the two forks are asserted **bit-identical**
/// before their timings are compared. A
/// [`CanonicalMonteCarlo`](multihonest::adversary::CanonicalMonteCarlo)
/// sweep at `mc_len` rounds out the report with the Theorem-6
/// cross-validation at scale.
///
/// # Panics
///
/// Panics if the engine and oracle forks differ, if an `oracle_ns` entry
/// is missing from `ns`, or if any Monte-Carlo trial's `ρ` disagrees with
/// the recurrence — a drifting engine can never produce a
/// plausible-looking baseline.
pub fn astar_bench_report(
    ns: &[usize],
    oracle_ns: &[usize],
    mc_len: usize,
    mc_trials: u64,
    threads: usize,
    seed: u64,
) -> AstarBenchReport {
    use multihonest::adversary::astar::reference;
    use multihonest::adversary::{CanonicalMonteCarlo, OptimalAdversary};
    use multihonest::fork::ReachAnalysis;
    use multihonest::margin::recurrence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let cond = astar_bench_condition();
    let best_of_3 = |f: &mut dyn FnMut()| -> f64 {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };

    let mut engine_seconds = Vec::new();
    let mut vertices = Vec::new();
    let mut rhos = Vec::new();
    let mut oracle_seconds = Vec::new();
    let mut speedups = Vec::new();
    for (i, &n) in ns.iter().enumerate() {
        let w = cond.sample(&mut StdRng::seed_from_u64(seed ^ (n as u64)), n);
        let fork = OptimalAdversary::build(&w);
        let secs = best_of_3(&mut || {
            std::hint::black_box(OptimalAdversary::build(std::hint::black_box(&w)));
        });
        engine_seconds.push(secs);
        vertices.push(fork.vertex_count());
        // The fork's own ρ — asserted against the recurrence (Theorem 6)
        // so the fingerprint reads the engine's output, not the theory's.
        let fork_rho = ReachAnalysis::new(&fork).rho();
        assert_eq!(
            fork_rho,
            recurrence::rho(&w),
            "ρ(F) must equal the recurrence ρ(w) at n = {n} (Theorem 6)"
        );
        rhos.push(fork_rho);
        if oracle_ns.contains(&n) {
            let oracle = reference::build(&w);
            assert_eq!(
                fork, oracle,
                "engine fork diverged from the oracle at n = {n}"
            );
            let osecs = best_of_3(&mut || {
                std::hint::black_box(reference::build(std::hint::black_box(&w)));
            });
            oracle_seconds.push(osecs);
            speedups.push(osecs / engine_seconds[i].max(f64::MIN_POSITIVE));
        }
    }
    assert_eq!(
        oracle_seconds.len(),
        oracle_ns.len(),
        "every oracle n must appear in ns"
    );

    let mc = CanonicalMonteCarlo::new(cond, mc_trials, seed).with_threads(threads);
    let mc_start = std::time::Instant::now();
    let summary = mc.summary(mc_len);
    let mc_seconds = mc_start.elapsed().as_secs_f64();
    assert_eq!(
        summary.rho_agreements, mc_trials,
        "game-side ρ must match the recurrence on every trial (Theorem 6)"
    );

    AstarBenchReport {
        schema: "multihonest-bench-astar/v1".to_string(),
        name: "astar_build".to_string(),
        epsilon: cond.epsilon(),
        p_h: cond.p_unique_honest(),
        seed,
        ns: ns.to_vec(),
        engine_seconds,
        vertices,
        rhos,
        oracle_ns: oracle_ns.to_vec(),
        oracle_seconds,
        speedup_at_largest_oracle_n: speedups.last().copied().unwrap_or(0.0),
        speedups,
        mc_len,
        mc_trials,
        mc_threads: threads,
        mc_seconds,
        mc_rho_agreements: summary.rho_agreements,
        mc_mean_rho: summary.mean_rho,
        mc_mean_margin: summary.mean_margin,
        unix_time_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

/// A machine-readable timing record of one campaign sweep — the
/// orchestrator's perf trajectory (`BENCH_sweep.json`), mirroring
/// [`BenchReport`] for the margin DP. The builder first replays a tiny
/// grid through an interrupt + resume and asserts the rendered report is
/// **byte-identical** to a straight run before timing anything, so a
/// broken checkpoint path can never produce a plausible-looking
/// baseline.
#[derive(Debug, Clone, Serialize)]
pub struct SweepBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// What was timed.
    pub name: String,
    /// Worker threads used for the campaign.
    pub threads: usize,
    /// Root seed of the seed-sharding scheme.
    pub seed: u64,
    /// Spec fingerprint (ties the numbers to one exact grid).
    pub spec_fingerprint: u64,
    /// Grid cells (strategy × Δ × stake-profile).
    pub cells: usize,
    /// Trials per cell.
    pub trials_per_cell: u64,
    /// Total executions (`cells × trials_per_cell`).
    pub executions: u64,
    /// Slots per execution.
    pub slots: usize,
    /// Settlement parameters per cell.
    pub ks: Vec<usize>,
    /// Cells of the interrupt/resume equivalence pre-check grid.
    pub resume_check_cells: usize,
    /// Wall-clock seconds of that pre-check (two short campaigns).
    pub resume_check_seconds: f64,
    /// End-to-end wall-clock seconds for the timed campaign.
    pub run_seconds: f64,
    /// Executions per wall-clock second.
    pub executions_per_second: f64,
    /// Simulated slots per wall-clock second, in millions.
    pub mslots_per_second: f64,
    /// Executions with ≥ 1 violating anchor at the smallest `k`, summed
    /// over the grid — a cheap cross-run equivalence fingerprint.
    pub violations_at_smallest_k: u64,
    /// Wrapping sum of the per-cell aggregate fingerprints — the strong
    /// cross-run equivalence fingerprint (thread-count invariant).
    pub aggregate_checksum: u64,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_seconds: u64,
}

/// The interrupt/resume equivalence pre-check: runs a tiny campaign
/// straight, then interrupted-and-resumed on a different thread count,
/// and asserts the rendered reports are byte-identical.
///
/// # Panics
///
/// Panics if the two report byte streams differ, or if the scratch
/// checkpoint cannot be written.
fn sweep_resume_precheck(seed: u64) -> (usize, f64) {
    use multihonest_sweep::{campaign_report, report_json, run_campaign, CampaignSpec, RunOptions};
    let start = std::time::Instant::now();
    let mut spec = CampaignSpec::quick_grid();
    spec.seed = seed ^ 0x5EED_CAFE;
    spec.slots = 120;
    spec.trials_per_cell = 12;
    let straight = run_campaign(&spec, &RunOptions::default()).expect("no checkpoint involved");
    let oracle = report_json(&campaign_report(&spec, &straight));

    let path = std::env::temp_dir().join(format!("multihonest-sweep-precheck-{seed}.json"));
    let _ = std::fs::remove_file(&path);
    let interrupted = run_campaign(
        &spec,
        &RunOptions {
            threads: 2,
            checkpoint: Some(path.clone()),
            stop_after_cells: Some(2),
        },
    )
    .expect("write scratch checkpoint");
    assert!(!interrupted.is_complete(), "interrupt did not interrupt");
    let resumed = run_campaign(
        &spec,
        &RunOptions {
            threads: 4,
            checkpoint: Some(path.clone()),
            stop_after_cells: None,
        },
    )
    .expect("resume from scratch checkpoint");
    let _ = std::fs::remove_file(&path);
    assert!(resumed.is_complete());
    assert_eq!(
        report_json(&campaign_report(&spec, &resumed)),
        oracle,
        "interrupted + resumed campaign diverged from the straight run"
    );
    (spec.cell_count(), start.elapsed().as_secs_f64())
}

/// Runs the campaign-sweep benchmark: the resume pre-check, then one
/// timed campaign over `spec`, returning the campaign report plus the
/// [`SweepBenchReport`] describing the run (the `bench-report` mode of
/// the `sweep` binary).
///
/// # Panics
///
/// Panics if the pre-check finds an interrupt/resume divergence or the
/// campaign does not complete.
pub fn sweep_bench_report(
    spec: &multihonest_sweep::CampaignSpec,
    threads: usize,
) -> (multihonest_sweep::CampaignReport, SweepBenchReport) {
    use multihonest_sweep::{campaign_report, run_campaign, RunOptions};
    let (resume_check_cells, resume_check_seconds) = sweep_resume_precheck(spec.seed);

    let start = std::time::Instant::now();
    let outcome = run_campaign(
        spec,
        &RunOptions {
            threads,
            checkpoint: None,
            stop_after_cells: None,
        },
    )
    .expect("no checkpoint involved");
    let run_seconds = start.elapsed().as_secs_f64();
    assert!(outcome.is_complete(), "untimed-out campaign must complete");
    let report = campaign_report(spec, &outcome);

    let executions = spec.executions();
    let aggregate_checksum = outcome
        .aggregates
        .iter()
        .flatten()
        .fold(0u64, |acc, a| acc.wrapping_add(a.fingerprint));
    let violations_at_smallest_k = outcome
        .aggregates
        .iter()
        .flatten()
        .map(|a| a.violating_executions.first().copied().unwrap_or(0))
        .sum();
    let bench = SweepBenchReport {
        schema: "multihonest-bench-sweep/v1".to_string(),
        name: "campaign_sweep".to_string(),
        threads,
        seed: spec.seed,
        spec_fingerprint: spec.fingerprint(),
        cells: spec.cell_count(),
        trials_per_cell: spec.trials_per_cell,
        executions,
        slots: spec.slots,
        ks: spec.ks.clone(),
        resume_check_cells,
        resume_check_seconds,
        run_seconds,
        executions_per_second: executions as f64 / run_seconds.max(f64::MIN_POSITIVE),
        mslots_per_second: executions as f64 * spec.slots as f64
            / run_seconds.max(f64::MIN_POSITIVE)
            / 1e6,
        violations_at_smallest_k,
        aggregate_checksum,
        unix_time_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    };
    (report, bench)
}

/// A machine-readable record of the fault-injection conservatism sweep —
/// the robustness trajectory (`BENCH_faults.json`), mirroring
/// [`SweepBenchReport`] for the campaign orchestrator. Before measuring
/// anything the builder replays every library scenario through **both**
/// engines and asserts their degradation ledgers are identical, and the
/// conservatism harness itself must return `Some(true)` for every
/// scenario — a drifting fault runtime or a broken Δ′ reduction can
/// never produce a plausible-looking baseline.
#[derive(Debug, Clone, Serialize)]
pub struct FaultsBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// What was measured.
    pub name: String,
    /// Worker threads for the per-scenario fan-out.
    pub threads: usize,
    /// Root seed of the per-trial seed derivation.
    pub seed: u64,
    /// Slots per execution (the fault library scales its windows to it).
    pub slots: usize,
    /// Seeded trials per scenario.
    pub trials_per_scenario: u64,
    /// Settlement parameters checked per scenario.
    pub ks: Vec<usize>,
    /// Per-scenario conservatism verdicts (the payload).
    pub scenarios: Vec<multihonest_sweep::ScenarioConservatism>,
    /// Wall-clock seconds per scenario's trial batch.
    pub scenario_seconds: Vec<f64>,
    /// Every scenario's verdict was `Some(true)` (asserted by the
    /// builder; recorded for downstream diffing).
    pub all_conservative: bool,
    /// Scenarios replayed through both engines in the equivalence
    /// pre-check.
    pub equivalence_checked: usize,
    /// Deferred deliveries observed in the pre-check replays (both
    /// engines agreed on every ledger).
    pub equivalence_deferred: u64,
    /// Wrapping sum of the columnar execution fingerprints of the
    /// pre-check replays — the cross-run equivalence fingerprint.
    pub fingerprint_checksum: u64,
    /// Wall-clock seconds of the equivalence pre-check.
    pub equivalence_seconds: f64,
    /// End-to-end wall-clock seconds.
    pub total_seconds: f64,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_seconds: u64,
}

/// Runs the fault-injection benchmark: the dual-engine equivalence
/// pre-check over the whole [`fault_library`], then the Δ-conservatism
/// harness ([`check_conservatism`]) per scenario, fanned out across
/// `threads` workers (the `faults` binary).
///
/// # Panics
///
/// Panics if the two engines disagree on any scenario's degradation
/// ledger, or if any scenario's conservatism verdict is not
/// `Some(true)`.
///
/// [`fault_library`]: multihonest_scenario::fault_library
/// [`check_conservatism`]: multihonest_sweep::check_conservatism
pub fn faults_bench_report(
    slots: usize,
    trials_per_scenario: u64,
    ks: &[usize],
    threads: usize,
    seed: u64,
) -> FaultsBenchReport {
    use multihonest_scenario::{execution_fingerprint, fault_library, ColumnarSimulation};
    use multihonest_sweep::check_conservatism;

    let start = std::time::Instant::now();
    let library = fault_library(slots);

    // Equivalence pre-check: one replay of every scenario on each
    // engine; the ledgers (deferral/drop/window accounting) must match
    // event for event.
    let eq_start = std::time::Instant::now();
    let eq_seed = seed ^ 0xFA_17;
    let mut equivalence_deferred = 0u64;
    let mut fingerprint_checksum = 0u64;
    for sc in &library {
        let schedule = sc.schedule(eq_seed);
        let mut strategy = sc.config.strategy.instantiate();
        let (sim, ledger) = ColumnarSimulation::run_with_schedule_faults(
            &sc.config,
            &schedule,
            strategy.as_mut(),
            &sc.plan,
        );
        fingerprint_checksum = fingerprint_checksum.wrapping_add(execution_fingerprint(&sim));
        let mut ref_strategy = sc.config.strategy.instantiate();
        let (_, ref_ledger) = Simulation::run_with_schedule_faults(
            &sc.config,
            sc.reference_schedule(eq_seed),
            ref_strategy.as_mut(),
            &sc.plan,
        );
        assert_eq!(
            ref_ledger, ledger,
            "engines disagree on the '{}' degradation ledger",
            sc.name
        );
        equivalence_deferred += ledger.deferred;
    }
    let equivalence_seconds = eq_start.elapsed().as_secs_f64();

    let per_scenario = run_jobs(library.len(), threads, |i| {
        let t0 = std::time::Instant::now();
        let verdict = check_conservatism(&library[i], trials_per_scenario, ks, seed);
        (verdict, t0.elapsed().as_secs_f64())
    });
    let mut scenarios = Vec::with_capacity(per_scenario.len());
    let mut scenario_seconds = Vec::with_capacity(per_scenario.len());
    for (verdict, secs) in per_scenario {
        assert_eq!(
            verdict.conservative,
            Some(true),
            "'{}' exceeded its Δ′-model prediction: {:?}",
            verdict.scenario,
            verdict.rows
        );
        scenarios.push(verdict);
        scenario_seconds.push(secs);
    }

    FaultsBenchReport {
        schema: "multihonest-bench-faults/v1".to_string(),
        name: "fault_conservatism".to_string(),
        threads,
        seed,
        slots,
        trials_per_scenario,
        ks: ks.to_vec(),
        all_conservative: scenarios.iter().all(|s| s.conservative == Some(true)),
        equivalence_checked: library.len(),
        equivalence_deferred,
        fingerprint_checksum,
        equivalence_seconds,
        scenarios,
        scenario_seconds,
        total_seconds: start.elapsed().as_secs_f64(),
        unix_time_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

/// A machine-readable timing record of the streaming fork pipeline —
/// the online-validation perf trajectory (`BENCH_forkflow.json`). Two
/// headline comparisons:
///
/// * **online Δ-axiom validation**: a streaming columnar run (fork
///   built, (F1)–(F3)+(F4Δ) decided and margin channel drained in one
///   pass) against the replay-then-validate baseline that used to gate
///   scale — a reference-engine replay plus the batch `validate_delta`
///   sweep over the extracted fork;
/// * **incremental µ_x witnesses**: the `AstarBuilder`'s tracked-cut
///   margins (`O(log n)` per symbol) against a per-step
///   `ReachAnalysis` rebuild (`O(n)` per symbol).
///
/// Both comparisons assert bit-level equivalence before any timing is
/// reported, so a drifting pipeline can never produce a
/// plausible-looking baseline.
#[derive(Debug, Clone, Serialize)]
pub struct ForkflowBenchReport {
    /// Schema tag for downstream tooling.
    pub schema: String,
    /// What was timed.
    pub name: String,
    /// Seed of the sampled schedules and strings.
    pub seed: u64,
    /// Delay bound Δ of the streamed executions.
    pub delta: usize,
    /// Horizon of the headline streaming run.
    pub streaming_slots: usize,
    /// Wall-clock seconds of the headline streaming run.
    pub streaming_seconds: f64,
    /// Slots per second of the headline streaming run.
    pub streaming_slots_per_second: f64,
    /// Vertices of the streamed fork (blocks incl. genesis).
    pub streaming_vertices: usize,
    /// The online verdict was `Ok` (asserted; fault-free runs cannot
    /// violate the axioms thanks to the engine-side Δ clamp).
    pub streaming_valid: bool,
    /// Margin-channel events observed (one per reduced symbol).
    pub streaming_margin_events: usize,
    /// Final reach ρ of the Δ-reduced characteristic string.
    pub streaming_rho: i64,
    /// Final relative margin µ_ε of the Δ-reduced string.
    pub streaming_margin: i64,
    /// Common horizon of the validation comparison.
    pub baseline_slots: usize,
    /// Replay-then-validate seconds: reference replay + fork extraction
    /// + batch `validate_delta`.
    pub replay_validate_seconds: f64,
    /// Streaming-validated seconds at the same horizon.
    pub streaming_at_baseline_seconds: f64,
    /// `replay_validate_seconds / streaming_at_baseline_seconds` — the
    /// headline of the streaming refactor.
    pub validation_speedup: f64,
    /// Length of the µ_x tracking comparison's sampled string.
    pub mu_len: usize,
    /// Cuts `x` whose relative margins µ_x were tracked.
    pub mu_cuts: Vec<usize>,
    /// Seconds to stream the string through tracked `CutTracker`s.
    pub mu_tracked_seconds: f64,
    /// Seconds for the per-step `ReachAnalysis`-rebuild baseline.
    pub mu_rebuild_seconds: f64,
    /// `mu_rebuild_seconds / mu_tracked_seconds`.
    pub mu_speedup: f64,
    /// step × cut equivalence checks performed (tracked ≡ rebuild).
    pub mu_checks: usize,
    /// End-to-end wall-clock seconds.
    pub total_seconds: f64,
    /// Seconds since the Unix epoch when the run finished.
    pub unix_time_seconds: u64,
}

/// Counts margin-channel events and keeps the latest observation.
#[derive(Default)]
struct MarginChannelProbe {
    events: usize,
}

impl multihonest::sim::MetricsSink for MarginChannelProbe {
    fn on_margin(&mut self, _slot: usize, _rho: i64, _margin: i64) {
        self.events += 1;
    }
}

/// Runs the streaming-fork-pipeline benchmark (the `forkflow` binary):
/// the online-validation comparison at `baseline_slots`, the headline
/// streaming run at `streaming_slots`, and the incremental-µ_x
/// comparison on a length-`mu_len` sampled string.
///
/// # Panics
///
/// Panics if the streamed fork differs from the reference engine's
/// extraction, if the online verdict disagrees with the batch
/// `validate_delta` oracle (or is not `Ok` on these fault-free runs),
/// or if any tracked µ_x disagrees with the `ReachAnalysis` rebuild at
/// any step.
pub fn forkflow_bench_report(
    streaming_slots: usize,
    baseline_slots: usize,
    mu_len: usize,
    seed: u64,
) -> ForkflowBenchReport {
    use multihonest::adversary::AstarBuilder;
    use multihonest::fork::validate::validate_delta;
    use multihonest::fork::ReachAnalysis;
    use multihonest::sim::{SimConfig, Simulation, Strategy, TieBreak};
    use multihonest_scenario::{run_streaming_validated, ColumnarSchedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let start = std::time::Instant::now();
    let delta = 2usize;
    let cfg = |slots: usize| SimConfig {
        honest_nodes: 6,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.3,
        delta,
        slots,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    };

    // --- Validation comparison at the common horizon. ---
    let config = cfg(baseline_slots);
    let schedule = ColumnarSchedule::sample(
        config.honest_nodes,
        config.adversarial_stake,
        config.active_slot_coeff,
        config.slots,
        seed,
    );
    let mut strategy = config.strategy.instantiate();
    let mut probe = MarginChannelProbe::default();
    let t0 = std::time::Instant::now();
    let out = run_streaming_validated(&config, &schedule, strategy.as_mut(), &mut probe);
    let streaming_at_baseline_seconds = t0.elapsed().as_secs_f64();

    // The baseline this pipeline retires: replay the execution through
    // the reference engine, extract its fork, then run the batch
    // axiom sweep (quadratic in the honest-slot count) over it.
    let t0 = std::time::Instant::now();
    let replay = Simulation::run(&config, seed);
    let extracted = replay.fork();
    let batch = validate_delta(extracted.fork(), extracted.characteristic_string(), delta);
    let replay_validate_seconds = t0.elapsed().as_secs_f64();

    assert_eq!(
        &out.pipeline.fork,
        extracted.fork(),
        "streamed fork diverged from the reference extraction"
    );
    assert_eq!(
        out.pipeline.validation.is_ok(),
        batch.is_ok(),
        "online verdict disagrees with the batch oracle"
    );
    assert_eq!(
        out.pipeline.validation,
        Ok(()),
        "a fault-free Δ-clamped execution must satisfy the axioms"
    );
    let validation_speedup =
        replay_validate_seconds / streaming_at_baseline_seconds.max(f64::MIN_POSITIVE);

    // --- Headline streaming run: no replay at all. ---
    let config = cfg(streaming_slots);
    let schedule = ColumnarSchedule::sample(
        config.honest_nodes,
        config.adversarial_stake,
        config.active_slot_coeff,
        config.slots,
        seed,
    );
    let mut strategy = config.strategy.instantiate();
    let mut probe = MarginChannelProbe::default();
    let t0 = std::time::Instant::now();
    let out = run_streaming_validated(&config, &schedule, strategy.as_mut(), &mut probe);
    let streaming_seconds = t0.elapsed().as_secs_f64();
    assert_eq!(
        out.pipeline.validation,
        Ok(()),
        "the headline run must validate online"
    );

    // --- Incremental µ_x witnesses vs per-step rebuild. ---
    let w = astar_bench_condition().sample(&mut StdRng::seed_from_u64(seed ^ 0xF0_17), mu_len);
    let mu_cuts = vec![0, mu_len / 4, mu_len / 2];
    let mut mu_checks = 0usize;

    let t0 = std::time::Instant::now();
    let mut tracked = AstarBuilder::new();
    for &cut in &mu_cuts {
        tracked.track_cut(cut);
    }
    let mut tracked_margins: Vec<i64> = Vec::with_capacity(mu_len * mu_cuts.len());
    for &sym in w.symbols() {
        tracked.step(sym);
        for &cut in &mu_cuts {
            tracked_margins.push(tracked.relative_margin(cut).expect("cut is tracked"));
        }
    }
    let mu_tracked_seconds = t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    let mut rebuilt = AstarBuilder::new();
    let mut rebuilt_margins: Vec<i64> = Vec::with_capacity(mu_len * mu_cuts.len());
    for (i, &sym) in w.symbols().iter().enumerate() {
        rebuilt.step(sym);
        let analysis = ReachAnalysis::new(rebuilt.fork());
        for &cut in &mu_cuts {
            rebuilt_margins.push(analysis.relative_margin(cut.min(i + 1)));
        }
    }
    let mu_rebuild_seconds = t0.elapsed().as_secs_f64();

    for (step, (got, want)) in tracked_margins.iter().zip(&rebuilt_margins).enumerate() {
        assert_eq!(
            got,
            want,
            "tracked µ_x diverged from the rebuild at check {step} (cut {})",
            mu_cuts[step % mu_cuts.len()]
        );
        mu_checks += 1;
    }
    // Witness sanity at the end of the stream: every tracked cut's
    // witness pair must attain its margin under a fresh analysis.
    let analysis = ReachAnalysis::new(tracked.fork());
    for &cut in &mu_cuts {
        let margin = tracked.relative_margin(cut).expect("cut is tracked");
        let (a, b) = tracked.margin_witness(cut).expect("nonempty fork");
        assert_eq!(
            analysis.reach(a).min(analysis.reach(b)),
            margin,
            "witness pair does not attain µ_{cut}"
        );
    }
    let mu_speedup = mu_rebuild_seconds / mu_tracked_seconds.max(f64::MIN_POSITIVE);

    ForkflowBenchReport {
        schema: "multihonest-bench-forkflow/v1".to_string(),
        name: "streaming_fork_pipeline".to_string(),
        seed,
        delta,
        streaming_slots,
        streaming_seconds,
        streaming_slots_per_second: streaming_slots as f64
            / streaming_seconds.max(f64::MIN_POSITIVE),
        streaming_vertices: out.pipeline.fork.vertex_count(),
        streaming_valid: out.pipeline.validation.is_ok(),
        streaming_margin_events: probe.events,
        streaming_rho: out.pipeline.rho,
        streaming_margin: out.pipeline.margin,
        baseline_slots,
        replay_validate_seconds,
        streaming_at_baseline_seconds,
        validation_speedup,
        mu_len,
        mu_cuts,
        mu_tracked_seconds,
        mu_rebuild_seconds,
        mu_speedup,
        mu_checks,
        total_seconds: start.elapsed().as_secs_f64(),
        unix_time_seconds: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_generation_small() {
        let cells = generate_table1(&[0.3], &[1.0, 0.5], &[50, 100]);
        assert_eq!(cells.len(), 4);
        let rendered = render_table1(&cells, &[0.3], &[1.0, 0.5], &[50, 100]);
        assert!(rendered.contains("Pr[h]/(1-α) = 1"));
        assert!(rendered.contains("50"));
        // Probabilities decrease with k within each ratio block.
        for ratio in [1.0, 0.5] {
            let p50 = cells
                .iter()
                .find(|c| c.ratio == ratio && c.k == 50)
                .unwrap();
            let p100 = cells
                .iter()
                .find(|c| c.ratio == ratio && c.k == 100)
                .unwrap();
            assert!(p100.probability < p50.probability);
        }
    }

    #[test]
    fn grid_output_is_thread_count_invariant() {
        // Same cells in the same order, bitwise, for any worker count.
        let (alphas, ratios, ks) = (&[0.2, 0.4][..], &[1.0, 0.5][..], &[30usize, 60][..]);
        let single = generate_table1_threads(alphas, ratios, ks, 1);
        for threads in [2usize, 3, 8] {
            let multi = generate_table1_threads(alphas, ratios, ks, threads);
            assert_eq!(single.len(), multi.len());
            for (a, b) in single.iter().zip(&multi) {
                assert_eq!((a.alpha, a.ratio, a.k), (b.alpha, b.ratio, b.k));
                assert_eq!(a.probability, b.probability, "{threads} threads");
            }
        }
        let rows1 = threshold_experiment_threads(40, 1);
        let rows4 = threshold_experiment_threads(40, 4);
        for (a, b) in rows1.iter().zip(&rows4) {
            assert_eq!(a.exact_at_k, b.exact_at_k);
        }
    }

    #[test]
    fn bench_report_is_well_formed() {
        let (cells, report) = bench_report(&[0.3], &[1.0], &[40, 80], 2);
        assert_eq!(report.cells, cells.len());
        assert_eq!(report.cells, 2);
        assert!(report.total_seconds > 0.0);
        assert!(report.pair_seconds_min <= report.pair_seconds_max);
        assert!(
            (report.probability_checksum - cells.iter().map(|c| c.probability).sum::<f64>()).abs()
                < 1e-15
        );
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        assert!(json.contains("\"schema\""));
        assert!(json.contains("multihonest-bench-margin/v1"));
        assert!(json.contains("\"total_seconds\""));
    }

    #[test]
    fn sim_bench_report_is_well_formed_and_indexed_sweep_wins() {
        // A reduced grid of the acceptance-criterion sweep: the batch API
        // must reproduce the oracle's violating-slot sets bit-identically
        // (asserted inside sim_bench_report) and be ≥ 10× faster. The real
        // margin is orders of magnitude, but the indexed sweep only takes
        // microseconds, so a scheduler preemption of this one measurement
        // could sink the ratio — take the best of three runs.
        let cfg = sim_bench_config(600);
        let report = (0..3)
            .map(|_| sim_bench_report(&cfg, 9, &[5, 10, 20, 40]))
            .max_by(|a, b| {
                a.sweep_speedup
                    .partial_cmp(&b.sweep_speedup)
                    .expect("finite speedups")
            })
            .expect("three runs");
        assert_eq!(report.schema, "multihonest-bench-sim/v1");
        assert_eq!(report.ks, vec![5, 10, 20, 40]);
        assert_eq!(report.violating_slots_per_k.len(), 4);
        // Monotone: a larger k can only settle more anchors.
        for pair in report.violating_slots_per_k.windows(2) {
            assert!(pair[0] >= pair[1], "{:?}", report.violating_slots_per_k);
        }
        assert!(
            report.sweep_speedup >= 10.0,
            "indexed sweep only {}x faster than the oracle",
            report.sweep_speedup
        );
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        assert!(json.contains("multihonest-bench-sim/v1"));
        assert!(json.contains("\"sweep_speedup\""));
    }

    #[test]
    fn astar_bench_report_is_well_formed_and_engine_wins() {
        // A reduced grid of the acceptance sweep: bit-identical forks are
        // asserted inside astar_bench_report, as is ρ agreement on every
        // Monte-Carlo trial. The committed BENCH_astar.json carries the
        // ≥ 10× headline at n = 800; at this reduced n the margin is
        // smaller and the box may be noisy, so assert a conservative
        // floor on the best of three runs.
        let report = (0..3)
            .map(|_| astar_bench_report(&[100, 400], &[400], 500, 6, 2, 4))
            .max_by(|a, b| {
                a.speedup_at_largest_oracle_n
                    .partial_cmp(&b.speedup_at_largest_oracle_n)
                    .expect("finite speedups")
            })
            .expect("three runs");
        assert_eq!(report.schema, "multihonest-bench-astar/v1");
        assert_eq!(report.ns, vec![100, 400]);
        assert_eq!(report.engine_seconds.len(), 2);
        assert_eq!(report.vertices.len(), 2);
        assert_eq!(report.oracle_seconds.len(), 1);
        assert_eq!(report.speedups.len(), 1);
        assert_eq!(report.mc_rho_agreements, report.mc_trials);
        assert!(
            report.speedup_at_largest_oracle_n >= 2.0,
            "engine only {}x faster than the oracle at n = 400",
            report.speedup_at_largest_oracle_n
        );
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        assert!(json.contains("multihonest-bench-astar/v1"));
        assert!(json.contains("\"speedup_at_largest_oracle_n\""));
    }

    #[test]
    fn faults_bench_report_is_well_formed_and_conservative() {
        // A reduced version of the committed BENCH_faults.json run: the
        // dual-engine ledger equality and the Some(true) verdicts are
        // asserted inside the builder.
        let report = faults_bench_report(160, 4, &[8, 24], 2, 5);
        assert_eq!(report.schema, "multihonest-bench-faults/v1");
        assert_eq!(report.scenarios.len(), 7);
        assert_eq!(report.scenario_seconds.len(), 7);
        assert!(report.all_conservative);
        assert_eq!(report.equivalence_checked, 7);
        assert!(
            report.equivalence_deferred > 0,
            "the pre-check replays must exercise the fault path"
        );
        assert!(report.scenarios.iter().all(|s| s.dropped == 0));
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        assert!(json.contains("multihonest-bench-faults/v1"));
        assert!(json.contains("\"all_conservative\": true"));
        assert!(json.contains("partition-withholding"));
    }

    #[test]
    fn forkflow_bench_report_is_well_formed_and_streaming_wins() {
        // A reduced version of the committed BENCH_forkflow.json run: the
        // fork equality, verdict parity and per-step µ_x equivalence are
        // all asserted inside the builder. The committed baseline carries
        // the ≥ 10× headline at 10⁵ slots; at this reduced horizon the
        // margin is smaller and the box may be noisy, so assert a
        // conservative floor on the best of three runs.
        let report = (0..3)
            .map(|_| forkflow_bench_report(6_000, 3_000, 150, 7))
            .max_by(|a, b| {
                a.validation_speedup
                    .partial_cmp(&b.validation_speedup)
                    .expect("finite speedups")
            })
            .expect("three runs");
        assert_eq!(report.schema, "multihonest-bench-forkflow/v1");
        assert!(report.streaming_valid);
        assert!(report.streaming_vertices > 0);
        assert!(
            report.streaming_margin_events > 0,
            "the margin channel must fire"
        );
        assert_eq!(report.mu_cuts, vec![0, 37, 75]);
        assert_eq!(report.mu_checks, 150 * 3);
        assert!(
            report.validation_speedup >= 2.0,
            "streaming validation only {}x faster than replay-then-validate",
            report.validation_speedup
        );
        assert!(
            report.mu_speedup >= 2.0,
            "tracked µ_x only {}x faster than the per-step rebuild",
            report.mu_speedup
        );
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        assert!(json.contains("multihonest-bench-forkflow/v1"));
        assert!(json.contains("\"validation_speedup\""));
        assert!(json.contains("\"streaming_valid\": true"));
    }

    #[test]
    fn bound_vs_exact_ordering() {
        for row in bound_vs_exact(&[30, 60]) {
            assert!(row.exact <= row.theorem1 + 1e-12, "{row:?}");
            // The series tail is itself an upper bound on the exact DP
            // (no uniquely honest Catalan slot is necessary for violation).
            assert!(row.exact <= row.bound1_series + 1e-9, "{row:?}");
        }
    }

    #[test]
    fn threshold_rows_cover_exclusive_region() {
        let rows = threshold_experiment(60);
        assert!(rows.iter().all(|r| r.optimal));
        assert!(rows.iter().any(|r| !r.snow_white));
        assert!(rows.iter().any(|r| r.snow_white && !r.praos));
        // Error at fixed k worsens as h-mass shifts to H.
        let first = rows.first().unwrap(); // p_h = 0
        let last = rows.last().unwrap(); // p_h = 1 − p_A
        assert!(last.exact_at_k <= first.exact_at_k);
    }

    #[test]
    fn delta_rows_weaken_with_delay() {
        let rows = delta_experiment(40, 400);
        for pair in rows.windows(2) {
            assert!(pair[0].theorem7 <= pair[1].theorem7 + 1e-12);
            assert!(pair[0].effective_epsilon >= pair[1].effective_epsilon - 1e-12);
        }
    }
}
