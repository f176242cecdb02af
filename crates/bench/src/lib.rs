//! Shared experiment code for the `table1`, `experiments`, `scenario` and
//! `faults` binaries.
//!
//! Every artifact of the paper's evaluation maps to a function here (see
//! the experiment index in README.md, "Experiments"); the binaries are
//! thin clients that format the returned structures as text or JSON.

use serde::Serialize;

use multihonest::chars::{BernoulliCondition, SemiSyncCondition};
use multihonest::margin::ExactSettlement;
use multihonest::prelude::*;

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
    let pairs: Vec<(f64, f64)> = ratios
        .iter()
        .flat_map(|&ratio| alphas.iter().map(move |&alpha| (alpha, ratio)))
        .collect();
    run_jobs(pairs.len(), threads, |i| {
        let (alpha, ratio) = pairs[i];
        let exact = ExactSettlement::new(table1_condition(alpha, ratio));
        let ps = exact.violation_probabilities(ks);
        ks.iter()
            .zip(&ps)
            .map(|(&k, &probability)| Table1Cell {
                alpha,
                ratio,
                k,
                probability,
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
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

    /// Fails if `flag` is given while `mode` is not selected — catches a
    /// flag only `mode` reads (`--wal` without `horizon`) before it is
    /// silently dropped.
    pub fn reject_flag_outside(
        args: &[String],
        flag: &str,
        mode: &str,
        in_mode: bool,
    ) -> Result<(), CliError> {
        if !in_mode && args.iter().any(|a| a == flag) {
            return Err(CliError(format!("{flag} is only valid with {mode}")));
        }
        Ok(())
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

        #[test]
        fn mode_only_flags_are_caught_outside_their_mode() {
            let a = args(&["--quick", "--wal", "run.wal"]);
            assert_eq!(reject_flag_outside(&a, "--wal", "horizon", true), Ok(()));
            let err = reject_flag_outside(&a, "--wal", "horizon", false).unwrap_err();
            assert_eq!(err.to_string(), "--wal is only valid with horizon");
            assert_eq!(
                reject_flag_outside(&args(&["--quick"]), "--wal", "horizon", false),
                Ok(())
            );
        }
    }
}

/// One row of the scenario grid: a columnar run of one
/// [`scenario_library`](multihonest_scenario::scenario_library) scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Scenario name (unique within the library).
    pub name: &'static str,
    /// Chain quality (honest fraction of the final chain).
    pub chain_quality: f64,
    /// Recorded honest rollbacks.
    pub rollbacks: usize,
    /// Largest observed settlement lag (`None` when no divergence was
    /// ever observed).
    pub max_settlement_lag: Option<usize>,
    /// Violating anchors at each of the grid's `ks`.
    pub violating_anchors: Vec<usize>,
    /// The execution fingerprint
    /// ([`execution_fingerprint`](multihonest_scenario::execution_fingerprint)).
    pub fingerprint: u64,
}

/// Runs every library scenario at `slots` on the columnar engine, fanned
/// out across `threads` workers; rows come back in library order and
/// are identical for every thread count (the `scenario` binary).
pub fn scenario_grid(slots: usize, seed: u64, ks: &[usize], threads: usize) -> Vec<ScenarioRow> {
    use multihonest_scenario::{execution_fingerprint, scenario_library, ColumnarSimulation};
    let library = scenario_library(slots);
    run_jobs(library.len(), threads, |i| {
        let sc = &library[i];
        let schedule = sc.schedule(seed);
        let mut strategy = sc.strategy();
        let sim = ColumnarSimulation::run_with_schedule(&sc.config, &schedule, strategy.as_mut());
        let m = sim.metrics();
        ScenarioRow {
            name: sc.name,
            chain_quality: m.chain_quality(),
            rollbacks: m.rollback_count,
            max_settlement_lag: m.max_settlement_lag,
            violating_anchors: ks
                .iter()
                .map(|&k| sim.count_violating_slots(k, slots))
                .collect(),
            fingerprint: execution_fingerprint(&sim),
        }
    })
}

/// The Δ′-model conservatism verdict of every
/// [`fault_library`](multihonest_scenario::fault_library) scenario at
/// `slots`, from `trials` seeded executions each
/// ([`check_conservatism`](multihonest_sweep::check_conservatism)),
/// fanned out across `threads` workers; verdicts come back in library
/// order and are identical for every thread count (the `faults` binary).
pub fn fault_conservatism(
    slots: usize,
    trials: u64,
    ks: &[usize],
    threads: usize,
    seed: u64,
) -> Vec<multihonest_sweep::ScenarioConservatism> {
    let library = multihonest_scenario::fault_library(slots);
    run_jobs(library.len(), threads, |i| {
        multihonest_sweep::check_conservatism(&library[i], trials, ks, seed)
    })
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
    fn scenario_grid_shows_withholding_biting() {
        // Both scenarios give the adversary stake, so neither has perfect
        // chain quality; only withholding rolls honest chains back at
        // depth and violates settlement at least as often.
        let rows = scenario_grid(400, 7, &[5, 20], 2);
        assert_eq!(rows.len(), multihonest_scenario::scenario_library(1).len());
        let honest = rows.iter().find(|r| r.name == "honest").unwrap();
        let wh = rows
            .iter()
            .find(|r| r.name == "private-withholding")
            .unwrap();
        assert!(wh.chain_quality < 1.0);
        assert!(wh.rollbacks > 0);
        assert!(
            wh.violating_anchors[1] >= honest.violating_anchors[1],
            "withholding must violate at least as much as honest play: {:?} vs {:?}",
            wh.violating_anchors,
            honest.violating_anchors
        );
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
