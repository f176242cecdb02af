//! Canonical-fork Monte Carlo: the optimal adversary's margin and reach
//! statistics over long sampled characteristic strings, with every
//! trial's game-side ρ checked against the recurrence (Theorem 6).
//!
//! ```bash
//! # canonical-fork Monte-Carlo statistics at a few horizons:
//! cargo run -p multihonest-bench --release --bin astar
//! # reduced grid:
//! cargo run -p multihonest-bench --release --bin astar -- --quick
//! ```

use multihonest::adversary::CanonicalMonteCarlo;
use multihonest::chars::BernoulliCondition;
use multihonest_bench::cli::{
    known_positionals, or_usage, parsed_flag, positive_flag, reject_unknown_flags,
};
use multihonest_bench::default_threads;

const USAGE: &str = "astar [--quick] [--seed <u64>] [--threads <n>]";

const KNOWN_FLAGS: [&str; 3] = ["--quick", "--seed", "--threads"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    or_usage(
        known_positionals(&args, &["--seed", "--threads"], &[]),
        USAGE,
    );
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(4);
    let threads =
        or_usage(positive_flag(&args, "--threads"), USAGE).unwrap_or_else(default_threads);

    // The margin/ρ statistics of canonical forks over sampled strings —
    // the game-theoretic side of Table 1's settlement story, at horizons
    // the definitional path could never reach.
    let cond = BernoulliCondition::new(0.2, 0.4).expect("valid condition");
    let trials = if quick { 8 } else { 48 };
    println!(
        "== canonical-fork Monte Carlo (ε = {}, p_h = {}, {} trials/row, {} threads) ==",
        cond.epsilon(),
        cond.p_unique_honest(),
        trials,
        threads
    );
    println!(
        "{:>7} | {:>9} | {:>8} | {:>12} | {:>13} | {:>12}",
        "n", "mean ρ", "max ρ", "mean µ_ε(w)", "µ_ε(w) ≥ 0", "ρ agreement"
    );
    let lens: &[usize] = if quick {
        &[500, 2_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &len in lens {
        let s = CanonicalMonteCarlo::new(cond, trials, seed)
            .with_threads(threads)
            .summary(len);
        println!(
            "{:>7} | {:>9.3} | {:>8} | {:>12.3} | {:>10}/{:<2} | {:>9}/{:<2}",
            len,
            s.mean_rho,
            s.max_rho,
            s.mean_margin,
            s.nonneg_margin_trials,
            s.trials,
            s.rho_agreements,
            s.trials
        );
    }
}
