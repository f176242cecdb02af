//! The optimal-adversary benchmark: canonical-fork builds through the
//! incremental engine vs the definitional oracle, plus the Monte-Carlo
//! margin/ρ sweep over long characteristic strings.
//!
//! ```bash
//! # canonical-fork Monte-Carlo statistics at a few horizons:
//! cargo run -p multihonest-bench --release --bin astar
//! # timing baseline for the perf trajectory (writes BENCH_astar.json):
//! cargo run -p multihonest-bench --release --bin astar -- bench-report
//! # reduced grid (CI smoke):
//! cargo run -p multihonest-bench --release --bin astar -- bench-report --quick --out /tmp/b.json
//! ```

use multihonest::adversary::CanonicalMonteCarlo;
use multihonest_bench::cli::{
    flag_value, known_positionals, or_usage, parsed_flag, positive_flag, reject_unknown_flags,
};
use multihonest_bench::{astar_bench_condition, astar_bench_report, default_threads};

const USAGE: &str = "astar [bench-report] [--quick] [--seed <u64>] [--threads <n>] [--out <path>]";

const KNOWN_FLAGS: [&str; 4] = ["--quick", "--seed", "--threads", "--out"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    let modes = or_usage(
        known_positionals(&args, &["--seed", "--threads", "--out"], &["bench-report"]),
        USAGE,
    );
    let quick = args.iter().any(|a| a == "--quick");
    let report_mode = modes.contains(&"bench-report");
    let seed: u64 = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(4);
    let threads =
        or_usage(positive_flag(&args, "--threads"), USAGE).unwrap_or_else(default_threads);
    // Quick-grid reports default to a separate file: BENCH_astar.json is
    // the committed full-grid baseline and must not be silently clobbered
    // with incomparable quick-grid numbers.
    let out_path = or_usage(flag_value(&args, "--out"), USAGE).unwrap_or(if quick {
        "BENCH_astar_quick.json"
    } else {
        "BENCH_astar.json"
    });

    if report_mode {
        let (ns, oracle_ns, mc_len, mc_trials): (&[usize], &[usize], usize, u64) = if quick {
            (&[100, 400], &[100, 400], 1_000, 8)
        } else {
            (&[200, 800, 3_000, 10_000], &[200, 800], 10_000, 32)
        };
        let report = astar_bench_report(ns, oracle_ns, mc_len, mc_trials, threads, seed);
        let payload = serde_json::to_string_pretty(&report).expect("serializable");
        std::fs::write(out_path, format!("{payload}\n")).expect("write bench report");
        eprintln!(
            "bench-report: n = {:?}, engine {:.2e}s at n = {}, {:.1}x vs oracle at n = {}, \
             MC {} trials at n = {} in {:.2}s (bit-identical forks, ρ agreements {}/{}) -> {}",
            report.ns,
            report.engine_seconds.last().unwrap(),
            report.ns.last().unwrap(),
            report.speedup_at_largest_oracle_n,
            report.oracle_ns.last().unwrap(),
            report.mc_trials,
            report.mc_len,
            report.mc_seconds,
            report.mc_rho_agreements,
            report.mc_trials,
            out_path
        );
        return;
    }

    // Default mode: the margin/ρ statistics of canonical forks over
    // sampled strings — the game-theoretic side of Table 1's settlement
    // story, at horizons the definitional path could never reach.
    let cond = astar_bench_condition();
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
