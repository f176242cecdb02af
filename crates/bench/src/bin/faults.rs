//! The fault-injection robustness CLI: runs the Δ-conservatism harness
//! on every scenario of the canonical fault library (partitions,
//! eclipses, crash–recovery, windowed loss, and a compound chain) and
//! prints the verdict table.
//!
//! ```bash
//! # the full table:
//! cargo run -p multihonest-bench --release --bin faults
//! # reduced run:
//! cargo run -p multihonest-bench --release --bin faults -- --quick
//! ```
//!
//! The run exits 1 after the table if any scenario's verdict is not
//! conservative: its empirical violation frequency escaped a Δ′-model
//! prediction, or its plan had no Δ′ to predict with.

use multihonest_bench::cli::{
    known_positionals, or_usage, parsed_flag, positive_flag, reject_unknown_flags,
};
use multihonest_bench::{default_threads, fault_conservatism};

const USAGE: &str = "faults [--quick] [--seed <u64>] [--threads <n>] [--trials <n>]";

/// `--quick` first: every later flag takes a value.
const KNOWN_FLAGS: [&str; 4] = ["--quick", "--seed", "--threads", "--trials"];

/// A probability cell: the value, or `-` when the model has none.
fn prob(p: Option<f64>) -> String {
    p.map_or("-".to_string(), |p| format!("{p:.3e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    or_usage(known_positionals(&args, &KNOWN_FLAGS[1..], &[]), USAGE);
    let quick = args.iter().any(|a| a == "--quick");

    // Full run: the same horizon as the scenario fingerprint pins; enough
    // trials for the empirical frequencies to mean something. Quick run:
    // the smallest grid that still activates every fault window.
    let (slots, default_trials, ks): (usize, u64, &[usize]) = if quick {
        (160, 8, &[8, 24])
    } else {
        (400, 48, &[8, 16, 32])
    };
    let trials =
        or_usage(positive_flag(&args, "--trials"), USAGE).map_or(default_trials, |t| t as u64);
    let seed = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(0xC0FFEE);
    let threads =
        or_usage(positive_flag(&args, "--threads"), USAGE).unwrap_or_else(default_threads);

    let verdicts = fault_conservatism(slots, trials, ks, threads, seed);
    println!(
        "== Δ′-model conservatism ({slots} slots, {trials} trials per scenario, seed {seed}) =="
    );
    println!(
        "{:<24} | {:>2} | {:>2} | {:>8} | {:>3} | {:>10} | {:>10} | {:>10}",
        "scenario", "Δ", "Δ′", "deferred", "k", "per-anchor", "exact Δ′", "Theorem 7"
    );
    for v in &verdicts {
        for row in &v.rows {
            println!(
                "{:<24} | {:>2} | {:>2} | {:>8} | {:>3} | {:>10.3e} | {:>10} | {:>10}",
                v.scenario,
                v.delta,
                v.delta_prime.map_or("-".to_string(), |d| d.to_string()),
                v.deferred,
                row.k,
                row.per_anchor_frequency,
                prob(row.exact_reduced),
                prob(row.theorem7_bound)
            );
        }
    }
    let mut failed = false;
    for v in verdicts.iter().filter(|v| v.conservative != Some(true)) {
        eprintln!(
            "error: '{}' is not conservative under the Δ′ model (verdict {:?})",
            v.scenario, v.conservative
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
