//! The fault-injection robustness CLI: replays the canonical fault
//! library (partitions, eclipses, crash–recovery, windowed loss, and a
//! compound chain) through both engines, then runs the Δ-conservatism
//! harness per scenario and writes the verdict table.
//!
//! ```bash
//! # the full baseline (writes BENCH_faults.json):
//! cargo run -p multihonest-bench --release --bin faults
//! # reduced CI smoke run:
//! cargo run -p multihonest-bench --release --bin faults -- --quick
//! cargo run -p multihonest-bench --release --bin faults -- --quick --out /tmp/f.json
//! ```
//!
//! The run aborts (rather than writing a report) if the two engines
//! disagree on any degradation ledger or if any scenario's empirical
//! violation frequency escapes its Δ′-model prediction — the committed
//! baseline always certifies a conservative fault layer.

use multihonest_bench::cli::{
    flag_value, known_positionals, or_usage, parsed_flag, positive_flag, reject_unknown_flags,
};
use multihonest_bench::{default_threads, faults_bench_report};

const USAGE: &str = "faults [--quick] [--seed <u64>] [--threads <n>] [--trials <n>] [--out <path>]";

/// `--quick` first: every later flag takes a value.
const KNOWN_FLAGS: [&str; 5] = ["--quick", "--seed", "--threads", "--trials", "--out"];

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
    // Quick-run reports default to a separate file: BENCH_faults.json is
    // the committed full baseline and must not be silently clobbered
    // with incomparable quick-run numbers.
    let out_path = or_usage(flag_value(&args, "--out"), USAGE).unwrap_or(if quick {
        "BENCH_faults_quick.json"
    } else {
        "BENCH_faults.json"
    });

    let report = faults_bench_report(slots, trials, ks, threads, seed);
    let payload = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(out_path, format!("{payload}\n")).expect("write faults report");
    eprintln!(
        "faults: engine equivalence OK ({} scenarios, {} deferred, {:.2}s); \
         conservatism OK ({} scenarios x {} trials, ks {:?}) in {:.2}s on {} threads -> {}",
        report.equivalence_checked,
        report.equivalence_deferred,
        report.equivalence_seconds,
        report.scenarios.len(),
        report.trials_per_scenario,
        report.ks,
        report.total_seconds,
        report.threads,
        out_path
    );
}
