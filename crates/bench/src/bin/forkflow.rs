//! The streaming-fork-pipeline CLI: times online Δ-axiom validation
//! against the retired replay-then-validate baseline and the tracked
//! µ_x cuts against a per-step `ReachAnalysis` rebuild, then writes the
//! timing record.
//!
//! ```bash
//! # the full baseline (writes BENCH_forkflow.json):
//! cargo run -p multihonest-bench --release --bin forkflow
//! # reduced CI smoke run:
//! cargo run -p multihonest-bench --release --bin forkflow -- --quick
//! cargo run -p multihonest-bench --release --bin forkflow -- --quick --out /tmp/f.json
//! ```
//!
//! The run aborts (rather than writing a report) if the streamed fork
//! differs from the reference extraction, the online verdict disagrees
//! with the batch oracle, or any tracked µ_x disagrees with the rebuild
//! — the committed baseline always certifies an equivalent pipeline.

use multihonest_bench::cli::{
    flag_value, known_positionals, or_usage, parsed_flag, positive_flag, reject_unknown_flags,
};
use multihonest_bench::forkflow_bench_report;

const USAGE: &str = "forkflow [--quick] [--seed <u64>] [--slots <n>] [--out <path>]";

const KNOWN_FLAGS: [&str; 4] = ["--quick", "--seed", "--slots", "--out"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    or_usage(known_positionals(&args, &KNOWN_FLAGS[1..], &[]), USAGE);
    let quick = args.iter().any(|a| a == "--quick");

    // Full run: the million-slot headline plus the 10⁵-slot common-horizon
    // comparison (the acceptance criterion of the streaming refactor).
    // Quick run: the smallest grid that still exercises every path.
    // The validation comparison runs at the full headline horizon — the
    // batch (F4Δ) sweep is quadratic in the honest-slot count, which is
    // exactly the scale gate the streaming pipeline removes. µ_x
    // comparison lengths stay small: the rebuild baseline is the
    // definitional O(V²) pair scan per step — cubic in the horizon.
    let (default_slots, baseline_slots, mu_len) = if quick {
        (20_000, 10_000, 150)
    } else {
        (1_000_000, 1_000_000, 600)
    };
    let slots = or_usage(positive_flag(&args, "--slots"), USAGE).unwrap_or(default_slots);
    let seed = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(0xF0_12D);
    // Quick-run reports default to a separate file: BENCH_forkflow.json
    // is the committed full baseline and must not be silently clobbered
    // with incomparable quick-run numbers.
    let out_path = or_usage(flag_value(&args, "--out"), USAGE).unwrap_or(if quick {
        "BENCH_forkflow_quick.json"
    } else {
        "BENCH_forkflow.json"
    });

    let report = forkflow_bench_report(slots, baseline_slots, mu_len, seed);
    let payload = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(out_path, format!("{payload}\n")).expect("write forkflow report");
    eprintln!(
        "forkflow: streamed {} slots in {:.3}s ({:.2e} slots/s, verdict Ok, {} margin events); \
         validation {:.1}x vs replay at {} slots; tracked u_x {:.1}x vs rebuild \
         ({} checks at n = {}) -> {}",
        report.streaming_slots,
        report.streaming_seconds,
        report.streaming_slots_per_second,
        report.streaming_margin_events,
        report.validation_speedup,
        report.baseline_slots,
        report.mu_speedup,
        report.mu_checks,
        report.mu_len,
        out_path
    );
}
