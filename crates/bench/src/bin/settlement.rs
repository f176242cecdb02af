//! The simulator settlement sweep: observed `(s, k)`-violations of the
//! canonical withholding execution, computed through the indexed
//! consistency-query layer.
//!
//! ```bash
//! # the sweep table (2000-slot withholding config, several k):
//! cargo run -p multihonest-bench --release --bin settlement
//! # reduced 600-slot grid:
//! cargo run -p multihonest-bench --release --bin settlement -- --quick
//! # timing baseline for the perf trajectory (writes BENCH_sim.json):
//! cargo run -p multihonest-bench --release --bin settlement -- bench-report
//! cargo run -p multihonest-bench --release --bin settlement -- bench-report --quick --out /tmp/b.json
//! ```

use multihonest::prelude::*;
use multihonest_bench::cli::{
    flag_value, known_positionals, or_usage, parsed_flag, reject_unknown_flags,
};
use multihonest_bench::{sim_bench_config, sim_bench_report};

const USAGE: &str = "settlement [bench-report] [--quick] [--seed <u64>] [--out <path>]";

const KNOWN_FLAGS: [&str; 3] = ["--quick", "--seed", "--out"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    let modes = or_usage(
        known_positionals(&args, &["--seed", "--out"], &["bench-report"]),
        USAGE,
    );
    let quick = args.iter().any(|a| a == "--quick");
    let report_mode = modes.contains(&"bench-report");
    let seed: u64 = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(9);
    // Quick-grid reports default to a separate file: BENCH_sim.json is the
    // committed full-grid baseline and must not be silently clobbered with
    // incomparable quick-grid numbers.
    let out_path = or_usage(flag_value(&args, "--out"), USAGE).unwrap_or(if quick {
        "BENCH_sim_quick.json"
    } else {
        "BENCH_sim.json"
    });
    let cfg = sim_bench_config(if quick { 600 } else { 2_000 });
    let ks: Vec<usize> = vec![5, 10, 20, 40, 80, 160];

    if report_mode {
        let report = sim_bench_report(&cfg, seed, &ks);
        let payload = serde_json::to_string_pretty(&report).expect("serializable");
        std::fs::write(out_path, format!("{payload}\n")).expect("write bench report");
        eprintln!(
            "bench-report: {} slots, run {:.3}s, sweep {:.2e}s indexed vs {:.2e}s oracle \
             ({:.0}x, bit-identical) -> {}",
            report.slots,
            report.run_seconds,
            report.indexed_sweep_seconds,
            report.oracle_sweep_seconds,
            report.sweep_speedup,
            out_path
        );
        return;
    }

    let sim = Simulation::run(&cfg, seed);
    let m = sim.metrics();
    println!(
        "== observed settlement violations ({} slots, {} strategy, Δ = {}) ==",
        cfg.slots, cfg.strategy, cfg.delta
    );
    println!(
        "growth {:.3}, quality {:.3}, max slot divergence {}, max settlement lag {:?}\n",
        m.chain_growth(),
        m.chain_quality(),
        m.max_slot_divergence,
        m.max_settlement_lag
    );
    println!(
        "{:>5} | {:>15} | {:>20}",
        "k", "violated anchors", "first violating slot"
    );
    for &k in &ks {
        let violated = sim.count_violating_slots(k, cfg.slots);
        println!(
            "{k:>5} | {violated:>15} | {:>20}",
            sim.first_violating_slot(k)
                .map_or("-".to_string(), |s| s.to_string())
        );
    }
}
