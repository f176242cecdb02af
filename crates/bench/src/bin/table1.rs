//! Regenerates paper Table 1 (experiment E1).
//!
//! ```bash
//! # quick subset (well under a second):
//! cargo run -p multihonest-bench --release --bin table1 -- --quick
//! # the full published grid (36 exact-DP passes, about 1 s of CPU time on a
//! # 2-vCPU Xeon, split over the worker threads):
//! cargo run -p multihonest-bench --release --bin table1
//! # machine-readable output:
//! cargo run -p multihonest-bench --release --bin table1 -- --quick --json
//! # timing baseline for the perf trajectory (writes BENCH_margin.json):
//! cargo run -p multihonest-bench --release --bin table1 -- bench-report
//! # (--out names the report file, so it is an error outside bench-report)
//! cargo run -p multihonest-bench --release --bin table1 -- bench-report --quick --out /tmp/b.json
//! # worker threads for the (α, ratio) fan-out (default: all cores):
//! cargo run -p multihonest-bench --release --bin table1 -- --threads 4
//! ```

use multihonest_bench::cli::{
    flag_value, known_positionals, or_usage, positive_flag, reject_flag_outside,
    reject_unknown_flags,
};
use multihonest_bench::{
    bench_report, default_threads, generate_table1_threads, render_table1, TABLE1_ALPHAS,
    TABLE1_KS, TABLE1_RATIOS,
};

const USAGE: &str = "table1 [bench-report] [--quick] [--json] [--threads <n>] [--out <path>]";

const KNOWN_FLAGS: [&str; 4] = ["--quick", "--json", "--threads", "--out"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    let modes = or_usage(
        known_positionals(&args, &["--threads", "--out"], &["bench-report"]),
        USAGE,
    );
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let report_mode = modes.contains(&"bench-report");
    or_usage(
        reject_flag_outside(&args, "--out", "bench-report", report_mode),
        USAGE,
    );
    let threads =
        or_usage(positive_flag(&args, "--threads"), USAGE).unwrap_or_else(default_threads);
    // Quick-grid reports default to a separate file: BENCH_margin.json is
    // the committed full-grid baseline and must not be silently clobbered
    // with incomparable quick-grid numbers.
    let out_path = or_usage(flag_value(&args, "--out"), USAGE).unwrap_or(if quick {
        "BENCH_margin_quick.json"
    } else {
        "BENCH_margin.json"
    });

    let (alphas, ratios, ks): (Vec<f64>, Vec<f64>, Vec<usize>) = if quick {
        (vec![0.10, 0.30, 0.40], vec![1.0, 0.5], vec![100, 200])
    } else {
        (
            TABLE1_ALPHAS.to_vec(),
            TABLE1_RATIOS.to_vec(),
            TABLE1_KS.to_vec(),
        )
    };

    if report_mode {
        let (cells, report) = bench_report(&alphas, &ratios, &ks, threads);
        let payload = serde_json::to_string_pretty(&report).expect("serializable");
        std::fs::write(out_path, format!("{payload}\n")).expect("write bench report");
        eprintln!(
            "bench-report: {} cells in {:.2}s ({:.1} cells/s, {} threads) -> {}",
            cells.len(),
            report.total_seconds,
            report.cells_per_second,
            report.threads,
            out_path
        );
        return;
    }

    let start = std::time::Instant::now();
    let cells = generate_table1_threads(&alphas, &ratios, &ks, threads);
    let elapsed = start.elapsed();

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&cells).expect("serializable")
        );
    } else {
        print!("{}", render_table1(&cells, &alphas, &ratios, &ks));
        eprintln!(
            "\n{} cells in {:.1?} (banded exact DP per (α, ratio) pair, {threads} thread(s))",
            cells.len(),
            elapsed
        );
        eprintln!(
            "note: published k = 500 row under-reports; see README.md, \"Reproduction findings\", F1"
        );
    }
}
