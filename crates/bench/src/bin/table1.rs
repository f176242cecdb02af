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
//! # worker threads for the (α, ratio) fan-out (default: all cores):
//! cargo run -p multihonest-bench --release --bin table1 -- --threads 4
//! ```

use multihonest_bench::cli::{known_positionals, or_usage, positive_flag, reject_unknown_flags};
use multihonest_bench::{
    default_threads, generate_table1_threads, render_table1, TABLE1_ALPHAS, TABLE1_KS,
    TABLE1_RATIOS,
};

const USAGE: &str = "table1 [--quick] [--json] [--threads <n>]";

const KNOWN_FLAGS: [&str; 3] = ["--quick", "--json", "--threads"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    or_usage(known_positionals(&args, &["--threads"], &[]), USAGE);
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let threads =
        or_usage(positive_flag(&args, "--threads"), USAGE).unwrap_or_else(default_threads);

    let (alphas, ratios, ks): (Vec<f64>, Vec<f64>, Vec<usize>) = if quick {
        (vec![0.10, 0.30, 0.40], vec![1.0, 0.5], vec![100, 200])
    } else {
        (
            TABLE1_ALPHAS.to_vec(),
            TABLE1_RATIOS.to_vec(),
            TABLE1_KS.to_vec(),
        )
    };

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
