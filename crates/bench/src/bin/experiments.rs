//! The experiment harness: regenerates the quantitative comparisons E6–E10
//! of DESIGN.md (all paper artifacts beyond Table 1 and the figures).
//!
//! ```bash
//! cargo run -p multihonest-bench --release --bin experiments            # all, text
//! cargo run -p multihonest-bench --release --bin experiments -- --quick
//! cargo run -p multihonest-bench --release --bin experiments -- tiebreak --json
//! ```
//!
//! Sections: `bound-vs-exact`, `tiebreak`, `delta-sync`, `thresholds`,
//! `catalan-tails`. `--threads N` bounds the worker fan-out of the
//! DP-heavy sections (default: all cores).

use multihonest_bench as bench;
use multihonest_bench::cli::{known_positionals, or_usage, positive_flag, reject_unknown_flags};

const USAGE: &str = "experiments [--quick] [--json] [--threads <n>] [experiment-names...]";

const KNOWN_FLAGS: [&str; 3] = ["--quick", "--json", "--threads"];

const SECTIONS: [&str; 5] = [
    "bound-vs-exact",
    "tiebreak",
    "delta-sync",
    "thresholds",
    "catalan-tails",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    let wanted = or_usage(known_positionals(&args, &["--threads"], &SECTIONS), USAGE);
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let threads =
        or_usage(positive_flag(&args, "--threads"), USAGE).unwrap_or_else(bench::default_threads);
    let run = |name: &str| wanted.is_empty() || wanted.contains(&name);

    if run("bound-vs-exact") {
        let ks: Vec<usize> = if quick {
            vec![40, 80]
        } else {
            vec![50, 100, 200, 400]
        };
        let rows = bench::bound_vs_exact_threads(&ks, threads);
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&rows).expect("serializable")
            );
        } else {
            println!("== E6: exact settlement probability vs Theorem-1 machinery ==");
            println!("  ε   p_h    k |      exact | Bound1 series | Theorem 1");
            for r in rows {
                println!(
                    "{:4} {:5} {:4} | {:10.3e} | {:13.3e} | {:9.3e}",
                    r.epsilon, r.p_h, r.k, r.exact, r.bound1_series, r.theorem1
                );
            }
            println!();
        }
    }

    if run("tiebreak") {
        let (trials, sims) = if quick { (4_000, 3) } else { (20_000, 10) };
        let rows = bench::tiebreak_experiment(trials, sims);
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&rows).expect("serializable")
            );
        } else {
            println!("== E7: consistent tie-breaking, p_h = 0 (Theorem 2) ==");
            println!("  ε    k | Theorem 2 | MC no-pair | sim div (A0) | sim div (A0')");
            for r in rows {
                println!(
                    "{:4} {:4} | {:9.3e} | {:10.4} | {:12.1} | {:13.1}",
                    r.epsilon,
                    r.k,
                    r.theorem2,
                    r.mc_no_consecutive_catalan,
                    r.sim_divergence_adversarial_ties,
                    r.sim_divergence_consistent
                );
            }
            println!();
        }
    }

    if run("delta-sync") {
        let (k, slots) = if quick { (30, 400) } else { (60, 2_000) };
        let rows = bench::delta_experiment(k, slots);
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&rows).expect("serializable")
            );
        } else {
            println!("== E8: Δ-synchronous setting (Theorem 7) ==");
            println!("  Δ |   ε_Δ   | Theorem 7 (k={k}) | sim violations");
            for r in rows {
                println!(
                    "{:3} | {:7.4} | {:16.3e} | {:14}",
                    r.delta, r.effective_epsilon, r.theorem7, r.sim_violations
                );
            }
            println!();
        }
    }

    if run("thresholds") {
        let k = if quick { 50 } else { 100 };
        let rows = bench::threshold_experiment_threads(k, threads);
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&rows).expect("serializable")
            );
        } else {
            println!("== E9: threshold comparison at p_A = 0.40 (paper Section 1) ==");
            println!("  p_h   p_H | ours | Praos | SnowWhite | exact err at k={k}");
            for r in rows {
                println!(
                    "{:5.2} {:5.2} | {:4} | {:5} | {:9} | {:12.3e}",
                    r.p_h, r.p_hh, r.optimal, r.praos, r.snow_white, r.exact_at_k
                );
            }
            println!();
        }
    }

    if run("catalan-tails") {
        let trials = if quick { 4_000 } else { 40_000 };
        let rows = bench::catalan_tail_experiment(trials);
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&rows).expect("serializable")
            );
        } else {
            println!("== E10: Catalan-slot rarity, Monte Carlo vs series tails ==");
            println!("  ε   p_h    k | MC unique | Bound1 | MC consec | Bound2");
            for r in rows {
                println!(
                    "{:4} {:5} {:4} | {:9.4} | {:6.4} | {:9.4} | {:6.4}",
                    r.epsilon,
                    r.p_h,
                    r.k,
                    r.mc_unique,
                    r.bound1_series,
                    r.mc_consecutive,
                    r.bound2_series
                );
            }
            println!();
        }
    }
}
