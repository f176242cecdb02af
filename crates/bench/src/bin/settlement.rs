//! The simulator settlement sweep: observed `(s, k)`-violations of the
//! canonical withholding execution, computed through the indexed
//! consistency-query layer.
//!
//! ```bash
//! # the sweep table (2000-slot withholding config, several k):
//! cargo run -p multihonest-bench --release --bin settlement
//! # reduced 600-slot grid:
//! cargo run -p multihonest-bench --release --bin settlement -- --quick
//! ```

use multihonest::prelude::*;
use multihonest_bench::cli::{known_positionals, or_usage, parsed_flag, reject_unknown_flags};

const USAGE: &str = "settlement [--quick] [--seed <u64>]";

const KNOWN_FLAGS: [&str; 2] = ["--quick", "--seed"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    or_usage(known_positionals(&args, &["--seed"], &[]), USAGE);
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(9);
    let cfg = SimConfig {
        honest_nodes: 10,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.25,
        delta: 2,
        slots: if quick { 600 } else { 2_000 },
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    };
    let ks: Vec<usize> = vec![5, 10, 20, 40, 80, 160];

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
