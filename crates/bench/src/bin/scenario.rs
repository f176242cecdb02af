//! The scenario engine's grid sweep over the scenario library, and the
//! bounded-memory long-horizon run.
//!
//! ```bash
//! # the scenario grid table (200k-slot rows):
//! cargo run -p multihonest-bench --release --bin scenario
//! # reduced grid:
//! cargo run -p multihonest-bench --release --bin scenario -- --quick
//! # bounded-memory long-horizon run (eviction + optional WAL resume):
//! cargo run -p multihonest-bench --release --bin scenario -- horizon --slots 100000000 --wal /tmp/run.wal
//! ```

use multihonest::obs::{Heartbeat, ObsRecorder};
use multihonest::sim::{SimConfig, Strategy, TieBreak};
use multihonest_bench::cli::{
    flag_value, known_positionals, or_usage, parsed_flag, positive_flag, reject_flag_outside,
    reject_unknown_flags,
};
use multihonest_bench::{default_threads, scenario_grid};
use multihonest_scenario::{run_horizon, run_horizon_observed, HorizonOptions, LeaderProbs};

const USAGE: &str = "scenario [--quick] [--seed <u64>] [--threads <n>] | scenario horizon \
     [--seed <u64>] [--slots <n>] [--segment <n>] [--wal <path>] [--trace <path>] \
     [--events <path>] [--heartbeat <secs>]";

/// `--quick` first: every later flag takes a value.
const KNOWN_FLAGS: [&str; 9] = [
    "--quick",
    "--seed",
    "--threads",
    "--slots",
    "--segment",
    "--wal",
    "--trace",
    "--events",
    "--heartbeat",
];

/// The flags only the grid reads.
const GRID_FLAGS: [&str; 2] = ["--quick", "--threads"];

/// The flags only `horizon` reads.
const HORIZON_FLAGS: [&str; 6] = [
    "--slots",
    "--segment",
    "--wal",
    "--trace",
    "--events",
    "--heartbeat",
];

/// The settlement parameter of the grid's violation column.
const GRID_K: usize = 20;

/// The `horizon` subcommand: one bounded-memory long-horizon execution
/// of the canonical private-withholding shape, with settled-prefix
/// eviction and (optionally) WAL checkpointing — interrupt it and rerun
/// the same command line to resume.
fn run_horizon_cmd(args: &[String], seed: u64) {
    let slots = or_usage(positive_flag(args, "--slots"), USAGE).unwrap_or(100_000_000);
    let segment = or_usage(positive_flag(args, "--segment"), USAGE).unwrap_or(1 << 20);
    let wal = or_usage(flag_value(args, "--wal"), USAGE).map(std::path::PathBuf::from);
    let trace_path = or_usage(flag_value(args, "--trace"), USAGE).map(std::path::PathBuf::from);
    let events_path = or_usage(flag_value(args, "--events"), USAGE).map(std::path::PathBuf::from);
    let heartbeat_secs: Option<u64> = or_usage(parsed_flag(args, "--heartbeat"), USAGE);
    let config = SimConfig {
        honest_nodes: 10,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.25,
        delta: 2,
        slots,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    };
    let share = (1.0 - config.adversarial_stake) / config.honest_nodes as f64;
    let probs = LeaderProbs::weighted(
        &vec![share; config.honest_nodes],
        config.adversarial_stake,
        config.active_slot_coeff,
    );
    let opts = HorizonOptions {
        segment_slots: segment,
        ks: vec![16, 32, 64, 128],
        max_live_blocks: 0,
        wal,
    };
    // Observability is opt-in: without --trace/--events/--heartbeat the
    // run takes the plain path with the no-op `()` recorder.
    let observing = trace_path.is_some() || events_path.is_some() || heartbeat_secs.is_some();
    let mut rec = ObsRecorder::new();
    let mut hb = heartbeat_secs.map(Heartbeat::new);
    let start = std::time::Instant::now();
    let run = if observing {
        run_horizon_observed(&config, &probs, seed, &opts, &mut rec, hb.as_mut())
    } else {
        run_horizon(&config, &probs, seed, &opts)
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: horizon run failed: {e}");
            std::process::exit(1);
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    if let Some(path) = &trace_path {
        std::fs::write(path, rec.chrome_trace_json()).expect("write Chrome trace");
        eprintln!(
            "trace: {} span events -> {} (load in chrome://tracing or Perfetto)",
            rec.events().len(),
            path.display()
        );
    }
    if let Some(path) = &events_path {
        std::fs::write(path, rec.jsonl()).expect("write JSONL event stream");
        eprintln!("events: -> {}", path.display());
    }
    if let Some(at) = report.resumed_at {
        println!("resumed from WAL checkpoint at slot {at} of {slots}");
    }
    // The rate covers only what this process ran: a resumed prefix was
    // executed by an earlier one.
    let executed = slots - report.resumed_at.unwrap_or(0);
    println!(
        "horizon: {} slots in {seconds:.1}s ({:.2} Mslots/s wall, seed {seed}, segment {segment})",
        executed,
        executed as f64 / seconds.max(f64::MIN_POSITIVE) / 1e6
    );
    println!(
        "eviction: {} compactions, peak live blocks {} ({:.1} blocks/Mslot retained)",
        report.compactions,
        report.peak_live_blocks,
        report.peak_live_blocks as f64 / (slots as f64 / 1e6)
    );
    println!(
        "chain: height {}, {} blocks ({:.4} quality), {} rollbacks, max settlement lag {:?}",
        report.metrics.final_height,
        report.metrics.chain_blocks,
        report.metrics.chain_quality(),
        report.metrics.rollback_count,
        report.metrics.max_settlement_lag
    );
    for (i, &k) in opts.ks.iter().enumerate() {
        println!(
            "settlement: k={k:<4} violating anchors {:<12} first {:?}",
            report.violating_anchors[i], report.first_violation[i]
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    let modes = or_usage(
        known_positionals(&args, &KNOWN_FLAGS[1..], &["horizon"]),
        USAGE,
    );
    let horizon = modes.contains(&"horizon");
    for flag in HORIZON_FLAGS {
        or_usage(reject_flag_outside(&args, flag, "horizon", horizon), USAGE);
    }
    for flag in GRID_FLAGS {
        or_usage(
            reject_flag_outside(&args, flag, "the scenario grid", !horizon),
            USAGE,
        );
    }
    let seed: u64 = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(9);
    if horizon {
        run_horizon_cmd(&args, seed);
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let threads =
        or_usage(positive_flag(&args, "--threads"), USAGE).unwrap_or_else(default_threads);
    let slots = if quick { 20_000 } else { 200_000 };

    println!("== scenario grid ({slots} slots per row, seed {seed}) ==");
    println!(
        "{:<24} | {:>7} | {:>9} | {:>7} | {:>8} | {:>16}",
        "scenario",
        "quality",
        "rollbacks",
        "max lag",
        format!("viol@k{GRID_K}"),
        "fingerprint"
    );
    for row in scenario_grid(slots, seed, &[GRID_K], threads) {
        println!(
            "{:<24} | {:>7.3} | {:>9} | {:>7} | {:>8} | {:>16x}",
            row.name,
            row.chain_quality,
            row.rollbacks,
            row.max_settlement_lag
                .map_or("-".to_string(), |l| l.to_string()),
            row.violating_anchors[0],
            row.fingerprint
        );
    }
}
