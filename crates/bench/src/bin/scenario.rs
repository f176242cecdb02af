//! The scenario engine's grid sweep: columnar million-slot executions
//! across the scenario library, with engine-equivalence enforcement.
//!
//! ```bash
//! # the scenario grid table (200k-slot rows, headline at 10^6 slots):
//! cargo run -p multihonest-bench --release --bin scenario
//! # reduced grid:
//! cargo run -p multihonest-bench --release --bin scenario -- --quick
//! # timing baseline for the perf trajectory (writes BENCH_scenario.json):
//! cargo run -p multihonest-bench --release --bin scenario -- bench-report
//! cargo run -p multihonest-bench --release --bin scenario -- bench-report --quick --out /tmp/b.json
//! # bounded-memory long-horizon run (eviction + optional WAL resume):
//! cargo run -p multihonest-bench --release --bin scenario -- horizon --slots 100000000 --wal /tmp/run.wal
//! ```

use multihonest::obs::{Heartbeat, ObsRecorder};
use multihonest::sim::{SimConfig, Strategy, TieBreak};
use multihonest_bench::cli::{
    flag_value, or_usage, parsed_flag, positive_flag, reject_unknown_flags,
};
use multihonest_scenario::{
    run_horizon, run_horizon_observed, scenario_bench_report, HorizonOptions, LeaderProbs,
    ScenarioBenchReport,
};

fn build_report(quick: bool, seed: u64, threads: usize) -> ScenarioBenchReport {
    let ks: Vec<usize> = vec![5, 20, 80];
    if quick {
        scenario_bench_report(600, 20_000, 100_000, seed, &ks, threads)
    } else {
        scenario_bench_report(2_000, 200_000, 1_000_000, seed, &ks, threads)
    }
}

const USAGE: &str = "scenario [bench-report | horizon] [--quick] [--seed <u64>] \
     [--threads <n>] [--out <path>] [--slots <n>] [--segment <n>] [--wal <path>] \
     [--trace <path>] [--events <path>] [--heartbeat <secs>]";

const KNOWN_FLAGS: [&str; 10] = [
    "--quick",
    "--seed",
    "--threads",
    "--out",
    "--slots",
    "--segment",
    "--wal",
    "--trace",
    "--events",
    "--heartbeat",
];

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
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "horizon") {
        let seed: u64 = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(9);
        run_horizon_cmd(&args, seed);
        return;
    }
    let report_mode = args.iter().any(|a| a == "bench-report");
    let seed: u64 = or_usage(parsed_flag(&args, "--seed"), USAGE).unwrap_or(9);
    let threads = or_usage(parsed_flag(&args, "--threads"), USAGE)
        .unwrap_or_else(multihonest_bench::default_threads);
    // Quick-grid reports default to a separate file: BENCH_scenario.json
    // is the committed full-grid baseline and must not be silently
    // clobbered with incomparable quick-grid numbers.
    let out_path = or_usage(flag_value(&args, "--out"), USAGE).unwrap_or(if quick {
        "BENCH_scenario_quick.json"
    } else {
        "BENCH_scenario.json"
    });

    let report = build_report(quick, seed, threads);

    if report_mode {
        let payload = serde_json::to_string_pretty(&report).expect("serializable");
        std::fs::write(out_path, format!("{payload}\n")).expect("write bench report");
        eprintln!(
            "bench-report: {} scenarios bit-identical at {} slots ({:.1}x vs reference); \
             {}-slot headline {:.2}s ({:.2} Mslots/s) -> {}",
            report.equivalence_scenarios,
            report.equivalence_slots,
            report.speedup,
            report.million_slots,
            report.million_run_seconds,
            report.million_slots_per_second / 1e6,
            out_path
        );
        return;
    }

    println!(
        "== scenario grid ({} slots per row, seed {seed}, {} threads) ==",
        report.grid_slots, report.threads
    );
    println!(
        "equivalence: {} scenarios bit-identical to sim::reference at {} slots \
         (reference {:.2}s vs columnar {:.3}s, {:.0}x)",
        report.equivalence_scenarios,
        report.equivalence_slots,
        report.reference_seconds,
        report.columnar_seconds,
        report.speedup
    );
    println!(
        "throughput headline: {} slots of private-withholding in {:.2}s ({:.2} Mslots/s)\n",
        report.million_slots,
        report.million_run_seconds,
        report.million_slots_per_second / 1e6
    );
    println!(
        "{:<24} | {:>8} | {:>9} | {:>7} | {:>9} | {:>7} | {:>8} | {:>12}",
        "scenario",
        "run s",
        "Mslots/s",
        "quality",
        "rollbacks",
        "max lag",
        "viol@k20",
        "fingerprint"
    );
    for row in &report.rows {
        println!(
            "{:<24} | {:>8.3} | {:>9.2} | {:>7.3} | {:>9} | {:>7} | {:>8} | {:>12x}",
            row.name,
            row.run_seconds,
            row.mslots_per_second,
            row.chain_quality,
            row.rollbacks,
            row.max_settlement_lag,
            row.violating_anchors[1],
            row.fingerprint
        );
    }
}
