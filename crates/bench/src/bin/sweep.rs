//! The campaign sweep orchestrator CLI: deterministic seeded campaigns
//! over the (strategy × Δ × stake-profile) grid with checkpointed
//! resume.
//!
//! ```bash
//! # the full default campaign (24 cells × 4200 trials ≈ 10^5 executions):
//! cargo run -p multihonest-bench --release --bin sweep
//! # reduced grid:
//! cargo run -p multihonest-bench --release --bin sweep -- --quick
//! # checkpointed + resumable (rerun the same line after an interrupt):
//! cargo run -p multihonest-bench --release --bin sweep -- --checkpoint sweep.ckpt.json
//! ```
//!
//! An interrupted checkpointed run (`--stop-after-cells`, or an actual
//! kill) exits cleanly without writing a report; rerunning the same
//! command resumes from the checkpoint and produces a report
//! byte-identical to an uninterrupted run. `--stop-after-cells` without
//! `--checkpoint` is an error: the completed cells would be discarded.

use std::path::PathBuf;

use multihonest::obs::{Heartbeat, ObsRecorder};
use multihonest_bench::cli::{
    flag_value, known_positionals, or_usage, parsed_flag, positive_flag, reject_flag_outside,
    reject_unknown_flags,
};
use multihonest_bench::default_threads;
use multihonest_sweep::{
    campaign_report, report_csv, report_json, run_campaign, run_campaign_observed, CampaignSpec,
    RunOptions,
};

const USAGE: &str = "sweep [--quick] [--seed <u64>] [--threads <n>] \
                     [--out <path>] [--csv <path>] [--checkpoint <path>] \
                     [--stop-after-cells <n>] [--trace <path>] [--heartbeat <secs>]";

/// `--quick` first: every later flag takes a value.
const KNOWN_FLAGS: [&str; 9] = [
    "--quick",
    "--seed",
    "--threads",
    "--out",
    "--csv",
    "--checkpoint",
    "--stop-after-cells",
    "--trace",
    "--heartbeat",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    or_usage(reject_unknown_flags(&args, &KNOWN_FLAGS), USAGE);
    or_usage(known_positionals(&args, &KNOWN_FLAGS[1..], &[]), USAGE);
    let quick = args.iter().any(|a| a == "--quick");

    let mut spec = if quick {
        CampaignSpec::quick_grid()
    } else {
        CampaignSpec::default_grid()
    };
    if let Some(seed) = or_usage(parsed_flag(&args, "--seed"), USAGE) {
        spec.seed = seed;
    }
    let threads =
        or_usage(positive_flag(&args, "--threads"), USAGE).unwrap_or_else(default_threads);
    let checkpoint: Option<PathBuf> =
        or_usage(flag_value(&args, "--checkpoint"), USAGE).map(PathBuf::from);
    or_usage(
        reject_flag_outside(
            &args,
            "--stop-after-cells",
            "--checkpoint",
            checkpoint.is_some(),
        ),
        USAGE,
    );
    let stop_after_cells: Option<usize> = or_usage(parsed_flag(&args, "--stop-after-cells"), USAGE);
    let csv_path = or_usage(flag_value(&args, "--csv"), USAGE);
    let out_path = or_usage(flag_value(&args, "--out"), USAGE).unwrap_or(if quick {
        "sweep_campaign_quick.json"
    } else {
        "sweep_campaign.json"
    });

    let trace_path = or_usage(flag_value(&args, "--trace"), USAGE).map(PathBuf::from);
    let heartbeat_secs: Option<u64> = or_usage(parsed_flag(&args, "--heartbeat"), USAGE);

    let opts = RunOptions {
        threads,
        checkpoint: checkpoint.clone(),
        stop_after_cells,
    };
    // Observability is opt-in: without --trace/--heartbeat the campaign
    // takes the plain path (no per-worker shards, no span events).
    let observing = trace_path.is_some() || heartbeat_secs.is_some();
    let mut rec = ObsRecorder::new();
    let mut hb = heartbeat_secs.map(Heartbeat::new);
    let run = if observing {
        run_campaign_observed(&spec, &opts, Some(&mut rec), hb.as_mut())
    } else {
        run_campaign(&spec, &opts)
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &trace_path {
        std::fs::write(path, rec.chrome_trace_json()).expect("write Chrome trace");
        eprintln!(
            "trace: {} span events from {} workers -> {} (load in chrome://tracing or Perfetto)",
            rec.events().len(),
            threads,
            path.display()
        );
    }

    if !outcome.is_complete() {
        // Interrupted (only reachable via --stop-after-cells or a flush
        // failure upgraded to an error above): the checkpoint holds the
        // completed prefix, so the same command line resumes the rest.
        eprintln!(
            "campaign interrupted: {}/{} cells complete ({} resumed, {} executions this run); \
             rerun with the same --checkpoint to resume",
            outcome.completed_cells,
            spec.cell_count(),
            outcome.resumed_cells,
            outcome.executions_run,
        );
        return;
    }

    let report = campaign_report(&spec, &outcome);
    std::fs::write(out_path, report_json(&report)).expect("write campaign report");
    if let Some(path) = csv_path {
        std::fs::write(path, report_csv(&report)).expect("write campaign CSV");
    }
    eprintln!(
        "campaign complete: {} executions over {} cells ({} resumed) -> {}",
        report.executions, report.completed_cells, outcome.resumed_cells, out_path
    );
}
