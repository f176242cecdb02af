//! `campaign`: `run_campaign` over `CampaignSpec::default_grid()` — 24
//! cells, 10 nodes, f = 0.25, 1,000-slot executions — on 2 worker
//! threads, checkpointing to a file on disk, plus `campaign_report`.
//! Many short executions through reused arenas: per-execution fixed
//! costs, the work-stealing executor and the fsync'd checkpoint flushes
//! all weigh here. The seed is the campaign's root seed.

use std::path::{Path, PathBuf};
use std::time::Instant;

use multihonest::obs::{ObsRecorder, Recorder};
use multihonest::scenario::{ColumnarSchedule, ColumnarSimulation, ExecutionArena, LeaderProbs};
use multihonest::sweep::{
    campaign_report, run_campaign, run_campaign_observed, CampaignOutcome, CampaignReport,
    CampaignSpec, CellAggregate, Checkpoint, CompletedCell, RunOptions,
};

use crate::measure::{
    failed, file_len, finish_traced, fresh, median, p90, repeat_for, setup_median, span_stats,
    total_self_s, write_trace, Checks, Op, Outcome,
};
use crate::Args;

/// Trials per cell of the traced single-thread replays, which are
/// repeated until the checkpoint writes reach 100 samples.
const TRACED_TRIALS_PER_CELL: u64 = 256;
/// Traced replays per run: 5 × 24 checkpoint writes ≥ 100 samples.
const TRACED_REPLAYS: usize = 5;
/// Trials per cell of the set-up warm-up campaign.
const WARMUP_TRIALS_PER_CELL: u64 = 256;
const THREADS: usize = 2;
/// Trials per work unit, as in the executor (`sweep::run`).
const CHUNK: u64 = 64;

/// The default grid under root seed `seed`. The timed campaign keeps
/// the grid's own 4,200 trials per cell (100,800 executions): at fewer
/// trials the fsync'd flushes dominate, and their latency, which varies
/// with the disk's other load, would set the throughput.
fn spec(seed: u64, trials_per_cell: Option<u64>) -> CampaignSpec {
    let grid = CampaignSpec::default_grid();
    CampaignSpec {
        seed,
        trials_per_cell: trials_per_cell.unwrap_or(grid.trials_per_cell),
        ..grid
    }
}

fn options(checkpoint: Option<PathBuf>) -> RunOptions {
    RunOptions {
        threads: THREADS,
        checkpoint,
        stop_after_cells: None,
    }
}

/// Summed work counts of a finished campaign.
fn work_counts(outcome: &CampaignOutcome, checkpoint: &Path) -> Vec<(&'static str, u64)> {
    let aggs = || outcome.aggregates.iter().flatten();
    vec![
        ("executions", aggs().map(|a| a.trials).sum()),
        ("active_slots", aggs().map(|a| a.active_slots).sum()),
        ("rollbacks", aggs().map(|a| a.rollbacks).sum()),
        ("checkpoint_bytes", file_len(checkpoint)),
    ]
}

/// Output checks of one campaign: complete, nothing resumed, and the
/// checkpoint on disk holds exactly the run's aggregates.
fn check(
    spec: &CampaignSpec,
    outcome: &CampaignOutcome,
    report: &CampaignReport,
    path: &Path,
) -> Checks {
    let mut checks = Checks::default();
    checks.require(outcome.is_complete(), "campaign incomplete");
    checks.require(
        outcome.resumed_cells == 0,
        "campaign resumed from a stale checkpoint",
    );
    checks.require(
        outcome.executions_run == spec.executions(),
        "executions missing",
    );
    checks.require(
        report.completed_cells == spec.cell_count() as u64,
        "report incomplete",
    );
    let stored = Checkpoint::load(path, spec.fingerprint()).ok().flatten();
    let matches = stored.is_some_and(|c| {
        c.completed.len() == outcome.aggregates.len()
            && c.completed.iter().all(|d| {
                outcome.aggregates.get(d.cell as usize) == Some(&Some(d.aggregate.clone()))
            })
    });
    checks.require(matches, "checkpoint does not hold the run's aggregates");
    checks
}

/// Set-up: the spec from the seed and a small warm-up campaign on both
/// workers (no checkpoint) with its report.
fn setup(seed: u64) -> CampaignSpec {
    let warm = spec(seed, Some(WARMUP_TRIALS_PER_CELL));
    let outcome = run_campaign(&warm, &options(None)).expect("warm-up campaign without checkpoint");
    std::hint::black_box(campaign_report(&warm, &outcome));
    spec(seed, None)
}

/// Tracing off: executions per second of `run_campaign` plus
/// `campaign_report`.
pub fn timed(args: &Args, out: &mut Outcome) {
    let (setup_s, spec) = setup_median(|| setup(args.seed));
    out.timed_phase(
        "campaign",
        args.seconds,
        setup_s,
        spec.executions() as f64,
        |rep| {
            let path = fresh(args.workdir.join(format!("campaign-{rep}.ckpt")));
            let t0 = Instant::now();
            let run = run_campaign(&spec, &options(Some(path.clone())))
                .map(|outcome| (campaign_report(&spec, &outcome), outcome));
            let seconds = t0.elapsed().as_secs_f64();
            let (checks, counts) = match run {
                Ok((report, outcome)) => (
                    check(&spec, &outcome, &report, &path),
                    work_counts(&outcome, &path),
                ),
                Err(e) => (failed(&format!("run_campaign failed: {e}")), Vec::new()),
            };
            let _ = std::fs::remove_file(&path);
            Op {
                seconds,
                checks,
                counts,
            }
        },
    );
}

/// What one replay hands back.
struct Replay {
    outcome: CampaignOutcome,
    report: CampaignReport,
    /// Bytes written over all checkpoint flushes.
    bytes_written: u64,
}

/// The executor's work replayed on one thread through the layers'
/// public calls, one span per call: units of [`CHUNK`] trials, the
/// schedule resample, kernel run and aggregate fold per execution, a
/// checkpoint flush of every completed cell when a cell completes (as
/// the executor does), and the report.
fn replay<R: Recorder>(spec: &CampaignSpec, path: &Path, rec: &mut R) -> std::io::Result<Replay> {
    let cells = spec.cells();
    let mut arena = ExecutionArena::new();
    let mut schedule = ColumnarSchedule::empty();
    let mut done: Vec<Option<CellAggregate>> = vec![None; cells.len()];
    let mut bytes_written = 0;
    for cell in &cells {
        let mut agg = CellAggregate::new(spec.ks.len());
        let mut start = 0;
        while start < spec.trials_per_cell {
            let end = (start + CHUNK).min(spec.trials_per_cell);
            rec.span_begin("sweep.unit");
            let config = spec.config_for(cell);
            let stakes = spec.stakes_for(cell);
            let plan = cell.fault.plan(spec.honest_nodes, spec.slots);
            let probs =
                LeaderProbs::weighted(&stakes, spec.adversarial_stake, spec.active_slot_coeff);
            let mut chunk = CellAggregate::new(spec.ks.len());
            for trial in start..end {
                let seed = spec.trial_seed(cell.index, trial);
                rec.span_begin("scenario.schedule.resample");
                schedule.resample_from_probs(&probs, config.slots, seed);
                rec.span_end("scenario.schedule.resample");
                let mut strategy = cell.strategy.instantiate();
                rec.span_begin("scenario.engine");
                let (metrics, divergence, ledger) = ColumnarSimulation::run_streaming_faults_in(
                    &mut arena,
                    &config,
                    &schedule,
                    strategy.as_mut(),
                    &plan,
                    &mut (),
                );
                rec.span_end("scenario.engine");
                rec.span_begin("sweep.aggregate");
                chunk.record(seed, &metrics, &divergence, &spec.ks, spec.slots);
                chunk.record_faults(&ledger);
                rec.span_end("sweep.aggregate");
            }
            agg.merge(&chunk);
            rec.span_end("sweep.unit");
            start = end;
        }
        done[cell.index] = Some(agg);
        rec.span_begin("sweep.checkpoint.write");
        let mut snapshot = Checkpoint::empty(spec.fingerprint());
        snapshot.completed = done
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                a.clone().map(|aggregate| CompletedCell {
                    cell: i as u64,
                    aggregate,
                })
            })
            .collect();
        let written = snapshot.write(path);
        rec.span_end("sweep.checkpoint.write");
        written?;
        bytes_written += file_len(path);
    }
    let outcome = CampaignOutcome {
        completed_cells: done.len(),
        aggregates: done,
        resumed_cells: 0,
        executions_run: spec.executions(),
    };
    rec.span_begin("sweep.report");
    let report = campaign_report(spec, &outcome);
    rec.span_end("sweep.report");
    Ok(Replay {
        outcome,
        report,
        bytes_written,
    })
}

/// Traced: plain and traced single-thread replays interleaved, checked
/// against the executor, and one observed 2-worker run for the
/// executor's busy share.
pub fn traced(args: &Args, out: &mut Outcome) {
    let spec = spec(args.seed, Some(TRACED_TRIALS_PER_CELL));
    let reference = run_campaign(&spec, &options(None)).expect("reference campaign");
    let mut rec = ObsRecorder::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut rewrite_ratio = 0.0;
    let replays = repeat_for(args.seconds, TRACED_REPLAYS, |rep| {
        let path = args.workdir.join("replay.ckpt");
        let (mut plain, mut traced) = (None, None);
        // Alternate which side runs first, so order effects cancel.
        for tracing in [rep % 2 == 1, rep % 2 == 0] {
            let path = fresh(path.clone());
            let t0 = Instant::now();
            if tracing {
                traced = Some(replay(&spec, &path, &mut rec));
                traced_s += t0.elapsed().as_secs_f64();
            } else {
                plain = Some(replay(&spec, &path, &mut ()));
                plain_s += t0.elapsed().as_secs_f64();
            }
        }
        let mut checks = Checks::default();
        match (
            plain.expect("plain replay ran"),
            traced.expect("traced replay ran"),
        ) {
            (Ok(plain), Ok(traced)) => {
                checks = check(&spec, &traced.outcome, &traced.report, &path);
                out.counts(&mut checks, work_counts(&traced.outcome, &path));
                checks.require(
                    traced.outcome.aggregates == reference.aggregates
                        && plain.outcome.aggregates == reference.aggregates,
                    "replay differs from run_campaign",
                );
                rewrite_ratio = traced.bytes_written as f64 / file_len(&path) as f64;
            }
            (Err(e), _) | (_, Err(e)) => checks.require(false, &format!("replay failed: {e}")),
        }
        out.finish_op(&format!("campaign traced replay {rep}"), checks);
        let _ = std::fs::remove_file(&path);
        0.0
    })
    .len();

    // The executor's busy share at the timed campaign's shape.
    let timed_spec = self::spec(args.seed, None);
    let path = fresh(args.workdir.join("observed.ckpt"));
    let mut observed = ObsRecorder::new();
    let t0 = Instant::now();
    let run = run_campaign_observed(
        &timed_spec,
        &options(Some(path.clone())),
        Some(&mut observed),
        None,
    );
    let wall = t0.elapsed().as_secs_f64();
    let observed_run = run.ok().filter(|o| o.is_complete() && o.resumed_cells == 0);
    let mut checks = Checks::default();
    checks.require(
        observed_run.is_some(),
        "observed campaign failed or incomplete",
    );
    out.finish_op("campaign observed run", checks);
    let _ = std::fs::remove_file(&path);
    let units = span_stats(observed.events())
        .remove("sweep.unit")
        .unwrap_or_default();

    write_trace(args, "campaign", &rec);
    let spans = span_stats(rec.events());
    let execs = (spec.executions() * replays as u64) as f64;
    let per_exec = |name: &str| spans[name].self_us / execs;
    out.metric(
        "scenario.schedule.resample_us_per_exec",
        per_exec("scenario.schedule.resample"),
        "us",
        execs as usize,
    );
    out.metric(
        "scenario.engine.us_per_exec",
        per_exec("scenario.engine"),
        "us",
        execs as usize,
    );
    out.metric(
        "sweep.aggregate.us_per_exec",
        per_exec("sweep.aggregate"),
        "us",
        execs as usize,
    );
    let writes_ms = spans["sweep.checkpoint.write"].durations_ms();
    out.metric(
        "sweep.checkpoint.write_ms_p50",
        median(&writes_ms),
        "ms",
        writes_ms.len(),
    );
    out.metric(
        "sweep.checkpoint.write_ms_p90",
        p90(&writes_ms),
        "ms",
        writes_ms.len(),
    );
    out.metric(
        "sweep.checkpoint.writes",
        (writes_ms.len() / replays) as f64,
        "count",
        replays,
    );
    out.metric(
        "sweep.checkpoint.rewrite_ratio",
        rewrite_ratio,
        "ratio",
        replays,
    );
    let report_ms = spans["sweep.report"].durations_ms();
    out.metric("sweep.report_ms", median(&report_ms), "ms", report_ms.len());
    out.metric(
        "sweep.run.busy_share",
        units.total_us() / 1e6 / (THREADS as f64 * wall),
        "ratio",
        units.durations_us.len(),
    );
    // Work counts of the timed campaign's shape, from the observed run.
    let sum = |f: fn(&CellAggregate) -> u64| {
        observed_run
            .iter()
            .flat_map(|o| o.aggregates.iter().flatten())
            .map(f)
            .sum::<u64>() as f64
    };
    out.metric(
        "campaign.scenario.engine.active_slots",
        sum(|a| a.active_slots),
        "count",
        1,
    );
    out.metric(
        "campaign.scenario.engine.rollbacks",
        sum(|a| a.rollbacks),
        "count",
        1,
    );
    finish_traced(
        out,
        "campaign",
        total_self_s(&spans),
        plain_s,
        traced_s,
        replays,
    );
}
