//! `horizon`: one long `run_horizon` execution in the README's shape —
//! private withholding, 10 nodes, f = 0.25, Δ = 2, 65,536-slot segments —
//! writing a WAL. This is the sparse regime (75% of slots empty, 1.5%
//! with concurrent honest leaders) run as one long execution with
//! eviction: segment resampling, settled-prefix compaction and WAL
//! appends run, and memory must stay bounded. The seed is the
//! execution's seed.

use std::path::PathBuf;
use std::time::Instant;

use multihonest::obs::{ObsRecorder, Recorder};
use multihonest::scenario::{
    run_horizon, run_horizon_observed, ColumnarSchedule, HorizonOptions, HorizonReport, LeaderProbs,
};
use multihonest::sim::{SimConfig, Strategy, TieBreak};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{
    failed, file_len, finish_traced, fresh, median, p90, repeat_for, setup_median, span_stats,
    total_self_s, write_trace, Checks, Op, Outcome, SpanStats,
};
use crate::Args;

const SLOTS: usize = 50_000_000;
const SEGMENT: usize = 65_536;
/// Horizon of the set-up warm-up run.
const WARMUP_SLOTS: usize = 1 << 22;
/// Segments resampled standalone for the sampling cost per slot.
const RESAMPLE_SEGMENTS: usize = 128;
/// Plain/traced run pairs per traced run, one of each order.
const TRACED_PAIRS: usize = 2;

fn config(slots: usize) -> SimConfig {
    SimConfig {
        honest_nodes: 10,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.25,
        delta: 2,
        slots,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    }
}

fn probs() -> LeaderProbs {
    LeaderProbs::uniform(10, 0.3, 0.25)
}

fn options(wal: PathBuf) -> HorizonOptions {
    HorizonOptions {
        segment_slots: SEGMENT,
        ks: vec![16, 32, 64, 128],
        max_live_blocks: 0,
        wal: Some(wal),
    }
}

fn work_counts(report: &HorizonReport, wal_bytes: u64) -> Vec<(&'static str, u64)> {
    vec![
        ("active_slots", report.metrics.active_slots as u64),
        ("rollbacks", report.metrics.rollback_count as u64),
        ("compactions", report.compactions),
        ("peak_live_blocks", report.peak_live_blocks as u64),
        ("wal_bytes", wal_bytes),
    ]
}

fn check(report: &HorizonReport) -> Checks {
    let mut checks = Checks::default();
    checks.require(
        report.resumed_at.is_none(),
        "horizon run resumed from a stale WAL",
    );
    checks.require(report.metrics.slots == SLOTS, "horizon run stopped short");
    checks
}

/// Set-up: the leader table and a short warm-up run with its own WAL.
fn setup(args: &Args) -> LeaderProbs {
    let probs = probs();
    let wal = fresh(args.workdir.join("warmup.wal"));
    let report = run_horizon(
        &config(WARMUP_SLOTS),
        &probs,
        args.seed,
        &options(wal.clone()),
    )
    .expect("warm-up horizon run");
    std::hint::black_box(report);
    let _ = std::fs::remove_file(&wal);
    probs
}

/// Tracing off: slots per second of whole runs.
pub fn timed(args: &Args, out: &mut Outcome) {
    let (setup_s, probs) = setup_median(|| setup(args));
    let config = config(SLOTS);
    out.timed_phase("horizon", args.seconds, setup_s, SLOTS as f64, |rep| {
        let wal = fresh(args.workdir.join(format!("horizon-{rep}.wal")));
        let t0 = Instant::now();
        let run = run_horizon(&config, &probs, args.seed, &options(wal.clone()));
        let seconds = t0.elapsed().as_secs_f64();
        let (checks, counts) = match run {
            Ok(report) => (check(&report), work_counts(&report, file_len(&wal))),
            Err(e) => (failed(&format!("run_horizon failed: {e}")), Vec::new()),
        };
        let _ = std::fs::remove_file(&wal);
        Op {
            seconds,
            checks,
            counts,
        }
    });
}

/// Traced: plain and observed runs interleaved (the observed run records
/// `run_horizon`'s own segment, compaction and WAL-append spans), plus
/// the segment sampler run standalone on the same seed.
pub fn traced(args: &Args, out: &mut Outcome) {
    let probs = setup(args);
    let config = config(SLOTS);
    let mut rec = ObsRecorder::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    let runs = repeat_for(args.seconds, TRACED_PAIRS, |rep| {
        let wal = args.workdir.join("run.wal");
        let (mut plain, mut traced) = (None, None);
        // Alternate which side runs first, so order effects cancel.
        for tracing in [rep % 2 == 1, rep % 2 == 0] {
            let opts = options(fresh(wal.clone()));
            let t0 = Instant::now();
            if tracing {
                traced = Some(run_horizon_observed(
                    &config, &probs, args.seed, &opts, &mut rec, None,
                ));
                traced_s += t0.elapsed().as_secs_f64();
            } else {
                plain = Some(run_horizon(&config, &probs, args.seed, &opts));
                plain_s += t0.elapsed().as_secs_f64();
            }
        }
        let mut checks = Checks::default();
        match (
            plain.expect("plain run ran"),
            traced.expect("traced run ran"),
        ) {
            (Ok(plain), Ok(traced)) => {
                checks = check(&traced);
                checks.require(
                    traced == plain,
                    "traced report differs from the plain report",
                );
                out.counts(&mut checks, work_counts(&traced, file_len(&wal)));
                last = Some((traced, file_len(&wal)));
            }
            (Err(e), _) | (_, Err(e)) => checks.require(false, &format!("run_horizon failed: {e}")),
        }
        out.finish_op(&format!("horizon traced run {rep}"), checks);
        0.0
    })
    .len();
    let spans = span_stats(rec.events());
    let layer_self_s = total_self_s(&spans);

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut schedule = ColumnarSchedule::empty();
    for _ in 0..RESAMPLE_SEGMENTS {
        rec.span_begin("scenario.schedule.resample_segment");
        schedule.resample_segment(&probs, SEGMENT, &mut rng);
        rec.span_end("scenario.schedule.resample_segment");
    }
    write_trace(args, "horizon", &rec);
    let resample = &span_stats(rec.events())["scenario.schedule.resample_segment"];

    let ms = |name: &str| spans.get(name).map_or(Vec::new(), SpanStats::durations_ms);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let segments = ms("horizon.segment");
    out.metric(
        "scenario.horizon.segment_ms_p50",
        median(&segments),
        "ms",
        segments.len(),
    );
    out.metric(
        "scenario.horizon.segment_ms_p90",
        p90(&segments),
        "ms",
        segments.len(),
    );
    out.metric(
        "scenario.schedule.resample_ns_per_slot",
        resample.total_us() * 1e3 / (RESAMPLE_SEGMENTS * SEGMENT) as f64,
        "ns",
        RESAMPLE_SEGMENTS,
    );
    let compactions = ms("horizon.compaction");
    out.metric(
        "scenario.horizon.compaction_ms",
        mean(&compactions),
        "ms",
        compactions.len(),
    );
    let (report, wal_bytes) = last.expect("at least one run");
    let boundaries = SLOTS.div_ceil(SEGMENT) - 1;
    out.metric(
        "scenario.horizon.compaction_rate",
        report.compactions as f64 / boundaries as f64,
        "ratio",
        boundaries,
    );
    let appends = ms("horizon.wal_append");
    out.metric(
        "scenario.horizon.wal_append_ms",
        mean(&appends),
        "ms",
        appends.len(),
    );
    out.metric("scenario.horizon.wal_bytes", wal_bytes as f64, "bytes", 1);
    out.metric(
        "scenario.horizon.peak_live_blocks",
        report.peak_live_blocks as f64,
        "count",
        1,
    );
    out.metric(
        "horizon.scenario.engine.active_slots",
        report.metrics.active_slots as f64,
        "count",
        1,
    );
    out.metric(
        "horizon.scenario.engine.rollbacks",
        report.metrics.rollback_count as f64,
        "count",
        1,
    );
    finish_traced(out, "horizon", layer_self_s, plain_s, traced_s, runs);
}
