//! `forkflow`: `run_streaming_validated` on a schedule the benchmark
//! samples — private withholding, 10 nodes, 30% adversarial stake,
//! f = 0.7, Δ = 2. Here Pr[S] = 0.26 < Pr[A] = 0.30 < Pr[S] + Pr[M] =
//! 0.40: the regime the paper is about, where the single-leader analyses
//! break down and concurrent honest leaders are common. The kernel
//! spends about twice as long per active slot as at f = 0.25, memory
//! grows with the horizon far past the L3, and it is the only workload
//! that runs `fork`, `chars.reduction` and `margin.recurrence`. The seed
//! is the schedule's seed.

use std::time::Instant;

use multihonest::chars::{Reduction, SemiString, Symbol};
use multihonest::fork::{ForkError, ForkFold, VertexId};
use multihonest::margin::MarginState;
use multihonest::obs::{ObsRecorder, Recorder};
use multihonest::scenario::{run_streaming_validated, ColumnarSchedule, ColumnarSimulation};
use multihonest::sim::metrics::{Metrics, MetricsSink};
use multihonest::sim::{SimConfig, Strategy, TieBreak};
use multihonest::sweep::leadership_condition;

use crate::measure::{
    finish_traced, median, repeat_for, setup_median, span_stats, write_trace, Checks, Op, Outcome,
};
use crate::Args;

const SLOTS: usize = 1_000_000;
const NODES: usize = 10;
const ADVERSARIAL_STAKE: f64 = 0.3;
const ACTIVE_SLOT_COEFF: f64 = 0.7;
const DELTA: usize = 2;

fn config() -> SimConfig {
    SimConfig {
        honest_nodes: NODES,
        adversarial_stake: ADVERSARIAL_STAKE,
        active_slot_coeff: ACTIVE_SLOT_COEFF,
        delta: DELTA,
        slots: SLOTS,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    }
}

/// The benchmark-owned counting sink: deterministic per-seed work counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct CountingSink {
    slots: u64,
    rollbacks: u64,
    margin_events: u64,
}

impl MetricsSink for CountingSink {
    fn on_rollback(&mut self, _slot: usize, _old: usize, _new: usize) {
        self.rollbacks += 1;
    }
    fn on_slot(&mut self, _slot: usize, _tips: usize, _height: usize, _div: usize) {
        self.slots += 1;
    }
    fn on_margin(&mut self, _slot: usize, _rho: i64, _margin: i64) {
        self.margin_events += 1;
    }
}

fn sample(seed: u64) -> ColumnarSchedule {
    ColumnarSchedule::sample(NODES, ADVERSARIAL_STAKE, ACTIVE_SLOT_COEFF, SLOTS, seed)
}

/// The plain kernel on `schedule`: its metrics and sink counts.
fn plain(schedule: &ColumnarSchedule) -> (Metrics, CountingSink) {
    let config = config();
    let mut sink = CountingSink::default();
    let mut strategy = config.strategy.instantiate();
    let (metrics, _) =
        ColumnarSimulation::run_streaming(&config, schedule, strategy.as_mut(), &mut sink);
    (metrics, sink)
}

/// Set-up: the schedule from the seed, then the plain kernel over it —
/// the warm-up, and the reference every validated run must reproduce.
fn setup(seed: u64) -> (ColumnarSchedule, Metrics, CountingSink) {
    let schedule = sample(seed);
    let (metrics, sink) = plain(&schedule);
    (schedule, metrics, sink)
}

/// The workload's regime: Pr[S] < Pr[A] < Pr[S] + Pr[M].
fn check_regime(out: &mut Outcome) {
    let mut checks = Checks::default();
    let stakes = vec![(1.0 - ADVERSARIAL_STAKE) / NODES as f64; NODES];
    let regime =
        leadership_condition(ACTIVE_SLOT_COEFF, ADVERSARIAL_STAKE, &stakes).is_ok_and(|c| {
            let (s, a, m) = (c.p_unique_honest(), c.p_adversarial(), c.p_multi_honest());
            s < a && a < s + m
        });
    checks.require(
        regime,
        "leadership condition is outside Pr[S] < Pr[A] < Pr[S] + Pr[M]",
    );
    out.finish_op("forkflow regime", checks);
}

/// One validated run with its output checks and work counts.
struct Validated {
    seconds: f64,
    checks: Checks,
    counts: Vec<(&'static str, u64)>,
    output: multihonest::scenario::ValidatedExecution,
    sink: CountingSink,
}

fn validated<R: Recorder>(
    schedule: &ColumnarSchedule,
    reference: &Metrics,
    rec: &mut R,
) -> Validated {
    let config = config();
    let mut strategy = config.strategy.instantiate();
    let mut sink = CountingSink::default();
    let t0 = Instant::now();
    rec.span_begin("scenario.pipeline");
    let output = run_streaming_validated(&config, schedule, strategy.as_mut(), &mut sink);
    rec.span_end("scenario.pipeline");
    let seconds = t0.elapsed().as_secs_f64();
    let mut checks = Checks::default();
    checks.require(output.pipeline.validation.is_ok(), "fork validation failed");
    checks.require(
        output.metrics == *reference,
        "validated metrics differ from the plain run",
    );
    let counts = vec![
        ("active_slots", output.metrics.active_slots as u64),
        ("rollbacks", sink.rollbacks),
        ("vertices", output.pipeline.fork.vertex_count() as u64),
        ("margin_events", sink.margin_events),
    ];
    Validated {
        seconds,
        checks,
        counts,
        output,
        sink,
    }
}

/// Tracing off: slots per second of validated runs.
pub fn timed(args: &Args, out: &mut Outcome) {
    check_regime(out);
    let (setup_s, (schedule, reference, _)) = setup_median(|| setup(args.seed));
    out.timed_phase("forkflow", args.seconds, setup_s, SLOTS as f64, |_| {
        let run = validated(&schedule, &reference, &mut ());
        Op {
            seconds: run.seconds,
            checks: run.checks,
            counts: run.counts,
        }
    });
}

/// The fork's vertices as `(parent, label)` in id order, root excluded.
fn vertex_stream(output: &multihonest::scenario::ValidatedExecution) -> Vec<(usize, usize)> {
    let fork = &output.pipeline.fork;
    fork.vertices()
        .skip(1)
        .map(|v| {
            (
                fork.parent(v).expect("non-root vertex").index(),
                fork.label(v),
            )
        })
        .collect()
}

/// Replays the output fork into a fresh `ForkFold`, slot by slot as the
/// pipeline fed it: the slot's symbol, then the vertices minted in it.
fn replay_fold(semi: &SemiString, vertices: &[(usize, usize)]) -> (Result<(), ForkError>, usize) {
    let mut fold = ForkFold::new(DELTA);
    let mut ids = Vec::with_capacity(vertices.len() + 1);
    ids.push(VertexId::ROOT);
    let mut next = vertices.iter().peekable();
    for t in 1..=semi.len() {
        fold.push_symbol(semi.get(t));
        while let Some(&(parent, _)) = next.next_if(|&&(_, label)| label == t) {
            ids.push(fold.push_vertex(ids[parent], t));
        }
    }
    let streamed = fold.finish();
    (streamed.validation, streamed.fork.vertex_count())
}

/// Traced: plain and traced validated runs interleaved with the plain
/// kernel and the schedule sampler, then the output fork and string
/// replayed through the fork fold, the Δ-reduction and the margin
/// recurrence, one span per call.
pub fn traced(args: &Args, out: &mut Outcome) {
    check_regime(out);
    let (schedule, reference, reference_sink) = setup(args.seed);
    let mut rec = ObsRecorder::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let reps = repeat_for(args.seconds, 3, |rep| {
        let mut checks = Checks::default();
        // Alternate which side runs first, so order effects cancel. Each
        // output is dropped at once: two live forks would double the RSS.
        for tracing in [rep % 2 == 1, rep % 2 == 0] {
            let mut run = if tracing {
                validated(&schedule, &reference, &mut rec)
            } else {
                validated(&schedule, &reference, &mut ())
            };
            if tracing {
                traced_s.push(run.seconds);
                out.counts(&mut run.checks, run.counts);
                run.checks.require(
                    run.sink.rollbacks == reference_sink.rollbacks,
                    "rollback count differs from the plain run",
                );
            } else {
                plain_s.push(run.seconds);
            }
            checks.absorb(run.checks);
        }

        rec.span_begin("scenario.engine");
        let (metrics, _) = plain(&schedule);
        rec.span_end("scenario.engine");
        checks.require(metrics == reference, "plain kernel is not deterministic");

        rec.span_begin("scenario.schedule.sample");
        let resampled = sample(args.seed);
        rec.span_end("scenario.schedule.sample");
        checks.require(
            resampled == schedule,
            "schedule sampling is not deterministic",
        );
        out.finish_op(&format!("forkflow traced run {rep}"), checks);
        0.0
    })
    .len();

    // One more validated run supplies the fork and string to replay.
    let Validated { output, sink, .. } = validated(&schedule, &reference, &mut ());
    let semi = output.pipeline.characteristic_string.clone();
    let vertices = vertex_stream(&output);
    let (rho, mu) = (output.pipeline.rho, output.pipeline.margin);
    drop(output);
    let mut checks = Checks::default();
    checks.require(
        vertices.windows(2).all(|w| w[0].1 <= w[1].1),
        "fork vertices are not in slot order",
    );
    let mut emitted: Vec<(usize, Symbol)> = Vec::with_capacity(SLOTS);
    for _ in 0..reps {
        rec.span_begin("fork.stream");
        let (validation, count) = replay_fold(&semi, &vertices);
        rec.span_end("fork.stream");
        checks.require(
            validation.is_ok() && count == vertices.len() + 1,
            "replayed fork differs",
        );

        emitted.clear();
        rec.span_begin("chars.reduction");
        let mut reduction = Reduction::new(DELTA).streaming();
        for &s in semi.symbols() {
            reduction.push(s, &mut emitted);
        }
        reduction.finish(&mut emitted);
        rec.span_end("chars.reduction");

        rec.span_begin("margin.recurrence");
        let mut margin = MarginState::at_split(0);
        for &(_, sym) in &emitted {
            margin.step(sym);
        }
        rec.span_end("margin.recurrence");
        checks.require(
            (margin.rho(), margin.mu()) == (rho, mu) && emitted.len() as u64 == sink.margin_events,
            "replayed margin channel differs from the pipeline's",
        );
    }
    out.finish_op("forkflow replays", checks);
    write_trace(args, "forkflow", &rec);

    let spans = span_stats(rec.events());
    let median_s = |name: &str| median(&spans[name].durations_us) / 1e6;
    let slots = SLOTS as f64;
    let engine = median_s("scenario.engine");
    let validated_plain = median(&plain_s);
    let (fold, reduction, recurrence) = (
        median_s("fork.stream"),
        median_s("chars.reduction"),
        median_s("margin.recurrence"),
    );
    out.metric(
        "scenario.schedule.sample_ms",
        median_s("scenario.schedule.sample") * 1e3,
        "ms",
        reps,
    );
    out.metric(
        "scenario.engine.ns_per_slot",
        engine * 1e9 / slots,
        "ns",
        reps,
    );
    out.metric(
        "scenario.pipeline.ns_per_slot",
        (validated_plain - engine) * 1e9 / slots,
        "ns",
        reps,
    );
    out.metric(
        "fork.stream.ns_per_vertex",
        fold * 1e9 / vertices.len() as f64,
        "ns",
        reps,
    );
    out.metric(
        "chars.reduction.ns_per_slot",
        reduction * 1e9 / slots,
        "ns",
        reps,
    );
    out.metric(
        "margin.recurrence.ns_per_symbol",
        recurrence * 1e9 / emitted.len().max(1) as f64,
        "ns",
        reps,
    );
    out.metric("fork.vertices", (vertices.len() + 1) as f64, "count", 1);
    out.metric("margin.events", sink.margin_events as f64, "count", 1);
    out.metric(
        "forkflow.scenario.engine.active_slots",
        reference.active_slots as f64,
        "count",
        1,
    );
    out.metric(
        "forkflow.scenario.engine.rollbacks",
        reference.rollback_count as f64,
        "count",
        1,
    );
    finish_traced(
        out,
        "forkflow",
        engine + fold + reduction + recurrence,
        validated_plain,
        median(&traced_s),
        reps,
    );
}
