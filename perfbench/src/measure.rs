//! Shared measurement plumbing: the outcome record, repeated timing,
//! order statistics and span self times.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use multihonest::obs::{ObsRecorder, SpanEvent};

use crate::Args;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The failed output checks of one operation.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    /// Records `what` as failed unless `ok`.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.0.push(what.to_string());
        }
    }

    /// Takes over every failure of `other`.
    pub fn absorb(&mut self, other: Checks) {
        self.0.extend(other.0);
    }
}

/// One timed operation: its measured seconds, output checks and
/// deterministic work counts.
pub struct Op {
    pub seconds: f64,
    pub checks: Checks,
    pub counts: Vec<(&'static str, u64)>,
}

/// Checks of an operation that could not run at all.
pub fn failed(what: &str) -> Checks {
    let mut checks = Checks::default();
    checks.require(false, what);
    checks
}

/// Everything one workload process reports.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, samples)`.
    metrics: Vec<(String, f64, &'static str, usize)>,
    /// Deterministic work counts of the first operation; every later
    /// operation of the run must reproduce them.
    counts: Option<Vec<(&'static str, u64)>>,
}

impl Outcome {
    /// Counts one attempted operation, failed when any check failed.
    pub fn finish_op(&mut self, op: &str, checks: Checks) {
        self.attempted += 1;
        if !checks.0.is_empty() {
            self.failed += 1;
            eprintln!("check failed: {op}: {}", checks.0.join("; "));
        }
    }

    /// Compares one operation's work counts with the run's first.
    pub fn counts(&mut self, checks: &mut Checks, counts: Vec<(&'static str, u64)>) {
        match &self.counts {
            None => self.counts = Some(counts),
            Some(first) => {
                checks.require(*first == counts, "work counts differ from the first run")
            }
        }
    }

    /// Reports a metric measured over `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name.to_string(), value, unit, samples));
    }

    /// The timed phase of a workload with tracing off. Runs `op(rep)`
    /// until `seconds` have passed (at least three times), checks every
    /// operation and its work counts, and reports `items_per_s` (`items`
    /// per operation over the median operation time) and `setup_s`.
    pub fn timed_phase(
        &mut self,
        workload: &str,
        seconds: f64,
        setup_s: f64,
        items: f64,
        mut op: impl FnMut(usize) -> Op,
    ) {
        let times = repeat_for(seconds, 3, |rep| {
            let Op {
                seconds,
                mut checks,
                counts,
            } = op(rep);
            self.counts(&mut checks, counts);
            self.finish_op(&format!("{workload} {rep}"), checks);
            seconds
        });
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        eprintln!(
            "{workload}: {} operations, seconds min {:.4} / quartiles {:.4} {:.4} {:.4} / max {:.4}",
            sorted.len(),
            at(0.0),
            at(0.25),
            at(0.5),
            at(0.75),
            at(1.0)
        );
        self.metric("items_per_s", items / median(&times), "1/s", times.len());
        self.metric("setup_s", setup_s, "s", SETUP_REPS);
    }

    /// The outcome as one JSON object. Non-finite values print as
    /// `null`, which `run.py` rejects.
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u, _)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, _, _, s)| format!("\"{n}\":{s}"))
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .flatten()
            .map(|(n, c)| format!("\"{n}\":{c}"))
            .collect();
        format!(
            "{{\"attempted\":{},\"failed\":{},\"peak_rss_mb\":{},\"metrics\":{{{}}},\"samples\":{{{}}},\"counts\":{{{}}}}}",
            self.attempted,
            self.failed,
            num(peak_rss_mb()),
            metrics.join(","),
            samples.join(","),
            counts.join(",")
        )
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the median wall time
/// with the last run's result. The previous result is dropped before
/// each repetition, outside the timed span.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Calls `op(rep)` until `seconds` of wall time have passed and it ran
/// at least `min_reps` times. `op` returns the seconds of the span it
/// timed itself, so its output checks stay outside the measurement.
pub fn repeat_for(seconds: f64, min_reps: usize, mut op: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        times.push(op(times.len()));
    }
    times
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank 90th percentile; needs at least 100 samples so that
/// ten lie beyond it.
pub fn p90(xs: &[f64]) -> f64 {
    assert!(xs.len() >= 100, "p90 needs 100 samples, got {}", xs.len());
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() * 9).div_ceil(10) - 1]
}

/// Per span name: the spans' durations and their summed self time (a
/// span's duration minus the part its direct children cover), in µs.
#[derive(Default)]
pub struct SpanStats {
    pub durations_us: Vec<f64>,
    pub self_us: f64,
}

impl SpanStats {
    /// Summed duration in µs.
    pub fn total_us(&self) -> f64 {
        self.durations_us.iter().sum()
    }

    /// The durations in ms.
    pub fn durations_ms(&self) -> Vec<f64> {
        self.durations_us.iter().map(|us| us / 1e3).collect()
    }
}

/// Groups `events` by name with self times. Nesting is recovered per
/// thread from the intervals: a span is the child of the innermost open
/// span whose interval contains it.
pub fn span_stats(events: &[SpanEvent]) -> BTreeMap<&'static str, SpanStats> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    // Parents before children: earlier start, then longer, then later
    // recorded (a span is recorded when it ends, after its children).
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.start_us, Reverse(e.dur_us), Reverse(i))
    });
    let mut self_us: Vec<u64> = events.iter().map(|e| e.dur_us).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        let end = e.start_us + e.dur_us;
        while let Some(&p) = open.last() {
            let parent = &events[p];
            if parent.tid == e.tid && parent.start_us + parent.dur_us >= end {
                break;
            }
            open.pop();
        }
        if let Some(&p) = open.last() {
            self_us[p] = self_us[p].saturating_sub(e.dur_us);
        }
        open.push(i);
    }
    let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (e, s) in events.iter().zip(self_us) {
        let stats = by_name.entry(e.name).or_default();
        stats.durations_us.push(e.dur_us as f64);
        stats.self_us += s as f64;
    }
    by_name
}

/// Summed self time of every span, in seconds.
pub fn total_self_s(stats: &BTreeMap<&'static str, SpanStats>) -> f64 {
    stats.values().map(|s| s.self_us).sum::<f64>() / 1e6
}

/// Writes the recorder's spans as a Chrome trace into the work
/// directory (`run.py` keeps it after the run).
pub fn write_trace(args: &Args, workload: &str, rec: &ObsRecorder) {
    let path = args.workdir.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::write(&path, rec.chrome_trace_json()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// The process's peak resident set (`VmHWM`) in 10⁶ bytes.
pub fn peak_rss_mb() -> f64 {
    multihonest::obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6)
}

/// Ends a traced run: reports `<workload>.residual_share` (the share of
/// the plain wall time no layer's self time explains),
/// `<workload>.obs.trace_overhead` and the process's
/// `<workload>.peak_rss_mb`.
pub fn finish_traced(
    out: &mut Outcome,
    workload: &str,
    layer_self_s: f64,
    plain_s: f64,
    traced_s: f64,
    samples: usize,
) {
    out.metric(
        &format!("{workload}.residual_share"),
        1.0 - layer_self_s / plain_s,
        "ratio",
        samples,
    );
    out.metric(
        &format!("{workload}.obs.trace_overhead"),
        traced_s / plain_s - 1.0,
        "ratio",
        samples,
    );
    out.metric(&format!("{workload}.peak_rss_mb"), peak_rss_mb(), "MB", 1);
}

/// SplitMix64: the seed expander behind every seeded input order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Removes any leftover file at `path`: a stale WAL or checkpoint would
/// make the run resume instead of run.
pub fn fresh(path: PathBuf) -> PathBuf {
    let _ = std::fs::remove_file(&path);
    path
}

/// The size of `path` in bytes (0 when it cannot be read).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
