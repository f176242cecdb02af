//! `table1`: the paper's published Table 1 grid through the exact
//! settlement DP — 6 α × 6 ratios × k ∈ {100, …, 500}, 180 cells from 36
//! `ExactSettlement::violation_probabilities` passes on one thread. It
//! is the paper's headline artifact and touches no simulation layer, so
//! a change to `margin.exact` shows here and nowhere else. The seed
//! fixes the order of the 36 passes.

use std::time::Instant;

use multihonest::margin::ExactSettlement;
use multihonest::obs::{ObsRecorder, Recorder};
use multihonest_testutil::golden;
use multihonest_testutil::presets::table1_condition;

use crate::measure::{
    finish_traced, median, p90, repeat_for, setup_median, shuffled, span_stats, total_self_s,
    write_trace, Checks, Op, Outcome,
};
use crate::Args;

const ALPHAS: [f64; 6] = [0.01, 0.10, 0.20, 0.30, 0.40, 0.49];
const RATIOS: [f64; 6] = [1.0, 0.9, 0.8, 0.5, 0.25, 0.01];
const KS: [usize; 5] = [100, 200, 300, 400, 500];
const PAIRS: usize = ALPHAS.len() * RATIOS.len();
const CELLS: usize = PAIRS * KS.len();
/// Σ of the 180 cell probabilities in canonical (ratio-major) order.
const CHECKSUM: f64 = 38.08815692865128;
/// Relative tolerance of the checksum: the DP's own regression pins use
/// the same bound.
const CHECKSUM_RTOL: f64 = 1e-12;
/// Traced grids per run: 3 × 36 passes give the 100 samples a p90 needs.
const TRACED_GRIDS: usize = 3;

/// The Bernoulli condition of pair `i` (ratio-major, α-minor).
fn condition(i: usize) -> multihonest::chars::BernoulliCondition {
    table1_condition(ALPHAS[i % ALPHAS.len()], RATIOS[i / ALPHAS.len()])
}

/// One grid: the 36 passes in `order`, each inside a `margin.exact`
/// span; returns the cells in canonical order.
fn grid<R: Recorder>(order: &[usize], rec: &mut R) -> Vec<f64> {
    let mut cells = vec![0.0; CELLS];
    for &i in order {
        let exact = ExactSettlement::new(condition(i));
        rec.span_begin("margin.exact");
        let ps = exact.violation_probabilities(&KS);
        rec.span_end("margin.exact");
        cells[i * KS.len()..(i + 1) * KS.len()].copy_from_slice(&ps);
    }
    cells
}

/// The published cells and the checksum.
fn check(cells: &[f64]) -> Checks {
    let mut checks = Checks::default();
    let cell = |alpha: f64, ratio: f64, k: usize| -> Option<f64> {
        let a = ALPHAS.iter().position(|&x| x == alpha)?;
        let r = RATIOS.iter().position(|&x| x == ratio)?;
        let k = KS.iter().position(|&x| x == k)?;
        Some(cells[(r * ALPHAS.len() + a) * KS.len() + k])
    };
    let published = [
        golden::K100_ROW,
        golden::MULTI_HONEST_CELLS,
        golden::DEEP_K_CELLS,
    ];
    for &(alpha, ratio, k, value) in published.concat().iter() {
        let ok =
            cell(alpha, ratio, k).is_some_and(|p| (p / value - 1.0).abs() < golden::PUBLISHED_RTOL);
        checks.require(ok, &format!("published cell α={alpha} ratio={ratio} k={k}"));
    }
    let sum: f64 = cells.iter().sum();
    checks.require(
        (sum / CHECKSUM - 1.0).abs() < CHECKSUM_RTOL,
        &format!("probability checksum {sum} != {CHECKSUM}"),
    );
    checks
}

/// Set-up: the seeded pass order and a warm-up of every pair up to
/// k = 200.
fn setup(seed: u64) -> Vec<usize> {
    let order = shuffled(PAIRS, seed);
    for &i in &order {
        std::hint::black_box(ExactSettlement::new(condition(i)).violation_probabilities(&KS[..2]));
    }
    order
}

/// Tracing off: cells per second over repeated grids.
pub fn timed(args: &Args, out: &mut Outcome) {
    let (setup_s, order) = setup_median(|| setup(args.seed));
    out.timed_phase("table1", args.seconds, setup_s, CELLS as f64, |_| {
        let t0 = Instant::now();
        let cells = grid(&order, &mut ());
        let seconds = t0.elapsed().as_secs_f64();
        Op {
            seconds,
            checks: check(&cells),
            counts: vec![("cells", cells.len() as u64)],
        }
    });
}

/// Traced: plain and traced grids interleaved, one span per DP pass.
pub fn traced(args: &Args, out: &mut Outcome) {
    let order = setup(args.seed);
    let mut rec = ObsRecorder::new();
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let grids = repeat_for(args.seconds, TRACED_GRIDS, |rep| {
        let (mut plain, mut cells) = (Vec::new(), Vec::new());
        // Alternate which side runs first, so order effects cancel.
        for traced in [rep % 2 == 1, rep % 2 == 0] {
            let t0 = Instant::now();
            if traced {
                cells = grid(&order, &mut rec);
                traced_s += t0.elapsed().as_secs_f64();
            } else {
                plain = grid(&order, &mut ());
                plain_s += t0.elapsed().as_secs_f64();
            }
        }
        let mut checks = check(&cells);
        checks.require(plain == cells, "traced grid differs from the plain grid");
        out.counts(&mut checks, vec![("cells", cells.len() as u64)]);
        out.finish_op(&format!("table1 traced grid {rep}"), checks);
        0.0
    })
    .len();
    write_trace(args, "table1", &rec);
    let spans = span_stats(rec.events());
    let passes = &spans["margin.exact"];
    let pass_ms = passes.durations_ms();
    out.metric(
        "margin.exact.pass_ms_p50",
        median(&pass_ms),
        "ms",
        pass_ms.len(),
    );
    out.metric(
        "margin.exact.pass_ms_p90",
        p90(&pass_ms),
        "ms",
        pass_ms.len(),
    );
    out.metric(
        "margin.exact.share",
        passes.total_us() / 1e6 / traced_s,
        "ratio",
        pass_ms.len(),
    );
    finish_traced(
        out,
        "table1",
        total_self_s(&spans),
        plain_s,
        traced_s,
        grids,
    );
}
