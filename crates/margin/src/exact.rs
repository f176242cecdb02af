//! The exact settlement-probability dynamic program of paper Section 6.6.
//!
//! Under the `(ε, p_h)`-Bernoulli condition the pair `(ρ(xy), µ_x(y))`
//! evolves as a Markov chain (Theorem 5). Propagating its joint law for
//! `k` steps and summing the mass with `µ ≥ 0` yields the **exact**
//! probability that slot `|x| + 1` suffers a `k`-settlement violation —
//! the numbers published in Table 1 of the paper.
//!
//! The initial law of `ρ(x)`:
//!
//! * for `|x| → ∞`, the paper uses the dominating stationary law
//!   `X_∞(r) = (1 − β) β^r` with `β = (1 − ε)/(1 + ε)` (Equation (9));
//! * for finite `|x| = m`, the birth–death recurrence of Equation (13)
//!   propagated `m` steps from `ρ(ε) = 0`.
//!
//! ## Exact truncation
//!
//! A naive implementation needs `O(T)` reach values and `O(T)` margin
//! values per step (`O(T³)` total, as in the paper). We sharpen this with
//! two *lossless* truncations for a fixed horizon `k`:
//!
//! * margins below `−(k + 1)` can never return to `0` within the horizon —
//!   an absorbing "dead" floor;
//! * reaches (and margins) above `C = k + 2` stay positive throughout the
//!   horizon, so `C` acts as an absorbing ceiling whose exact value never
//!   influences the `µ ≥ 0` statistics below it.
//!
//! Both arguments rely on `|ρ' − ρ| ≤ 1` and `|µ' − µ| ≤ 1` per step, which
//! Theorem 5's recurrence guarantees.
//!
//! ## Banded gather kernel
//!
//! Within the truncated rectangle the occupied set is much smaller than
//! `O(k²)` for most of the run, and the kernel exploits that:
//!
//! * **Per-row live ranges.** All mass starts on the diagonal `µ = ρ`,
//!   and a source `(ρ, µ)` only sends mass to rows `ρ − 1..=ρ + 1` and
//!   margins `µ − 1..=µ + 1`. The lattice keeps, for every reach row `r`,
//!   a live margin range `lo[r]..=hi[r]` outside which the row holds no
//!   mass. Each step gives target row `r` the union of the ranges of
//!   rows `r − 1`, `r` and `r + 1`, widened by one and clamped to the
//!   lattice, and cuts each row it writes to its first and last non-zero
//!   cell. So the kernel reads and writes only cells that can hold
//!   mass: in `(ρ, d = ρ − µ)` coordinates the mass with `d ≥ 1` fills the
//!   triangle `ρ + d ≤ t`, not a rectangle, and rows whose mass underflows
//!   to exact zero (e.g. the geometric reach tail for small `α`) drop out
//!   for good. This is lossless: a cell outside its row's range provably
//!   holds zero mass.
//! * **Gather form.** Each target cell is computed once, in registers,
//!   from its source cells (at most four) and stored once. Away from a
//!   few margins it is `(a·p_A + b·p_h) + b·p_H` with `a = (ρ − 1, µ − 1)`
//!   and `b = (ρ + 1, µ + 1)`, so a target row is one straight loop over
//!   its range reading the two neighbouring source rows, and row `0` has
//!   a loop of its own. Closed forms cover `µ ∈ {−1, 0}`, where `µ`
//!   sticks at `0` on an honest step; the few cells left (the margins
//!   `floor` and `floor + 1`, row `0` at `µ ∈ {−1, 0}`, and rows `C − 1`
//!   and `C`, which hold one diagonal cell each within the horizon)
//!   enumerate their sources.
//! * **Ping-pong buffers, zero outside the ranges.** `step` writes into a
//!   pre-allocated second buffer and swaps it, with its per-row ranges,
//!   into place — no heap allocation after construction. Both buffers
//!   hold `+0.0` outside their rows' ranges, so the gather reads a
//!   neighbour's cell without checking its range and needs no zero-fill.
//!   What leaves a range is zeroed: a step writes each target row over
//!   its old range from two steps ago as well (every source of a cell
//!   outside the new range is zero, so the gather stores `+0.0` there),
//!   and the cells the dynamic dead floor retires and the cells
//!   absorption moves are set to `+0.0`.
//! * **Checkpoint-only accounting.** The `Pr[µ ≥ 0]` Kahan sweep runs only
//!   at requested checkpoints; `violation_by_horizon` instead fuses the
//!   absorption of violating mass into the step itself (an incremental
//!   accumulator), so no per-step full sweep remains anywhere.
//!
//! Every target cell adds its sources' contributions in the order of the
//! straightforward full-rectangle scatter — source rows ascending, then
//! margins ascending, then `A`, `h`, `H` — and a source outside its range
//! adds `+0.0`, a bitwise no-op on non-negative masses. So the output is
//! bit-for-bit identical to the reference kernel (kept under `#[cfg(test)]`
//! and compared cell by cell).

use multihonest_chars::BernoulliCondition;

/// Exact `k`-settlement violation probabilities under a Bernoulli
/// condition (paper Section 6.6; regenerates Table 1).
///
/// # Examples
///
/// ```
/// use multihonest_chars::BernoulliCondition;
/// use multihonest_margin::ExactSettlement;
///
/// // α = Pr[A] = 0.30, all honest slots uniquely honest.
/// let cond = BernoulliCondition::from_probabilities(0.70, 0.0, 0.30)?;
/// let exact = ExactSettlement::new(cond);
/// let p = exact.violation_probability(100);
/// // Table 1 row (Pr[h]/(1−α) = 1.0, k = 100, α = 0.30): 8.00E-04.
/// assert!((p / 8.00e-4 - 1.0).abs() < 0.05, "p = {p:e}");
/// # Ok::<(), multihonest_chars::DistributionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExactSettlement {
    cond: BernoulliCondition,
}

/// The transition weights of one step: `Pr[A]`, `Pr[h]` and `Pr[H]`.
#[derive(Debug, Clone, Copy)]
struct Weights {
    a: f64,
    h: f64,
    hh: f64,
}

impl Weights {
    fn of(cond: &BernoulliCondition) -> Weights {
        Weights {
            a: cond.p_adversarial(),
            h: cond.p_unique_honest(),
            hh: cond.p_multi_honest(),
        }
    }
}

/// The truncated lattice's geometry: reach rows `0..=cap`, margins
/// `floor..=cap` (and `m ≤ r`), row-major.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Reach and margin ceiling, `= k + 2`.
    cap: i64,
    /// Margin floor (absorbing dead state), `= −(k + 1)`.
    floor: i64,
    /// Cells per row, `cap − floor + 1`.
    width: usize,
}

impl Shape {
    #[inline]
    fn idx(self, r: i64, m: i64) -> usize {
        debug_assert!((0..=self.cap).contains(&r));
        debug_assert!((self.floor..=self.cap).contains(&m));
        r as usize * self.width + (m - self.floor) as usize
    }

    /// Row `r` of a plane's cells.
    #[inline]
    fn row(self, cells: &[f64], r: i64) -> &[f64] {
        &cells[r as usize * self.width..][..self.width]
    }

    /// Writes cells `lo..=hi` (non-empty, within `floor..=min(t, cap)`)
    /// of target row `t` into `out`, row `t` of the target plane, from
    /// the source plane `src`.
    ///
    /// A source `(r, m)` off the floor and the ceiling `(cap, cap)` (both
    /// absorbing) sends `A` to `(min(r + 1, cap), m + 1)`, and `h` and `H`
    /// to row `r − 1` (row `cap` keeps them, row `0` has no row below) at
    /// margin `m − 1`, except that `µ = 0` sticks at `0`: always under
    /// `H`, under `h` only with positive reach. Summed in scatter order,
    /// a target cell `(t, µ)` then reads, with `a = (t − 1, µ − 1)`,
    /// `b = (t + 1, µ + 1)` and `c = (0, µ + 1)`:
    ///
    /// * in rows `0 < t < cap − 1`: `(a·p_A + b·p_h) + b·p_H`; at `µ = −1`
    ///   only `a` (the `b` source sticks at `0`), at `µ = 0` also the
    ///   second `b` source `(t + 1, 0)` ahead of `(t + 1, 1)`;
    /// * in row `0`: `((c·p_h + c·p_H) + b·p_h) + b·p_H`.
    ///
    /// Each row's loop runs over its whole range; the cells it gets wrong
    /// are then overwritten: `µ ∈ {−1, 0}` of rows `t > 0` by their closed
    /// forms, and by [`Self::gather_cell`] the margins `floor` and
    /// `floor + 1` (whose sources include an absorbing floor cell) and
    /// `µ ∈ {−1, 0}` of row `0`. Rows `cap − 1` and `cap` (row `cap` sends
    /// nothing down) go through [`Self::gather_cell`] whole: from a law on
    /// the diagonal, within the horizon they hold only a diagonal cell.
    fn gather_row(self, src: &[f64], out: &mut [f64], w: Weights, t: i64, lo: i64, hi: i64) {
        let (cap, floor) = (self.cap, self.floor);
        let j = |m: i64| (m - floor) as usize;
        if t >= cap - 1 {
            for mu in lo..=hi {
                out[j(mu)] = self.gather_cell(src, w, t, mu);
            }
            return;
        }
        // The loop skips the floor margin (no `a` source).
        let (from, to) = (j(lo.max(floor + 1)), j(hi));
        if from <= to {
            let (cells, n) = (&mut out[from..=to], to - from + 1);
            let row = |r: i64, shift: isize| {
                let start = from.wrapping_add_signed(shift);
                &self.row(src, r)[start..start + n]
            };
            let b = row(t + 1, 1);
            if t == 0 {
                for ((o, &c), &b) in cells.iter_mut().zip(row(0, 1)).zip(b) {
                    *o = ((c * w.h + c * w.hh) + b * w.h) + b * w.hh;
                }
            } else {
                for ((o, &a), &b) in cells.iter_mut().zip(row(t - 1, -1)).zip(b) {
                    *o = (a * w.a + b * w.h) + b * w.hh;
                }
                // µ = −1 and µ = 0, where they are not floor margins.
                let (a, b) = (self.row(src, t - 1), self.row(src, t + 1));
                if lo <= -1 && -1 <= hi && floor + 2 <= -1 {
                    out[j(-1)] = a[j(-2)] * w.a;
                }
                if lo <= 0 && 0 <= hi && floor + 2 <= 0 {
                    let (a, b0, b1) = (a[j(-1)], b[j(0)], b[j(1)]);
                    out[j(0)] = (((a * w.a + b0 * w.h) + b0 * w.hh) + b1 * w.h) + b1 * w.hh;
                }
            }
        }
        if t == 0 || lo <= floor + 1 {
            let irregular = [floor, floor + 1, -1, 0];
            for mu in irregular[..if t == 0 { 4 } else { 2 }].iter().copied() {
                if lo <= mu && mu <= hi {
                    out[j(mu)] = self.gather_cell(src, w, t, mu);
                }
            }
        }
    }

    /// Target cell `(t, µ)` summed from its sources by enumeration: the
    /// cells of rows `t − 1..=t + 1` at margins `µ − 1..=µ + 1` in
    /// scatter order, each through the transition rule of
    /// [`Self::gather_row`]. Serves the few cells whose sources break
    /// their row's pattern.
    fn gather_cell(self, src: &[f64], w: Weights, t: i64, mu: i64) -> f64 {
        let (cap, floor) = (self.cap, self.floor);
        let mut acc = 0.0;
        for r in (t - 1).max(0)..=(t + 1).min(cap) {
            for m in (mu - 1).max(floor)..=(mu + 1).min(r) {
                let p = src[self.idx(r, m)];
                if m == floor || m == cap {
                    // Dead floor and ceiling: absorbing.
                    if (r, m) == (t, mu) {
                        acc += p;
                    }
                    continue;
                }
                let up = (r + 1).min(cap);
                if (up, (m + 1).min(up)) == (t, mu) {
                    acc += p * w.a;
                }
                let down = if r == cap { cap } else { (r - 1).max(0) };
                if down == t {
                    if (if m == 0 && r > 0 { 0 } else { m - 1 }) == mu {
                        acc += p * w.h;
                    }
                    if (if m == 0 { 0 } else { m - 1 }) == mu {
                        acc += p * w.hh;
                    }
                }
            }
        }
        acc
    }
}

/// One buffer of the lattice: a law over the cells and its live ranges.
#[derive(Debug, Clone)]
struct Plane {
    /// `mass[idx(r, m)]`; `+0.0` outside the live ranges.
    mass: Vec<f64>,
    /// Live margin range `lo[r]..=hi[r]` of each row (empty if
    /// `lo[r] > hi[r]`).
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Lowest/highest row with a non-empty range (none if
    /// `r_lo > r_hi`); every other row's range is empty.
    r_lo: i64,
    r_hi: i64,
}

impl Plane {
    fn new(shape: Shape) -> Plane {
        let rows = shape.cap as usize + 1;
        Plane {
            mass: vec![0.0; rows * shape.width],
            lo: vec![0; rows],
            hi: vec![-1; rows],
            r_lo: 0,
            r_hi: -1,
        }
    }
}

/// The joint law of `(ρ, µ)` over the truncated lattice, plus absorbed
/// mass buckets.
///
/// Invariant: in both planes, every cell outside its row's live range
/// `lo[r]..=hi[r]` holds `+0.0`, the ranges stay within the structural
/// `floor ≤ m ≤ min(r, cap)`, and the current plane's ranges begin and
/// end on non-zero cells. So any cell may be read; the sweeps below are
/// range-restricted only to skip work.
#[derive(Debug, Clone)]
struct Lattice {
    shape: Shape,
    /// The current law.
    cur: Plane,
    /// Ping-pong partner of `cur`: the law of the previous step, which
    /// the next step overwrites.
    next: Plane,
    /// Mass absorbed at "margin ≥ cap forever" (always a violation).
    always: f64,
    /// Mass retired below the dynamic dead floor: cells whose margin can
    /// no longer return to `0` within the remaining steps of the run.
    /// Never read by any violation statistic (its margin is negative at
    /// every remaining checkpoint); kept only so total mass is conserved.
    dead: f64,
    /// Live source cells read so far (test builds only: pins the work).
    #[cfg(test)]
    source_cells: u64,
    /// Source rows whose first or last cell held zero (test builds only;
    /// the cut in each step keeps it at zero).
    #[cfg(test)]
    zero_edged_rows: u64,
    /// Target cells written so far (test builds only: pins the work).
    #[cfg(test)]
    target_cells: u64,
}

impl Lattice {
    fn new(k: usize) -> Lattice {
        let (cap, floor) = (k as i64 + 2, -(k as i64 + 1));
        let shape = Shape {
            cap,
            floor,
            width: (cap - floor + 1) as usize,
        };
        Lattice {
            shape,
            cur: Plane::new(shape),
            next: Plane::new(shape),
            always: 0.0,
            dead: 0.0,
            #[cfg(test)]
            source_cells: 0,
            #[cfg(test)]
            zero_edged_rows: 0,
            #[cfg(test)]
            target_cells: 0,
        }
    }

    /// Buffer indices of row `r`'s live cells with margin at least
    /// `m_min` (empty if there are none).
    #[inline]
    fn live_cells(&self, r: i64, m_min: i64) -> std::ops::Range<usize> {
        let (lo, hi) = (self.cur.lo[r as usize].max(m_min), self.cur.hi[r as usize]);
        if lo > hi {
            return 0..0;
        }
        self.shape.idx(r, lo)..self.shape.idx(r, hi) + 1
    }

    /// Seeds the diagonal `µ = ρ = r` with the given reach distribution;
    /// `tail` is the lumped mass `Pr[ρ ≥ cap]` (always a violation within
    /// the horizon).
    fn seed(&mut self, reach_law: &[f64], tail: f64) {
        debug_assert_eq!(reach_law.len() as i64, self.shape.cap);
        for (r, &p) in reach_law.iter().enumerate() {
            let i = self.shape.idx(r as i64, r as i64);
            self.cur.mass[i] += p;
            if p != 0.0 {
                let r = r as i64;
                if self.cur.r_lo > self.cur.r_hi {
                    self.cur.r_lo = r;
                }
                self.cur.r_hi = r;
                self.cur.lo[r as usize] = r;
                self.cur.hi[r as usize] = r;
            }
        }
        self.always += tail;
    }

    /// One step of the Theorem-5 Markov chain.
    ///
    /// `remaining` is the number of steps that will follow this one before
    /// the run's final checkpoint; cells whose margin falls below
    /// `−remaining` can never climb back to `0` in time (margins move by
    /// at most one per step), so the step retires them into the `dead`
    /// bucket. This leaves every violation statistic of the run bit-for-bit
    /// unchanged while shrinking the live ranges from below. Pass a
    /// `remaining` at least as large as the true number of steps left if
    /// the horizon is unknown (e.g. `i64::MAX >> 1` disables the trim).
    fn step(&mut self, w: Weights, remaining: i64) {
        self.gather::<false>(w, remaining);
    }

    /// One step that immediately diverts any mass landing on `µ ≥ 0` into
    /// the `always` bucket — equivalent to `step` followed by
    /// [`Self::absorb_violations`] (the bucket to Kahan accuracy), without
    /// the extra sweep.
    fn step_absorbing(&mut self, w: Weights, remaining: i64) {
        self.gather::<true>(w, remaining);
    }

    /// The step kernel: writes every target row of `next` from `cur`,
    /// then swaps the planes.
    fn gather<const ABSORB: bool>(&mut self, w: Weights, remaining: i64) {
        debug_assert!(remaining >= 0, "a negative number of steps remains");
        let Shape { cap, floor, .. } = self.shape;
        let (s_r_lo, s_r_hi) = (self.cur.r_lo, self.cur.r_hi);
        #[cfg(test)]
        for r in s_r_lo..=s_r_hi {
            let cells = &self.cur.mass[self.live_cells(r, floor)];
            if let (Some(&first), Some(&last)) = (cells.first(), cells.last()) {
                self.source_cells += cells.len() as u64;
                self.zero_edged_rows += u64::from(first == 0.0 || last == 0.0);
            }
        }
        if s_r_lo > s_r_hi {
            // All mass was absorbed or retired: nothing to propagate.
            return;
        }
        // A source (r, m) sends mass only to rows r−1..=r+1, so the
        // target rows are the source rows widened by one. Rows of the
        // target plane outside them lose their stale mass.
        let (t_r_lo, t_r_hi) = ((s_r_lo - 1).max(0), (s_r_hi + 1).min(cap));
        for r in self.next.r_lo..=self.next.r_hi {
            let ri = r as usize;
            if (r < t_r_lo || r > t_r_hi) && self.next.lo[ri] <= self.next.hi[ri] {
                let (lo, hi) = (self.next.lo[ri], self.next.hi[ri]);
                self.next.mass[self.shape.idx(r, lo)..=self.shape.idx(r, hi)].fill(0.0);
                (self.next.lo[ri], self.next.hi[ri]) = (0, -1);
            }
        }
        // Dynamic dead floor: a margin at or below `eff_floor` cannot
        // return to `0` before the run ends, so such cells never
        // contribute to any later violation statistic (nor do their
        // descendants, which stay below the moving floor). Retiring them
        // turns the dead lower triangle of the lattice into a scalar.
        let eff_floor = floor.max(-remaining - 1).min(cap);
        let mut absorbed = Kahan::default();
        let (mut r_lo, mut r_hi) = (0, -1);
        for t in t_r_lo..=t_r_hi {
            let (lo, hi) = self.write_row::<ABSORB>(t, eff_floor, w, &mut absorbed);
            (self.next.lo[t as usize], self.next.hi[t as usize]) = (lo, hi);
            if lo <= hi {
                if r_lo > r_hi {
                    r_lo = t;
                }
                r_hi = t;
            }
        }
        if ABSORB {
            self.always += absorbed.sum;
        }
        (self.next.r_lo, self.next.r_hi) = (r_lo, r_hi);
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Writes target row `t` of `next`: gathers it, absorbs its cells at
    /// `µ ≥ 0` (in `ABSORB` mode), retires its cells at or below
    /// `eff_floor`, and returns its range cut to its first and last
    /// non-zero cell (`(0, −1)` if none). The caller stores the range.
    fn write_row<const ABSORB: bool>(
        &mut self,
        t: i64,
        eff_floor: i64,
        w: Weights,
        absorbed: &mut Kahan,
    ) -> (i64, i64) {
        let Shape { cap, floor, width } = self.shape;
        let ti = t as usize;
        let (old_lo, old_hi) = (self.next.lo[ti], self.next.hi[ti]);
        // Rows the mass has not spread over yet hold only their diagonal
        // cell (about half the row-steps of a Table-1 pass), and so does
        // their target row: one cell, `(a·p_A + b·p_h) + b·p_H`, with no
        // range to build or cut. This path saves about 14% of a grid.
        let on_diagonal =
            |plane: &Plane, r: i64| (plane.lo[r as usize], plane.hi[r as usize]) == (r, r);
        if !ABSORB
            && 0 < t
            && t < cap - 1
            && (t - 1..=t + 1).all(|r| on_diagonal(&self.cur, r))
            && (old_lo > old_hi || on_diagonal(&self.next, t))
        {
            let a = self.cur.mass[self.shape.idx(t - 1, t - 1)];
            let b = self.cur.mass[self.shape.idx(t + 1, t + 1)];
            let v = (a * w.a + b * w.h) + b * w.hh;
            let i = self.shape.idx(t, t);
            self.next.mass[i] = v;
            #[cfg(test)]
            {
                self.target_cells += 1;
            }
            return if v != 0.0 { (t, t) } else { (0, -1) };
        }
        // Target row t gets the union of the ranges of rows t−1, t and
        // t+1, widened by one and clamped to the lattice.
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for src in (t - 1).max(self.cur.r_lo) as usize..=(t + 1).min(self.cur.r_hi) as usize {
            if self.cur.lo[src] <= self.cur.hi[src] {
                lo = lo.min(self.cur.lo[src]);
                hi = hi.max(self.cur.hi[src]);
            }
        }
        let (mut lo, mut hi) = (lo.saturating_sub(1).max(floor), hi.saturating_add(1).min(t));
        // The row's stale range from two steps ago is written too: every
        // source of a cell outside lo..=hi is zero, so the gather stores
        // +0.0 there.
        let (from, to) = if old_lo > old_hi {
            (lo, hi)
        } else {
            (lo.min(old_lo), hi.max(old_hi))
        };
        let out = &mut self.next.mass[ti * width..][..width];
        if from <= to {
            self.shape.gather_row(&self.cur.mass, out, w, t, from, to);
            #[cfg(test)]
            {
                self.target_cells += (to - from + 1) as u64;
            }
        }
        if lo > hi {
            return (0, -1);
        }
        let j = |m: i64| (m - floor) as usize;
        if ABSORB && hi >= 0 {
            for o in &mut out[j(lo.max(0))..=j(hi)] {
                absorbed.add(*o);
                *o = 0.0;
            }
            hi = -1;
        }
        if lo <= eff_floor && lo <= hi {
            for o in &mut out[j(lo)..=j(hi.min(eff_floor))] {
                self.dead += *o;
                *o = 0.0;
            }
            lo = eff_floor + 1;
        }
        if lo > hi {
            return (0, -1);
        }
        nonzero_range(&out[j(lo)..=j(hi)], lo)
    }

    /// `Pr[µ ≥ 0]` right now (including the always-violated bucket).
    fn violation_mass(&self) -> f64 {
        // Kahan summation: the masses span ~300 orders of magnitude.
        let mut acc = Kahan {
            sum: self.always,
            c: 0.0,
        };
        for r in self.cur.r_lo..=self.cur.r_hi {
            for &p in &self.cur.mass[self.live_cells(r, 0)] {
                acc.add(p);
            }
        }
        acc.sum
    }

    /// Moves all mass with `µ ≥ 0` into the `always` bucket (used by the
    /// absorbing "violated by horizon" variant).
    fn absorb_violations(&mut self) {
        let (mut r_lo, mut r_hi) = (0, -1);
        for r in self.cur.r_lo..=self.cur.r_hi {
            let ri = r as usize;
            for i in self.live_cells(r, 0) {
                self.always += self.cur.mass[i];
                self.cur.mass[i] = 0.0;
            }
            // Cut the row to its non-zero cells below µ = 0, so later
            // steps skip the emptied part. (Mass at the negative margins
            // is untouched.)
            let (lo, hi) = (self.cur.lo[ri], self.cur.hi[ri].min(-1));
            (self.cur.lo[ri], self.cur.hi[ri]) = if lo <= hi {
                let cells = &self.cur.mass[self.shape.idx(r, lo)..=self.shape.idx(r, hi)];
                nonzero_range(cells, lo)
            } else {
                (0, -1)
            };
            if self.cur.lo[ri] <= self.cur.hi[ri] {
                if r_lo > r_hi {
                    r_lo = r;
                }
                r_hi = r;
            }
        }
        (self.cur.r_lo, self.cur.r_hi) = (r_lo, r_hi);
    }

    /// The mass currently stored for cell `(r, m)`.
    #[cfg(test)]
    fn cell(&self, r: i64, m: i64) -> f64 {
        self.cur.mass[self.shape.idx(r, m)]
    }

    /// Asserts the invariant: both planes hold `+0.0` outside their
    /// ranges, rows outside a plane's row span have empty ranges, and the
    /// current plane's ranges are cut to non-zero edges.
    #[cfg(test)]
    fn assert_invariant(&self) {
        let Shape { cap, floor, .. } = self.shape;
        for (name, plane) in [("cur", &self.cur), ("next", &self.next)] {
            for r in 0..=cap {
                let (lo, hi) = (plane.lo[r as usize], plane.hi[r as usize]);
                if r < plane.r_lo || r > plane.r_hi {
                    assert!(lo > hi, "{name}: row {r} outside the row span");
                }
                for m in floor..=cap {
                    let bits = plane.mass[self.shape.idx(r, m)].to_bits();
                    if m < lo || m > hi {
                        assert_eq!(bits, 0, "{name}: cell ({r}, {m}) outside its range");
                    }
                }
            }
        }
        for r in self.cur.r_lo..=self.cur.r_hi {
            let cells = &self.cur.mass[self.live_cells(r, floor)];
            if let (Some(&first), Some(&last)) = (cells.first(), cells.last()) {
                assert!(first != 0.0 && last != 0.0, "row {r} has a zero edge");
            }
        }
    }

    #[cfg(test)]
    fn total_mass(&self) -> f64 {
        let mut acc = self.always + self.dead;
        for r in self.cur.r_lo..=self.cur.r_hi {
            for &p in &self.cur.mass[self.live_cells(r, self.shape.floor)] {
                acc += p;
            }
        }
        acc
    }
}

/// A Kahan-compensated sum.
#[derive(Debug, Default)]
struct Kahan {
    sum: f64,
    /// The running compensation: the low-order bits lost so far.
    c: f64,
}

impl Kahan {
    fn add(&mut self, x: f64) {
        let y = x - self.c;
        let t = self.sum + y;
        self.c = (t - self.sum) - y;
        self.sum = t;
    }
}

/// The margins of the first and last non-zero cell of `cells`, whose
/// first cell has margin `lo` (an empty range if every cell is zero).
fn nonzero_range(cells: &[f64], lo: i64) -> (i64, i64) {
    match cells.iter().position(|&p| p != 0.0) {
        Some(first) => {
            let last = cells.iter().rposition(|&p| p != 0.0).expect("first exists");
            (lo + first as i64, lo + last as i64)
        }
        None => (0, -1),
    }
}

impl ExactSettlement {
    /// Creates the calculator for the given Bernoulli condition.
    pub fn new(cond: BernoulliCondition) -> ExactSettlement {
        ExactSettlement { cond }
    }

    /// The condition in force.
    pub fn condition(&self) -> BernoulliCondition {
        self.cond
    }

    /// The stationary dominating reach law `X_∞` truncated to `0..cap`,
    /// plus the lumped tail mass (Equation (9)).
    fn reach_law_stationary(&self, cap: usize) -> (Vec<f64>, f64) {
        let eps = self.cond.epsilon();
        let beta = (1.0 - eps) / (1.0 + eps);
        let mut law = Vec::with_capacity(cap);
        let mut acc = 0.0;
        for r in 0..cap {
            let p = (1.0 - beta) * beta.powi(r as i32);
            law.push(p);
            acc += p;
        }
        (law, (1.0 - acc).max(0.0))
    }

    /// The law of `ρ(x)` for `|x| = m`, truncated to `0..cap` with lumped
    /// tail, via the birth–death recurrence of Equation (13).
    ///
    /// The walk is run over an extended lattice `0..R` so that excursions
    /// above `cap` that later return are tracked exactly; only mass beyond
    /// `R` — at most `m·β^R < 1e-300` by stochastic dominance under `X_∞`
    /// — is conservatively lumped into the tail. Mass ending in `[cap, R)`
    /// is folded into the tail as well, which is *exact* for the settlement
    /// DP: an initial reach `≥ cap = k + 2` forces `µ ≥ 2` at every
    /// checkpoint within the horizon.
    fn reach_law_finite(&self, m: usize, cap: usize) -> (Vec<f64>, f64) {
        let p_a = self.cond.p_adversarial();
        let p_honest = 1.0 - p_a;
        let eps = self.cond.epsilon();
        let beta = (1.0 - eps) / (1.0 + eps);
        // Extra headroom so that the chance of ever crossing R within m
        // steps is below ~1e-300 (union bound over steps, each dominated
        // by the stationary tail β^R).
        let extra = if beta <= 0.0 {
            0
        } else {
            let need = (1e-300f64 / (m as f64 + 1.0)).ln() / beta.ln();
            (need.ceil().max(0.0) as usize).min(m)
        };
        let r_max = cap + extra;
        let (mut law, mut next) = (vec![0.0; r_max], vec![0.0; r_max]);
        let mut escaped = 0.0;
        law[0] = 1.0;
        for _ in 0..m {
            next.fill(0.0);
            for (r, &p) in law.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                if r + 1 < r_max {
                    next[r + 1] += p * p_a;
                } else {
                    escaped += p * p_a;
                }
                next[r.saturating_sub(1)] += p * p_honest;
            }
            std::mem::swap(&mut law, &mut next);
        }
        let mut tail = escaped;
        for &p in &law[cap..] {
            tail += p;
        }
        law.truncate(cap);
        (law, tail)
    }

    /// The exact probability that slot `|x| + 1` suffers a `k`-settlement
    /// violation — `Pr[µ_x(y) ≥ 0]` at `|y| = k` — in the limit
    /// `|x| → ∞` (Table 1's setting).
    pub fn violation_probability(&self, k: usize) -> f64 {
        *self
            .violation_probabilities(&[k])
            .first()
            .expect("one checkpoint requested")
    }

    /// [`Self::violation_probability`] at several checkpoints, sharing one
    /// DP pass sized for the largest. The full `Pr[µ ≥ 0]` sweep runs only
    /// at the requested checkpoints, never at intermediate steps.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty.
    pub fn violation_probabilities(&self, checkpoints: &[usize]) -> Vec<f64> {
        assert!(!checkpoints.is_empty(), "need at least one checkpoint");
        let k_max = *checkpoints.iter().max().expect("non-empty");
        let mut lat = Lattice::new(k_max);
        let (law, tail) = self.reach_law_stationary(lat.shape.cap as usize);
        lat.seed(&law, tail);
        self.run(&mut lat, checkpoints, k_max)
    }

    /// Violation probabilities with a finite prefix `|x| = m` instead of
    /// the stationary law.
    pub fn violation_probabilities_finite_prefix(
        &self,
        m: usize,
        checkpoints: &[usize],
    ) -> Vec<f64> {
        assert!(!checkpoints.is_empty(), "need at least one checkpoint");
        let k_max = *checkpoints.iter().max().expect("non-empty");
        let mut lat = Lattice::new(k_max);
        let (law, tail) = self.reach_law_finite(m, lat.shape.cap as usize);
        lat.seed(&law, tail);
        self.run(&mut lat, checkpoints, k_max)
    }

    fn run(&self, lat: &mut Lattice, checkpoints: &[usize], k_max: usize) -> Vec<f64> {
        let w = Weights::of(&self.cond);
        let mut needed = vec![false; k_max + 1];
        for &k in checkpoints {
            needed[k] = true;
        }
        let mut at = vec![f64::NAN; k_max + 1];
        if needed[0] {
            at[0] = lat.violation_mass();
        }
        for step in 1..=k_max {
            lat.step(w, (k_max - step) as i64);
            if needed[step] {
                at[step] = lat.violation_mass();
            }
        }
        checkpoints.iter().map(|&k| at[k].min(1.0)).collect()
    }

    /// The probability that a violation occurs **at any horizon in
    /// `k..=horizon`** (the conservative reading of Definition 3, where
    /// the adversary may strike at any time once `k` slots have passed):
    /// `Pr[∃ L ∈ [k, horizon] : µ_x(y_L) ≥ 0]`, `|x| → ∞`.
    ///
    /// Violating mass is absorbed incrementally inside the step kernel
    /// (no per-step sweep): after the one sweep at step `k`, every later
    /// target cell at `µ ≥ 0` goes straight into the absorbed bucket with
    /// Kahan compensation instead of being stored.
    ///
    /// # Panics
    ///
    /// Panics if `horizon < k`.
    pub fn violation_by_horizon(&self, k: usize, horizon: usize) -> f64 {
        assert!(horizon >= k, "horizon {horizon} below checkpoint {k}");
        let mut lat = Lattice::new(horizon);
        let (law, tail) = self.reach_law_stationary(lat.shape.cap as usize);
        lat.seed(&law, tail);
        let w = Weights::of(&self.cond);
        for step in 1..=k {
            lat.step(w, (horizon - step) as i64);
        }
        lat.absorb_violations();
        for step in k + 1..=horizon {
            lat.step_absorbing(w, (horizon - step) as i64);
        }
        lat.always.min(1.0)
    }
}

#[cfg(test)]
mod reference {
    //! The pre-banding kernel, kept verbatim as the equivalence oracle:
    //! full-rectangle scan, fresh allocation per step, sweep-based
    //! absorption. The banded kernel must reproduce it bit-for-bit (modulo
    //! the documented Kahan compensation in fused absorption).

    pub(super) struct NaiveLattice {
        pub(super) cap: i64,
        floor: i64,
        mass: Vec<f64>,
        pub(super) always: f64,
        width: usize,
    }

    impl NaiveLattice {
        pub(super) fn new(k: usize) -> NaiveLattice {
            let cap = k as i64 + 2;
            let floor = -(k as i64 + 1);
            let width = (cap - floor + 1) as usize;
            NaiveLattice {
                cap,
                floor,
                mass: vec![0.0; (cap as usize + 1) * width],
                always: 0.0,
                width,
            }
        }

        fn idx(&self, r: i64, m: i64) -> usize {
            r as usize * self.width + (m - self.floor) as usize
        }

        pub(super) fn cell(&self, r: i64, m: i64) -> f64 {
            self.mass[self.idx(r, m)]
        }

        pub(super) fn seed(&mut self, reach_law: &[f64], tail: f64) {
            for (r, &p) in reach_law.iter().enumerate() {
                let i = self.idx(r as i64, r as i64);
                self.mass[i] += p;
            }
            self.always += tail;
        }

        pub(super) fn step(&mut self, p_h: f64, p_hh: f64, p_a: f64) {
            let mut next = vec![0.0; self.mass.len()];
            for r in 0..=self.cap {
                for m in self.floor..=r.min(self.cap) {
                    let p = self.mass[self.idx(r, m)];
                    if p == 0.0 {
                        continue;
                    }
                    if m == self.floor || m == self.cap {
                        next[self.idx(r, m)] += p;
                        continue;
                    }
                    {
                        let r2 = (r + 1).min(self.cap);
                        let m2 = (m + 1).min(r2);
                        next[self.idx(r2, m2)] += p * p_a;
                    }
                    let r2 = if r == self.cap {
                        self.cap
                    } else {
                        (r - 1).max(0)
                    };
                    let positive_reach = r > 0;
                    {
                        let m2 = if m == 0 && positive_reach { 0 } else { m - 1 };
                        next[self.idx(r2, m2.max(self.floor))] += p * p_h;
                    }
                    {
                        let m2 = if m == 0 { 0 } else { m - 1 };
                        next[self.idx(r2, m2.max(self.floor))] += p * p_hh;
                    }
                }
            }
            self.mass = next;
        }

        pub(super) fn violation_mass(&self) -> f64 {
            let mut acc = self.always;
            let mut compensation = 0.0;
            for r in 0..=self.cap {
                for m in 0..=r.min(self.cap) {
                    let y = self.mass[self.idx(r, m)] - compensation;
                    let t = acc + y;
                    compensation = (t - acc) - y;
                    acc = t;
                }
            }
            acc
        }

        pub(super) fn absorb_violations(&mut self) {
            for r in 0..=self.cap {
                for m in 0..=r.min(self.cap) {
                    let i = self.idx(r, m);
                    self.always += self.mass[i];
                    self.mass[i] = 0.0;
                }
            }
        }

        pub(super) fn total_mass(&self) -> f64 {
            self.always + self.mass.iter().sum::<f64>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_chars::CharString;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cond(alpha: f64, ph_ratio: f64) -> BernoulliCondition {
        let p_h = ph_ratio * (1.0 - alpha);
        BernoulliCondition::from_probabilities(p_h, 1.0 - alpha - p_h, alpha).unwrap()
    }

    #[test]
    fn mass_is_conserved() {
        let e = ExactSettlement::new(cond(0.3, 0.8));
        let mut lat = Lattice::new(40);
        let (law, tail) = e.reach_law_stationary(lat.shape.cap as usize);
        lat.seed(&law, tail);
        assert!((lat.total_mass() - 1.0).abs() < 1e-12);
        for step in 0..40 {
            lat.step(
                Weights {
                    a: 0.3,
                    h: 0.35,
                    hh: 0.35,
                },
                39 - step,
            );
            assert!((lat.total_mass() - 1.0).abs() < 1e-9);
        }
    }

    /// Asserts that every cell at margin `alive_floor` or above agrees bit
    /// for bit. The banded kernel retires cells below the dynamic dead
    /// floor `alive_floor − 1`; above it lies every cell that can still
    /// influence a checkpoint.
    fn assert_cells_match(
        banded: &Lattice,
        naive: &reference::NaiveLattice,
        alive_floor: i64,
        context: &str,
    ) {
        let Shape { cap, floor, .. } = banded.shape;
        for r in 0..=cap {
            for m in alive_floor.max(floor)..=r {
                assert_eq!(
                    banded.cell(r, m).to_bits(),
                    naive.cell(r, m).to_bits(),
                    "cell ({r}, {m}) diverged at {context}"
                );
            }
        }
    }

    /// Runs the banded kernel and the naive full-rectangle scan side by
    /// side for `k` steps and asserts that every cell agrees bit for bit
    /// at every step. The seed keeps every `stride`-th reach row of the
    /// stationary law, so `stride > 1` leaves rows whose only source is
    /// the row above.
    fn assert_matches_naive_cellwise(alpha: f64, ratio: f64, k: usize, stride: usize) {
        let e = ExactSettlement::new(cond(alpha, ratio));
        let w = Weights::of(&e.cond);
        let mut banded = Lattice::new(k);
        let mut naive = reference::NaiveLattice::new(k);
        let (mut law, tail) = e.reach_law_stationary(banded.shape.cap as usize);
        for (r, p) in law.iter_mut().enumerate() {
            if r % stride != 0 {
                *p = 0.0;
            }
        }
        banded.seed(&law, tail);
        naive.seed(&law, tail);
        for step in 0..=k {
            let context = format!("step {step}, k={k}, α={alpha}, ratio={ratio}");
            assert_cells_match(&banded, &naive, -((k - step) as i64), &context);
            // The range-restricted Kahan sweep may differ from the
            // full-rectangle sweep by an ulp (zero cells interact with the
            // compensation term), hence relative compare.
            let (bv, nv) = (banded.violation_mass(), naive.violation_mass());
            assert!(
                bv == nv || (bv / nv - 1.0).abs() < 1e-14,
                "violation mass diverged at step {step}, k={k}, α={alpha}: {bv:e} vs {nv:e}"
            );
            banded.step(w, (k as i64 - step as i64 - 1).max(0));
            naive.step(w.h, w.hh, w.a);
            banded.assert_invariant();
        }
    }

    #[test]
    fn banded_kernel_matches_naive_reference_cellwise() {
        // Exhaustive small-k agreement: every cell of the truncated
        // rectangle, every step, several conditions.
        for (alpha, ratio) in [(0.3, 0.8), (0.05, 1.0), (0.45, 0.25), (0.2, 0.0)] {
            for k in [1usize, 2, 3, 5, 9, 16] {
                assert_matches_naive_cellwise(alpha, ratio, k, 1);
            }
        }
    }

    #[test]
    fn banded_kernel_matches_naive_reference_cellwise_deep() {
        // Horizons where the live set's shape matters: the skew triangle
        // ρ − µ ≤ t forms, and at α = 0.01 the seeded reach tail goes
        // subnormal near ρ ≈ 154 and underflows to exact zero near
        // ρ ≈ 162, so whole rows drop out of the live set mid-run. The
        // strided seed leaves empty rows between live ones.
        for (alpha, ratio, k, stride) in [
            (0.01, 1.0, 170, 1),
            (0.01, 0.01, 170, 1),
            (0.49, 0.01, 120, 1),
            (0.3, 0.5, 60, 3),
        ] {
            assert_matches_naive_cellwise(alpha, ratio, k, stride);
        }
    }

    #[test]
    fn table1_pass_scatters_only_live_cells() {
        // The kernel's work on one Table-1 pass, as deterministic counts:
        // a change that loosens the live ranges or widens the target
        // ranges stays bit-identical and passes every other test, but
        // reads or writes more cells. (One margin band and skew bound
        // shared by all rows visits 44,834,622 cells on this pass.)
        let e = ExactSettlement::new(cond(0.30, 1.0));
        let ks = [100, 200, 300, 400, 500];
        let mut lat = Lattice::new(500);
        let (law, tail) = e.reach_law_stationary(lat.shape.cap as usize);
        lat.seed(&law, tail);
        assert_eq!(e.run(&mut lat, &ks, 500), e.violation_probabilities(&ks));
        assert_eq!(
            lat.zero_edged_rows, 0,
            "a source row began or ended on a zero cell"
        );
        assert_eq!(lat.source_cells, 15_876_499);
        assert_eq!(lat.target_cells, 16_191_000);
    }

    #[test]
    fn banded_kernel_matches_naive_reference_deep() {
        // Deeper horizons: compare the end-of-run statistics only.
        for (alpha, ratio, k) in [(0.3, 0.8, 60), (0.1, 1.0, 80), (0.4, 0.5, 50)] {
            let e = ExactSettlement::new(cond(alpha, ratio));
            let w = Weights::of(&e.cond);
            let mut banded = Lattice::new(k);
            let mut naive = reference::NaiveLattice::new(k);
            let (law, tail) = e.reach_law_stationary(banded.shape.cap as usize);
            banded.seed(&law, tail);
            naive.seed(&law, tail);
            for step in 1..=k {
                banded.step(w, (k - step) as i64);
                naive.step(w.h, w.hh, w.a);
            }
            let (bv, nv) = (banded.violation_mass(), naive.violation_mass());
            assert!(
                bv == nv || (bv / nv - 1.0).abs() < 1e-14,
                "violation mass diverged: {bv:e} vs {nv:e}"
            );
            assert!((banded.total_mass() - naive.total_mass()).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_absorption_matches_sweep_absorption() {
        // step_absorbing ≡ step + absorb_violations at every step: the
        // stored cells bit for bit, the absorbed bucket to Kahan accuracy.
        // Row cap is live (the ceiling cell holds mass) until the
        // absorption in every condition, at α = 0.49 with the most mass.
        for (alpha, ratio, k, horizon) in
            [(0.3, 0.8, 10, 30), (0.2, 0.5, 8, 40), (0.49, 0.5, 20, 60)]
        {
            let e = ExactSettlement::new(cond(alpha, ratio));
            let w = Weights::of(&e.cond);
            let mut fused = Lattice::new(horizon);
            let mut naive = reference::NaiveLattice::new(horizon);
            let (law, tail) = e.reach_law_stationary(naive.cap as usize);
            fused.seed(&law, tail);
            naive.seed(&law, tail);
            let cap = fused.shape.cap as usize;
            let mut cap_row_live = false;
            for step in 1..=horizon {
                let remaining = (horizon - step) as i64;
                if step <= k {
                    fused.step(w, remaining);
                    naive.step(w.h, w.hh, w.a);
                    cap_row_live |= fused.cur.lo[cap] <= fused.cur.hi[cap];
                    if step == k {
                        fused.absorb_violations();
                        naive.absorb_violations();
                    }
                } else {
                    fused.step_absorbing(w, remaining);
                    naive.step(w.h, w.hh, w.a);
                    naive.absorb_violations();
                }
                let context = format!("step {step}, α={alpha}, ratio={ratio}, k={k}");
                assert_cells_match(&fused, &naive, -remaining, &context);
                fused.assert_invariant();
                let (f, n) = (fused.always, naive.always);
                assert!(
                    f == n || (f / n - 1.0).abs() < 1e-12,
                    "absorbed mass diverged at {context}: {f:e} vs {n:e}"
                );
            }
            assert!(cap_row_live, "row cap never live at α={alpha}");
            assert_eq!(
                fused.always.min(1.0).to_bits(),
                e.violation_by_horizon(k, horizon).to_bits()
            );
        }
    }

    #[test]
    fn checkpoint_only_accounting_matches_per_step() {
        // Sparse checkpoints must equal the same horizons read off a dense
        // (every-step) pass.
        let e = ExactSettlement::new(cond(0.25, 0.7));
        let sparse = e.violation_probabilities(&[7, 19, 40]);
        let dense = e.violation_probabilities(&(0..=40).collect::<Vec<_>>());
        assert_eq!(sparse[0], dense[7]);
        assert_eq!(sparse[1], dense[19]);
        assert_eq!(sparse[2], dense[40]);
        // Checkpoint order is preserved even when unsorted or duplicated.
        let shuffled = e.violation_probabilities(&[40, 7, 19, 7]);
        assert_eq!(shuffled, vec![sparse[2], sparse[0], sparse[1], sparse[0]]);
    }

    #[test]
    fn violation_probability_decreases_in_k() {
        let e = ExactSettlement::new(cond(0.2, 0.5));
        let ps = e.violation_probabilities(&[5, 10, 20, 40, 80]);
        for pair in ps.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-15, "not decreasing: {ps:?}");
        }
        assert!(ps[4] > 0.0, "strictly positive violation probability");
        assert!(ps[0] < 1.0);
    }

    #[test]
    fn more_adversarial_stake_is_worse() {
        let ks = [10, 30];
        let lo = ExactSettlement::new(cond(0.1, 0.8)).violation_probabilities(&ks);
        let hi = ExactSettlement::new(cond(0.4, 0.8)).violation_probabilities(&ks);
        for (a, b) in lo.iter().zip(&hi) {
            assert!(a < b, "α=0.1 should beat α=0.4: {a} vs {b}");
        }
    }

    #[test]
    fn multi_honest_slots_hurt_but_mildly() {
        // For fixed α, converting h-mass into H-mass weakly increases the
        // violation probability (H slots can tie) — yet consistency still
        // holds; this is the paper's central quantitative claim.
        let ks = [20, 60];
        let all_h = ExactSettlement::new(cond(0.25, 1.0)).violation_probabilities(&ks);
        let half = ExactSettlement::new(cond(0.25, 0.5)).violation_probabilities(&ks);
        let none = ExactSettlement::new(cond(0.25, 0.01)).violation_probabilities(&ks);
        for i in 0..ks.len() {
            assert!(all_h[i] <= half[i] + 1e-15);
            assert!(half[i] <= none[i] + 1e-15);
        }
        // Error still decays with k even when h-slots are very rare.
        assert!(none[1] < none[0]);
    }

    #[test]
    fn finite_prefix_converges_to_stationary() {
        let e = ExactSettlement::new(cond(0.3, 0.7));
        let ks = [15];
        let stationary = e.violation_probabilities(&ks)[0];
        let short = e.violation_probabilities_finite_prefix(0, &ks)[0];
        let long = e.violation_probabilities_finite_prefix(400, &ks)[0];
        // |x| = 0 (genesis split) is easier for the honest side.
        assert!(short <= stationary + 1e-12);
        // A long prefix approaches the stationary dominating law from below.
        assert!(long <= stationary + 1e-12);
        assert!(
            (long - stationary).abs() < 1e-3,
            "long = {long}, stat = {stationary}"
        );
        assert!(
            (short - stationary).abs() > 1e-6,
            "prefix length must matter"
        );
    }

    #[test]
    fn horizon_variant_dominates_pointwise() {
        let e = ExactSettlement::new(cond(0.25, 0.6));
        let point = e.violation_probability(12);
        let by_horizon = e.violation_by_horizon(12, 40);
        assert!(by_horizon >= point - 1e-15);
        assert!(by_horizon <= 1.0);
        // Extending the horizon only adds violation mass.
        assert!(e.violation_by_horizon(12, 60) >= by_horizon - 1e-15);
    }

    #[test]
    fn matches_monte_carlo_with_long_prefix() {
        // Sample strings xy with |x| = 300, |y| = 8 and compare the margin
        // recurrence frequency of µ_x(y) ≥ 0 against the finite-prefix DP.
        let c = cond(0.3, 0.6);
        let e = ExactSettlement::new(c);
        let k = 8;
        let m = 300;
        let expected = e.violation_probabilities_finite_prefix(m, &[k])[0];
        let mut rng = StdRng::seed_from_u64(2024);
        let trials = 40_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            let w: CharString = c.sample(&mut rng, m + k);
            if crate::recurrence::margin_trace(&w, m)[k] >= 0 {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        let sigma = (expected * (1.0 - expected) / trials as f64).sqrt();
        assert!(
            (freq - expected).abs() < 5.0 * sigma + 1e-4,
            "freq = {freq}, expected = {expected}, sigma = {sigma}"
        );
    }

    #[test]
    fn table1_spot_checks() {
        // Table 1 (page 26), α columns at k = 100. Generated by the same
        // recurrence as the authors' published C++ code; we allow 5%
        // relative slack for their floating-point/truncation choices.
        let cases = [
            // (alpha, ph_ratio, k, expected)
            (0.30, 1.0, 100, 8.00e-4),
            (0.40, 1.0, 100, 1.37e-1),
            (0.30, 0.5, 100, 2.80e-3),
            (0.40, 0.25, 100, 3.17e-1),
            (0.20, 0.8, 100, 5.10e-8),
        ];
        for (alpha, ratio, k, expected) in cases {
            let p = ExactSettlement::new(cond(alpha, ratio)).violation_probability(k);
            assert!(
                (p / expected - 1.0).abs() < 0.05,
                "α={alpha} ratio={ratio} k={k}: got {p:e}, want {expected:e}"
            );
        }
    }
}
