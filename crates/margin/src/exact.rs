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
//! ## Banded double-buffer kernel
//!
//! Within the truncated rectangle the occupied set is much smaller than
//! `O(k²)` for most of the run, and the kernel exploits that:
//!
//! * **Per-row live ranges.** All mass starts on the diagonal `µ = ρ`,
//!   and a source `(ρ, µ)` only writes to rows `ρ − 1..=ρ + 1` and margins
//!   `µ − 1..=µ + 1`. The lattice keeps, for every reach row `r`, a live
//!   margin range `lo[r]..=hi[r]` outside which the row holds no mass.
//!   Each step first cuts every source row to its first and last non-zero
//!   cell, then gives target row `r` the union of the cut ranges of rows
//!   `r − 1`, `r` and `r + 1`, widened by one and clamped to the lattice.
//!   So the kernel reads, zeroes and scatters only cells that can hold
//!   mass: in `(ρ, d = ρ − µ)` coordinates the mass with `d ≥ 1` fills the
//!   triangle `ρ + d ≤ t`, not a rectangle, and rows whose mass underflows
//!   to exact zero (e.g. the geometric reach tail for small `α`) drop out
//!   for good. This is lossless: a cell outside its row's range provably
//!   holds zero mass.
//! * **Ping-pong buffers.** `step` scatters into a pre-allocated second
//!   buffer (zeroing only the target ranges) and swaps it, with its
//!   per-row ranges, into place — no heap allocation after construction.
//! * **Checkpoint-only accounting.** The `Pr[µ ≥ 0]` Kahan sweep runs only
//!   at requested checkpoints; `violation_by_horizon` instead fuses the
//!   absorption of violating mass into the step itself (an incremental
//!   accumulator), so no per-step full sweep remains anywhere.
//!
//! Per source cell the kernel performs the same floating-point additions
//! in the same order as the straightforward full-rectangle scan, so its
//! output is bit-for-bit identical to the reference kernel (kept under
//! `#[cfg(test)]` and compared exhaustively).

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

/// The joint law of `(ρ, µ)` over the truncated lattice, plus absorbed
/// mass buckets.
///
/// Invariant: every cell holding non-zero mass lies in a live row
/// `r ∈ r_lo..=r_hi`, inside that row's live margin range `lo[r]..=hi[r]`
/// (empty if `lo[r] > hi[r]`), which stays within the structural
/// `floor ≤ m ≤ min(r, cap)`. Cells outside these ranges may hold stale
/// values (from two steps ago, or mass already retired or absorbed) and
/// must never be read; all sweeps below are range-restricted.
#[derive(Debug, Clone)]
struct Lattice {
    /// Horizon this lattice was sized for.
    cap: i64,
    /// Margin floor (absorbing dead state), `= −(k + 1)`.
    floor: i64,
    /// `mass[idx(r, m)]`, `r ∈ 0..=cap`, `m ∈ floor..=cap`, `m ≤ r`.
    mass: Vec<f64>,
    /// Ping-pong partner of `mass`; holds the previous step outside the
    /// current ranges.
    next: Vec<f64>,
    /// Mass absorbed at "margin ≥ cap forever" (always a violation).
    always: f64,
    /// Mass retired below the dynamic dead floor: cells whose margin can
    /// no longer return to `0` within the remaining steps of the run.
    /// Never read by any violation statistic (its margin is negative at
    /// every remaining checkpoint); kept only so total mass is conserved.
    dead: f64,
    width: usize,
    /// Lowest/highest live reach row (empty if `r_lo > r_hi`).
    r_lo: i64,
    r_hi: i64,
    /// Live margin range `lo[r]..=hi[r]` of each row of `mass`.
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Ping-pong partners of `lo`/`hi`: the ranges of `next`.
    next_lo: Vec<i64>,
    next_hi: Vec<i64>,
    /// Source cells scattered so far (test builds only: pins the work).
    #[cfg(test)]
    scattered_cells: u64,
    /// Scattered rows whose first or last cell held zero (test builds
    /// only; the cut in `step` keeps it at zero).
    #[cfg(test)]
    zero_edged_rows: u64,
}

impl Lattice {
    fn new(k: usize) -> Lattice {
        let cap = k as i64 + 2;
        let floor = -(k as i64 + 1);
        let width = (cap - floor + 1) as usize;
        let rows = cap as usize + 1;
        Lattice {
            cap,
            floor,
            mass: vec![0.0; rows * width],
            next: vec![0.0; rows * width],
            always: 0.0,
            dead: 0.0,
            width,
            r_lo: 0,
            r_hi: -1,
            lo: vec![0; rows],
            hi: vec![-1; rows],
            next_lo: vec![0; rows],
            next_hi: vec![-1; rows],
            #[cfg(test)]
            scattered_cells: 0,
            #[cfg(test)]
            zero_edged_rows: 0,
        }
    }

    #[inline]
    fn idx(&self, r: i64, m: i64) -> usize {
        debug_assert!((0..=self.cap).contains(&r));
        debug_assert!((self.floor..=self.cap).contains(&m));
        r as usize * self.width + (m - self.floor) as usize
    }

    /// Buffer indices of row `r`'s live cells with margin at least
    /// `m_min` (empty if there are none).
    #[inline]
    fn live_cells(&self, r: i64, m_min: i64) -> std::ops::Range<usize> {
        let (lo, hi) = (self.lo[r as usize].max(m_min), self.hi[r as usize]);
        if lo > hi {
            return 0..0;
        }
        self.idx(r, lo)..self.idx(r, hi) + 1
    }

    /// Seeds the diagonal `µ = ρ = r` with the given reach distribution;
    /// `tail` is the lumped mass `Pr[ρ ≥ cap]` (always a violation within
    /// the horizon).
    fn seed(&mut self, reach_law: &[f64], tail: f64) {
        debug_assert_eq!(reach_law.len() as i64, self.cap);
        for (r, &p) in reach_law.iter().enumerate() {
            let i = self.idx(r as i64, r as i64);
            self.mass[i] += p;
            if p != 0.0 {
                let r = r as i64;
                if self.r_lo > self.r_hi {
                    self.r_lo = r;
                }
                self.r_hi = r;
                self.lo[r as usize] = r;
                self.hi[r as usize] = r;
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
    fn step(&mut self, p_h: f64, p_hh: f64, p_a: f64, remaining: i64) {
        self.step_impl::<false>(p_h, p_hh, p_a, remaining);
    }

    /// One step that immediately diverts any mass landing on `µ ≥ 0` into
    /// the `always` bucket — equivalent to `step` followed by
    /// [`Self::absorb_violations`], without the extra sweep.
    fn step_absorbing(&mut self, p_h: f64, p_hh: f64, p_a: f64, remaining: i64) {
        self.step_impl::<true>(p_h, p_hh, p_a, remaining);
    }

    fn step_impl<const ABSORB: bool>(&mut self, p_h: f64, p_hh: f64, p_a: f64, remaining: i64) {
        let (cap, floor, width) = (self.cap, self.floor, self.width);
        // Cut every source row to its first and last non-zero cell. A
        // dedicated scan keeps the hot transition loop branch-free.
        let (mut s_r_lo, mut s_r_hi) = (i64::MAX, i64::MIN);
        for r in self.r_lo..=self.r_hi {
            let cells = self.live_cells(r, floor);
            let row = &self.mass[cells];
            let (ri, lo) = (r as usize, self.lo[r as usize]);
            let Some(first) = row.iter().position(|&p| p != 0.0) else {
                self.hi[ri] = lo - 1;
                continue;
            };
            let last = row.iter().rposition(|&p| p != 0.0).expect("first exists");
            self.lo[ri] = lo + first as i64;
            self.hi[ri] = lo + last as i64;
            s_r_lo = s_r_lo.min(r);
            s_r_hi = r;
        }
        if s_r_lo > s_r_hi {
            // All mass was absorbed or retired: nothing to propagate.
            self.r_lo = 0;
            self.r_hi = -1;
            return;
        }
        // A source (r, m) writes only to rows r−1..=r+1 and margins
        // m−1..=m+1, so target row r gets the union of the cut ranges of
        // rows r−1, r and r+1, widened by one and clamped to the lattice
        // (absorbing mode diverts every target with µ ≥ 0). Zero exactly
        // those cells of the scratch buffer.
        let (t_r_lo, t_r_hi) = ((s_r_lo - 1).max(0), (s_r_hi + 1).min(cap));
        for r in t_r_lo..=t_r_hi {
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            for src in (r - 1).max(s_r_lo) as usize..=(r + 1).min(s_r_hi) as usize {
                if self.lo[src] <= self.hi[src] {
                    lo = lo.min(self.lo[src]);
                    hi = hi.max(self.hi[src]);
                }
            }
            let lo = lo.saturating_sub(1).max(floor);
            let hi = hi.saturating_add(1).min(if ABSORB { -1 } else { r });
            self.next_lo[r as usize] = lo;
            self.next_hi[r as usize] = hi;
            if lo <= hi {
                let base = r as usize * width;
                self.next[base + (lo - floor) as usize..=base + (hi - floor) as usize].fill(0.0);
            }
        }
        // Kahan-compensated absorption accumulator (ABSORB mode only).
        let (mut abs_acc, mut abs_c) = (0.0f64, 0.0f64);
        let kahan_absorb = |x: f64, acc: &mut f64, c: &mut f64| {
            let y = x - *c;
            let t = *acc + y;
            *c = (t - *acc) - y;
            *acc = t;
        };
        let mass = &self.mass;
        let next = &mut self.next;
        for r in s_r_lo..=s_r_hi {
            let (m_from, m_to) = (self.lo[r as usize], self.hi[r as usize]);
            if m_from > m_to {
                continue;
            }
            let src_base = r as usize * width;
            #[cfg(test)]
            {
                self.scattered_cells += (m_to - m_from + 1) as u64;
                let edges = [
                    mass[src_base + (m_from - floor) as usize],
                    mass[src_base + (m_to - floor) as usize],
                ];
                self.zero_edged_rows += u64::from(edges.contains(&0.0));
            }
            // Row bases of the three possible target rows.
            let r_up = (r + 1).min(cap);
            let up_base = r_up as usize * width;
            let r_dn = if r == cap { cap } else { (r - 1).max(0) };
            let dn_base = r_dn as usize * width;
            let positive_reach = r > 0;
            if !ABSORB && r > 0 && r < cap {
                // Fast path for interior rows: away from the edge cells
                // (`m ∈ {floor, 0}`; `m = cap` needs `r = cap`) every source
                // performs the same three scatter adds at fixed offsets
                //   A: (r+1, m+1)   h: (r−1, m−1)   H: (r−1, m−1)
                // so the row splits into contiguous segments processed over
                // equal-length slices — no per-cell branch, no recomputed
                // indices. Adding a zero source's `+0.0` products is a
                // bitwise no-op (all masses are non-negative), so zero
                // cells need no skip.
                let mut seg_lo = m_from;
                if seg_lo == floor {
                    // Dead floor: absorbing in place.
                    let i = src_base + (seg_lo - floor) as usize;
                    next[i] += mass[i];
                    seg_lo += 1;
                }
                let (low, high) = next.split_at_mut(src_base);
                let bulk = |a: i64, b: i64, low: &mut [f64], high: &mut [f64]| {
                    if a > b {
                        return;
                    }
                    let len = (b - a + 1) as usize;
                    let s0 = src_base + (a - floor) as usize;
                    let src = &mass[s0..s0 + len];
                    let d0 = dn_base + (a - 1 - floor) as usize;
                    let dn = &mut low[d0..d0 + len];
                    let u0 = (up_base - src_base) + (a + 1 - floor) as usize;
                    let up = &mut high[u0..u0 + len];
                    for ((&p, d), u) in src.iter().zip(dn.iter_mut()).zip(up.iter_mut()) {
                        *u += p * p_a;
                        *d += p * p_h;
                        *d += p * p_hh;
                    }
                };
                if seg_lo <= 0 && 0 <= m_to {
                    bulk(seg_lo, -1, low, high);
                    // m = 0 with positive reach: h and H both keep µ at 0.
                    let p = mass[src_base + (-floor) as usize];
                    let d0 = dn_base + (-floor) as usize;
                    low[d0] += p * p_h;
                    low[d0] += p * p_hh;
                    let u0 = (up_base - src_base) + (1 - floor) as usize;
                    high[u0] += p * p_a;
                    bulk(1, m_to, low, high);
                } else {
                    // Row range entirely below or above µ = 0.
                    bulk(seg_lo, m_to, low, high);
                }
                continue;
            }
            // General path: edge rows (`r ∈ {0, cap}`) and absorbing mode.
            for m in m_from..=m_to {
                let p = mass[src_base + (m - floor) as usize];
                if p == 0.0 {
                    continue;
                }
                // Dead floor: absorbing (margin can never recover in time).
                if m == floor {
                    next[src_base + (m - floor) as usize] += p;
                    continue;
                }
                // Ceiling: absorbing (µ stays ≥ 0 through the horizon).
                if m == cap {
                    if ABSORB {
                        kahan_absorb(p, &mut abs_acc, &mut abs_c);
                    } else {
                        next[src_base + (m - floor) as usize] += p;
                    }
                    continue;
                }
                // Adversarial symbol: both up (capped).
                {
                    let m2 = (m + 1).min(r_up);
                    if ABSORB && m2 >= 0 {
                        kahan_absorb(p * p_a, &mut abs_acc, &mut abs_c);
                    } else {
                        next[up_base + (m2 - floor) as usize] += p * p_a;
                    }
                }
                // Honest symbols: ρ decreases (absorbing at cap), µ per (14).
                // b = h:
                {
                    let m2 = if m == 0 && positive_reach { 0 } else { m - 1 };
                    let m2 = m2.max(floor);
                    if ABSORB && m2 >= 0 {
                        kahan_absorb(p * p_h, &mut abs_acc, &mut abs_c);
                    } else {
                        next[dn_base + (m2 - floor) as usize] += p * p_h;
                    }
                }
                // b = H:
                {
                    let m2 = if m == 0 { 0 } else { m - 1 };
                    let m2 = m2.max(floor);
                    if ABSORB && m2 >= 0 {
                        kahan_absorb(p * p_hh, &mut abs_acc, &mut abs_c);
                    } else {
                        next[dn_base + (m2 - floor) as usize] += p * p_hh;
                    }
                }
            }
        }
        if ABSORB {
            self.always += abs_acc;
        }
        std::mem::swap(&mut self.mass, &mut self.next);
        std::mem::swap(&mut self.lo, &mut self.next_lo);
        std::mem::swap(&mut self.hi, &mut self.next_hi);
        self.r_lo = t_r_lo;
        self.r_hi = t_r_hi;
        // Dynamic dead floor: a margin below `−remaining` cannot return to
        // `0` before the run ends, so such cells never contribute to any
        // later violation statistic (nor do their descendants, which stay
        // below the moving floor). Retire them and lift each row's lower
        // edge — this turns the dead lower triangle of the lattice into a
        // scalar bucket.
        let eff_floor = floor.max(-remaining - 1).min(cap);
        for r in t_r_lo..=t_r_hi {
            let ri = r as usize;
            if self.lo[ri] <= eff_floor {
                for m in self.lo[ri]..=self.hi[ri].min(eff_floor) {
                    self.dead += self.mass[self.idx(r, m)];
                }
                self.lo[ri] = eff_floor + 1;
            }
        }
    }

    /// `Pr[µ ≥ 0]` right now (including the always-violated bucket).
    fn violation_mass(&self) -> f64 {
        let mut acc = self.always;
        let mut compensation = 0.0;
        for r in self.r_lo..=self.r_hi {
            for &p in &self.mass[self.live_cells(r, 0)] {
                // Kahan summation: the masses span ~300 orders of magnitude.
                let y = p - compensation;
                let t = acc + y;
                compensation = (t - acc) - y;
                acc = t;
            }
        }
        acc
    }

    /// Moves all mass with `µ ≥ 0` into the `always` bucket (used by the
    /// absorbing "violated by horizon" variant).
    fn absorb_violations(&mut self) {
        for r in self.r_lo..=self.r_hi {
            for i in self.live_cells(r, 0) {
                self.always += self.mass[i];
            }
            // The row above µ = −1 is now empty; cut it so subsequent steps
            // skip it. (Mass at the negative margins is untouched.)
            self.hi[r as usize] = self.hi[r as usize].min(-1);
        }
    }

    /// The mass currently stored for cell `(r, m)`; zero outside the live
    /// ranges (the raw buffer may hold stale values there).
    #[cfg(test)]
    fn cell(&self, r: i64, m: i64) -> f64 {
        let ri = r as usize;
        if r < self.r_lo || r > self.r_hi || m < self.lo[ri] || m > self.hi[ri] {
            return 0.0;
        }
        self.mass[self.idx(r, m)]
    }

    #[cfg(test)]
    fn total_mass(&self) -> f64 {
        let mut acc = self.always + self.dead;
        for r in self.r_lo..=self.r_hi {
            for &p in &self.mass[self.live_cells(r, self.floor)] {
                acc += p;
            }
        }
        acc
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
        let mut law = vec![0.0; r_max];
        let mut escaped = 0.0;
        law[0] = 1.0;
        for _ in 0..m {
            let mut next = vec![0.0; r_max];
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
            law = next;
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
        let (law, tail) = self.reach_law_stationary(lat.cap as usize);
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
        let (law, tail) = self.reach_law_finite(m, lat.cap as usize);
        lat.seed(&law, tail);
        self.run(&mut lat, checkpoints, k_max)
    }

    fn run(&self, lat: &mut Lattice, checkpoints: &[usize], k_max: usize) -> Vec<f64> {
        let p_h = self.cond.p_unique_honest();
        let p_hh = self.cond.p_multi_honest();
        let p_a = self.cond.p_adversarial();
        let mut needed = vec![false; k_max + 1];
        for &k in checkpoints {
            needed[k] = true;
        }
        let mut at = vec![f64::NAN; k_max + 1];
        if needed[0] {
            at[0] = lat.violation_mass();
        }
        for step in 1..=k_max {
            lat.step(p_h, p_hh, p_a, (k_max - step) as i64);
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
    /// transition landing on `µ ≥ 0` is diverted straight into the
    /// absorbed bucket with Kahan compensation.
    ///
    /// # Panics
    ///
    /// Panics if `horizon < k`.
    pub fn violation_by_horizon(&self, k: usize, horizon: usize) -> f64 {
        assert!(horizon >= k, "horizon {horizon} below checkpoint {k}");
        let mut lat = Lattice::new(horizon);
        let (law, tail) = self.reach_law_stationary(lat.cap as usize);
        lat.seed(&law, tail);
        let p_h = self.cond.p_unique_honest();
        let p_hh = self.cond.p_multi_honest();
        let p_a = self.cond.p_adversarial();
        for step in 1..=k {
            lat.step(p_h, p_hh, p_a, (horizon - step) as i64);
        }
        lat.absorb_violations();
        for step in k + 1..=horizon {
            lat.step_absorbing(p_h, p_hh, p_a, (horizon - step) as i64);
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
        let (law, tail) = e.reach_law_stationary(lat.cap as usize);
        lat.seed(&law, tail);
        assert!((lat.total_mass() - 1.0).abs() < 1e-12);
        for step in 0..40 {
            lat.step(0.35, 0.35, 0.3, 39 - step);
            assert!((lat.total_mass() - 1.0).abs() < 1e-9);
        }
    }

    /// Runs the banded kernel and the naive full-rectangle scan side by
    /// side for `k` steps and asserts that every cell agrees bit for bit
    /// at every step. The seed keeps every `stride`-th reach row of the
    /// stationary law, so `stride > 1` leaves rows whose only source is
    /// the row above.
    fn assert_matches_naive_cellwise(alpha: f64, ratio: f64, k: usize, stride: usize) {
        let e = ExactSettlement::new(cond(alpha, ratio));
        let p_h = e.cond.p_unique_honest();
        let p_hh = e.cond.p_multi_honest();
        let p_a = e.cond.p_adversarial();
        let mut banded = Lattice::new(k);
        let mut naive = reference::NaiveLattice::new(k);
        let (mut law, tail) = e.reach_law_stationary(banded.cap as usize);
        for (r, p) in law.iter_mut().enumerate() {
            if r % stride != 0 {
                *p = 0.0;
            }
        }
        banded.seed(&law, tail);
        naive.seed(&law, tail);
        for step in 0..=k {
            // The banded kernel retires cells below the dynamic dead floor
            // −(k − step) − 1; above it (every cell that can still
            // influence a checkpoint) agreement is bit-for-bit.
            let alive_floor = -((k - step) as i64);
            for r in 0..=banded.cap {
                for m in alive_floor.max(banded.floor)..=r.min(banded.cap) {
                    assert_eq!(
                        banded.cell(r, m).to_bits(),
                        naive.cell(r, m).to_bits(),
                        "cell ({r}, {m}) diverged at step {step}, k={k}, α={alpha}, ratio={ratio}"
                    );
                }
            }
            // The range-restricted Kahan sweep may differ from the
            // full-rectangle sweep by an ulp (zero cells interact with the
            // compensation term), hence relative compare.
            let (bv, nv) = (banded.violation_mass(), naive.violation_mass());
            assert!(
                bv == nv || (bv / nv - 1.0).abs() < 1e-14,
                "violation mass diverged at step {step}, k={k}, α={alpha}: {bv:e} vs {nv:e}"
            );
            banded.step(p_h, p_hh, p_a, (k as i64 - step as i64 - 1).max(0));
            naive.step(p_h, p_hh, p_a);
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
        // The kernel's work on one Table-1 pass, as a deterministic count:
        // a change that loosens the live ranges stays bit-identical and
        // passes every other test, but scatters more cells. (One margin
        // band and skew bound shared by all rows visits 44,834,622 cells
        // on this pass.)
        let e = ExactSettlement::new(cond(0.30, 1.0));
        let ks = [100, 200, 300, 400, 500];
        let mut lat = Lattice::new(500);
        let (law, tail) = e.reach_law_stationary(lat.cap as usize);
        lat.seed(&law, tail);
        assert_eq!(e.run(&mut lat, &ks, 500), e.violation_probabilities(&ks));
        assert_eq!(
            lat.zero_edged_rows, 0,
            "a scattered row began or ended on a zero cell"
        );
        assert_eq!(lat.scattered_cells, 15_876_499);
    }

    #[test]
    fn banded_kernel_matches_naive_reference_deep() {
        // Deeper horizons: compare the end-of-run statistics only.
        for (alpha, ratio, k) in [(0.3, 0.8, 60), (0.1, 1.0, 80), (0.4, 0.5, 50)] {
            let e = ExactSettlement::new(cond(alpha, ratio));
            let p_h = e.cond.p_unique_honest();
            let p_hh = e.cond.p_multi_honest();
            let p_a = e.cond.p_adversarial();
            let mut banded = Lattice::new(k);
            let mut naive = reference::NaiveLattice::new(k);
            let (law, tail) = e.reach_law_stationary(banded.cap as usize);
            banded.seed(&law, tail);
            naive.seed(&law, tail);
            for step in 1..=k {
                banded.step(p_h, p_hh, p_a, (k - step) as i64);
                naive.step(p_h, p_hh, p_a);
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
        // step_absorbing ≡ step + absorb_violations, to Kahan accuracy.
        for (alpha, ratio, k, horizon) in [(0.3, 0.8, 10, 30), (0.2, 0.5, 8, 40)] {
            let e = ExactSettlement::new(cond(alpha, ratio));
            let p_h = e.cond.p_unique_honest();
            let p_hh = e.cond.p_multi_honest();
            let p_a = e.cond.p_adversarial();
            let fused = e.violation_by_horizon(k, horizon);
            let mut naive = reference::NaiveLattice::new(horizon);
            let (law, tail) = e.reach_law_stationary(naive.cap as usize);
            naive.seed(&law, tail);
            for _ in 0..k {
                naive.step(p_h, p_hh, p_a);
            }
            naive.absorb_violations();
            for _ in k..horizon {
                naive.step(p_h, p_hh, p_a);
                naive.absorb_violations();
            }
            let swept = naive.always.min(1.0);
            assert!(
                (fused / swept - 1.0).abs() < 1e-12,
                "fused {fused:e} vs swept {swept:e}"
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
