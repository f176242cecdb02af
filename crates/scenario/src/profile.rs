//! Per-phase timing instrumentation for the columnar slot kernel,
//! unified onto the [`multihonest_obs::Recorder`] surface.
//!
//! The engine loop is generic over a [`Recorder`]; every plain entry
//! point passes the no-op `()` implementation, which compiles to nothing
//! — the hot loop pays zero instructions for the instrumentation hooks.
//! `scenario bench-report --profile` threads a [`PhaseTimes`] through
//! instead ([`ColumnarSimulation::run_streaming_profiled`]) and prints
//! the per-phase breakdown next to the headline Mslots/s figure.
//!
//! [`PhaseTimes`] is a thin adapter over [`multihonest_obs::LapTimes`]:
//! the kernel charges laps under [`Phase::label`] names, and the adapter
//! renders the fixed six-phase breakdown exactly as the pre-obs profiler
//! did (byte-compatible `--profile` output).
//!
//! Timestamps are taken at phase *boundaries* (one `Instant::now` per
//! executed phase per slot), so a profiled run is slower than a plain one
//! — the breakdown is for finding where the time goes, not for quoting
//! absolute throughput.
//!
//! [`ColumnarSimulation::run_streaming_profiled`]:
//!     crate::ColumnarSimulation::run_streaming_profiled

use multihonest_obs::{LapTimes, Recorder};

/// The phases of one slot of the columnar kernel, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Honest leaders minting and adopting their own blocks.
    Mint,
    /// The adversarial strategy's `on_slot` (observation + scheduling).
    Strategy,
    /// Draining the delivery ring and applying the fault predicate.
    Drain,
    /// Applying due deliveries to node views (known-set merges, adoption,
    /// rollback detection).
    Merge,
    /// Distinct-tip fold: uniq/divergence computation, the streaming
    /// `DivergenceFold`, and the metrics sink.
    Fold,
    /// The attached `SlotHook` (e.g. the streaming fork pipeline).
    Hook,
}

impl Phase {
    /// All phases, in execution order.
    pub const ALL: [Phase; 6] = [
        Phase::Mint,
        Phase::Strategy,
        Phase::Drain,
        Phase::Merge,
        Phase::Fold,
        Phase::Hook,
    ];

    /// A short stable label for reports — also the lap label the kernel
    /// charges through the obs [`Recorder`].
    pub fn label(self) -> &'static str {
        match self {
            Phase::Mint => "mint",
            Phase::Strategy => "strategy",
            Phase::Drain => "drain",
            Phase::Merge => "merge",
            Phase::Fold => "fold",
            Phase::Hook => "hook",
        }
    }
}

/// Accumulated wall-clock time per kernel phase — the `--profile`
/// renderer over an obs lap profile.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    laps: LapTimes,
}

impl PhaseTimes {
    /// A fresh, empty profile.
    pub fn new() -> PhaseTimes {
        PhaseTimes::default()
    }

    /// Slots observed so far.
    pub fn slots(&self) -> u64 {
        self.laps.starts()
    }

    /// Nanoseconds charged to `phase` so far.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.laps.nanos(phase.label())
    }

    /// Total nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.phase_nanos(p)).sum()
    }

    /// The underlying obs lap profile.
    pub fn laps(&self) -> &LapTimes {
        &self.laps
    }

    /// The per-phase breakdown as `(label, seconds, share)` rows, shares
    /// summing to 1 (empty profile reports zero shares).
    pub fn rows(&self) -> Vec<(&'static str, f64, f64)> {
        let total = self.total_nanos();
        Phase::ALL
            .iter()
            .map(|&p| {
                let ns = self.phase_nanos(p);
                let share = if total == 0 {
                    0.0
                } else {
                    ns as f64 / total as f64
                };
                (p.label(), ns as f64 / 1e9, share)
            })
            .collect()
    }
}

impl std::fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "phase breakdown over {} slots:", self.slots())?;
        for (label, secs, share) in self.rows() {
            writeln!(f, "  {label:<8} {secs:>9.4} s  {:>5.1}%", share * 100.0)?;
        }
        let total = self.total_nanos() as f64 / 1e9;
        let mslots = if total > 0.0 {
            self.slots() as f64 / total / 1e6
        } else {
            0.0
        };
        write!(
            f,
            "  total    {total:>9.4} s  ({mslots:.2} Mslots/s instrumented)"
        )
    }
}

impl Recorder for PhaseTimes {
    #[inline]
    fn lap_start(&mut self) {
        self.laps.lap_start();
    }

    #[inline]
    fn lap(&mut self, label: &'static str) {
        self.laps.lap(label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_report() {
        let mut p = PhaseTimes::new();
        p.lap_start();
        p.lap(Phase::Mint.label());
        p.lap(Phase::Fold.label());
        p.lap_start();
        p.lap(Phase::Merge.label());
        assert_eq!(p.slots(), 2);
        let rows = p.rows();
        assert_eq!(rows.len(), 6);
        let shares: f64 = rows.iter().map(|r| r.2).sum();
        assert!(shares == 0.0 || (shares - 1.0).abs() < 1e-9);
        let text = p.to_string();
        assert!(text.contains("mint") && text.contains("Mslots/s"));
    }

    #[test]
    fn labels_are_unique_and_ordered() {
        let labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            ["mint", "strategy", "drain", "merge", "fold", "hook"]
        );
    }

    #[test]
    fn display_format_is_byte_stable() {
        // The exact empty-profile rendering `--profile` consumers see;
        // pins the byte-compatibility contract of the obs unification.
        let p = PhaseTimes::new();
        let expect = "phase breakdown over 0 slots:\n\
                      \x20 mint        0.0000 s    0.0%\n\
                      \x20 strategy    0.0000 s    0.0%\n\
                      \x20 drain       0.0000 s    0.0%\n\
                      \x20 merge       0.0000 s    0.0%\n\
                      \x20 fold        0.0000 s    0.0%\n\
                      \x20 hook        0.0000 s    0.0%\n\
                      \x20 total       0.0000 s  (0.00 Mslots/s instrumented)";
        assert_eq!(p.to_string(), expect);
    }
}
