//! The campaign report layer: JSON + CSV, with analytic comparisons.
//!
//! A [`CampaignReport`] is derived **deterministically** from the
//! integer [`CellAggregate`]s — it carries no timing, no thread count,
//! no timestamps — so two runs of the same spec render byte-identical
//! reports whatever their execution history was (1 vs 8 threads,
//! straight vs interrupt/resume). Timing lives in the benchmark's
//! `campaign` workload (`perfbench/`).
//!
//! Per `(cell, k)` the report carries the empirical violation frequency
//! with a 95% Wilson interval, the mean number of violating anchor
//! slots, and two theory columns: the closed-form Theorem 7 tail bound
//! of `crates/analytic`, and the **exact** settlement-violation
//! probability of the margin DP evaluated on the cell's Δ-reduced
//! Bernoulli condition. The DP's horizon counts *reduced* symbols while
//! the empirical anchors count slots, so the exact column is a
//! comparison curve (per-anchor violation probability), not an estimate
//! of the same statistic — the report documents it as such.

use multihonest_adversary::montecarlo::Estimate;
use multihonest_analytic::theorem7_bound;
use multihonest_chars::{DistributionError, SemiSyncCondition};
use multihonest_margin::ExactSettlement;
use serde::Serialize;

use crate::aggregate::CellAggregate;
use crate::run::CampaignOutcome;
use crate::spec::{CampaignSpec, CellSpec};

/// Schema tag of the campaign report.
pub const REPORT_SCHEMA: &str = "multihonest-sweep-campaign/v2";

/// The per-`k` settlement block of one cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SettlementEstimate {
    /// Settlement parameter.
    pub k: u64,
    /// Executions with ≥ 1 violating anchor.
    pub violating_executions: u64,
    /// Total violating anchor slots over all executions.
    pub violating_anchors: u64,
    /// Empirical per-execution violation frequency.
    pub frequency: f64,
    /// 95% Wilson interval lower bound.
    pub wilson_low: f64,
    /// 95% Wilson interval upper bound.
    pub wilson_high: f64,
    /// Mean violating anchors per execution.
    pub mean_violating_anchors: f64,
    /// Theorem 7 closed-form tail bound (per anchor), when the cell's
    /// condition admits it.
    pub theorem7_bound: Option<f64>,
    /// Exact per-anchor violation probability of the margin DP on the
    /// Δ-reduced condition (horizon in reduced symbols — a comparison
    /// curve, not the same statistic as `frequency`).
    pub exact_reduced: Option<f64>,
}

/// One completed grid cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellReport {
    /// Row-major cell index.
    pub cell: u64,
    /// Strategy axis value ([`SweepStrategy::name`]).
    ///
    /// [`SweepStrategy::name`]: crate::SweepStrategy::name
    pub strategy: String,
    /// Δ axis value.
    pub delta: u64,
    /// Stake-profile axis value ([`StakeProfile::name`]).
    ///
    /// [`StakeProfile::name`]: crate::StakeProfile::name
    pub profile: String,
    /// Fault-profile axis value ([`FaultProfile::name`]).
    ///
    /// [`FaultProfile::name`]: crate::FaultProfile::name
    pub fault: String,
    /// The static Δ′ bound of the cell's fault plan over its Δ (equal to
    /// `delta` for fault-free cells; `None` for unbounded plans). Theory
    /// columns are evaluated at this Δ′, which is what keeps them
    /// conservative for faulty cells.
    pub delta_prime: Option<u64>,
    /// Fault-deferred delivery events summed over trials.
    pub deferred_deliveries: u64,
    /// Fault-parked deliveries dropped at the horizon, summed over
    /// trials.
    pub dropped_deliveries: u64,
    /// Worst observed effective Δ in any trial (0 = no fault deferral).
    pub worst_effective_delta: u64,
    /// Trials folded into this cell.
    pub trials: u64,
    /// Total honest rollbacks across trials.
    pub rollbacks: u64,
    /// Maximum slot divergence seen in any trial.
    pub max_slot_divergence: u64,
    /// Maximum settlement lag seen in any trial (`-1` = none).
    pub max_settlement_lag: i64,
    /// Mean final chain height.
    pub mean_final_height: f64,
    /// Mean chain-quality (honest blocks / chain blocks) of final chains.
    pub chain_quality: f64,
    /// Mean active slots per execution.
    pub mean_active_slots: f64,
    /// Order-invariant aggregate fingerprint (see [`CellAggregate`]).
    pub fingerprint: u64,
    /// Per-`k` settlement estimates, aligned with the spec's `ks`.
    pub settlement: Vec<SettlementEstimate>,
}

/// The full campaign report. Timing-free by design; see module docs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignReport {
    /// Always [`REPORT_SCHEMA`].
    pub schema: String,
    /// The spec fingerprint (ties the report to its checkpoint family).
    pub spec_fingerprint: u64,
    /// Root seed of the seed-sharding scheme.
    pub root_seed: u64,
    /// Slots per execution.
    pub slots: u64,
    /// Trials per cell.
    pub trials_per_cell: u64,
    /// Honest node count.
    pub honest_nodes: u64,
    /// Adversarial relative stake.
    pub adversarial_stake: f64,
    /// Active-slot coefficient.
    pub active_slot_coeff: f64,
    /// Grid size.
    pub total_cells: u64,
    /// Cells with complete aggregates in this report.
    pub completed_cells: u64,
    /// Total executions folded into the report.
    pub executions: u64,
    /// Completed cells, sorted by index.
    pub cells: Vec<CellReport>,
}

/// The per-slot leadership condition under φ-aggregation of a stake
/// split: `f` is exact (the φ aggregation property: `Pr[some leader] =
/// f` whatever the split), `p_A = φ(adversarial stake)`, and `p_h` is
/// the probability of a *unique* honest leader. Shared by the campaign
/// report and the fault conservatism harness.
pub fn leadership_condition(
    active_slot_coeff: f64,
    adversarial_stake: f64,
    stakes: &[f64],
) -> Result<SemiSyncCondition, DistributionError> {
    let f = active_slot_coeff;
    let phi = |alpha: f64| 1.0 - (1.0 - f).powf(alpha);
    let q = phi(adversarial_stake);
    let prod: f64 = stakes.iter().map(|&s| 1.0 - phi(s)).product();
    let sum_unique: f64 = stakes.iter().map(|&s| phi(s) / (1.0 - phi(s))).sum::<f64>() * prod;
    let p_h = (1.0 - q) * sum_unique;
    SemiSyncCondition::new(f, q, p_h)
}

/// The leadership condition of a cell (its stake profile under
/// [`leadership_condition`]).
fn cell_condition(
    spec: &CampaignSpec,
    cell: &CellSpec,
) -> Result<SemiSyncCondition, DistributionError> {
    leadership_condition(
        spec.active_slot_coeff,
        spec.adversarial_stake,
        &spec.stakes_for(cell),
    )
}

/// Builds the report from a campaign outcome. Incomplete cells (an
/// interrupted run) are simply absent; a completed campaign reports
/// every cell.
pub fn campaign_report(spec: &CampaignSpec, outcome: &CampaignOutcome) -> CampaignReport {
    let cells = spec.cells();
    let mut reports = Vec::with_capacity(outcome.completed_cells);
    for (cell, agg) in cells.iter().zip(&outcome.aggregates) {
        let Some(agg) = agg else { continue };
        reports.push(cell_report(spec, cell, agg));
    }
    CampaignReport {
        schema: REPORT_SCHEMA.to_string(),
        spec_fingerprint: spec.fingerprint(),
        root_seed: spec.seed,
        slots: spec.slots as u64,
        trials_per_cell: spec.trials_per_cell,
        honest_nodes: spec.honest_nodes as u64,
        adversarial_stake: spec.adversarial_stake,
        active_slot_coeff: spec.active_slot_coeff,
        total_cells: spec.cell_count() as u64,
        completed_cells: reports.len() as u64,
        executions: reports.iter().map(|c: &CellReport| c.trials).sum(),
        cells: reports,
    }
}

fn cell_report(spec: &CampaignSpec, cell: &CellSpec, agg: &CellAggregate) -> CellReport {
    let trials = agg.trials.max(1) as f64;
    // Theory columns: shared by every k of the cell, evaluated at the
    // fault plan's static Δ′ bound (= Δ for fault-free cells) so they
    // stay conservative for the degraded network; absent when the plan
    // is unbounded.
    let delta_prime = cell
        .fault
        .plan(spec.honest_nodes, spec.slots)
        .worst_case_delta(cell.delta);
    let condition = cell_condition(spec, cell);
    let exact = condition
        .as_ref()
        .ok()
        .zip(delta_prime)
        .and_then(|(c, dp)| c.reduced_condition(dp).ok())
        .map(ExactSettlement::new);
    let exact_probs: Option<Vec<f64>> = exact.map(|e| e.violation_probabilities(&spec.ks));
    let settlement = spec
        .ks
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let estimate = Estimate {
                hits: agg.violating_executions[i],
                trials: agg.trials,
            };
            let (wilson_low, wilson_high) = estimate.wilson_interval(1.96);
            SettlementEstimate {
                k: k as u64,
                violating_executions: agg.violating_executions[i],
                violating_anchors: agg.violating_anchors[i],
                frequency: estimate.frequency(),
                wilson_low,
                wilson_high,
                mean_violating_anchors: agg.violating_anchors[i] as f64 / trials,
                theorem7_bound: condition
                    .as_ref()
                    .ok()
                    .zip(delta_prime)
                    .and_then(|(c, dp)| theorem7_bound(c, dp, k).ok()),
                exact_reduced: exact_probs.as_ref().map(|p| p[i]),
            }
        })
        .collect();
    CellReport {
        cell: cell.index as u64,
        strategy: cell.strategy.name(),
        delta: cell.delta as u64,
        profile: cell.profile.name().to_string(),
        fault: cell.fault.name(),
        delta_prime: delta_prime.map(|d| d as u64),
        deferred_deliveries: agg.deferred_deliveries,
        dropped_deliveries: agg.dropped_deliveries,
        worst_effective_delta: agg.worst_effective_delta,
        trials: agg.trials,
        rollbacks: agg.rollbacks,
        max_slot_divergence: agg.max_slot_divergence,
        max_settlement_lag: agg.max_settlement_lag,
        mean_final_height: agg.final_height as f64 / trials,
        chain_quality: if agg.chain_blocks == 0 {
            1.0
        } else {
            agg.honest_chain_blocks as f64 / agg.chain_blocks as f64
        },
        mean_active_slots: agg.active_slots as f64 / trials,
        fingerprint: agg.fingerprint,
        settlement,
    }
}

/// Renders the report as pretty JSON (trailing newline included) —
/// the byte stream the resume/thread-invariance tests compare.
pub fn report_json(report: &CampaignReport) -> String {
    let mut out = serde_json::to_string_pretty(report).expect("serializable");
    out.push('\n');
    out
}

/// Renders the report as CSV: one row per `(cell, k)`, empty theory
/// columns when the cell's condition does not admit them.
pub fn report_csv(report: &CampaignReport) -> String {
    let mut out = String::from(
        "cell,strategy,delta,profile,fault,delta_prime,k,trials,violating_executions,frequency,\
         wilson_low,wilson_high,mean_violating_anchors,theorem7_bound,exact_reduced\n",
    );
    for cell in &report.cells {
        for s in &cell.settlement {
            let opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                cell.cell,
                cell.strategy,
                cell.delta,
                cell.profile,
                cell.fault,
                cell.delta_prime.map(|d| d.to_string()).unwrap_or_default(),
                s.k,
                cell.trials,
                s.violating_executions,
                s.frequency,
                s.wilson_low,
                s.wilson_high,
                s.mean_violating_anchors,
                opt(s.theorem7_bound),
                opt(s.exact_reduced),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_campaign, RunOptions};
    use crate::spec::{FaultProfile, StakeProfile, SweepStrategy};
    use multihonest_sim::TieBreak;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            strategies: vec![
                SweepStrategy::Honest,
                SweepStrategy::Withholding { release_lag: 0 },
            ],
            deltas: vec![0, 2],
            profiles: vec![StakeProfile::Uniform],
            faults: vec![FaultProfile::None],
            honest_nodes: 5,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.25,
            tie_break: TieBreak::AdversarialOrder,
            slots: 120,
            trials_per_cell: 6,
            ks: vec![4, 16],
            seed: 11,
        }
    }

    #[test]
    fn report_is_deterministic_and_complete() {
        let spec = tiny_spec();
        let outcome = run_campaign(&spec, &RunOptions::default()).unwrap();
        assert!(outcome.is_complete());
        let report = campaign_report(&spec, &outcome);
        assert_eq!(report.completed_cells, 4);
        assert_eq!(report.executions, 24);
        for cell in &report.cells {
            assert_eq!(cell.trials, 6);
            assert_eq!(cell.settlement.len(), 2);
            for s in &cell.settlement {
                assert!(s.frequency >= s.wilson_low - 1e-12);
                assert!(s.frequency <= s.wilson_high + 1e-12);
                if let Some(b) = s.theorem7_bound {
                    assert!((0.0..=1.0).contains(&b));
                }
                if let Some(e) = s.exact_reduced {
                    assert!((0.0..=1.0).contains(&e));
                }
            }
        }
        // Withholding must violate at least as often as honest play at
        // the same Δ (k = 4 at 120 slots sees violations readily).
        let freq = |strategy: &str, delta: u64| {
            report
                .cells
                .iter()
                .find(|c| c.strategy == strategy && c.delta == delta)
                .expect("cell present")
                .settlement[0]
                .frequency
        };
        assert!(freq("withhold-lag0", 2) >= freq("honest", 2));
        // Rendering is a pure function of the report.
        assert_eq!(report_json(&report), report_json(&report));
        let csv = report_csv(&report);
        assert_eq!(csv.lines().count(), 1 + 4 * 2, "header + (cells × ks)");
    }

    #[test]
    fn fault_cells_report_degradation_at_delta_prime() {
        // A sparse spec keeps the Δ′-shifted theory columns admissible.
        let mut spec = tiny_spec();
        spec.active_slot_coeff = 0.05;
        spec.strategies = vec![SweepStrategy::Honest];
        spec.deltas = vec![1];
        spec.faults = vec![FaultProfile::None, FaultProfile::PartitionHalves];
        spec.slots = 200;
        spec.trials_per_cell = 24;
        let outcome = run_campaign(&spec, &RunOptions::default()).unwrap();
        let report = campaign_report(&spec, &outcome);
        assert_eq!(report.completed_cells, 2);
        let clean = &report.cells[0];
        let faulty = &report.cells[1];
        assert_eq!(clean.fault, "none");
        assert_eq!(faulty.fault, "partition-halves");
        // Fault-free cells: Δ′ = Δ, zero degradation.
        assert_eq!(clean.delta_prime, Some(1));
        assert_eq!(clean.deferred_deliveries, 0);
        assert_eq!(clean.worst_effective_delta, 0);
        // Faulty cells: Δ′ = Δ + window length, degradation recorded and
        // within the static bound, nothing dropped.
        assert_eq!(faulty.delta_prime, Some(5));
        assert!(faulty.deferred_deliveries > 0, "the partition must bite");
        assert_eq!(faulty.dropped_deliveries, 0);
        assert!(faulty.worst_effective_delta <= 5);
        for s in &faulty.settlement {
            assert!(s.theorem7_bound.is_some(), "Δ′ = 5 stays admissible");
            assert!(s.exact_reduced.is_some());
        }
        let csv = report_csv(&report);
        assert!(csv.lines().next().unwrap().contains("fault,delta_prime"));
        assert!(csv.contains("partition-halves"));
    }

    #[test]
    fn theory_columns_follow_condition_20() {
        // A sparse chain (f = 0.05) satisfies Theorem 7's condition (20)
        // for every Δ of the grid, so both theory columns are present.
        let mut sparse = tiny_spec();
        sparse.active_slot_coeff = 0.05;
        sparse.deltas = vec![0, 2, 4];
        sparse.slots = 80;
        sparse.trials_per_cell = 2;
        let cond =
            cell_condition(&sparse, &sparse.cells()[0]).expect("sparse setting is admissible");
        // φ aggregation: Pr[some leader] = f exactly.
        assert!((cond.f() - sparse.active_slot_coeff).abs() < 1e-12);
        let outcome = run_campaign(&sparse, &RunOptions::default()).unwrap();
        let report = campaign_report(&sparse, &outcome);
        for cell in &report.cells {
            for s in &cell.settlement {
                assert!(s.theorem7_bound.is_some(), "Δ = {} k = {}", cell.delta, s.k);
                assert!(s.exact_reduced.is_some());
            }
        }

        // The dense tiny spec (f = 0.25) breaks condition (20) at Δ = 2:
        // the reduced adversarial probability reaches ½ and both theory
        // columns are rightly absent, while Δ = 0 still admits them.
        let dense = tiny_spec();
        let outcome = run_campaign(&dense, &RunOptions::default()).unwrap();
        let report = campaign_report(&dense, &outcome);
        for cell in &report.cells {
            for s in &cell.settlement {
                assert_eq!(
                    s.theorem7_bound.is_some(),
                    cell.delta == 0,
                    "Δ = {}",
                    cell.delta
                );
                assert_eq!(s.exact_reduced.is_some(), cell.delta == 0);
            }
        }
    }
}
