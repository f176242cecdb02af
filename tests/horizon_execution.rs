//! The eviction law: [`run_horizon`] — segmented schedule sampling,
//! settled-prefix compaction, WAL checkpointing — is observationally
//! identical to a plain unsegmented streaming run. Metrics, per-`k`
//! violation aggregates, first violating anchors and the maximum
//! settlement lag must all agree; resuming from a mid-run WAL record
//! (including one with a torn tail) must reproduce the uninterrupted
//! report exactly.

use std::path::PathBuf;

use multihonest::scenario::{
    run_horizon, ColumnarSchedule, ColumnarSimulation, HorizonOptions, HorizonReport, LeaderProbs,
};
use multihonest::sim::{DivergenceIndex, Metrics, SimConfig, Strategy, TieBreak};

fn cfg(strategy: Strategy, slots: usize) -> SimConfig {
    SimConfig {
        honest_nodes: 5,
        adversarial_stake: 0.25,
        active_slot_coeff: 0.3,
        delta: 2,
        slots,
        tie_break: TieBreak::AdversarialOrder,
        strategy,
    }
}

fn stakes(config: &SimConfig) -> Vec<f64> {
    let share = (1.0 - config.adversarial_stake) / config.honest_nodes as f64;
    vec![share; config.honest_nodes]
}

fn probs(config: &SimConfig) -> LeaderProbs {
    LeaderProbs::weighted(
        &stakes(config),
        config.adversarial_stake,
        config.active_slot_coeff,
    )
}

/// The unsegmented ground truth: one full schedule, one streaming run.
fn unsegmented(config: &SimConfig, seed: u64) -> (Metrics, DivergenceIndex) {
    let schedule = ColumnarSchedule::sample_weighted(
        &stakes(config),
        config.adversarial_stake,
        config.active_slot_coeff,
        config.slots,
        seed,
    );
    let mut strategy = config.strategy.instantiate();
    ColumnarSimulation::run_streaming(config, &schedule, strategy.as_mut(), &mut ())
}

fn assert_law(report: &HorizonReport, config: &SimConfig, seed: u64, opts: &HorizonOptions) {
    assert_matches(report, &unsegmented(config, seed), opts);
}

/// [`assert_law`] against a ground truth computed once.
fn assert_matches(
    report: &HorizonReport,
    (metrics, divergence): &(Metrics, DivergenceIndex),
    opts: &HorizonOptions,
) {
    let segment = opts.segment_slots;
    assert_eq!(&report.metrics, metrics, "metrics at segment {segment}");
    for (i, &k) in opts.ks.iter().enumerate() {
        assert_eq!(
            report.violating_anchors[i],
            divergence.count_violations(k, usize::MAX) as u64,
            "violation count at k={k}, segment {segment}"
        );
        assert_eq!(
            report.first_violation[i],
            divergence.first_violation(k),
            "first violating anchor at k={k}, segment {segment}"
        );
    }
}

fn small_opts() -> HorizonOptions {
    HorizonOptions {
        segment_slots: 4096,
        ks: vec![8, 16, 32, 64],
        max_live_blocks: 0,
        wal: None,
    }
}

#[test]
fn eviction_preserves_the_streaming_report_withholding() {
    let config = cfg(Strategy::PrivateWithholding, 120_000);
    let opts = small_opts();
    let report = run_horizon(&config, &probs(&config), 11, &opts).expect("horizon run");
    assert!(
        report.compactions > 0,
        "a 120k-slot withholding run must find settled compaction points"
    );
    assert!(
        report.peak_live_blocks < 120_000 / 10,
        "eviction must keep the live arena far below one block per 10 slots \
         (peak {})",
        report.peak_live_blocks
    );
    assert_eq!(report.resumed_at, None);
    assert_law(&report, &config, 11, &opts);
}

/// Segment-size invariance: the compaction cadence is an implementation
/// knob, so every segment size must produce the identical report. Small
/// segments compact far more often — including at points where the
/// withholding strategy's private branch is stale (pending a restart),
/// the case where an over-eager rebase once pinned the restart to the
/// compaction-time public height instead of the restart-time one.
///
/// The segment is also the unit the sampling thread hands to the
/// kernel, so the sizes cover that stage's extremes: a segment longer
/// than the horizon (one handoff, nothing to draw ahead) and a small odd
/// one (thousands of buffer round trips and a partial last segment).
#[test]
fn report_is_invariant_under_segment_size() {
    let config = cfg(Strategy::PrivateWithholding, 120_000);
    let truth = unsegmented(&config, 11);
    for segment_slots in [512, 4096, 32_768, 200_000] {
        let opts = HorizonOptions {
            segment_slots,
            ..small_opts()
        };
        let report = run_horizon(&config, &probs(&config), 11, &opts).expect("horizon run");
        assert_matches(&report, &truth, &opts);
    }

    // 30,000 = 7 · 4,285 + 5.
    let config = cfg(Strategy::PrivateWithholding, 30_000);
    let opts = HorizonOptions {
        segment_slots: 7,
        ..small_opts()
    };
    let report = run_horizon(&config, &probs(&config), 11, &opts).expect("horizon run");
    assert!(report.compactions > 0, "7-slot segments must compact");
    assert_law(&report, &config, 11, &opts);
}

#[test]
fn eviction_preserves_the_streaming_report_honest() {
    let config = cfg(Strategy::Honest, 60_000);
    let opts = small_opts();
    let report = run_horizon(&config, &probs(&config), 5, &opts).expect("horizon run");
    assert!(report.compactions > 0);
    assert_law(&report, &config, 5, &opts);
}

/// A strategy holding arbitrary block references (the balance attack's
/// branch map) vetoes every compaction — the run must still be exactly
/// the streaming run, just without eviction.
#[test]
fn compaction_veto_degrades_to_plain_streaming() {
    let config = cfg(Strategy::BalanceAttack, 30_000);
    let opts = small_opts();
    let report = run_horizon(&config, &probs(&config), 3, &opts).expect("horizon run");
    assert_eq!(report.compactions, 0, "balance attack can never compact");
    assert_law(&report, &config, 3, &opts);
}

#[test]
fn memory_bound_turns_unbounded_growth_into_an_error() {
    let config = cfg(Strategy::BalanceAttack, 30_000);
    let opts = HorizonOptions {
        max_live_blocks: 64,
        ..small_opts()
    };
    let err = run_horizon(&config, &probs(&config), 3, &opts).expect_err("must exceed the bound");
    assert_eq!(err.kind(), std::io::ErrorKind::OutOfMemory);
}

fn temp_wal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("horizon_wal_{tag}_{}", std::process::id()))
}

/// Byte offsets of record boundaries in a WAL (after the 16-byte
/// header), read off the length-prefixed CRC frames.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut pos = 16;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        assert!(pos <= bytes.len(), "frame overruns the file");
        ends.push(pos);
    }
    ends
}

#[test]
fn wal_resume_reproduces_the_uninterrupted_report() {
    let config = cfg(Strategy::PrivateWithholding, 120_000);
    let wal = temp_wal("resume");
    let _ = std::fs::remove_file(&wal);
    let opts = HorizonOptions {
        wal: Some(wal.clone()),
        ..small_opts()
    };
    let full = run_horizon(&config, &probs(&config), 11, &opts).expect("full run");
    assert!(full.compactions >= 3, "need several checkpoints to chop");
    assert_law(&full, &config, 11, &opts);

    // Simulate a crash after the second compaction: truncate the WAL to
    // its second record, then resume.
    let bytes = std::fs::read(&wal).expect("read wal");
    let ends = record_ends(&bytes);
    assert!(ends.len() >= 3);
    std::fs::write(&wal, &bytes[..ends[1]]).expect("truncate wal");
    let resumed = run_horizon(&config, &probs(&config), 11, &opts).expect("resumed run");
    assert!(resumed.resumed_at.is_some(), "must resume mid-run");
    assert_eq!(
        HorizonReport {
            resumed_at: None,
            ..resumed.clone()
        },
        full,
        "resumed run must reproduce the uninterrupted report"
    );

    // Torn tail: a partial frame after the last good record (as a crash
    // mid-append would leave) is salvaged around.
    let mut torn = bytes[..ends[1]].to_vec();
    torn.extend_from_slice(&bytes[ends[1]..ends[2] - 3]);
    std::fs::write(&wal, &torn).expect("write torn wal");
    let salvaged = run_horizon(&config, &probs(&config), 11, &opts).expect("salvaged run");
    assert!(salvaged.resumed_at.is_some());
    assert_eq!(
        HorizonReport {
            resumed_at: None,
            ..salvaged.clone()
        },
        full
    );
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn wal_of_different_parameters_is_rejected() {
    let config = cfg(Strategy::PrivateWithholding, 60_000);
    let wal = temp_wal("params");
    let _ = std::fs::remove_file(&wal);
    let opts = HorizonOptions {
        wal: Some(wal.clone()),
        ..small_opts()
    };
    run_horizon(&config, &probs(&config), 1, &opts).expect("first run");
    let err = run_horizon(&config, &probs(&config), 2, &opts)
        .expect_err("a different seed must not resume this WAL");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_file(&wal);
}
