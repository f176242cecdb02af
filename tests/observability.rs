//! Repo-level coverage of the observability layer: the **bit-identity
//! law** (instrumented runs reproduce uninstrumented fingerprints
//! bit-for-bit across a strategy × Δ × faults × seed grid, on both
//! engines), shard-merge exactness for the registry histograms, schema
//! validity of the Chrome-trace / JSONL exporters, and observed-vs-plain
//! equality for the sweep executor and the long-horizon driver.

use multihonest::obs::{Histogram, ObsRecorder, Recorder};
use multihonest::scenario::{
    execution_fingerprint, run_horizon, run_horizon_observed, ColumnarSchedule, ColumnarSimulation,
    HorizonOptions, LeaderProbs,
};
use multihonest::sim::{
    record_ledger, FaultDirective, FaultPlan, ObsSink, SimConfig, Simulation, Strategy, TieBreak,
};
use multihonest::sweep::{run_campaign, run_campaign_observed, CampaignSpec, RunOptions};
use proptest::prelude::*;

fn grid_config(strategy: Strategy, delta: usize) -> SimConfig {
    SimConfig {
        honest_nodes: 6,
        adversarial_stake: 0.25,
        active_slot_coeff: 0.2,
        delta,
        slots: 250,
        tie_break: TieBreak::AdversarialOrder,
        strategy,
    }
}

fn sample(config: &SimConfig, seed: u64) -> ColumnarSchedule {
    ColumnarSchedule::sample(
        config.honest_nodes,
        config.adversarial_stake,
        config.active_slot_coeff,
        config.slots,
        seed,
    )
}

/// A small plan exercising every directive family inside the 250-slot
/// grid horizon.
fn grid_fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.push(FaultDirective::Partition {
        groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
        start: 40,
        heal_slot: 70,
    });
    plan.push(FaultDirective::Eclipse {
        node: 2,
        start: 120,
        until: 150,
    });
    plan
}

/// The tentpole contract: attaching the full recorder (span events,
/// obs-backed metrics sink, ledger mirroring) to the columnar engine
/// reproduces the uninstrumented execution bit-for-bit — fingerprint and
/// degradation ledger — and agrees with the reference engine's metrics,
/// over a strategy × Δ × plan × seed grid.
#[test]
fn instrumented_runs_are_bit_identical() {
    for strategy in Strategy::ALL {
        for delta in [0usize, 2] {
            for faulty in [false, true] {
                for seed in [1u64, 7] {
                    let config = grid_config(strategy, delta);
                    let plan = if faulty {
                        grid_fault_plan()
                    } else {
                        FaultPlan::new()
                    };
                    let context = format!("{strategy:?} Δ={delta} faulty={faulty} seed={seed}");

                    let mut s1 = config.strategy.instantiate();
                    let (plain, plain_ledger) = ColumnarSimulation::run_with_schedule_faults(
                        &config,
                        &sample(&config, seed),
                        s1.as_mut(),
                        &plan,
                    );

                    let mut sink_rec = ObsRecorder::new();
                    let mut engine_rec = sink_rec.shard(1);
                    let mut s2 = config.strategy.instantiate();
                    let (recorded, recorded_ledger) = {
                        let mut sink = ObsSink::new(&mut sink_rec);
                        ColumnarSimulation::run_with_schedule_faults_recorded(
                            &config,
                            &sample(&config, seed),
                            s2.as_mut(),
                            &plan,
                            &mut sink,
                            &mut engine_rec,
                        )
                    };
                    record_ledger(&mut sink_rec, &recorded_ledger);

                    assert_eq!(
                        execution_fingerprint(&plain),
                        execution_fingerprint(&recorded),
                        "{context}: fingerprint drift under instrumentation"
                    );
                    assert_eq!(plain_ledger, recorded_ledger, "{context}: ledgers");

                    // The reference engine on the same inputs agrees on
                    // the end-of-run metrics (dual-engine half of the law).
                    let mut s3 = config.strategy.instantiate();
                    let (reference, reference_ledger) = Simulation::run_with_schedule_faults(
                        &config,
                        multihonest::sim::LeaderSchedule::sample(
                            config.honest_nodes,
                            config.adversarial_stake,
                            config.active_slot_coeff,
                            config.slots,
                            seed,
                        ),
                        s3.as_mut(),
                        &plan,
                    );
                    assert_eq!(
                        reference.metrics(),
                        recorded.metrics(),
                        "{context}: engines disagree"
                    );
                    assert_eq!(
                        reference_ledger, recorded_ledger,
                        "{context}: cross-engine ledgers"
                    );

                    // The recorder actually observed the run: one
                    // engine-level span, and the best-height gauge tracks
                    // the final chain height.
                    assert_eq!(engine_rec.events().len(), 1, "{context}");
                    assert_eq!(engine_rec.events()[0].name, "scenario.execute", "{context}");
                    let height = sink_rec
                        .registry()
                        .gauge("sim.best_height")
                        .expect("per-slot gauge recorded")
                        .last;
                    assert_eq!(
                        height,
                        recorded.metrics().final_height as i64,
                        "{context}: gauge vs metrics"
                    );
                    if faulty {
                        assert_eq!(
                            sink_rec.registry().counter("faults.deferred"),
                            recorded_ledger.deferred,
                            "{context}: ledger mirror"
                        );
                    }
                }
            }
        }
    }
}

/// Exporters on a real instrumented run parse as JSON and carry the
/// Chrome trace-event schema (`ph: "X"`, µs timestamps) and the JSONL
/// record kinds.
#[test]
fn exported_traces_are_valid_json() {
    let config = grid_config(Strategy::PrivateWithholding, 2);
    let mut sink_rec = ObsRecorder::new();
    let mut engine_rec = sink_rec.shard(1);
    let mut strategy = config.strategy.instantiate();
    {
        let mut sink = ObsSink::new(&mut sink_rec);
        ColumnarSimulation::run_with_schedule_faults_recorded(
            &config,
            &sample(&config, 5),
            strategy.as_mut(),
            &grid_fault_plan(),
            &mut sink,
            &mut engine_rec,
        );
    }
    sink_rec.merge(engine_rec);

    let chrome = serde_json::from_str(&sink_rec.chrome_trace_json()).expect("chrome trace parses");
    let events = chrome
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(ev.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
        }
    }
    assert_eq!(
        chrome.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );

    let jsonl = sink_rec.jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        let rec = serde_json::from_str(line).expect("JSONL line parses");
        let kind = rec.get("type").and_then(|v| v.as_str()).expect("type");
        assert!(
            ["span", "counter", "gauge", "histogram", "meta"].contains(&kind),
            "unexpected record type {kind:?}"
        );
        assert!(rec.get("name").and_then(|v| v.as_str()).is_some());
    }
}

/// The sweep executor's observed entry point produces the same campaign
/// outcome as the plain one, and the merged recorder accounts for every
/// execution.
#[test]
fn observed_campaign_matches_plain() {
    let spec = CampaignSpec::quick_grid();
    let opts = RunOptions {
        threads: 2,
        checkpoint: None,
        stop_after_cells: None,
    };
    let plain = run_campaign(&spec, &opts).expect("plain campaign");
    let mut rec = ObsRecorder::new();
    let observed =
        run_campaign_observed(&spec, &opts, Some(&mut rec), None).expect("observed campaign");

    assert_eq!(plain.aggregates, observed.aggregates, "aggregate drift");
    assert_eq!(plain.executions_run, observed.executions_run);
    assert_eq!(
        rec.registry().counter("sweep.executions"),
        observed.executions_run,
        "every execution counted"
    );
    let unit_spans = rec.registry().histogram("sweep.unit").expect("unit spans");
    assert!(unit_spans.count() > 0);
    assert!(
        rec.events().iter().all(|e| e.tid >= 1),
        "worker tids start at 1"
    );
}

/// The long-horizon driver's observed entry point reproduces the plain
/// report exactly, and the recorder's compaction counter matches it.
#[test]
fn observed_horizon_matches_plain() {
    let config = SimConfig {
        honest_nodes: 6,
        adversarial_stake: 0.3,
        active_slot_coeff: 0.25,
        delta: 2,
        slots: 60_000,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::PrivateWithholding,
    };
    let share = (1.0 - config.adversarial_stake) / config.honest_nodes as f64;
    let probs = LeaderProbs::weighted(
        &vec![share; config.honest_nodes],
        config.adversarial_stake,
        config.active_slot_coeff,
    );
    let opts = HorizonOptions {
        segment_slots: 8_192,
        ks: vec![16, 64],
        max_live_blocks: 0,
        wal: None,
    };
    let plain = run_horizon(&config, &probs, 9, &opts).expect("plain horizon");
    let mut rec = ObsRecorder::new();
    let observed =
        run_horizon_observed(&config, &probs, 9, &opts, &mut rec, None).expect("observed horizon");

    assert_eq!(
        plain, observed,
        "horizon report drift under instrumentation"
    );
    assert_eq!(
        rec.registry().counter("horizon.compactions"),
        observed.compactions,
        "compaction spans track the report"
    );
    assert!(rec.registry().histogram("horizon.segment").is_some());
    assert!(rec.registry().gauge("horizon.peak_live_blocks").is_some());
}

/// Zero-cost sanity at the API level: the `()` recorder is inert — every
/// method is callable and records nothing observable.
#[test]
fn unit_recorder_is_inert() {
    let mut rec = ();
    rec.span_begin("a");
    rec.counter("c", 1);
    rec.gauge("g", -1);
    rec.observe("h", 9);
    rec.span_end("a");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Histogram shard-merge is observation-exact: recording a stream
    /// split across any number of worker shards and merging equals
    /// recording the whole stream into one histogram — count, sum,
    /// min/max, every bucket, and the quantile surface.
    #[test]
    fn histogram_shard_merge_is_observation_exact(
        observations in prop::collection::vec((any::<u64>(), 0usize..4), 0..200),
    ) {
        let mut shards = [
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
        ];
        let mut whole = Histogram::new();
        for &(value, shard) in &observations {
            shards[shard].record(value);
            whole.record(value);
        }
        let mut merged = Histogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.sum(), whole.sum());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
        prop_assert_eq!(merged.bucket_counts(), whole.bucket_counts());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(q), whole.quantile(q), "q = {}", q);
        }
    }
}
