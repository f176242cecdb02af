//! The streaming-pipeline law suite: the online `ForkFold` verdict must
//! equal the batch `validate_delta` oracle (at the `is_ok` level — the
//! streaming parity contract) over random strategy × Δ × fault
//! executions on **both** engines, the streamed columnar fork must be
//! bit-identical to the reference engine's extraction, the laws must
//! hold at every horizon around the kernel → fork-fold hand-off
//! boundaries, the sink events the fork-fold thread replays must equal
//! the plain kernel's for every scenario and fault preset, and the
//! frozen 10⁵-slot streaming-validation fingerprints in `testutil` must
//! reproduce exactly.

use multihonest::fork::validate::validate_delta;
use multihonest::margin::recurrence;
use multihonest::prelude::*;
use multihonest::scenario::{
    run_streaming_validated_faults_in, ColumnarSchedule, ExecutionArena, HANDOFF_SLOTS,
};
use multihonest::sim::{AdversaryStrategy, FaultDirective, FaultPlan, MetricsSink};
// `Strategy` would be ambiguous between the prelude's enum and
// proptest's trait under two glob imports — pin the enum explicitly.
use multihonest::sim::Strategy;
use multihonest_testutil::golden;
use proptest::prelude::*;

#[test]
fn streaming_validation_pins_reproduce() {
    golden::assert_streaming_validation_pins();
}

#[test]
fn streaming_fork_pin_reproduces() {
    golden::assert_streaming_fork_pin();
}

/// Collects the margin channel.
#[derive(Default)]
struct MarginLog(Vec<(usize, i64, i64)>);

impl MetricsSink for MarginLog {
    fn on_margin(&mut self, slot: usize, rho: i64, margin: i64) {
        self.0.push((slot, rho, margin));
    }
}

/// The hand-off boundary law: at horizons of one slot, one hand-off − 1,
/// exactly one hand-off, one hand-off + 1 and three hand-offs + 7, at
/// f = 0.3 and f = 0.7, with the empty plan and with a partition that
/// outlives Δ = 2 across the first hand-off, the two-thread pipeline
/// streams the reference engine's fork, the schedule's characteristic
/// string, a verdict with batch `is_ok` parity, and the batch reduction
/// + recurrence as its margin channel.
#[test]
fn handoff_boundaries_preserve_the_streaming_laws() {
    const DELTA: usize = 2;
    let h = HANDOFF_SLOTS;
    let mut arena = ExecutionArena::new();
    let mut invalid = 0;
    for slots in [1, h - 1, h, h + 1, 3 * h + 7] {
        // Six slots of partition break Δ = 2 synchrony; the window
        // straddles the first hand-off wherever the horizon reaches it.
        let start = slots.saturating_sub(3).clamp(1, h - 3);
        let partition = FaultPlan::new().with(FaultDirective::Partition {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            start,
            heal_slot: start + 6,
        });
        for f in [0.3, 0.7] {
            for (plan_name, plan) in [
                ("empty", FaultPlan::default()),
                ("partition", partition.clone()),
            ] {
                let case = format!("{slots} slots, f = {f}, {plan_name} plan");
                let config = SimConfig {
                    honest_nodes: 6,
                    adversarial_stake: 0.3,
                    active_slot_coeff: f,
                    delta: DELTA,
                    slots,
                    tie_break: TieBreak::AdversarialOrder,
                    strategy: Strategy::PrivateWithholding,
                };
                let seed = 29;
                let schedule = ColumnarSchedule::sample(6, 0.3, f, slots, seed);
                let mut strategy = config.strategy.instantiate();
                let mut log = MarginLog::default();
                let out = run_streaming_validated_faults_in(
                    &mut arena,
                    &config,
                    &schedule,
                    strategy.as_mut(),
                    &plan,
                    &mut log,
                );
                let pipeline = &out.pipeline;

                let rs = multihonest::sim::LeaderSchedule::sample(6, 0.3, f, slots, seed);
                let mut s2 = config.strategy.instantiate();
                let (refr, _) =
                    Simulation::run_with_schedule_faults(&config, rs, s2.as_mut(), &plan);
                assert_eq!(&pipeline.fork, refr.fork().fork(), "fork, {case}");
                assert_eq!(
                    pipeline.characteristic_string,
                    schedule.characteristic_string(),
                    "string, {case}"
                );
                assert_eq!(
                    pipeline.validation.is_ok(),
                    validate_delta(&pipeline.fork, &pipeline.characteristic_string, DELTA).is_ok(),
                    "verdict parity, {case}: streaming {:?}",
                    pipeline.validation
                );
                invalid += usize::from(pipeline.validation.is_err());

                let reduced = Reduction::new(DELTA).apply(&schedule.characteristic_string());
                let trace = recurrence::margin_trace(reduced.reduced(), 0);
                assert_eq!(
                    log.0.len(),
                    reduced.len(),
                    "one event per reduced symbol, {case}"
                );
                let mut reach = ReachState::new();
                for (j, &(slot, rho, margin)) in log.0.iter().enumerate() {
                    reach.step(reduced.reduced().get(j + 1));
                    assert_eq!(
                        (slot, rho, margin),
                        (reduced.original_slot(j + 1), reach.rho(), trace[j + 1]),
                        "margin event {j}, {case}"
                    );
                }
                assert_eq!(
                    (pipeline.rho, pipeline.margin),
                    (
                        reach.rho(),
                        *trace.last().expect("trace starts at the split")
                    ),
                    "final (ρ, µ), {case}"
                );
            }
        }
    }
    assert!(invalid > 0, "some partition must break Δ-synchrony");
}

/// The sink events a plain and a validated run both emit, in arrival
/// order (the margin channel is the validated run's alone).
#[derive(Debug, Default)]
struct KernelEvents(Vec<(u8, [usize; 4])>);

impl MetricsSink for KernelEvents {
    fn on_rollback(&mut self, slot: usize, old_height: usize, new_height: usize) {
        self.0.push((1, [slot, old_height, new_height, 0]));
    }
    fn on_slot(&mut self, slot: usize, tips: usize, height: usize, divergence: usize) {
        self.0.push((2, [slot, tips, height, divergence]));
    }
    fn on_fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize) {
        self.0.push((4, [slot, recipient, deferred_to, 0]));
    }
}

/// The observer law: the validated pipeline, which folds and streams
/// every observation on its `fork-fold` thread, emits the plain
/// kernel's `on_slot` / `on_rollback` / `on_fault_deferral` stream event
/// by event, and returns its metrics, settlement index and fault
/// ledger — for every scenario preset and every fault preset under its
/// plan, over a horizon crossing two hand-offs.
#[test]
fn validated_sink_stream_equals_the_plain_kernels() {
    use multihonest::scenario::{fault_library, scenario_library, ColumnarSimulation};
    let slots = 2 * HANDOFF_SLOTS + 101;
    let seed = 5;
    // Each case carries one strategy instance per run.
    type Case = (
        &'static str,
        SimConfig,
        ColumnarSchedule,
        FaultPlan,
        [Box<dyn AdversaryStrategy>; 2],
    );
    let mut cases: Vec<Case> = Vec::new();
    for sc in scenario_library(slots) {
        let strategies = [sc.strategy(), sc.strategy()];
        cases.push((
            sc.name,
            sc.config,
            sc.schedule(seed),
            FaultPlan::default(),
            strategies,
        ));
    }
    for sc in fault_library(slots) {
        let strategies = [0, 1].map(|_| sc.config.strategy.instantiate());
        cases.push((sc.name, sc.config, sc.schedule(seed), sc.plan, strategies));
    }
    let mut arena = ExecutionArena::new();
    let (mut deferrals, mut rollbacks) = (0, 0);
    for (name, config, schedule, plan, [mut first, mut second]) in cases {
        let mut plain = KernelEvents::default();
        let (metrics, divergence, ledger) = ColumnarSimulation::run_streaming_faults_in(
            &mut arena,
            &config,
            &schedule,
            first.as_mut(),
            &plan,
            &mut plain,
        );
        let mut piped = KernelEvents::default();
        let out = run_streaming_validated_faults_in(
            &mut arena,
            &config,
            &schedule,
            second.as_mut(),
            &plan,
            &mut piped,
        );
        assert_eq!(piped.0.len(), plain.0.len(), "{name}: event count");
        if let Some(i) = (0..plain.0.len()).find(|&i| piped.0[i] != plain.0[i]) {
            panic!(
                "{name}: event {i} differs: validated {:?}, plain {:?}",
                piped.0[i], plain.0[i]
            );
        }
        assert_eq!(out.metrics, metrics, "{name}: metrics");
        assert_eq!(out.divergence, divergence, "{name}: settlement index");
        assert_eq!(out.ledger, ledger, "{name}: fault ledger");
        deferrals += ledger.deferred;
        rollbacks += metrics.rollback_count;
    }
    assert!(
        deferrals > 0 && rollbacks > 0,
        "the streams must carry both"
    );
}

/// The fault plan of one proptest case: `0` is the empty plan, the rest
/// cycle through the directive kinds with proptest-chosen windows.
fn plan_for(kind: usize, start: usize, len: usize) -> FaultPlan {
    let start = start.max(1);
    match kind {
        0 => FaultPlan::default(),
        1 => FaultPlan::new().with(FaultDirective::Partition {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            start,
            heal_slot: start + len,
        }),
        2 => FaultPlan::new().with(FaultDirective::Crash {
            node: 1,
            at: start,
            recover_slot: start + len,
        }),
        _ => FaultPlan::new().with(FaultDirective::MessageLoss {
            p: 0.5,
            salt: 0xF00D,
            start,
            until: start + len,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// streaming `ForkFold` ≡ batch `validate_delta` on random
    /// strategy × Δ × fault executions, on both engines — and the two
    /// engines stream the same fork.
    #[test]
    fn streaming_verdict_matches_batch_oracle(
        strategy_idx in 0usize..3,
        delta in 0usize..4,
        slots in 60usize..300,
        seed in 0u64..1_000,
        fault_kind in 0usize..4,
        fault_start in 1usize..200,
        fault_len in 1usize..12,
    ) {
        let config = SimConfig {
            honest_nodes: 6,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.3,
            delta,
            slots,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::ALL[strategy_idx],
        };
        let plan = plan_for(fault_kind, fault_start.min(slots - 1), fault_len);

        // Columnar engine: one pass builds, validates and margin-tracks
        // the fork online.
        let schedule = ColumnarSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            seed,
        );
        let mut arena = ExecutionArena::new();
        let mut s1 = config.strategy.instantiate();
        let out = run_streaming_validated_faults_in(
            &mut arena, &config, &schedule, s1.as_mut(), &plan, &mut (),
        );
        let batch = validate_delta(
            &out.pipeline.fork,
            &out.pipeline.characteristic_string,
            delta,
        );
        prop_assert_eq!(
            out.pipeline.validation.is_ok(),
            batch.is_ok(),
            "columnar streaming/batch parity broke: streaming {:?}, batch {:?}",
            out.pipeline.validation,
            batch
        );

        // Reference engine: extraction streams through the same ForkFold;
        // its verdict must agree with its own batch oracle, and its fork
        // with the columnar pipeline's.
        let rs = multihonest::sim::LeaderSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            seed,
        );
        let mut s2 = config.strategy.instantiate();
        let (refr, _) =
            Simulation::run_with_schedule_faults(&config, rs, s2.as_mut(), &plan);
        let extracted = refr.fork();
        prop_assert_eq!(
            extracted.streaming_validation().is_ok(),
            extracted.validate_against_axioms().is_ok(),
            "reference streaming/batch parity broke"
        );
        prop_assert_eq!(&out.pipeline.fork, extracted.fork(), "forks diverged across engines");
    }
}
