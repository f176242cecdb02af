//! Repo-level coverage of the fault-injection layer: the empty plan is
//! bit-invisible on both engines, faulty executions reproduce their
//! frozen pins, short-lived faults add no settlement violations, crash
//! edge cases behave, and the induced-delay bound is a machine-checked
//! law over random plans.

use multihonest::sim::{
    FaultDirective, FaultPlan, FaultRuntime, LeaderSchedule, SimConfig, Simulation, Strategy,
    TieBreak,
};
use multihonest_testutil::golden;
use proptest::prelude::*;
// `multihonest::sim::Strategy` shadows the prelude's trait of the same
// name; the combinators need the trait itself in scope.
use proptest::Strategy as _;

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

fn sample(config: &SimConfig, seed: u64) -> LeaderSchedule {
    LeaderSchedule::sample(
        config.honest_nodes,
        config.adversarial_stake,
        config.active_slot_coeff,
        config.slots,
        seed,
    )
}

/// Asserts two reference-engine executions are trace-identical.
fn assert_same_execution(a: &Simulation, b: &Simulation, context: &str) {
    let slots = a.config().slots;
    for slot in 0..=slots {
        assert_eq!(
            a.tips_at(slot),
            b.tips_at(slot),
            "{context}: tips at {slot}"
        );
    }
    assert_eq!(a.rollbacks(), b.rollbacks(), "{context}: rollbacks");
    assert_eq!(a.metrics(), b.metrics(), "{context}: metrics");
    for k in [2usize, 8, 24] {
        assert_eq!(
            a.count_violating_slots(k, slots),
            b.count_violating_slots(k, slots),
            "{context}: violations at k = {k}"
        );
    }
}

/// The empty-plan bit-identity contract on the reference engine, over
/// the full strategy × Δ × seed grid: routing an execution through the
/// fault entry point with an empty plan changes nothing at all.
#[test]
fn empty_plan_is_bit_identical_to_baseline() {
    for strategy in Strategy::ALL {
        for delta in [0usize, 2, 4] {
            for seed in [1u64, 7] {
                let config = grid_config(strategy, delta);
                let mut s1 = config.strategy.instantiate();
                let baseline =
                    Simulation::run_with_schedule(&config, sample(&config, seed), s1.as_mut());
                let mut s2 = config.strategy.instantiate();
                let (faulted, ledger) = Simulation::run_with_schedule_faults(
                    &config,
                    sample(&config, seed),
                    s2.as_mut(),
                    &FaultPlan::new(),
                );
                let context = format!("{strategy:?} Δ={delta} seed={seed}");
                assert_same_execution(&baseline, &faulted, &context);
                assert_eq!(ledger.deferred, 0, "{context}");
                assert_eq!(ledger.dropped, 0, "{context}");
                assert_eq!(ledger.worst_effective_delta, 0, "{context}");
            }
        }
    }
}

/// The columnar twin of the contract: every frozen scenario fingerprint
/// reproduces through the fault path with an empty plan.
#[test]
fn empty_plan_reproduces_columnar_fingerprint_pins() {
    golden::assert_empty_plan_is_invisible();
}

/// Faulty executions are themselves pinned, on both engines.
#[test]
fn fault_scenario_pins_reproduce() {
    golden::assert_fault_scenario_pins();
}

/// The streaming kernel's sink event stream — `on_slot`, `on_rollback`
/// and `on_fault_deferral` in emission order — is pinned on every faulty
/// preset and on the non-withholding presets.
#[test]
fn sink_stream_pins_reproduce() {
    golden::assert_sink_stream_pins();
}

/// A partition that heals within the network's Δ budget adds **zero**
/// settlement violations: at sparse leader density every deferred
/// delivery still lands inside the Δ′ ≤ Δ + window envelope the model
/// absorbs. Checked against the fault-free baseline per seed.
#[test]
fn partition_healed_within_delta_adds_no_violations() {
    let config = SimConfig {
        honest_nodes: 8,
        adversarial_stake: 0.1,
        active_slot_coeff: 0.05,
        delta: 4,
        slots: 300,
        tie_break: TieBreak::AdversarialOrder,
        strategy: Strategy::Honest,
    };
    let plan = FaultPlan::new().with(FaultDirective::Partition {
        groups: vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
        start: 100,
        heal_slot: 103, // heals in 3 < Δ slots
    });
    for seed in 1u64..=10 {
        let mut s1 = config.strategy.instantiate();
        let baseline = Simulation::run_with_schedule(&config, sample(&config, seed), s1.as_mut());
        let mut s2 = config.strategy.instantiate();
        let (faulted, ledger) = Simulation::run_with_schedule_faults(
            &config,
            sample(&config, seed),
            s2.as_mut(),
            &plan,
        );
        assert!(
            ledger.worst_effective_delta <= plan.worst_case_delta(config.delta).unwrap(),
            "seed {seed}"
        );
        for k in [6usize, 12] {
            let base = baseline.count_violating_slots(k, config.slots);
            let fault = faulted.count_violating_slots(k, config.slots);
            assert_eq!(
                fault, base,
                "seed {seed} k {k}: a short-lived partition changed the violation count"
            );
        }
    }
}

/// Crash edge cases: a crash at the first slot runs to completion with
/// a sane ledger, and a never-recovering crash drops its parked
/// deliveries at the horizon and voids its healed-by slot.
#[test]
fn crash_edge_cases() {
    let config = grid_config(Strategy::PrivateWithholding, 2);

    let genesis_crash = FaultPlan::new().with(FaultDirective::Crash {
        node: 0,
        at: 1,
        recover_slot: 7,
    });
    let mut s = config.strategy.instantiate();
    let (sim, ledger) = Simulation::run_with_schedule_faults(
        &config,
        sample(&config, 3),
        s.as_mut(),
        &genesis_crash,
    );
    assert_eq!(sim.config().slots, config.slots);
    assert_eq!(ledger.dropped, 0, "bounded crash drops nothing");
    assert!(ledger.worst_effective_delta <= genesis_crash.worst_case_delta(config.delta).unwrap());

    let never_back = FaultPlan::new().with(FaultDirective::Crash {
        node: 2,
        at: 10,
        recover_slot: usize::MAX,
    });
    assert_eq!(never_back.worst_case_delta(config.delta), None);
    let mut s = config.strategy.instantiate();
    let (_, ledger) =
        Simulation::run_with_schedule_faults(&config, sample(&config, 3), s.as_mut(), &never_back);
    assert!(ledger.dropped > 0, "parked deliveries die with the node");
    assert_eq!(ledger.windows[0].healed_by, None, "a dead node never heals");
}

/// One synthetic honest delivery scheduled through a [`FaultRuntime`].
#[derive(Debug, Clone)]
struct Wire {
    src: usize,
    dst: usize,
    broadcast: usize,
    delay: usize,
}

fn arb_directive(nodes: usize) -> impl proptest::Strategy<Value = FaultDirective> {
    let window = (1usize..40, 1usize..6);
    prop_oneof![
        window
            .clone()
            .prop_map(move |(start, len)| FaultDirective::Partition {
                groups: vec![(0..nodes / 2).collect(), (nodes / 2..nodes).collect()],
                start,
                heal_slot: start + len,
            }),
        (0..nodes, window.clone()).prop_map(|(node, (start, len))| FaultDirective::Eclipse {
            node,
            start,
            until: start + len,
        }),
        (0..nodes, window.clone()).prop_map(|(node, (start, len))| FaultDirective::Crash {
            node,
            at: start,
            recover_slot: start + len,
        }),
        (0.0f64..=1.0, any::<u64>(), window).prop_map(|(p, salt, (start, len))| {
            FaultDirective::MessageLoss {
                p,
                salt,
                start,
                until: start + len,
            }
        }),
    ]
}

fn arb_wire(nodes: usize, delta: usize) -> impl proptest::Strategy<Value = Wire> {
    (0..nodes, 0..nodes, 1usize..45, 0..=delta).prop_map(|(src, dst, broadcast, delay)| Wire {
        src,
        dst,
        broadcast,
        delay,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The induced-delay law: composing a Δ-bounded delivery schedule
    /// with any bounded fault plan never delivers an honest message
    /// later than `broadcast + Δ + worst_case_extra_delay`, drops
    /// nothing, and the ledger's worst effective Δ respects the same
    /// bound.
    #[test]
    fn composition_never_exceeds_the_induced_delay_bound(
        directives in prop::collection::vec(arb_directive(6), 0..5),
        wires in prop::collection::vec(arb_wire(6, 3), 0..30),
    ) {
        const NODES: usize = 6;
        const DELTA: usize = 3;
        const SLOTS: usize = 120; // windows end by 46 ≪ 120: nothing can drop
        let mut plan = FaultPlan::new();
        for d in directives {
            plan.push(d);
        }
        let extra = plan.worst_case_extra_delay().expect("generated plans are bounded");
        let bound = DELTA + extra;

        let mut by_slot: Vec<Vec<(u32, u32)>> = vec![Vec::new(); SLOTS + 1];
        for (id, w) in wires.iter().enumerate() {
            by_slot[w.broadcast + w.delay].push((w.dst as u32, id as u32));
        }
        let mut rt = FaultRuntime::new(&plan, NODES, SLOTS);
        for (slot, bucket) in by_slot.iter_mut().enumerate().skip(1) {
            let mut due = std::mem::take(bucket);
            rt.apply(
                slot,
                &mut due,
                |id| multihonest::sim::DeliveryMeta {
                    src: wires[id as usize].src,
                    honest: true,
                    broadcast_slot: wires[id as usize].broadcast,
                },
                &mut (),
            );
            for &(_, id) in &due {
                let w = &wires[id as usize];
                prop_assert!(
                    slot - w.broadcast <= bound,
                    "delivery {id} took {} > Δ + extra = {bound}",
                    slot - w.broadcast
                );
            }
        }
        let ledger = rt.finish();
        prop_assert_eq!(ledger.dropped, 0, "all windows close before the horizon");
        prop_assert!(ledger.worst_effective_delta <= bound);
    }
}
