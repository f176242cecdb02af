//! # multihonest-scenario
//!
//! The scenario engine: a **columnar, million-slot simulation core** plus
//! a library of parameterized adversarial scenarios, layered on the
//! abstract protocol of *Consistency of Proof-of-Stake Blockchains with
//! Concurrent Honest Slot Leaders* (Kiayias, Quader, Russell; ICDCS
//! 2020).
//!
//! ## Why a second engine
//!
//! The paper's guarantees (Definition 3, Theorem 5) are asymptotic:
//! empirical validation only bites at horizons far beyond what an
//! allocation-per-slot execution loop reaches comfortably. The reference
//! engine (`multihonest_sim`, kept verbatim as `sim::reference`) boxes
//! every block, allocates several vectors per slot, and keeps one
//! delivery queue per slot for the whole horizon. This crate replaces
//! all of it with **Structure-of-Arrays** state:
//!
//! | reference | columnar ([`ColumnarSimulation`]) |
//! |---|---|
//! | `Vec<Block>` of structs | flat slot and issuer columns over the shared `AncestorIndex`, which holds the parents and depths ([`ColumnarStore`]) |
//! | one `Vec<usize>` of leaders per slot | one flat leader column + offsets ([`ColumnarSchedule`]) |
//! | `O(slots)` live delivery queues | a reused ring of `lookahead + 1` buckets ([`DeliveryRing`]) |
//! | `HashSet<BlockId>` known-sets | none: `receive` is a pure function of (tip, block), so a full broadcast resolves once per distinct starting tip |
//! | pairwise-LCA slot divergence | one walk down the tips' chains ([`DivergenceFold::observe_tips_divergence`](multihonest_sim::DivergenceFold::observe_tips_divergence)) |
//! | post-hoc index build over retained traces | online [`DivergenceFold`](multihonest_sim::DivergenceFold) + streaming [`MetricsSink`](multihonest_sim::MetricsSink) |
//!
//! A 10⁶-slot withholding execution completes in about 0.11 s (9.0
//! Mslots/s on a 2-vCPU Xeon VM; the benchmark's `horizon` workload
//! measures the same shape over 5·10⁷ slots), with `O(1)` amortized work
//! per delivery and zero steady-state allocation in the slot loop.
//!
//! ## Equivalence, not divergence
//!
//! Both engines drive the **same** [`AdversaryStrategy`] objects (the
//! open strategy surface of `multihonest_sim::strategy`) through their
//! own `SlotContext`s, sample leader schedules with identical draw
//! orders, and apply the same longest-chain/tie-break rules — so their
//! block arenas, tip trajectories, rollback records and settlement
//! indices are **bit-identical**. `tests/scenario_engine.rs` enforces
//! this exhaustively over a strategy × Δ × seed grid, on every library
//! scenario, and by proptest.
//!
//! ## The Δ-window clamp invariant
//!
//! Strategies *request* delivery slots; engines *clamp* every honest
//! delivery into `[slot, slot + Δ]` (here in
//! [`DeliveryRing::schedule_honest`]). No scenario — lagged release,
//! burst, jitter, latency profile — can therefore violate axiom A4Δ;
//! `scenario::tests` additionally replays scenario strategies on the
//! reference engine and validates the extracted forks against (F4Δ).
//!
//! [`AdversaryStrategy`]: multihonest_sim::AdversaryStrategy

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod horizon;
pub mod pipeline;
pub mod ring;
pub mod scenario;
pub mod schedule;
pub mod store;

pub use crate::engine::{ColumnarSimulation, ExecutionArena, ENGINE_KERNEL_VERSION};
pub use crate::horizon::{run_horizon, run_horizon_observed, HorizonOptions, HorizonReport};
pub use crate::pipeline::{
    run_streaming_validated, run_streaming_validated_faults_in, PipelineOutput, ValidatedExecution,
    HANDOFF_SLOTS,
};
pub use crate::ring::DeliveryRing;
pub use crate::scenario::{
    fault_library, scenario_library, FaultScenario, LaggedWithholding, NetworkSchedule,
    NodeProfile, Scenario, ScheduledHonest,
};
pub use crate::schedule::{ColumnarSchedule, LeaderProbs};
pub use crate::store::ColumnarStore;
pub use multihonest_obs::Recorder;

/// A 64-bit fingerprint of a columnar execution: a SplitMix-style fold
/// over the tip trace, rollback record and headline metrics. Testutil
/// pins these for the preset scenarios (including a 10⁵-slot run), so
/// any drift in leader sampling, delivery scheduling, the longest-chain
/// rule or the fold shows up as a one-word diff.
pub fn execution_fingerprint(sim: &ColumnarSimulation) -> u64 {
    let mut h = 0u64;
    let m = sim.metrics();
    for t in 1..=m.slots {
        for &tip in sim.tips_at(t) {
            h = mix(h, tip as u64);
        }
        h = mix(h, u64::MAX); // slot separator
    }
    for &(t, old, new) in sim.rollbacks() {
        h = mix(h, t as u64);
        h = mix(h, old as u64);
        h = mix(h, new as u64);
    }
    h = mix(h, m.final_height as u64);
    h = mix(h, m.chain_blocks as u64);
    h = mix(h, m.honest_chain_blocks as u64);
    h = mix(h, m.max_slot_divergence as u64);
    h = mix(h, m.rollback_count as u64);
    h = mix(h, m.max_settlement_lag.map_or(u64::MAX, |l| l as u64));
    h
}

/// One SplitMix64 step folding `v` into `h` — the mixer behind
/// [`execution_fingerprint`] and the horizon WAL's parameter hash.
#[inline]
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_sim::{SimConfig, Strategy, TieBreak};

    #[test]
    fn fingerprint_is_deterministic_and_sensitive() {
        let cfg = SimConfig {
            honest_nodes: 5,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.3,
            delta: 1,
            slots: 200,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::PrivateWithholding,
        };
        let a = execution_fingerprint(&ColumnarSimulation::run(&cfg, 1));
        let b = execution_fingerprint(&ColumnarSimulation::run(&cfg, 1));
        assert_eq!(a, b);
        let c = execution_fingerprint(&ColumnarSimulation::run(&cfg, 2));
        assert_ne!(a, c, "different seeds must fingerprint differently");
    }
}
