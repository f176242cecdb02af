//! The streaming fork pipeline: online Δ-axiom validation and margin
//! tracking alongside the columnar slot loop, on two threads.
//!
//! [`run_streaming_validated`] runs the slot kernel on the calling thread
//! and builds the execution's fork on a `fork-fold` helper thread, both
//! inside one `std::thread::scope`:
//!
//! * at the end of every slot, the kernel's one epilogue calls the
//!   crate-private slot hook of this module, which copies the slot's
//!   freshly minted blocks into the current batch as `(parent, slot)`
//!   pairs. Every [`HANDOFF_SLOTS`] slots it hands the batch to
//!   the helper over a bounded channel and takes back the buffer the
//!   helper last finished with: two buffers circulate, so the helper is
//!   at most one batch behind and steady state allocates nothing;
//! * the helper owns the [`ForkFold`] (the incremental fork builder with
//!   its `O(log n)`-per-vertex [`StreamValidator`]). For each slot of a
//!   batch it derives the slot's symbol from the shared schedule, pushes
//!   it, then pushes the slot's vertices;
//! * the **margin channel** stays on the kernel thread: the streaming
//!   Δ-reduction `ρ_Δ` ([`StreamingReduction`]) feeds the Theorem 5
//!   [`MarginState`] recurrence, and each reduced symbol's `(ρ, µ)` goes
//!   out through [`MetricsSink::on_margin`] in the slot-end that resolves
//!   it — at most Δ slots late, interleaved with `on_slot` and
//!   `on_rollback` exactly as in a single-threaded run.
//!
//! At the end of the run the hook hands over the partial last batch and
//! closes the channel; the helper closes the (F3) completeness check and
//! the join yields the fork, its characteristic string and the verdict.
//! A panic on the helper is re-raised on the caller. A dead helper never
//! blocks the kernel: a failed hand-off stops further hand-offs, and the
//! join at the end reports the panic.
//!
//! The payoff: a 10⁶-slot columnar execution leaves
//! [`run_streaming_validated`] with its fork built, its (F1)–(F3)+(F4Δ)
//! verdict decided and its margin trajectory streamed, in one pass, with
//! **no** reference-engine replay and no post-hoc `validate_delta` sweep
//! over the finished fork — and, with the fold off the kernel thread, at
//! little more than the plain kernel's wall time.
//!
//! Two invariants make the hand-off cheap:
//!
//! * the columnar engine mints every block at the *current* slot (the
//!   `SlotContext` pins the mint slot), so the store's tail between two
//!   hook calls is exactly the new slot's blocks, in mint order;
//! * block ids are dense with genesis `0`, so fork vertex ids align 1:1
//!   with block ids and parent lookup is a vector index.
//!
//! [`StreamValidator`]: multihonest_fork::StreamValidator

use std::sync::mpsc::{self, Receiver, SyncSender};

use multihonest_chars::{Reduction, SemiString, StreamingReduction, Symbol};
use multihonest_fork::{Fork, ForkError, ForkFold, StreamedFork, VertexId};
use multihonest_margin::recurrence::MarginState;
use multihonest_sim::consistency::DivergenceIndex;
use multihonest_sim::fault::{DegradationLedger, FaultPlan};
use multihonest_sim::metrics::{Metrics, MetricsSink};
use multihonest_sim::strategy::AdversaryStrategy;
use multihonest_sim::SimConfig;

use crate::engine::{execute, EngineCore, ExecutionArena, SlotHook};
use crate::schedule::ColumnarSchedule;
use crate::store::ColumnarStore;

/// Slots per hand-off from the kernel thread to the fork-fold thread.
/// Each hand-off wakes the helper and can make the kernel wait for a
/// buffer, so batches are long: at f = 0.7 one carries about 18,000
/// vertices (146 KB, inside a core's L2). Longer batches lengthen the
/// drain at the end of a run, when the kernel waits for the helper to
/// fold the last batch.
pub const HANDOFF_SLOTS: usize = 16_384;

/// Freshly minted blocks as `(parent block id, mint slot)` pairs, in
/// mint order.
type Minted = Vec<(u32, u32)>;

/// One hand-off: every block minted after the previous hand-off up to
/// and including `last_slot`.
struct Batch {
    last_slot: usize,
    minted: Minted,
}

/// The kernel-side half of the pipeline: a [`SlotHook`] that batches
/// each slot's minted blocks for the fork-fold thread and runs the
/// margin channel inline.
struct KernelStage<'a> {
    schedule: &'a ColumnarSchedule,
    /// Blocks consumed from the store so far (genesis pre-consumed).
    synced: usize,
    /// The batch being filled.
    minted: Minted,
    /// Batches out, spent buffers back; `None` once the fork-fold thread
    /// is gone, which stops the hand-offs.
    channel: Option<(SyncSender<Batch>, Receiver<Minted>)>,
    reduction: StreamingReduction,
    margin: MarginState,
    /// Scratch for the reduction's per-push emissions.
    reduced: Vec<(usize, Symbol)>,
}

impl KernelStage<'_> {
    /// Hands the current batch (slots up to `last_slot`) to the
    /// fork-fold thread and takes back a spent buffer to fill next.
    fn hand_off(&mut self, last_slot: usize) {
        let Some((filled, spent)) = &self.channel else {
            self.minted.clear();
            return;
        };
        let minted = std::mem::take(&mut self.minted);
        let buffer = filled
            .send(Batch { last_slot, minted })
            .ok()
            .and_then(|()| spent.recv().ok());
        match buffer {
            Some(buffer) => self.minted = buffer,
            None => self.channel = None,
        }
    }

    /// Ends the kernel side: hands over the partial last batch, closes
    /// the channel, and flushes the reduction's pending window (emitting
    /// the final margin observations into `sink`). Returns the final
    /// `(ρ, µ)`.
    fn finish<S: MetricsSink>(self, sink: &mut S) -> (i64, i64) {
        let KernelStage {
            schedule,
            minted,
            channel,
            reduction,
            mut margin,
            mut reduced,
            ..
        } = self;
        if let Some((filled, _)) = channel {
            let last_slot = schedule.len();
            // Fails only if the fork-fold thread is gone; the join says why.
            let _ = filled.send(Batch { last_slot, minted });
        }
        reduced.clear();
        reduction.finish(&mut reduced);
        for &(slot, sym) in &reduced {
            margin.step(sym);
            sink.on_margin(slot, margin.rho(), margin.mu());
        }
        (margin.rho(), margin.mu())
    }
}

impl<S: MetricsSink> SlotHook<S> for KernelStage<'_> {
    fn on_slot_end(&mut self, slot: usize, store: &ColumnarStore, sink: &mut S) {
        // The store's tail since the last call is exactly this slot's
        // mints (engine contexts pin the mint slot to the current slot).
        while self.synced < store.len() {
            let id = self.synced as u32;
            assert_eq!(
                store.slot(id),
                slot,
                "columnar blocks are minted at the current slot"
            );
            let parent = store.parent(id).expect("non-genesis");
            self.minted.push((parent, slot as u32));
            self.synced += 1;
        }
        if slot.is_multiple_of(HANDOFF_SLOTS) {
            self.hand_off(slot);
        }
        // Margin channel: Δ-reduce this slot's symbol; every reduced
        // symbol it resolves advances the Theorem 5 recurrence.
        self.reduced.clear();
        self.reduction
            .push(self.schedule.classify(slot), &mut self.reduced);
        for &(original_slot, reduced_sym) in &self.reduced {
            self.margin.step(reduced_sym);
            sink.on_margin(original_slot, self.margin.rho(), self.margin.mu());
        }
    }
}

/// The fork-fold thread: folds every batch the kernel hands over into a
/// [`ForkFold`] and returns each spent buffer, until the kernel closes
/// the channel; then finishes the fold.
fn fold_batches(
    delta: usize,
    schedule: &ColumnarSchedule,
    filled: Receiver<Batch>,
    spent: SyncSender<Minted>,
) -> StreamedFork {
    // Sized for the whole run up front: a mid-run reallocation of the
    // fold's per-slot columns stalls the helper for milliseconds, long
    // enough to make the kernel wait at its next hand-off.
    let blocks = schedule.block_hint();
    let mut fold = ForkFold::new(delta);
    fold.reserve(schedule.len(), blocks);
    // Block id → fork vertex id (index 0 is genesis ↔ root). With the
    // columnar store's dense ids this stays the identity map, which the
    // fold debug-asserts.
    let mut vertex_of = Vec::with_capacity(blocks + 1);
    vertex_of.push(VertexId::ROOT);
    let mut slot = 0;
    for Batch {
        last_slot,
        mut minted,
    } in filled
    {
        let mut next = 0;
        while slot < last_slot {
            slot += 1;
            fold.push_symbol(schedule.classify(slot));
            while let Some(&(parent, _)) = minted.get(next).filter(|m| m.1 as usize == slot) {
                let v = fold.push_vertex(vertex_of[parent as usize], slot);
                debug_assert_eq!(
                    v.index(),
                    vertex_of.len(),
                    "dense block/vertex id alignment"
                );
                vertex_of.push(v);
                next += 1;
            }
        }
        debug_assert_eq!(next, minted.len(), "every block lies inside its batch");
        minted.clear();
        // Fails only after the kernel's final hand-off, when it takes no
        // more buffers back.
        let _ = spent.send(minted);
    }
    fold.finish()
}

/// What the finished pipeline hands back.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The execution's fork (block ids ↔ vertex ids, genesis ↔ root).
    pub fork: Fork,
    /// The execution's semi-synchronous characteristic string.
    pub characteristic_string: SemiString,
    /// The online (F1)–(F3)+(F4Δ) verdict — `validate_delta`-equivalent
    /// at the `is_ok` level, with no second pass over the fork.
    pub validation: Result<(), ForkError>,
    /// Final reach `ρ` of the Δ-reduced characteristic string.
    pub rho: i64,
    /// Final relative margin `µ_ε` of the Δ-reduced string (`≥ 0` means
    /// the string admits two maximum-length tines diverging at genesis).
    pub margin: i64,
}

/// A fully validated streaming execution: engine outputs plus the
/// pipeline's fork and verdicts.
#[derive(Debug, Clone)]
pub struct ValidatedExecution {
    /// End-of-run metrics.
    pub metrics: Metrics,
    /// The settlement index.
    pub divergence: DivergenceIndex,
    /// The fault-degradation ledger (empty for fault-free runs).
    pub ledger: DegradationLedger,
    /// The pipeline's fork and verdicts.
    pub pipeline: PipelineOutput,
}

/// Runs a streaming columnar execution with the fork pipeline attached:
/// one pass over the horizon yields metrics, settlement index, the
/// execution's fork, its online Δ-axiom verdict and the margin
/// trajectory (streamed through `sink`'s
/// [`on_margin`](MetricsSink::on_margin)). The fork is built on a
/// second thread (see the [module docs](self)).
pub fn run_streaming_validated<S: MetricsSink>(
    config: &SimConfig,
    schedule: &ColumnarSchedule,
    strategy: &mut dyn AdversaryStrategy,
    sink: &mut S,
) -> ValidatedExecution {
    let mut arena = ExecutionArena::new();
    let empty = FaultPlan::default();
    run_streaming_validated_faults_in(&mut arena, config, schedule, strategy, &empty, sink)
}

/// The batch fault-aware sibling of [`run_streaming_validated`]: reuses
/// the caller's arena and applies a [`FaultPlan`], for campaign-style
/// validated sweeps.
///
/// # Panics
///
/// Panics if the fork-fold thread cannot be spawned, and re-raises any
/// panic of that thread (e.g. a strategy minting at a leaderless slot)
/// with its original payload.
pub fn run_streaming_validated_faults_in<S: MetricsSink>(
    arena: &mut ExecutionArena,
    config: &SimConfig,
    schedule: &ColumnarSchedule,
    strategy: &mut dyn AdversaryStrategy,
    plan: &FaultPlan,
    sink: &mut S,
) -> ValidatedExecution {
    let delta = config.delta;
    std::thread::scope(|scope| {
        let (filled_tx, filled_rx) = mpsc::sync_channel::<Batch>(1);
        let (spent_tx, spent_rx) = mpsc::sync_channel::<Minted>(2);
        spent_tx
            .send(Minted::new())
            .expect("the spent channel holds the second buffer");
        let helper = std::thread::Builder::new()
            .name("fork-fold".into())
            .spawn_scoped(scope, move || {
                fold_batches(delta, schedule, filled_rx, spent_tx)
            })
            .expect("spawn the fork-fold thread");
        let mut stage = KernelStage {
            schedule,
            synced: 1,
            minted: Minted::new(),
            channel: Some((filled_tx, spent_rx)),
            reduction: Reduction::new(delta).streaming(),
            margin: MarginState::at_split(0),
            reduced: Vec::new(),
        };
        let core = EngineCore::new(config, plan, false);
        let out = execute(arena, core, config, schedule, strategy, sink, &mut stage);
        let (rho, margin) = stage.finish(sink);
        let streamed = helper
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        ValidatedExecution {
            metrics: out.metrics,
            divergence: out.divergence,
            ledger: out.ledger,
            pipeline: PipelineOutput {
                fork: streamed.fork,
                characteristic_string: streamed.semi,
                validation: streamed.validation,
                rho,
                margin,
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnarSimulation;
    use multihonest_chars::SemiSymbol;
    use multihonest_fork::validate::validate_delta;
    use multihonest_margin::recurrence;
    use multihonest_sim::{BlockId, LeaderSchedule, Simulation, SlotContext, Strategy, TieBreak};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn cfg(strategy: Strategy, delta: usize, slots: usize) -> SimConfig {
        SimConfig {
            honest_nodes: 6,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.3,
            delta,
            slots,
            tie_break: TieBreak::AdversarialOrder,
            strategy,
        }
    }

    /// Collects the margin channel.
    #[derive(Default)]
    struct MarginLog(Vec<(usize, i64, i64)>);
    impl MetricsSink for MarginLog {
        fn on_margin(&mut self, slot: usize, rho: i64, margin: i64) {
            self.0.push((slot, rho, margin));
        }
    }

    #[test]
    fn validated_run_matches_reference_fork_and_batch_oracle() {
        for strategy in Strategy::ALL {
            for delta in [0usize, 2] {
                let config = cfg(strategy, delta, 300);
                let seed = 11;
                let schedule = ColumnarSchedule::sample(
                    config.honest_nodes,
                    config.adversarial_stake,
                    config.active_slot_coeff,
                    config.slots,
                    seed,
                );
                let mut s1 = config.strategy.instantiate();
                let mut log = MarginLog::default();
                let out = run_streaming_validated(&config, &schedule, s1.as_mut(), &mut log);
                // Online verdict ≡ batch oracle over the streamed fork.
                assert_eq!(
                    out.pipeline.validation.is_ok(),
                    validate_delta(
                        &out.pipeline.fork,
                        &out.pipeline.characteristic_string,
                        delta
                    )
                    .is_ok(),
                    "parity broke for {strategy} delta {delta}"
                );
                assert_eq!(out.pipeline.validation, Ok(()), "{strategy} delta {delta}");
                // The streamed fork is bit-identical to the reference
                // engine's extraction (same mint order, dense ids).
                let refr = Simulation::run(&config, seed);
                assert_eq!(
                    &out.pipeline.fork,
                    refr.fork().fork(),
                    "fork diverged for {strategy} delta {delta}"
                );
                assert_eq!(
                    out.pipeline.characteristic_string,
                    schedule.characteristic_string()
                );
                // Metrics and index are those of the unhooked run — the
                // hook observes, never perturbs.
                let mut s2 = config.strategy.instantiate();
                let (metrics, index) =
                    ColumnarSimulation::run_streaming(&config, &schedule, s2.as_mut(), &mut ());
                assert_eq!(out.metrics, metrics);
                assert_eq!(out.divergence, index);
            }
        }
    }

    #[test]
    fn margin_channel_matches_batch_reduction_and_recurrence() {
        for delta in [0usize, 1, 3] {
            let config = cfg(Strategy::PrivateWithholding, delta, 400);
            let schedule = ColumnarSchedule::sample(
                config.honest_nodes,
                config.adversarial_stake,
                config.active_slot_coeff,
                config.slots,
                23,
            );
            let mut strategy = config.strategy.instantiate();
            let mut log = MarginLog::default();
            let out = run_streaming_validated(&config, &schedule, strategy.as_mut(), &mut log);
            // Expected channel: batch-reduce the characteristic string,
            // then walk the Theorem 5 recurrence prefix by prefix.
            let reduced = Reduction::new(delta).apply(&schedule.characteristic_string());
            let trace = recurrence::margin_trace(reduced.reduced(), 0);
            assert_eq!(log.0.len(), reduced.len(), "one event per reduced symbol");
            let mut reach = recurrence::ReachState::new();
            for (j, &(slot, rho, margin)) in log.0.iter().enumerate() {
                assert_eq!(slot, reduced.original_slot(j + 1), "slot alignment at {j}");
                reach.step(reduced.reduced().get(j + 1));
                assert_eq!(rho, reach.rho(), "ρ at reduced symbol {j}");
                assert_eq!(margin, trace[j + 1], "µ at reduced symbol {j}");
            }
            assert_eq!(out.pipeline.rho, reach.rho());
            assert_eq!(out.pipeline.margin, *trace.last().unwrap());
        }
    }

    #[test]
    fn validated_run_under_faults_stays_consistent() {
        use multihonest_sim::{FaultDirective, FaultPlan};
        // A partition lasting 6 slots: at Δ = 2 it *breaks* Δ-synchrony
        // (honest deliveries stall past the window, so honest blocks stop
        // gaining depth — a genuine (F4Δ) violation the validator must
        // observe), while at Δ = 8 the stalls stay inside the window and
        // the axioms hold. Either way the streaming verdict must agree
        // with the batch oracle and the fork must match the reference
        // engine's extraction.
        let plan = FaultPlan::new().with(FaultDirective::Partition {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            start: 40,
            heal_slot: 46,
        });
        let mut arena = ExecutionArena::new();
        for (delta, expect_ok) in [(2usize, false), (8, true)] {
            let config = cfg(Strategy::PrivateWithholding, delta, 300);
            let schedule = ColumnarSchedule::sample(
                config.honest_nodes,
                config.adversarial_stake,
                config.active_slot_coeff,
                config.slots,
                13,
            );
            let mut strategy = config.strategy.instantiate();
            let out = run_streaming_validated_faults_in(
                &mut arena,
                &config,
                &schedule,
                strategy.as_mut(),
                &plan,
                &mut (),
            );
            assert_eq!(
                out.pipeline.validation.is_ok(),
                expect_ok,
                "Δ = {delta}: partition vs window"
            );
            assert_eq!(
                out.pipeline.validation.is_ok(),
                validate_delta(
                    &out.pipeline.fork,
                    &out.pipeline.characteristic_string,
                    delta
                )
                .is_ok(),
                "parity broke under faults at Δ = {delta}"
            );
            assert!(out.ledger.deferred > 0, "the partition must bite");
            // Faulty executions stay trace-identical across engines, so
            // the streamed fork still matches the reference extraction.
            let rs = LeaderSchedule::sample(
                config.honest_nodes,
                config.adversarial_stake,
                config.active_slot_coeff,
                config.slots,
                13,
            );
            let mut s2 = config.strategy.instantiate();
            let (refr, _) = Simulation::run_with_schedule_faults(&config, rs, s2.as_mut(), &plan);
            assert_eq!(&out.pipeline.fork, refr.fork().fork());
        }
    }

    /// Broadcasts every honest block, and at one chosen slot mints an
    /// adversarial block although the slot has no leader: a producer bug
    /// the fork fold rejects with a panic.
    struct RogueMinter {
        slot: usize,
    }

    impl AdversaryStrategy for RogueMinter {
        fn name(&self) -> &'static str {
            "rogue-minter"
        }

        fn on_slot(&mut self, ctx: &mut dyn SlotContext, minted: &[BlockId]) {
            for &b in minted {
                ctx.deliver_honest_to_all(ctx.slot(), b);
            }
            if ctx.slot() == self.slot {
                ctx.mint_adversarial(BlockId::GENESIS);
            }
        }
    }

    #[test]
    fn fork_fold_panic_reaches_the_caller_without_blocking_the_kernel() {
        let slots = 3 * HANDOFF_SLOTS + 7;
        let config = cfg(Strategy::Honest, 1, slots);
        let schedule = ColumnarSchedule::sample(6, 0.3, 0.3, slots, 5);
        // A rogue block in the first batch kills the fork-fold thread
        // mid-run, so the kernel's later hand-offs fail; one in the
        // partial last batch kills it after the final hand-off.
        for from in [1, 3 * HANDOFF_SLOTS + 1] {
            let rogue = (from..=slots)
                .find(|&t| schedule.classify(t) == SemiSymbol::Empty)
                .expect("the schedule has a leaderless slot");
            let mut strategy = RogueMinter { slot: rogue };
            let payload = catch_unwind(AssertUnwindSafe(|| {
                run_streaming_validated(&config, &schedule, &mut strategy, &mut ())
            }))
            .expect_err("the fork-fold panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.contains(&format!("empty or out-of-range slot {rogue}")),
                "the original payload is re-raised, got {message:?}"
            );
        }
    }
}
