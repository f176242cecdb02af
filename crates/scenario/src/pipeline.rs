//! The streaming fork pipeline: online Δ-axiom validation and margin
//! tracking alongside the columnar slot loop, on two threads.
//!
//! [`run_streaming_validated`] runs the slot kernel on the calling thread
//! and every observer of the execution on a `fork-fold` helper thread,
//! both inside one `std::thread::scope`:
//!
//! * the kernel thread runs only the protocol. Its observer seam (the
//!   crate-private `SlotObserver`) is a recorder that appends each
//!   slot's data to the current batch: the freshly minted blocks as
//!   `(parent, slot)` pairs, and the slot's observations — fault
//!   deferrals, each rolled-back node's `(old, new)` tips (marked once
//!   per tip group for the fold) and the distinct-tip set when it
//!   changes. Every [`HANDOFF_SLOTS`] slots it hands the batch to the
//!   helper over a bounded channel and takes back the buffer the helper
//!   last finished with: two buffers circulate, so the helper is at
//!   most one batch behind and steady state allocates nothing;
//! * the helper owns the [`ForkFold`] (the incremental fork builder with
//!   its `O(log n)`-per-vertex [`StreamValidator`]). For each slot of a
//!   batch it derives the slot's symbol from the shared schedule, pushes
//!   it and the slot's vertices, then replays the slot's observations
//!   into a divergence fold over a view of that fork (vertex ids are
//!   block ids, labels are mint slots), into the metrics accumulator and
//!   into the caller's sink, and ends the slot with `on_slot`;
//! * the **margin channel** runs on the helper too: the streaming
//!   Δ-reduction `ρ_Δ` ([`StreamingReduction`]) feeds the Theorem 5
//!   [`MarginState`] recurrence, and each reduced symbol's `(ρ, µ)` goes
//!   out through [`MetricsSink::on_margin`] after the `on_slot` of the
//!   slot that resolves it — at most Δ slots late.
//!
//! So the sink sees every event with its slot and in the order a
//! single-threaded run emits it: `on_fault_deferral`, `on_rollback`,
//! `on_slot`, then `on_margin`, slot by slot — the same stream as
//! [`ColumnarSimulation::run_streaming_faults_in`] plus the margin
//! channel. The sink runs on the helper, hence `S: Send`.
//!
//! At the end of the run the kernel hands over the partial last batch
//! and closes the channel; the helper flushes the reduction, closes the
//! (F3) completeness check and the fold, and the join yields the fork,
//! its characteristic string, the verdict, the accumulator and the
//! settlement index, which join the kernel's chain walk in the run's
//! [`Metrics`]. A panic on the helper (the fork fold's or the sink's) is
//! re-raised on the caller. A dead helper never blocks the kernel: a
//! failed hand-off stops further hand-offs, and the join at the end
//! reports the panic.
//!
//! The payoff: a 10⁶-slot columnar execution leaves
//! [`run_streaming_validated`] with its fork built, its (F1)–(F3)+(F4Δ)
//! verdict decided and its margin trajectory streamed, in one pass, with
//! **no** reference-engine replay and no post-hoc `validate_delta` sweep
//! over the finished fork — and, with every observer off the kernel
//! thread, in less wall time than the plain kernel alone.
//!
//! Two invariants make the hand-off cheap:
//!
//! * the columnar engine mints every block at the *current* slot (the
//!   `SlotContext` pins the mint slot), so the store's tail between two
//!   slot ends is exactly the new slot's blocks, in mint order;
//! * block ids are dense with genesis `0`, so fork vertex ids align 1:1
//!   with block ids and a parent block's vertex is
//!   [`VertexId::from_index`] of its id.
//!
//! [`StreamValidator`]: multihonest_fork::StreamValidator
//! [`ColumnarSimulation::run_streaming_faults_in`]: crate::ColumnarSimulation::run_streaming_faults_in

use std::sync::mpsc::{self, Receiver, SyncSender};

use multihonest_chars::{Reduction, SemiString, SemiSymbol, StreamingReduction, Symbol};
use multihonest_fork::{Fork, ForkError, ForkFold, StreamedFork, VertexId};
use multihonest_margin::recurrence::MarginState;
use multihonest_sim::consistency::{DivergenceFold, DivergenceIndex, DivergenceOps};
use multihonest_sim::fault::{DegradationLedger, FaultPlan};
use multihonest_sim::metrics::{Metrics, MetricsAccumulator, MetricsSink};
use multihonest_sim::strategy::AdversaryStrategy;
use multihonest_sim::SimConfig;

use crate::engine::{
    best_height, execute, run_metrics, ChainView, EngineCore, ExecutionArena, SlotFold,
    SlotObserver,
};
use crate::schedule::ColumnarSchedule;
use crate::store::ColumnarStore;

/// Slots per hand-off from the kernel thread to the fork-fold thread.
/// Each hand-off wakes the helper and can make the kernel wait for a
/// buffer, so batches are long: at f = 0.7 one carries about 18,000
/// vertices and a comparable number of observations. Longer batches
/// lengthen the drain at the end of a run, when the kernel waits for
/// the helper to fold the last batch.
pub const HANDOFF_SLOTS: usize = 16_384;

/// One kernel observation, tagged with its slot: 16 bytes.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// `on_fault_deferral(slot, recipient, deferred_to)`, with
    /// `deferred_to` the batch's next [`Batch::deferred_to`] entry.
    Deferral { slot: u32, recipient: u32 },
    /// `nodes` consecutive nodes (in node order) rolled back from `old`
    /// to `new`; `fold` marks the moves the divergence fold observes.
    Rollback {
        slot: u32,
        old: u32,
        new: u32,
        nodes: u16,
        fold: bool,
    },
    /// The distinct tips became `{parent, child}`.
    FreshChild { slot: u32, parent: u32, child: u32 },
    /// The distinct tips became the batch's next `len` tips, the
    /// tallest at `height`.
    Tips { slot: u32, len: u32, height: u32 },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);

impl Event {
    fn slot(&self) -> usize {
        match *self {
            Event::Deferral { slot, .. }
            | Event::Rollback { slot, .. }
            | Event::FreshChild { slot, .. }
            | Event::Tips { slot, .. } => slot as usize,
        }
    }
}

/// One hand-off: everything the kernel observed after the previous
/// hand-off up to and including `last_slot`.
#[derive(Default)]
struct Batch {
    last_slot: usize,
    /// Freshly minted blocks as `(parent block id, mint slot)` pairs, in
    /// mint order.
    minted: Vec<(u32, u32)>,
    /// The slots' observations, in the order the kernel made them.
    events: Vec<Event>,
    /// The tip sets of the [`Event::Tips`] entries, concatenated.
    tips: Vec<u32>,
    /// The targets of the [`Event::Deferral`] entries, in order.
    deferred_to: Vec<usize>,
}

impl Batch {
    fn clear(&mut self) {
        self.minted.clear();
        self.events.clear();
        self.tips.clear();
        self.deferred_to.clear();
    }
}

/// The kernel-side half of the pipeline: the [`SlotObserver`] that
/// records each slot into the current batch and hands full batches to
/// the fork-fold thread.
struct BatchRecorder {
    /// Blocks consumed from the store so far (genesis pre-consumed).
    synced: usize,
    /// The batch being filled.
    batch: Batch,
    /// Batches out, spent buffers back; `None` once the fork-fold thread
    /// is gone, which stops the hand-offs.
    channel: Option<(SyncSender<Batch>, Receiver<Batch>)>,
}

impl BatchRecorder {
    /// Hands the current batch (slots up to `last_slot`) to the
    /// fork-fold thread and takes back a spent buffer to fill next.
    fn hand_off(&mut self, last_slot: usize) {
        let Some((filled, spent)) = &self.channel else {
            self.batch.clear();
            return;
        };
        self.batch.last_slot = last_slot;
        let batch = std::mem::take(&mut self.batch);
        let buffer = filled.send(batch).ok().and_then(|()| spent.recv().ok());
        match buffer {
            Some(buffer) => self.batch = buffer,
            None => self.channel = None,
        }
    }

    /// Ends the kernel side: hands over the partial last batch and
    /// closes the channel.
    fn finish(self, last_slot: usize) {
        let BatchRecorder {
            mut batch, channel, ..
        } = self;
        if let Some((filled, _)) = channel {
            batch.last_slot = last_slot;
            // Fails only if the fork-fold thread is gone; the join says why.
            let _ = filled.send(batch);
        }
    }
}

impl SlotObserver for BatchRecorder {
    fn fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize) {
        self.batch.deferred_to.push(deferred_to);
        self.batch.events.push(Event::Deferral {
            slot: slot as u32,
            recipient: recipient as u32,
        });
    }

    #[inline]
    fn rollback(&mut self, _store: &ColumnarStore, slot: usize, old: u32, new: u32, fold: bool) {
        let slot = slot as u32;
        // Consecutive nodes with the same move share one event; the
        // fold's update for it is idempotent.
        if let Some(Event::Rollback {
            slot: s,
            old: o,
            new: n,
            nodes,
            fold: f,
        }) = self.batch.events.last_mut()
        {
            if (*s, *o, *n) == (slot, old, new) && *nodes < u16::MAX {
                *nodes += 1;
                *f |= fold;
                return;
            }
        }
        self.batch.events.push(Event::Rollback {
            slot,
            old,
            new,
            nodes: 1,
            fold,
        });
    }

    #[inline]
    fn tips_unchanged(&mut self, _slot: usize) {}

    #[inline]
    fn fresh_child(&mut self, slot: usize, parent: u32, child: u32) {
        self.batch.events.push(Event::FreshChild {
            slot: slot as u32,
            parent,
            child,
        });
    }

    #[inline]
    fn tips(&mut self, store: &ColumnarStore, slot: usize, tips: &[u32]) {
        self.batch.tips.extend_from_slice(tips);
        self.batch.events.push(Event::Tips {
            slot: slot as u32,
            len: tips.len() as u32,
            height: best_height(store, tips) as u32,
        });
    }

    fn slot_end(&mut self, store: &ColumnarStore, slot: usize) {
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
            self.batch.minted.push((parent, slot as u32));
            self.synced += 1;
        }
        if slot.is_multiple_of(HANDOFF_SLOTS) {
            self.hand_off(slot);
        }
    }
}

/// The fork as the observers' [`ChainView`]: vertex ids are block ids,
/// labels are mint slots and depths are heights.
struct ForkView<'a>(&'a Fork);

impl DivergenceOps for ForkView<'_> {
    fn block_count(&self) -> usize {
        self.0.vertex_count()
    }

    #[inline]
    fn slot_of(&self, b: u32) -> usize {
        self.0.label(VertexId::from_index(b as usize))
    }

    #[inline]
    fn parent_of(&self, b: u32) -> u32 {
        self.0
            .parent(VertexId::from_index(b as usize))
            .map_or(0, |p| p.index() as u32)
    }

    fn lca(&self, a: u32, b: u32) -> u32 {
        let (a, b) = (
            VertexId::from_index(a as usize),
            VertexId::from_index(b as usize),
        );
        self.0.last_common_vertex(a, b).index() as u32
    }
}

impl ChainView for ForkView<'_> {
    #[inline]
    fn height_of(&self, b: u32) -> usize {
        self.0.depth(VertexId::from_index(b as usize))
    }
}

/// The fork-fold thread's margin channel: the streaming Δ-reduction
/// feeding the Theorem 5 recurrence.
struct MarginChannel {
    reduction: StreamingReduction,
    margin: MarginState,
    /// Scratch for the reduction's per-push emissions.
    reduced: Vec<(usize, Symbol)>,
}

impl MarginChannel {
    /// Δ-reduces the next slot's symbol; every reduced symbol it
    /// resolves advances the recurrence and goes out as one `on_margin`.
    fn push<S: MetricsSink>(&mut self, symbol: SemiSymbol, sink: &mut S) {
        self.reduced.clear();
        self.reduction.push(symbol, &mut self.reduced);
        emit(&mut self.margin, &self.reduced, sink);
    }

    /// Flushes the reduction's pending window and returns the final
    /// `(ρ, µ)`.
    fn finish<S: MetricsSink>(mut self, sink: &mut S) -> (i64, i64) {
        self.reduced.clear();
        self.reduction.finish(&mut self.reduced);
        emit(&mut self.margin, &self.reduced, sink);
        (self.margin.rho(), self.margin.mu())
    }
}

/// Steps `margin` through `reduced`, one `on_margin` per symbol.
fn emit<S: MetricsSink>(margin: &mut MarginState, reduced: &[(usize, Symbol)], sink: &mut S) {
    for &(slot, sym) in reduced {
        margin.step(sym);
        sink.on_margin(slot, margin.rho(), margin.mu());
    }
}

/// What the fork-fold thread hands back.
struct Folded {
    fork: StreamedFork,
    acc: MetricsAccumulator,
    divergence: DivergenceIndex,
    rho: i64,
    margin: i64,
}

/// The fork-fold thread: builds the fork from every batch the kernel
/// hands over, replays the batch's observations into the divergence
/// fold, the accumulator and `sink`, runs the margin channel, and
/// returns each spent buffer, until the kernel closes the channel; then
/// finishes all of them.
fn fold_batches<S: MetricsSink>(
    delta: usize,
    schedule: &ColumnarSchedule,
    filled: Receiver<Batch>,
    spent: SyncSender<Batch>,
    sink: &mut S,
) -> Folded {
    // Sized for the whole run up front: a mid-run reallocation of the
    // fold's per-slot columns stalls the helper for milliseconds, long
    // enough to make the kernel wait at its next hand-off.
    let mut fork = ForkFold::new(delta);
    fork.reserve(schedule.len(), schedule.block_hint());
    let fold = DivergenceFold::new(schedule.len());
    let mut state = SlotFold::new(fold, MetricsAccumulator::new(), 0);
    let mut channel = MarginChannel {
        reduction: Reduction::new(delta).streaming(),
        margin: MarginState::at_split(0),
        reduced: Vec::new(),
    };
    // Block ids and fork vertex ids are both dense in mint order (genesis
    // ↔ root), so a block's vertex is the vertex with the same index.
    let mut block = 0;
    let mut slot = 0;
    for mut batch in filled {
        let (mut next_block, mut next_event) = (0, 0);
        let (mut next_tip, mut next_deferral) = (0, 0);
        while slot < batch.last_slot {
            slot += 1;
            let symbol = schedule.classify(slot);
            fork.push_symbol(symbol);
            while let Some(&(parent, _)) = batch
                .minted
                .get(next_block)
                .filter(|m| m.1 as usize == slot)
            {
                let v = fork.push_vertex(VertexId::from_index(parent as usize), slot);
                block += 1;
                debug_assert_eq!(v.index(), block, "dense block/vertex id alignment");
                next_block += 1;
            }
            let view = ForkView(fork.fork());
            let mut tips_changed = false;
            while let Some(&event) = batch.events.get(next_event).filter(|e| e.slot() == slot) {
                next_event += 1;
                match event {
                    Event::Deferral { recipient, .. } => {
                        let deferred_to = batch.deferred_to[next_deferral];
                        next_deferral += 1;
                        sink.on_fault_deferral(slot, recipient as usize, deferred_to);
                    }
                    Event::Rollback {
                        old,
                        new,
                        nodes,
                        fold,
                        ..
                    } => state.rollback(&view, sink, slot, (old, new, nodes.into()), fold),
                    Event::FreshChild { parent, child, .. } => {
                        state.fresh_child(slot, parent, child);
                        tips_changed = true;
                    }
                    Event::Tips { len, height, .. } => {
                        let tips = &batch.tips[next_tip..next_tip + len as usize];
                        next_tip += len as usize;
                        state.tips(&view, slot, tips, height as usize);
                        tips_changed = true;
                    }
                }
            }
            if !tips_changed {
                state.fold.observe_tips_unchanged(slot);
            }
            state.slot_end(sink, slot);
            channel.push(symbol, sink);
        }
        debug_assert_eq!(next_block, batch.minted.len(), "every block in its batch");
        debug_assert_eq!(next_event, batch.events.len(), "every event in its batch");
        batch.clear();
        // Fails only after the kernel's final hand-off, when it takes no
        // more buffers back.
        let _ = spent.send(batch);
    }
    let (rho, margin) = channel.finish(sink);
    Folded {
        fork: fork.finish(),
        acc: state.acc,
        divergence: state.fold.finish(),
        rho,
        margin,
    }
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
/// [`on_margin`](MetricsSink::on_margin)). The fork is built, and every
/// sink event emitted, on a second thread (see the
/// [module docs](self)).
pub fn run_streaming_validated<S: MetricsSink + Send>(
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
/// panic of that thread (e.g. a strategy minting at a leaderless slot,
/// or a panicking sink) with its original payload.
pub fn run_streaming_validated_faults_in<S: MetricsSink + Send>(
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
        let (spent_tx, spent_rx) = mpsc::sync_channel::<Batch>(2);
        spent_tx
            .send(Batch::default())
            .expect("the spent channel holds the second buffer");
        let helper = std::thread::Builder::new()
            .name("fork-fold".into())
            .spawn_scoped(scope, move || {
                fold_batches(delta, schedule, filled_rx, spent_tx, sink)
            })
            .expect("spawn the fork-fold thread");
        let mut recorder = BatchRecorder {
            synced: 1,
            batch: Batch::default(),
            channel: Some((filled_tx, spent_rx)),
        };
        let mut core = EngineCore::new(config, plan, false);
        execute(arena, &mut core, config, schedule, strategy, &mut recorder);
        recorder.finish(schedule.len());
        let folded = helper
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        ValidatedExecution {
            metrics: run_metrics(folded.acc, arena, schedule, &folded.divergence),
            divergence: folded.divergence,
            ledger: core.faults.finish(),
            pipeline: PipelineOutput {
                fork: folded.fork.fork,
                characteristic_string: folded.fork.semi,
                validation: folded.fork.validation,
                rho: folded.rho,
                margin: folded.margin,
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
                // Metrics and index are those of the plain run — the
                // pipeline observes, never perturbs.
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
        // Sinks run on the fork-fold thread: a sink panicking in the
        // first batch or in the partial last batch reaches the caller
        // the same way.
        struct PanicAt(usize);
        impl MetricsSink for PanicAt {
            fn on_slot(&mut self, slot: usize, _tips: usize, _height: usize, _div: usize) {
                assert_ne!(slot, self.0, "sink stopped at slot {slot}");
            }
        }
        for at in [5, 3 * HANDOFF_SLOTS + 3] {
            let mut strategy = Strategy::Honest.instantiate();
            let payload = catch_unwind(AssertUnwindSafe(|| {
                run_streaming_validated(&config, &schedule, strategy.as_mut(), &mut PanicAt(at))
            }))
            .expect_err("the sink's panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.contains(&format!("sink stopped at slot {at}")),
                "the sink's payload is re-raised, got {message:?}"
            );
        }
    }
}
