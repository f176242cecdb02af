//! The columnar execution engine: million-slot runs in seconds.
//!
//! [`ColumnarSimulation`] replays exactly the abstract protocol of the
//! reference engine ([`multihonest_sim::Simulation`], kept as
//! `sim::reference`) over the SoA arenas of this crate:
//!
//! * blocks live in a [`ColumnarStore`] (flat `u32` columns over the
//!   shared `AncestorIndex`) instead of per-block structs;
//! * the leader schedule is a [`ColumnarSchedule`] (flat leader column)
//!   instead of one heap `Vec` per slot;
//! * deliveries flow through a [`DeliveryRing`] (bounded window of reused
//!   buckets) instead of `O(slots)` live queues;
//! * nodes keep no known-sets: re-receiving a known block never moves a
//!   longest-chain tip, so `receive` is a pure function of
//!   `(tip, block)` and a full broadcast resolves once per distinct
//!   starting tip;
//! * the consistency index is folded **online** through the shared
//!   [`DivergenceFold`], and metrics stream through
//!   [`MetricsSink`]/[`MetricsAccumulator`] — a streaming run retains no
//!   per-slot state at all. The slot loop reaches both through one
//!   compile-time observer seam, so the validated pipeline can fold
//!   them on another thread.
//!
//! Both engines drive the *same* [`AdversaryStrategy`] objects through
//! their own [`SlotContext`]s, and both contexts clamp honest deliveries
//! into the `[slot, slot + Δ]` window (axiom A4Δ) — the **Δ-window clamp
//! invariant**: no strategy, built-in or user-supplied, can break the Δ
//! axiom, because the clamp is engine-side. Identical strategy decisions
//! over identical schedules therefore give identical block arenas,
//! delivery orders, tip trajectories and rollback records — the
//! bit-identical-trace guarantee that `tests/scenario_engine.rs` enforces
//! against the reference.

use multihonest_sim::consistency::{DivergenceFold, DivergenceIndex, DivergenceOps};
use multihonest_sim::fault::{DegradationLedger, DeliveryMeta, FaultPlan, FaultRuntime};
use multihonest_sim::metrics::{Metrics, MetricsAccumulator, MetricsSink};
use multihonest_sim::strategy::{AdversaryStrategy, SlotContext};
use multihonest_sim::{BlockId, SimConfig, TieBreak};

use multihonest_obs::Recorder;

use crate::ring::{expand_broadcasts, DeliveryRing, ALL};
use crate::schedule::ColumnarSchedule;
use crate::store::{ColumnarStore, ADVERSARY};

/// Version tag of the columnar slot kernel's **observable execution
/// semantics**. Campaign checkpoints and horizon WALs fingerprint it:
/// artifacts produced by one kernel generation must never be silently
/// merged with executions of another. Bump on any change that could
/// alter an execution's outputs (traces, metrics, divergence indices) —
/// pure performance work that stays bit-identical keeps the version.
pub const ENGINE_KERNEL_VERSION: u32 = 1;

/// The engine-side [`SlotContext`] of the columnar core: mints into the
/// [`ColumnarStore`] and schedules through the [`DeliveryRing`] (whose
/// honest path clamps into the Δ window, enforcing axiom A4Δ).
struct ColumnarSlotContext<'a> {
    store: &'a mut ColumnarStore,
    ring: &'a mut DeliveryRing,
    delta: usize,
    honest_nodes: usize,
    faults: &'a FaultRuntime<'a>,
    slot: usize,
    adversarial_leader: bool,
}

impl SlotContext for ColumnarSlotContext<'_> {
    fn slot(&self) -> usize {
        self.slot
    }

    fn delta(&self) -> usize {
        self.delta
    }

    fn honest_nodes(&self) -> usize {
        self.honest_nodes
    }

    fn adversarial_leader(&self) -> bool {
        self.adversarial_leader
    }

    fn height_of(&self, block: BlockId) -> usize {
        self.store.height(block.index() as u32)
    }

    fn parent_of(&self, block: BlockId) -> Option<BlockId> {
        self.store
            .parent(block.index() as u32)
            .map(|p| BlockId::from_index(p as usize))
    }

    fn mint_adversarial(&mut self, parent: BlockId) -> BlockId {
        let id = self.store.mint(parent.index() as u32, self.slot, ADVERSARY);
        BlockId::from_index(id as usize)
    }

    fn deliver_honest(&mut self, requested_slot: usize, recipient: usize, block: BlockId) {
        self.ring
            .schedule_honest(self.slot, requested_slot, recipient, block.index() as u32);
    }

    fn deliver_adversarial(&mut self, at_slot: usize, recipient: usize, block: BlockId) {
        self.ring
            .schedule_adversarial(self.slot, at_slot, recipient, block.index() as u32);
    }

    fn deliver_honest_to_all(&mut self, requested_slot: usize, block: BlockId) {
        self.ring.schedule_honest_all(
            self.slot,
            requested_slot,
            self.honest_nodes,
            block.index() as u32,
        );
    }

    fn deliver_adversarial_to_all(&mut self, at_slot: usize, block: BlockId) {
        self.ring.schedule_adversarial_all(
            self.slot,
            at_slot,
            self.honest_nodes,
            block.index() as u32,
        );
    }

    fn node_is_live(&self, node: usize) -> bool {
        self.faults.node_is_live(self.slot, node)
    }

    fn node_is_reachable(&self, node: usize) -> bool {
        self.faults.node_is_reachable(self.slot, node)
    }
}

/// The slot kernel's one observer seam, chosen at compile time: every
/// observation [`run_slots`] makes — the divergence fold's inputs and
/// the sink's events — goes through it, and nothing else does.
/// [`Inline`] folds them on the kernel thread (plain, campaign and
/// horizon runs); the validated pipeline ([`crate::pipeline`]) records
/// them into its hand-off batch and folds them on the `fork-fold`
/// thread, over the fork it builds there.
///
/// Per slot the kernel calls, in order: `fault_deferral` and then
/// `rollback` zero or more times each, exactly one of `tips_unchanged`,
/// `fresh_child` and `tips`, then `slot_end`.
pub(crate) trait SlotObserver {
    /// A fault plan parked a delivery for `recipient` until
    /// `deferred_to` ([`MetricsSink::on_fault_deferral`]).
    fn fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize);

    /// An honest node moved from `old` to the non-descendant `new`.
    /// `fold` is set once per distinct move of the slot at least: the
    /// fold's rollback update is idempotent for an equal `(slot, old,
    /// new)`, the sink's event is not.
    fn rollback(&mut self, store: &ColumnarStore, slot: usize, old: u32, new: u32, fold: bool);

    /// The distinct honest tips are those of the previous slot.
    fn tips_unchanged(&mut self, slot: usize);

    /// The distinct honest tips are `{parent, child}`: one fresh honest
    /// block on the previous slot's unanimous tip.
    fn fresh_child(&mut self, slot: usize, parent: u32, child: u32);

    /// The distinct honest tips changed to `tips` (id-sorted).
    fn tips(&mut self, store: &ColumnarStore, slot: usize, tips: &[u32]);

    /// The end of `slot`: `store` holds every block minted up to it.
    fn slot_end(&mut self, store: &ColumnarStore, slot: usize);
}

/// The block-tree queries the observers need: the divergence fold's
/// [`DivergenceOps`] plus block heights. The kernel's [`ColumnarStore`]
/// answers them, and so does the pipeline's view of the fork it builds,
/// whose vertex ids are the block ids.
pub(crate) trait ChainView: DivergenceOps {
    /// The chain height of block `b`.
    fn height_of(&self, b: u32) -> usize;
}

impl ChainView for ColumnarStore {
    #[inline]
    fn height_of(&self, b: u32) -> usize {
        self.height(b)
    }
}

/// The observer-side state of one execution: the online divergence
/// fold, the metrics accumulator and the cached end-of-slot observation
/// (distinct-tip count, best height, slot divergence) that quiet slots
/// replay. [`Inline`] drives it on the kernel thread; the validated
/// pipeline drives the same methods on the `fork-fold` thread.
pub(crate) struct SlotFold {
    pub(crate) fold: DivergenceFold,
    pub(crate) acc: MetricsAccumulator,
    tips: usize,
    height: usize,
    pub(crate) div: usize,
}

impl SlotFold {
    /// State over `fold` and `acc` whose last observation was one
    /// unanimous tip at `height` (genesis at 0, or a compacted root).
    pub(crate) fn new(fold: DivergenceFold, acc: MetricsAccumulator, height: usize) -> SlotFold {
        SlotFold {
            fold,
            acc,
            tips: 1,
            height,
            div: 0,
        }
    }

    /// `nodes` honest nodes moved from `old` to the non-descendant
    /// `new`: one `on_rollback` each, and one fold update if `fold`.
    #[inline]
    pub(crate) fn rollback<V: ChainView, S: MetricsSink>(
        &mut self,
        view: &V,
        sink: &mut S,
        slot: usize,
        (old, new, nodes): (u32, u32, usize),
        fold: bool,
    ) {
        if fold {
            self.fold.observe_rollback(view, slot, old, new);
        }
        let (from, to) = (view.height_of(old), view.height_of(new));
        for _ in 0..nodes {
            self.acc.on_rollback(slot, from, to);
            sink.on_rollback(slot, from, to);
        }
    }

    /// The distinct tips became `{parent, child}` (see
    /// [`SlotObserver::fresh_child`]).
    #[inline]
    pub(crate) fn fresh_child(&mut self, slot: usize, parent: u32, child: u32) {
        self.tips = 2;
        self.height += 1;
        self.div = 0;
        self.fold.observe_fresh_child(slot, parent, child, slot);
    }

    /// The distinct tips became `tips`, the tallest at `height`.
    #[inline]
    pub(crate) fn tips<V: ChainView>(
        &mut self,
        view: &V,
        slot: usize,
        tips: &[u32],
        height: usize,
    ) {
        self.tips = tips.len();
        self.height = height;
        self.div = self.fold.observe_tips_divergence(view, slot, tips);
    }

    /// Ends `slot`: one `on_slot` with the cached observation.
    #[inline]
    pub(crate) fn slot_end<S: MetricsSink>(&mut self, sink: &mut S, slot: usize) {
        self.acc.on_slot(slot, self.tips, self.height, self.div);
        sink.on_slot(slot, self.tips, self.height, self.div);
    }
}

/// The inline observer: folds every observation into a [`SlotFold`] and
/// the caller's sink on the kernel thread.
pub(crate) struct Inline<'a, S> {
    pub(crate) state: &'a mut SlotFold,
    pub(crate) sink: &'a mut S,
}

impl<S: MetricsSink> SlotObserver for Inline<'_, S> {
    #[inline]
    fn fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize) {
        self.sink.on_fault_deferral(slot, recipient, deferred_to);
    }

    #[inline]
    fn rollback(&mut self, store: &ColumnarStore, slot: usize, old: u32, new: u32, fold: bool) {
        self.state
            .rollback(store, self.sink, slot, (old, new, 1), fold);
    }

    #[inline]
    fn tips_unchanged(&mut self, slot: usize) {
        self.state.fold.observe_tips_unchanged(slot);
    }

    #[inline]
    fn fresh_child(&mut self, slot: usize, parent: u32, child: u32) {
        self.state.fresh_child(slot, parent, child);
    }

    #[inline]
    fn tips(&mut self, store: &ColumnarStore, slot: usize, tips: &[u32]) {
        self.state.tips(store, slot, tips, best_height(store, tips));
    }

    #[inline]
    fn slot_end(&mut self, _store: &ColumnarStore, slot: usize) {
        self.state.slot_end(self.sink, slot);
    }
}

/// Forwards a fault runtime's deferral events to an observer.
struct Deferrals<'a, O>(&'a mut O);

impl<O: SlotObserver> MetricsSink for Deferrals<'_, O> {
    fn on_fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize) {
        self.0.fault_deferral(slot, recipient, deferred_to);
    }
}

/// The longest-chain rule of one columnar honest node: the tip a node
/// on `tip` holds after receiving `block`. Bit-compatible with the
/// reference `HonestNode::receive`, which first drops blocks the node
/// already knows; that check never changes the outcome, so the columnar
/// node keeps no known-set:
///
/// * a tip's height never falls;
/// * at equal height, a tip only changes to a tie winner;
/// * a node that knows block `b` has received `b` or a descendant of
///   `b` (or minted `b`), so its tip is at least as high as `b`;
/// * at equal height, that tip is `b` itself or has already beaten `b`.
///
/// So re-receiving a known block keeps the tip, and `receive` is a pure
/// function of `(tip, block)`: a height comparison plus the tie rule.
#[inline]
fn receive(store: &ColumnarStore, tie_break: TieBreak, tip: u32, block: u32) -> u32 {
    let adopt = match store.height(block).cmp(&store.height(tip)) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => match tie_break {
            TieBreak::AdversarialOrder => false, // first seen stays
            TieBreak::Consistent => {
                multihonest_sim::block::tie_hash(block) < multihonest_sim::block::tie_hash(tip)
            }
        },
    };
    if adopt {
        block
    } else {
        tip
    }
}

/// The tallest of `tips`.
#[inline]
pub(crate) fn best_height(store: &ColumnarStore, tips: &[u32]) -> usize {
    tips.iter().map(|&t| store.height(t)).max().unwrap_or(0)
}

/// Whether a node that moved from `old` to `new` rolled back: `new` does
/// not extend `old`. Adoption only ever raises height, and the dominant
/// case is adopting a direct child of the old tip, so one parent load
/// rules the rollback out before any ancestry descent.
#[inline]
fn rolls_back(store: &ColumnarStore, old: u32, new: u32) -> bool {
    new != old && store.parent(new) != Some(old) && !store.is_ancestor(old, new)
}

/// Whether `due` is a **full broadcast**: `m ≥ 1` blocks, each for every
/// honest node — only the [`ALL`] entries the batched
/// `deliver_*_to_all` scheduling lands.
fn is_full_broadcast(due: &[(u32, u32)]) -> bool {
    !due.is_empty() && due.iter().all(|&(r, _)| r == ALL)
}

/// A finished columnar execution with full traces retained — the
/// query-compatible counterpart of the reference `Simulation`, produced
/// by [`ColumnarSimulation::run`]. For runs where no per-slot trace is
/// wanted (the million-slot regime), use
/// [`ColumnarSimulation::run_streaming`].
#[derive(Debug, Clone)]
pub struct ColumnarSimulation {
    config: SimConfig,
    store: ColumnarStore,
    /// Distinct honest tips per slot, flattened; slot `t` (1-based) owns
    /// `tips_flat[tips_end[t − 1] as usize..tips_end[t] as usize]`.
    tips_flat: Vec<u32>,
    tips_end: Vec<u32>,
    rollbacks: Vec<(u32, u32, u32)>,
    divergence: DivergenceIndex,
    metrics: Metrics,
}

impl ColumnarSimulation {
    /// Runs an execution with the given seed, instantiating the
    /// configured built-in strategy — the drop-in columnar counterpart of
    /// `Simulation::run`, with bit-identical traces.
    pub fn run(config: &SimConfig, seed: u64) -> ColumnarSimulation {
        let mut strategy = config.strategy.instantiate();
        ColumnarSimulation::run_with(config, seed, strategy.as_mut())
    }

    /// Runs an execution with an arbitrary [`AdversaryStrategy`].
    pub fn run_with(
        config: &SimConfig,
        seed: u64,
        strategy: &mut dyn AdversaryStrategy,
    ) -> ColumnarSimulation {
        let schedule = ColumnarSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            seed,
        );
        ColumnarSimulation::run_with_schedule(config, &schedule, strategy)
    }

    /// Runs an execution over an explicit columnar schedule
    /// (heterogeneous stake profiles sample theirs with
    /// [`ColumnarSchedule::sample_weighted`]) and an arbitrary strategy,
    /// retaining the full tip/rollback traces.
    pub fn run_with_schedule(
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
    ) -> ColumnarSimulation {
        let empty = FaultPlan::default();
        ColumnarSimulation::run_with_schedule_faults(config, schedule, strategy, &empty).0
    }

    /// Runs a trace-retaining execution under a [`FaultPlan`]: crashed
    /// nodes skip their leadership slots and every due delivery passes
    /// through the plan's predicate, exactly as in the reference engine's
    /// `run_with_schedule_faults` — faulty executions stay
    /// trace-identical across engines. The empty plan is bit-identical to
    /// [`ColumnarSimulation::run_with_schedule`]. Returns the execution
    /// together with its [`DegradationLedger`].
    pub fn run_with_schedule_faults(
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        plan: &FaultPlan,
    ) -> (ColumnarSimulation, DegradationLedger) {
        ColumnarSimulation::run_with_schedule_faults_recorded(
            config,
            schedule,
            strategy,
            plan,
            &mut (),
            &mut (),
        )
    }

    /// The fully-instrumented trace-retaining entry point: identical to
    /// [`run_with_schedule_faults`](Self::run_with_schedule_faults) with
    /// a [`MetricsSink`] and an obs [`Recorder`] attached. The recorder
    /// only observes (a `scenario.execute` span around the run), so an
    /// instrumented run reproduces the plain run's fingerprints
    /// bit-for-bit — the bit-identity law `tests/observability.rs` pins.
    /// Sink and recorder are separate generic parameters so callers can
    /// pass an obs-backed sink and a recorder without a double borrow.
    pub fn run_with_schedule_faults_recorded<S: MetricsSink, R: Recorder>(
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        plan: &FaultPlan,
        sink: &mut S,
        rec: &mut R,
    ) -> (ColumnarSimulation, DegradationLedger) {
        let mut arena = ExecutionArena::new();
        let mut core = EngineCore::new(config, plan, true);
        rec.span_begin("scenario.execute");
        let (metrics, divergence) =
            execute_inline(&mut arena, &mut core, config, schedule, strategy, sink);
        rec.span_end("scenario.execute");
        let ledger = core.faults.finish();
        (
            ColumnarSimulation {
                config: *config,
                store: arena.store,
                tips_flat: core.tips_flat,
                tips_end: core.tips_end,
                rollbacks: core.rollbacks,
                divergence,
                metrics,
            },
            ledger,
        )
    }

    /// Runs a **streaming** execution: no per-slot traces are retained —
    /// constant-size working state beyond the block arena and the
    /// `O(slots)` divergence index — and every per-slot observation is
    /// forwarded to `sink`. Returns the end-of-run metrics and the
    /// settlement index.
    pub fn run_streaming<S: MetricsSink>(
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        sink: &mut S,
    ) -> (Metrics, DivergenceIndex) {
        let (metrics, divergence, _) = ColumnarSimulation::run_streaming_faults_in(
            &mut ExecutionArena::new(),
            config,
            schedule,
            strategy,
            &FaultPlan::default(),
            sink,
        );
        (metrics, divergence)
    }

    /// The **batch** entry point: a streaming execution under a
    /// [`FaultPlan`] that reuses the caller's [`ExecutionArena`] instead
    /// of allocating block/delivery arenas afresh — trace-identical to a
    /// run on a fresh arena, amortizing heap traffic to zero across a
    /// campaign of seeds. This is the kernel campaign sweeps drive once
    /// per trial. Deferral events reach the sink through
    /// [`MetricsSink::on_fault_deferral`]; the empty plan is
    /// bit-identical to [`run_streaming`](Self::run_streaming).
    pub fn run_streaming_faults_in<S: MetricsSink>(
        arena: &mut ExecutionArena,
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        plan: &FaultPlan,
        sink: &mut S,
    ) -> (Metrics, DivergenceIndex, DegradationLedger) {
        let mut core = EngineCore::new(config, plan, false);
        let (metrics, divergence) =
            execute_inline(arena, &mut core, config, schedule, strategy, sink);
        (metrics, divergence, core.faults.finish())
    }

    /// The configuration used.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The SoA block arena.
    pub fn store(&self) -> &ColumnarStore {
        &self.store
    }

    /// Execution metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Distinct honest tips at the end of `slot` (1-based; slot 0 reports
    /// none), matching the reference `Simulation::tips_at`.
    pub fn tips_at(&self, slot: usize) -> &[u32] {
        if slot == 0 {
            return &[];
        }
        &self.tips_flat[self.tips_end[slot - 1] as usize..self.tips_end[slot] as usize]
    }

    /// All recorded rollbacks: `(slot, previous tip, new tip)`.
    pub fn rollbacks(&self) -> &[(u32, u32, u32)] {
        &self.rollbacks
    }

    /// The execution's settlement index.
    pub fn divergence_index(&self) -> &DivergenceIndex {
        &self.divergence
    }

    /// Whether the execution exhibits a `(slot, k)`-settlement violation
    /// (paper Definition 3, observed) — `O(1)`.
    pub fn settlement_violation(&self, slot: usize, k: usize) -> bool {
        self.divergence.violates(slot, k)
    }

    /// The full settlement sweep at parameter `k`; `O(slots)`.
    pub fn settlement_violations(&self, k: usize) -> Vec<bool> {
        self.divergence.violations(k)
    }

    /// Number of violating anchors `s ≤ upto` at parameter `k`.
    pub fn count_violating_slots(&self, k: usize, upto: usize) -> usize {
        self.divergence.count_violations(k, upto)
    }

    /// The smallest violating anchor at parameter `k`, if any.
    pub fn first_violating_slot(&self, k: usize) -> Option<usize> {
        self.divergence.first_violation(k)
    }
}

/// Reusable working state for batch execution: the block store, delivery
/// ring, per-node views and per-slot scratch buffers of one execution,
/// reset in place between seeds. One arena per worker thread turns a
/// campaign of millions of executions into zero steady-state allocation —
/// see [`ColumnarSimulation::run_streaming_faults_in`].
#[derive(Debug)]
pub struct ExecutionArena {
    pub(crate) store: ColumnarStore,
    pub(crate) ring: DeliveryRing,
    pub(crate) tips: Vec<u32>,
    pub(crate) minted: Vec<BlockId>,
    pub(crate) before: Vec<u32>,
    pub(crate) due: Vec<(u32, u32)>,
    /// The distinct honest tips of the last observed slot, id-sorted.
    pub(crate) uniq: Vec<u32>,
    /// A full broadcast's tip groups: `(starting tip, final tip, whether
    /// the move rolls back)`.
    pub(crate) groups: Vec<(u32, u32, bool)>,
}

impl Default for ExecutionArena {
    fn default() -> ExecutionArena {
        ExecutionArena::new()
    }
}

impl ExecutionArena {
    /// An empty arena; the first execution sizes it, later ones reuse it.
    pub fn new() -> ExecutionArena {
        ExecutionArena {
            store: ColumnarStore::new(),
            ring: DeliveryRing::new(0, 0, 0),
            tips: Vec::new(),
            minted: Vec::new(),
            before: Vec::new(),
            due: Vec::new(),
            uniq: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Resets every component for a fresh execution, keeping allocations:
    /// every node on genesis, and `uniq` holding that one distinct tip.
    pub(crate) fn reset(&mut self, config: &SimConfig, lookahead: usize, expected_blocks: usize) {
        let n = config.honest_nodes;
        self.store.reset();
        self.store.reserve(expected_blocks);
        self.ring.reset(config.delta, lookahead, config.slots);
        self.tips.clear();
        self.tips.resize(n, 0);
        self.minted.clear();
        self.before.clear();
        self.before.resize(n, 0);
        self.due.clear();
        self.uniq.clear();
        self.uniq.reserve(n);
        self.uniq.push(0);
        self.debug_audit(n);
    }

    /// Compacts the arena around the **unanimous tip** `root`: the store
    /// resets to a single root block carrying the tip's absolute slot,
    /// height and issuer (so minting and height accounting continue
    /// seamlessly above it), and every node's view plus the
    /// cached `uniq` scratch move to the root's new id 0. The horizon
    /// driver calls this at fully settled points; the required
    /// preconditions — all tips equal `root`, the delivery ring idle —
    /// are debug-asserted.
    pub(crate) fn compact_to_root(&mut self, root: u32) {
        debug_assert!(
            self.tips.iter().all(|&t| t == root),
            "compaction requires a unanimous tip"
        );
        debug_assert!(self.ring.is_idle(), "compaction requires an idle ring");
        let (slot, height) = (self.store.slot(root), self.store.height(root));
        self.store
            .reset_to_root(slot, height, self.store.issuer(root));
        self.tips.fill(0);
        self.uniq.clear();
        self.uniq.push(0);
    }

    /// The best tip over the node views — later nodes win height ties,
    /// matching the reference's `max_by_key` — with the number of blocks,
    /// and of honest blocks, on its chain above the store's root.
    pub(crate) fn best_chain(&self) -> (u32, usize, usize) {
        let store = &self.store;
        let mut best = self.tips[0];
        for &t in &self.tips {
            if store.height(t) >= store.height(best) {
                best = t;
            }
        }
        let (mut blocks, mut honest) = (0, 0);
        let mut cur = best;
        while let Some(p) = store.parent(cur) {
            blocks += 1;
            honest += usize::from(store.is_honest(cur));
            cur = p;
        }
        (best, blocks, honest)
    }

    /// Debug-asserts that every column and ring buffer is length-reset —
    /// no stale tail state from a previous (possibly longer) execution
    /// can leak into this one. Compiled out of release builds.
    pub(crate) fn debug_audit(&self, n: usize) {
        debug_assert_eq!(self.store.len(), 1, "store must hold only genesis");
        debug_assert!(self.ring.is_idle(), "ring buckets must be drained");
        debug_assert_eq!(self.tips.len(), n, "one tip per honest node");
        debug_assert!(self.tips.iter().all(|&t| t == 0), "tips must be genesis");
        debug_assert!(self.minted.is_empty(), "minted scratch must be empty");
        debug_assert_eq!(self.before.len(), n, "one before-tip per node");
        debug_assert!(self.due.is_empty(), "due scratch must be empty");
        debug_assert_eq!(self.uniq, [0], "uniq must mirror the genesis tip");
    }
}

/// The kernel-side mutable state of one execution that is **not** the
/// arena: the slot cursor, the fault plan's runtime, and the rollback
/// record and trace columns of trace-retaining mode. The observer side
/// (fold, accumulator, cached observation) is a [`SlotFold`] behind the
/// run's [`SlotObserver`]. Callers of [`execute`] build one per run; the
/// horizon driver keeps one alive across segments.
pub(crate) struct EngineCore<'p> {
    /// Slots executed so far: [`run_slots`] continues at `done + 1`.
    pub(crate) done: usize,
    pub(crate) faults: FaultRuntime<'p>,
    /// Whether the run retains the tip trace and rollback record.
    pub(crate) keep_trace: bool,
    pub(crate) rollbacks: Vec<(u32, u32, u32)>,
    pub(crate) tips_flat: Vec<u32>,
    pub(crate) tips_end: Vec<u32>,
}

impl<'p> EngineCore<'p> {
    /// State for a fresh execution under `plan`, at slot 0.
    pub(crate) fn new(config: &SimConfig, plan: &'p FaultPlan, keep_trace: bool) -> EngineCore<'p> {
        let mut tips_end = Vec::with_capacity(if keep_trace { config.slots + 1 } else { 1 });
        tips_end.push(0);
        EngineCore {
            done: 0,
            faults: FaultRuntime::new(plan, config.honest_nodes, config.slots),
            keep_trace,
            rollbacks: Vec::new(),
            tips_flat: Vec::new(),
            tips_end,
        }
    }
}

/// Resets `arena` and runs one whole execution — `schedule` covers
/// `config.slots` — with the caller-built per-run state `core`,
/// reporting to `obs`. The caller finishes the observer side and reads
/// the end-of-run chain off the arena ([`run_metrics`]); the horizon
/// driver has its own finish (evicted-prefix counters plus a windowed
/// fold drain).
pub(crate) fn execute<O: SlotObserver>(
    arena: &mut ExecutionArena,
    core: &mut EngineCore<'_>,
    config: &SimConfig,
    schedule: &ColumnarSchedule,
    strategy: &mut dyn AdversaryStrategy,
    obs: &mut O,
) {
    assert_eq!(
        schedule.len(),
        config.slots,
        "schedule must cover the configured horizon"
    );
    // Expected blocks ≈ one per leader flag; reserve with headroom.
    let expected = schedule.active_slots() + schedule.len() / 8 + 16;
    arena.reset(config, strategy.lookahead(config.delta), expected);
    run_slots(arena, core, config, schedule, strategy, obs);
}

/// The [`Metrics`] of a finished whole execution: the observers'
/// accumulator and settlement index with the best-tip chain walk over
/// the kernel's arena.
pub(crate) fn run_metrics(
    acc: MetricsAccumulator,
    arena: &ExecutionArena,
    schedule: &ColumnarSchedule,
    divergence: &DivergenceIndex,
) -> Metrics {
    let (best_tip, chain_blocks, honest_chain_blocks) = arena.best_chain();
    acc.finish(
        schedule.active_slots(),
        arena.store.height(best_tip),
        chain_blocks,
        honest_chain_blocks,
        divergence.max_settlement_lag(),
    )
}

/// [`execute`] with the [`Inline`] observer over a fresh full-horizon
/// fold: the run's metrics and settlement index.
fn execute_inline<S: MetricsSink>(
    arena: &mut ExecutionArena,
    core: &mut EngineCore<'_>,
    config: &SimConfig,
    schedule: &ColumnarSchedule,
    strategy: &mut dyn AdversaryStrategy,
    sink: &mut S,
) -> (Metrics, DivergenceIndex) {
    let fold = DivergenceFold::new(config.slots);
    let mut state = SlotFold::new(fold, MetricsAccumulator::new(), 0);
    let mut obs = Inline {
        state: &mut state,
        sink,
    };
    execute(arena, core, config, schedule, strategy, &mut obs);
    let divergence = state.fold.finish();
    let metrics = run_metrics(state.acc, arena, schedule, &divergence);
    (metrics, divergence)
}

/// The engine loop shared by the trace-retaining and streaming modes.
///
/// The loop is a **four-path slot kernel with one epilogue**. Honest
/// tips move only through minting and [`receive`] over the due-delivery
/// list, so each path derives the slot's distinct-tip observation as
/// cheaply as its shape allows:
///
/// 1. *passive-quiet*: a passive strategy, no leader, nothing due —
///    no context, no strategy dispatch, no drain;
/// 2. *quiet*: nothing minted and nothing due after the drain — every
///    tip, and so the distinct-tip set and rollback record, is provably
///    unchanged;
/// 3. *single-mint*: one fresh block on the unanimous tip, nothing due —
///    the views split into `{parent, child}` structurally;
/// 4. *general*: a **full broadcast** — a due list of only the ring's
///    [`ALL`] entries, one per block — is resolved once per starting
///    tip, and the distinct tips are the few tip groups' final tips;
///    any other due list (per-recipient entries, a broadcast sharing a
///    bucket with them, or anything under a non-empty fault plan) is
///    expanded to recipients in ascending order and applied with one
///    `receive` per delivery, then the distinct tips come from the
///    unanimous check, else a sort and dedup of every node's tip.
///
/// Every path reports to the observer `obs` (the one [`SlotObserver`]
/// seam) and leaves the distinct tips in the arena's `uniq`, then falls
/// through to the single epilogue: one trace push and one
/// `obs.slot_end`. The paths are therefore invisible to every observer —
/// bit-identical traces, metrics, fold state and sink events. Under
/// sparse leader schedules (`f` well below 1) the quiet paths cover the
/// majority of slots, which is where the columnar engine's throughput
/// comes from.
///
/// `run_slots` executes the `schedule.len()` slots after `core.done`
/// (`schedule` covers exactly those, 1-based) and advances the cursor,
/// making the loop **re-enterable**: [`execute`] calls it once over the
/// full horizon, while the segmented horizon driver calls it per
/// schedule segment with compaction in between. Slot numbers stay
/// absolute throughout (strategies, the ring, the fold and every sink
/// see the global slot clock), so a segmented run is
/// observation-identical to a monolithic one.
pub(crate) fn run_slots<O: SlotObserver>(
    arena: &mut ExecutionArena,
    core: &mut EngineCore<'_>,
    config: &SimConfig,
    schedule: &ColumnarSchedule,
    strategy: &mut dyn AdversaryStrategy,
    obs: &mut O,
) {
    let n = config.honest_nodes;
    assert!(n > 0, "need at least one honest node");
    let ExecutionArena {
        store,
        ring,
        tips,
        minted,
        before,
        due,
        uniq,
        groups,
    } = arena;
    let EngineCore {
        done,
        faults,
        keep_trace,
        rollbacks,
        tips_flat,
        tips_end,
    } = core;
    let keep_trace = *keep_trace;
    let have_faults = !faults.is_empty();
    // A passive strategy on a leaderless slot provably does nothing, so
    // such a slot with an empty delivery bucket needs no context, no
    // strategy dispatch and no drain at all — the short-circuit below.
    // Fault plans act every slot (deferred re-injection), so they opt
    // the execution out of the short-circuit wholesale.
    let passive = !have_faults && strategy.passive_without_leaders();
    let base = *done;

    for slot in base + 1..=base + schedule.len() {
        'path: {
            // 1. Honest leaders mint on their current tips and adopt their
            //    own block at mint time (no rushed same-height injection
            //    can win the first-seen tie against a minter).
            let leaders = schedule.leaders(slot - base);
            if passive
                && leaders.is_empty()
                && !schedule.adversarial(slot - base)
                && ring.bucket_is_empty(slot)
            {
                // Fully quiet slot: nothing minted, nothing due, strategy
                // provably inert — replay the cached observation.
                obs.tips_unchanged(slot);
                break 'path;
            }
            minted.clear();
            for &leader in leaders {
                let l = leader as usize;
                if have_faults && !faults.can_mint(slot, l) {
                    continue;
                }
                // The fresh block extends the minter's tip and is strictly
                // taller, so `receive` would adopt it.
                let b = store.mint(tips[l], slot, leader);
                tips[l] = b;
                minted.push(BlockId::from_index(b as usize));
            }
            // 2. The rushing adversary observes the minted blocks and
            //    acts — through the same trait the reference engine
            //    drives.
            let mut ctx = ColumnarSlotContext {
                store: &mut *store,
                ring: &mut *ring,
                delta: config.delta,
                honest_nodes: n,
                faults: &*faults,
                slot,
                adversarial_leader: schedule.adversarial(slot - base),
            };
            strategy.on_slot(&mut ctx, minted);
            // 3. Drain this slot's deliveries — filtered through the
            //    fault plan when one is active (which may also re-inject
            //    previously deferred deliveries, so the plan runs even on
            //    empty drains). The plan filters per recipient, so its
            //    broadcasts are expanded first.
            ring.drain_into(slot, due);
            if have_faults {
                expand_broadcasts(due, n);
                faults.apply(
                    slot,
                    due,
                    |b| DeliveryMeta {
                        src: store.issuer(b) as usize,
                        honest: store.is_honest(b),
                        broadcast_slot: store.slot(b),
                    },
                    &mut Deferrals(&mut *obs),
                );
            }
            if due.is_empty() && minted.is_empty() {
                // Quiet slot: no receive() ran, so every tip is
                // unchanged. Replay the cached observation and keep the
                // fold's run open.
                obs.tips_unchanged(slot);
                break 'path;
            }
            // 4. Apply due deliveries in scheduled order, recording chain
            //    rollbacks (only deliveries can cause them: minting
            //    extends the minter's own chain) per node in ascending
            //    order.
            let broadcast = is_full_broadcast(due);
            if broadcast {
                // Every node receives the same blocks in the same
                // order, and `receive` is a pure function of (tip,
                // block), so a node's final tip depends only on its
                // starting tip: fold the blocks and run the rollback
                // test once per distinct starting tip, and feed the fold
                // once per group.
                groups.clear();
                for tip in tips.iter_mut() {
                    let old = *tip;
                    let (new, rolled, first) = match groups.iter().find(|g| g.0 == old) {
                        Some(&(_, new, rolled)) => (new, rolled, false),
                        None => {
                            let new = due
                                .iter()
                                .fold(old, |t, &(_, b)| receive(store, config.tie_break, t, b));
                            let rolled = rolls_back(store, old, new);
                            groups.push((old, new, rolled));
                            (new, rolled, true)
                        }
                    };
                    *tip = new;
                    if rolled {
                        if keep_trace {
                            rollbacks.push((slot as u32, old, new));
                        }
                        obs.rollback(store, slot, old, new, first);
                    }
                }
            } else if !due.is_empty() {
                // Balance-attack routing, mixed buckets and
                // fault-filtered lists: one `receive` per delivery.
                expand_broadcasts(due, n);
                before.copy_from_slice(tips);
                for &(recipient, block) in due.iter() {
                    let r = recipient as usize;
                    tips[r] = receive(store, config.tie_break, tips[r], block);
                }
                for (&old, &new) in before.iter().zip(tips.iter()) {
                    if rolls_back(store, old, new) {
                        if keep_trace {
                            rollbacks.push((slot as u32, old, new));
                        }
                        obs.rollback(store, slot, old, new, true);
                    }
                }
            }
            if config.tie_break == TieBreak::AdversarialOrder {
                for &b in minted.iter() {
                    let leader = store.issuer(b.index() as u32) as usize;
                    let tip = tips[leader];
                    debug_assert!(
                        tip == b.index() as u32
                            || store.height(tip) > store.height(b.index() as u32),
                        "leader {leader} lost its own slot-{slot} block to an equal-height tie"
                    );
                }
            }
            // 5. Observe the distinct honest views.
            //
            // Single-mint fast case: one fresh honest block on the
            // previous slot's unanimous tip (no deliveries) splits the
            // views into exactly `{parent, child}` — already id-sorted,
            // meeting at the parent, zero slot divergence, best height
            // one up. Every fold quantity is structural; no sort, no
            // chain walk.
            if due.is_empty() && minted.len() == 1 && uniq.len() == 1 && n > 1 {
                let child = minted[0].index() as u32;
                let parent = uniq[0];
                debug_assert_eq!(store.parent(child), Some(parent));
                uniq.push(child);
                obs.fresh_child(slot, parent, child);
                break 'path;
            }
            uniq.clear();
            if broadcast {
                // Every node's final tip is its group's.
                uniq.extend(groups.iter().map(|g| g.1));
                if uniq.len() > 1 {
                    uniq.sort_unstable();
                    uniq.dedup();
                }
            } else {
                // The unanimous case (every node on one tip — the common
                // case between forks) needs no sort.
                let first = tips[0];
                if tips.iter().all(|&t| t == first) {
                    uniq.push(first);
                } else {
                    uniq.extend_from_slice(tips);
                    uniq.sort_unstable();
                    uniq.dedup();
                }
            }
            obs.tips(store, slot, uniq);
        }
        // The one epilogue: every path above left this slot's distinct
        // tips in `uniq`.
        if keep_trace {
            tips_flat.extend_from_slice(uniq);
            tips_end.push(tips_flat.len() as u32);
        }
        obs.slot_end(store, slot);
    }
    *done = base + schedule.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_sim::{FaultDirective, Simulation, Strategy};

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

    /// Asserts a columnar run is trace-identical to the reference engine.
    fn assert_matches_reference(config: &SimConfig, seed: u64) {
        let cols = ColumnarSimulation::run(config, seed);
        let refr = Simulation::run(config, seed);
        for t in 0..=config.slots {
            let expect: Vec<u32> = refr.tips_at(t).iter().map(|b| b.index() as u32).collect();
            assert_eq!(cols.tips_at(t), expect.as_slice(), "tips at slot {t}");
        }
        let expect_rb: Vec<(u32, u32, u32)> = refr
            .rollbacks()
            .iter()
            .map(|&(t, o, n)| (t as u32, o.index() as u32, n.index() as u32))
            .collect();
        assert_eq!(cols.rollbacks(), expect_rb.as_slice(), "rollbacks");
        assert_eq!(cols.metrics(), refr.metrics(), "metrics");
        assert_eq!(cols.divergence_index(), refr.divergence_index(), "index");
        for k in [0usize, 1, 5, 20] {
            assert_eq!(
                cols.settlement_violations(k),
                refr.settlement_violations(k),
                "violations at k = {k}"
            );
        }
    }

    #[test]
    fn matches_reference_on_all_builtin_strategies() {
        for strategy in Strategy::ALL {
            for delta in [0usize, 2] {
                assert_matches_reference(&cfg(strategy, delta, 300), 11);
            }
        }
    }

    #[test]
    fn streaming_mode_matches_trace_mode() {
        let config = cfg(Strategy::PrivateWithholding, 2, 500);
        let schedule = ColumnarSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            3,
        );
        let mut s1 = config.strategy.instantiate();
        let traced = ColumnarSimulation::run_with_schedule(&config, &schedule, s1.as_mut());
        let mut s2 = config.strategy.instantiate();
        let mut acc = MetricsAccumulator::new();
        let (metrics, index) =
            ColumnarSimulation::run_streaming(&config, &schedule, s2.as_mut(), &mut acc);
        assert_eq!(&metrics, traced.metrics());
        assert_eq!(&index, traced.divergence_index());
        assert_eq!(acc.max_slot_divergence(), metrics.max_slot_divergence);
    }

    #[test]
    fn arena_reuse_matches_fresh_runs() {
        // One arena driven across runs with different seeds, strategies,
        // Δs and node counts (the shape of a campaign cell sweep) must
        // reproduce each fresh streaming run exactly.
        let mut arena = ExecutionArena::new();
        for (seed, strategy, delta, nodes) in [
            (1u64, Strategy::PrivateWithholding, 2usize, 6usize),
            (2, Strategy::BalanceAttack, 0, 6),
            (3, Strategy::Honest, 4, 3),
            (4, Strategy::PrivateWithholding, 1, 9),
        ] {
            let mut config = cfg(strategy, delta, 350);
            config.honest_nodes = nodes;
            let schedule = ColumnarSchedule::sample(
                config.honest_nodes,
                config.adversarial_stake,
                config.active_slot_coeff,
                config.slots,
                seed,
            );
            let mut s1 = strategy.instantiate();
            let fresh = ColumnarSimulation::run_streaming(&config, &schedule, s1.as_mut(), &mut ());
            let mut s2 = strategy.instantiate();
            let reused = ColumnarSimulation::run_streaming_faults_in(
                &mut arena,
                &config,
                &schedule,
                s2.as_mut(),
                &FaultPlan::default(),
                &mut (),
            );
            assert_eq!(fresh.0, reused.0, "metrics diverged at seed {seed}");
            assert_eq!(fresh.1, reused.1, "index diverged at seed {seed}");
        }
    }

    /// Asserts a *faulty* columnar run is trace-identical to the
    /// reference engine under the same plan — including the degradation
    /// ledgers.
    fn assert_faulty_matches_reference(config: &SimConfig, plan: &FaultPlan, seed: u64) {
        let mut make = || config.strategy.instantiate();
        assert_strategy_matches_reference(config, plan, seed, &mut make);
    }

    /// [`assert_faulty_matches_reference`] for any strategy: `make`
    /// builds one instance per engine.
    fn assert_strategy_matches_reference(
        config: &SimConfig,
        plan: &FaultPlan,
        seed: u64,
        make: &mut dyn FnMut() -> Box<dyn AdversaryStrategy>,
    ) {
        let cs = ColumnarSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            seed,
        );
        let rs = multihonest_sim::LeaderSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            seed,
        );
        let mut s1 = make();
        let (cols, cl) =
            ColumnarSimulation::run_with_schedule_faults(config, &cs, s1.as_mut(), plan);
        let mut s2 = make();
        let (refr, rl) = Simulation::run_with_schedule_faults(config, rs, s2.as_mut(), plan);
        for t in 0..=config.slots {
            let expect: Vec<u32> = refr.tips_at(t).iter().map(|b| b.index() as u32).collect();
            assert_eq!(cols.tips_at(t), expect.as_slice(), "tips at slot {t}");
        }
        let expect_rb: Vec<(u32, u32, u32)> = refr
            .rollbacks()
            .iter()
            .map(|&(t, o, n)| (t as u32, o.index() as u32, n.index() as u32))
            .collect();
        assert_eq!(cols.rollbacks(), expect_rb.as_slice(), "rollbacks");
        assert_eq!(cols.metrics(), refr.metrics(), "metrics");
        assert_eq!(cols.divergence_index(), refr.divergence_index(), "index");
        assert_eq!(cl, rl, "degradation ledgers");
    }

    #[test]
    fn faulty_runs_match_reference_on_all_builtin_strategies() {
        let plan = FaultPlan::new()
            .with(FaultDirective::Partition {
                groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
                start: 40,
                heal_slot: 44,
            })
            .with(FaultDirective::Eclipse {
                node: 2,
                start: 90,
                until: 95,
            })
            .with(FaultDirective::Crash {
                node: 5,
                at: 150,
                recover_slot: 156,
            })
            .with(FaultDirective::MessageLoss {
                p: 0.5,
                salt: 0xFA11,
                start: 200,
                until: 205,
            });
        for strategy in Strategy::ALL {
            for delta in [0usize, 2] {
                assert_faulty_matches_reference(&cfg(strategy, delta, 300), &plan, 13);
            }
        }
    }

    #[test]
    fn never_recovering_crash_matches_reference() {
        let plan = FaultPlan::new().with(FaultDirective::Crash {
            node: 0,
            at: 50,
            recover_slot: usize::MAX,
        });
        assert_faulty_matches_reference(&cfg(Strategy::PrivateWithholding, 2, 250), &plan, 5);
    }

    #[test]
    fn streaming_faulty_mode_matches_traced_faulty_mode() {
        let config = cfg(Strategy::PrivateWithholding, 2, 400);
        let plan = FaultPlan::new().with(FaultDirective::Partition {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            start: 60,
            heal_slot: 66,
        });
        let schedule = ColumnarSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            17,
        );
        let mut s1 = config.strategy.instantiate();
        let (traced, tl) =
            ColumnarSimulation::run_with_schedule_faults(&config, &schedule, s1.as_mut(), &plan);
        let mut s2 = config.strategy.instantiate();
        let mut deferrals = 0u64;
        struct CountSink<'a>(&'a mut u64);
        impl MetricsSink for CountSink<'_> {
            fn on_fault_deferral(&mut self, _slot: usize, _recipient: usize, _to: usize) {
                *self.0 += 1;
            }
        }
        let mut sink = CountSink(&mut deferrals);
        let (metrics, index, sl) = ColumnarSimulation::run_streaming_faults_in(
            &mut ExecutionArena::new(),
            &config,
            &schedule,
            s2.as_mut(),
            &plan,
            &mut sink,
        );
        assert_eq!(&metrics, traced.metrics());
        assert_eq!(&index, traced.divergence_index());
        assert_eq!(tl, sl, "ledgers across modes");
        assert_eq!(deferrals, sl.deferred, "sink sees every deferral");
        assert!(deferrals > 0, "the partition must bite");
    }

    /// Schedules broadcasts and per-recipient deliveries into one
    /// bucket: each slot's honest blocks go to everyone and, on odd
    /// slots, once more to a single node, and a private adversarial
    /// chain is broadcast once it is at least as tall as the best honest
    /// block — all due at the next slot, in that order. Counts the slots
    /// whose bucket mixes the two kinds.
    struct MixedBuckets {
        best: BlockId,
        private: Option<BlockId>,
        mixed: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl AdversaryStrategy for MixedBuckets {
        fn name(&self) -> &'static str {
            "mixed-buckets"
        }

        fn on_slot(&mut self, ctx: &mut dyn SlotContext, minted: &[BlockId]) {
            let (slot, due) = (ctx.slot(), ctx.slot() + 1);
            for &b in minted {
                if ctx.height_of(b) > ctx.height_of(self.best) {
                    self.best = b;
                }
            }
            if ctx.adversarial_leader() {
                let parent = self
                    .private
                    .or_else(|| ctx.parent_of(self.best))
                    .unwrap_or(BlockId::GENESIS);
                self.private = Some(ctx.mint_adversarial(parent));
            }
            let single = slot % 2 == 1 && !minted.is_empty();
            for &b in minted {
                ctx.deliver_honest_to_all(due, b);
                if single {
                    ctx.deliver_honest(due, slot % ctx.honest_nodes(), b);
                }
            }
            if let Some(a) = self.private {
                if ctx.height_of(a) >= ctx.height_of(self.best) {
                    ctx.deliver_adversarial_to_all(due, a);
                    self.private = None;
                    if single {
                        self.mixed.set(self.mixed.get() + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_broadcast_buckets_match_reference() {
        let mut config = cfg(Strategy::Honest, 2, 400);
        config.adversarial_stake = 0.4;
        let partition = FaultPlan::new().with(FaultDirective::Partition {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            start: 100,
            heal_slot: 106,
        });
        let mixed = std::rc::Rc::new(std::cell::Cell::new(0));
        for plan in [FaultPlan::default(), partition] {
            for seed in [3, 19] {
                let mut make = || -> Box<dyn AdversaryStrategy> {
                    Box::new(MixedBuckets {
                        best: BlockId::GENESIS,
                        private: None,
                        mixed: mixed.clone(),
                    })
                };
                assert_strategy_matches_reference(&config, &plan, seed, &mut make);
            }
        }
        assert!(mixed.get() > 0, "some bucket must mix both kinds");
        // The buckets do move tips: the same runs roll nodes back.
        let schedule = ColumnarSchedule::sample(6, 0.4, 0.3, 400, 3);
        let mut strategy = MixedBuckets {
            best: BlockId::GENESIS,
            private: None,
            mixed,
        };
        let (metrics, _) =
            ColumnarSimulation::run_streaming(&config, &schedule, &mut strategy, &mut ());
        assert!(metrics.rollback_count > 0, "the private chain must win");
    }

    #[test]
    fn consistent_tie_break_matches_reference() {
        let mut config = cfg(Strategy::BalanceAttack, 1, 400);
        config.tie_break = TieBreak::Consistent;
        config.active_slot_coeff = 0.5;
        assert_matches_reference(&config, 7);
    }
}
