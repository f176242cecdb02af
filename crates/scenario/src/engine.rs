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
//! * per-node known-sets are growable bitsets instead of hash sets;
//! * the consistency index is folded **online** through the shared
//!   [`DivergenceFold`], and metrics stream through
//!   [`MetricsSink`]/[`MetricsAccumulator`] — a streaming run retains no
//!   per-slot state at all.
//!
//! Both engines drive the *same* [`AdversaryStrategy`] objects through
//! their own [`SlotContext`]s, and both contexts clamp honest deliveries
//! into the `[slot, slot + Δ]` window (axiom A4Δ) — the **Δ-window clamp
//! invariant**: no strategy, built-in or user-supplied, can break the Δ
//! axiom, because the clamp is engine-side. Identical strategy decisions
//! over identical schedules therefore give identical block arenas,
//! delivery orders, tip trajectories and rollback records — the
//! bit-identical-trace guarantee that `tests/scenario_engine.rs` and the
//! committed `BENCH_scenario.json` both enforce against the reference.

use multihonest_sim::consistency::{DivergenceFold, DivergenceIndex};
use multihonest_sim::fault::{DegradationLedger, DeliveryMeta, FaultPlan, FaultRuntime};
use multihonest_sim::metrics::{Metrics, MetricsAccumulator, MetricsSink, TeeSink};
use multihonest_sim::strategy::{AdversaryStrategy, SlotContext};
use multihonest_sim::{BlockId, SimConfig, TieBreak};

use multihonest_obs::Recorder;

use crate::profile::Phase;
use crate::ring::DeliveryRing;
use crate::schedule::ColumnarSchedule;
use crate::store::{ColumnarStore, ADVERSARY};

/// Version tag of the columnar slot kernel's **observable execution
/// semantics**. Campaign checkpoints and horizon WALs fingerprint it:
/// artifacts produced by one kernel generation must never be silently
/// merged with executions of another. Bump on any change that could
/// alter an execution's outputs (traces, metrics, divergence indices) —
/// pure performance work that stays bit-identical keeps the version.
pub const ENGINE_KERNEL_VERSION: u32 = 1;

/// The transposed known-set of all honest nodes at once: one mask word
/// row per **block**, bit `r` set when node `r` knows the block (the
/// reference engine keeps a `HashSet<BlockId>` per node; an earlier
/// columnar revision kept one bitset-over-blocks per node).
///
/// The transposed layout is what makes the known-set merge of the slot
/// kernel word-at-a-time and cache-local: every delivery of the same
/// block — and every chain walk under it — touches the *same* mask row
/// regardless of recipient, so a broadcast that used to stride across
/// `n` separate bitsets now hammers one hot cache line, and the
/// ancestor scan's early exit ("node already knows this suffix") is a
/// single AND per step.
///
/// Rows are `words_per_block` `u64`s (1 for up to 64 honest nodes — every
/// preset scenario; larger node counts grow the stride, not the code
/// path). Rows are materialized lazily on first insert, so withheld
/// private chains cost nothing until they are released.
#[derive(Debug, Clone, Default)]
pub(crate) struct KnownMatrix {
    words_per_block: usize,
    words: Vec<u64>,
}

impl KnownMatrix {
    /// Re-shapes for a fresh execution over `nodes` honest nodes: every
    /// mask cleared, allocation kept, genesis known to everyone.
    fn reset(&mut self, nodes: usize) {
        self.words_per_block = nodes.div_ceil(64).max(1);
        self.words.clear();
        // Genesis (block 0) is known to every node from slot 0.
        self.words.resize(self.words_per_block, 0);
        for node in 0..nodes {
            self.words[node / 64] |= 1u64 << (node % 64);
        }
    }

    /// Marks `b` known to `node`; returns `true` when it was fresh.
    #[inline]
    fn insert(&mut self, b: u32, node: usize) -> bool {
        let row = b as usize * self.words_per_block;
        let idx = row + node / 64;
        if idx >= self.words.len() {
            self.words.resize(row + self.words_per_block, 0);
        }
        let mask = 1u64 << (node % 64);
        let fresh = self.words[idx] & mask == 0;
        self.words[idx] |= mask;
        fresh
    }

    /// Marks `b` known to every node `0..nodes` at once — word-at-a-time
    /// form of `nodes` separate [`KnownMatrix::insert`] calls, used by the
    /// engine's broadcast-collapse fast path.
    #[inline]
    fn insert_all(&mut self, b: u32, nodes: usize) {
        let row = b as usize * self.words_per_block;
        if row + self.words_per_block > self.words.len() {
            self.words.resize(row + self.words_per_block, 0);
        }
        let (full, rem) = (nodes / 64, nodes % 64);
        for w in &mut self.words[row..row + full] {
            *w = u64::MAX;
        }
        if rem > 0 {
            self.words[row + full] |= (1u64 << rem) - 1;
        }
    }

    #[cfg(test)]
    fn contains(&self, b: u32, node: usize) -> bool {
        let idx = b as usize * self.words_per_block + node / 64;
        self.words
            .get(idx)
            .is_some_and(|w| w & (1u64 << (node % 64)) != 0)
    }
}

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
        let id = self
            .store
            .mint(parent.index() as u32, self.slot, ADVERSARY, false);
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

/// A per-slot observer threaded through the columnar engine loop — the
/// attachment point of the streaming fork pipeline ([`crate::pipeline`])
/// and any other consumer that wants the block arena slot by slot
/// instead of post-hoc.
///
/// [`on_slot_end`](SlotHook::on_slot_end) fires once per slot, after the
/// slot's minting, adversarial moves, deliveries and metrics fold: the
/// store contains every block minted up to and including `slot`, and the
/// hook may emit derived observations through the sink (which is why the
/// sink is passed in rather than captured — the engine and the hook share
/// it without a double borrow).
///
/// The trait is generic over the sink so hook implementations can call
/// statically-dispatched sink methods; `()` is the no-op hook every
/// plain entry point uses, costing nothing in the loop.
pub trait SlotHook<S: MetricsSink> {
    /// Observes the end of `slot` (1-based).
    fn on_slot_end(&mut self, slot: usize, store: &ColumnarStore, sink: &mut S);
}

/// The no-op hook: plain runs pay nothing per slot.
impl<S: MetricsSink> SlotHook<S> for () {
    #[inline]
    fn on_slot_end(&mut self, _slot: usize, _store: &ColumnarStore, _sink: &mut S) {}
}

/// The longest-chain rule of one columnar honest node, bit-compatible
/// with the reference `HonestNode::receive`.
#[inline]
fn receive(
    store: &ColumnarStore,
    tie_break: TieBreak,
    known: &mut KnownMatrix,
    node: usize,
    tip: &mut u32,
    block: u32,
) {
    if !known.insert(block, node) {
        return;
    }
    // Receiving a chain means knowing every block on it.
    let mut cur = store.parent(block);
    while let Some(b) = cur {
        if !known.insert(b, node) {
            break;
        }
        cur = store.parent(b);
    }
    let new_height = store.height(block);
    let cur_height = store.height(*tip);
    let adopt = match new_height.cmp(&cur_height) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => match tie_break {
            TieBreak::AdversarialOrder => false, // first seen stays
            TieBreak::Consistent => {
                multihonest_sim::block::tie_hash(block) < multihonest_sim::block::tie_hash(*tip)
            }
        },
    };
    if adopt {
        *tip = block;
    }
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
    /// only observes (spans, laps, registry updates), so an instrumented
    /// run reproduces the plain run's fingerprints bit-for-bit — the
    /// bit-identity law `tests/observability.rs` pins. Sink and recorder
    /// are separate generic parameters so callers can pass an obs-backed
    /// sink and a recorder without a double borrow.
    pub fn run_with_schedule_faults_recorded<S: MetricsSink, R: Recorder>(
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        plan: &FaultPlan,
        sink: &mut S,
        rec: &mut R,
    ) -> (ColumnarSimulation, DegradationLedger) {
        let mut arena = ExecutionArena::new();
        let mut faults = FaultRuntime::new(plan, config.honest_nodes, config.slots);
        rec.span_begin("scenario.execute");
        let out = execute(
            &mut arena,
            config,
            schedule,
            strategy,
            true,
            sink,
            &mut (),
            &mut faults,
            rec,
        );
        rec.span_end("scenario.execute");
        (
            ColumnarSimulation {
                config: *config,
                store: arena.store,
                tips_flat: out.tips_flat,
                tips_end: out.tips_end,
                rollbacks: out.rollbacks,
                divergence: out.divergence,
                metrics: out.metrics,
            },
            faults.finish(),
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
        let mut arena = ExecutionArena::new();
        ColumnarSimulation::run_streaming_in(&mut arena, config, schedule, strategy, sink)
    }

    /// The **batch** entry point: a streaming execution that reuses the
    /// caller's [`ExecutionArena`] instead of allocating block/delivery
    /// arenas afresh — trace-identical to [`run_streaming`], amortizing
    /// heap traffic to zero across a campaign of seeds. This is the
    /// kernel campaign sweeps drive once per trial.
    ///
    /// [`run_streaming`]: ColumnarSimulation::run_streaming
    pub fn run_streaming_in<S: MetricsSink>(
        arena: &mut ExecutionArena,
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        sink: &mut S,
    ) -> (Metrics, DivergenceIndex) {
        let empty = FaultPlan::default();
        let (metrics, divergence, _) = ColumnarSimulation::run_streaming_faults_in(
            arena, config, schedule, strategy, &empty, sink,
        );
        (metrics, divergence)
    }

    /// A streaming execution under a [`FaultPlan`] — the fault-aware
    /// sibling of [`ColumnarSimulation::run_streaming`]. Deferral events
    /// reach the sink through
    /// [`MetricsSink::on_fault_deferral`].
    pub fn run_streaming_faults<S: MetricsSink>(
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        plan: &FaultPlan,
        sink: &mut S,
    ) -> (Metrics, DivergenceIndex, DegradationLedger) {
        let mut arena = ExecutionArena::new();
        ColumnarSimulation::run_streaming_faults_in(
            &mut arena, config, schedule, strategy, plan, sink,
        )
    }

    /// The batch fault-aware entry point: a streaming faulty execution
    /// over a reused [`ExecutionArena`] — what the campaign sweep drives
    /// when its fault axis is non-empty.
    pub fn run_streaming_faults_in<S: MetricsSink>(
        arena: &mut ExecutionArena,
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        plan: &FaultPlan,
        sink: &mut S,
    ) -> (Metrics, DivergenceIndex, DegradationLedger) {
        let mut faults = FaultRuntime::new(plan, config.honest_nodes, config.slots);
        let out = execute(
            arena,
            config,
            schedule,
            strategy,
            false,
            sink,
            &mut (),
            &mut faults,
            &mut (),
        );
        (out.metrics, out.divergence, faults.finish())
    }

    /// A streaming execution with an obs [`Recorder`] attached: identical
    /// traces to [`run_streaming_in`](Self::run_streaming_in), with the
    /// kernel charging wall-clock laps under [`Phase::label`] names at
    /// every phase boundary — the engine behind `scenario bench-report
    /// --profile`. Plain entry points thread the no-op `()` recorder
    /// through the same generic parameter and pay nothing.
    pub fn run_streaming_profiled<S: MetricsSink, P: Recorder>(
        arena: &mut ExecutionArena,
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        sink: &mut S,
        prof: &mut P,
    ) -> (Metrics, DivergenceIndex) {
        let empty = FaultPlan::default();
        let mut faults = FaultRuntime::new(&empty, config.honest_nodes, config.slots);
        let out = execute(
            arena,
            config,
            schedule,
            strategy,
            false,
            sink,
            &mut (),
            &mut faults,
            prof,
        );
        (out.metrics, out.divergence)
    }

    /// A streaming execution with a [`SlotHook`] attached: identical to
    /// [`run_streaming_faults_in`](Self::run_streaming_faults_in) except
    /// that `hook` observes the block arena at the end of every slot —
    /// the entry point of the streaming fork pipeline (see
    /// [`crate::pipeline`]). The hook cannot perturb the execution (it
    /// sees the store read-only), so a hooked run stays trace-identical
    /// to its unhooked sibling.
    pub fn run_streaming_hooked<S: MetricsSink, H: SlotHook<S>>(
        arena: &mut ExecutionArena,
        config: &SimConfig,
        schedule: &ColumnarSchedule,
        strategy: &mut dyn AdversaryStrategy,
        plan: &FaultPlan,
        sink: &mut S,
        hook: &mut H,
    ) -> (Metrics, DivergenceIndex, DegradationLedger) {
        let mut faults = FaultRuntime::new(plan, config.honest_nodes, config.slots);
        let out = execute(
            arena,
            config,
            schedule,
            strategy,
            false,
            sink,
            hook,
            &mut faults,
            &mut (),
        );
        (out.metrics, out.divergence, faults.finish())
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
/// see [`ColumnarSimulation::run_streaming_in`].
#[derive(Debug)]
pub struct ExecutionArena {
    pub(crate) store: ColumnarStore,
    pub(crate) ring: DeliveryRing,
    pub(crate) tips: Vec<u32>,
    pub(crate) known: KnownMatrix,
    pub(crate) minted: Vec<BlockId>,
    pub(crate) before: Vec<u32>,
    pub(crate) due: Vec<(u32, u32)>,
    pub(crate) uniq: Vec<u32>,
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
            known: KnownMatrix::default(),
            minted: Vec::new(),
            before: Vec::new(),
            due: Vec::new(),
            uniq: Vec::new(),
        }
    }

    /// Resets every component for a fresh execution, keeping allocations.
    pub(crate) fn reset(&mut self, config: &SimConfig, lookahead: usize, expected_blocks: usize) {
        let n = config.honest_nodes;
        self.store.reset();
        self.store.reserve(expected_blocks);
        self.ring.reset(config.delta, lookahead, config.slots);
        self.tips.clear();
        self.tips.resize(n, 0);
        self.known.reset(n);
        self.minted.clear();
        self.before.clear();
        self.before.resize(n, 0);
        self.due.clear();
        self.uniq.clear();
        self.uniq.reserve(n);
        self.debug_audit(n);
    }

    /// Compacts the arena around the **unanimous tip** `root`: the store
    /// resets to a single root block carrying the tip's absolute slot,
    /// height, issuer and honesty (so minting and height accounting
    /// continue seamlessly above it), the known-matrix re-seeds with the
    /// root known to everyone (true of a unanimous tip by definition),
    /// and every node's view plus the cached `uniq` scratch move to the
    /// root's new id 0. The horizon driver calls this at fully settled
    /// points; the required preconditions — all tips equal `root`, the
    /// delivery ring idle — are debug-asserted.
    pub(crate) fn compact_to_root(&mut self, n: usize, root: u32) {
        debug_assert!(
            self.tips.iter().all(|&t| t == root),
            "compaction requires a unanimous tip"
        );
        debug_assert!(self.ring.is_idle(), "compaction requires an idle ring");
        let (slot, height) = (self.store.slot(root), self.store.height(root));
        let (issuer, honest) = (self.store.issuer(root), self.store.is_honest(root));
        self.store.reset_to_root(slot, height, issuer, honest);
        self.known.reset(n);
        self.tips.fill(0);
        self.uniq.clear();
        self.uniq.push(0);
    }

    /// Debug-asserts that every column and ring buffer is length-reset —
    /// no stale tail state from a previous (possibly longer) execution
    /// can leak into this one. Compiled out of release builds.
    pub(crate) fn debug_audit(&self, n: usize) {
        debug_assert_eq!(self.store.len(), 1, "store must hold only genesis");
        debug_assert!(self.ring.is_idle(), "ring buckets must be drained");
        debug_assert_eq!(self.tips.len(), n, "one tip per honest node");
        debug_assert!(self.tips.iter().all(|&t| t == 0), "tips must be genesis");
        debug_assert_eq!(
            self.known.words.len(),
            self.known.words_per_block,
            "known matrix must cover exactly genesis"
        );
        debug_assert!(self.minted.is_empty(), "minted scratch must be empty");
        debug_assert_eq!(self.before.len(), n, "one before-tip per node");
        debug_assert!(self.due.is_empty(), "due scratch must be empty");
        debug_assert!(self.uniq.is_empty(), "uniq scratch must be empty");
    }
}

/// The per-run outputs of [`execute`] (the block store stays in the
/// arena; trace columns are empty in streaming mode).
struct ExecOutput {
    tips_flat: Vec<u32>,
    tips_end: Vec<u32>,
    rollbacks: Vec<(u32, u32, u32)>,
    divergence: DivergenceIndex,
    metrics: Metrics,
}

/// The cross-segment mutable state of one execution that is **not** the
/// arena: the online divergence fold, the metrics accumulator, the
/// rollback record, the trace columns of trace-retaining mode, and the
/// cached end-of-slot observation the quiet path replays. [`execute`]
/// owns one per run; the horizon driver keeps one alive across segments
/// and compacts its fold at settled points.
pub(crate) struct EngineCore {
    pub(crate) fold: DivergenceFold,
    pub(crate) acc: MetricsAccumulator,
    pub(crate) rollbacks: Vec<(u32, u32, u32)>,
    pub(crate) tips_flat: Vec<u32>,
    pub(crate) tips_end: Vec<u32>,
    /// Distinct-tip count of the cached end-of-slot observation.
    pub(crate) cached_tips: usize,
    /// Best height of the cached observation.
    pub(crate) cached_height: usize,
    /// Slot divergence of the cached observation.
    pub(crate) cached_div: usize,
    /// The unanimous tip block behind `cached_tips == 1` — what the
    /// single-mint fold fast case forks from.
    pub(crate) cached_tip_block: u32,
}

impl EngineCore {
    /// State for a fresh full-horizon execution: a fold over `1..=slots`
    /// and every cache at its slot-0 value (all nodes on genesis).
    pub(crate) fn new(slots: usize, keep_trace: bool) -> EngineCore {
        EngineCore::with_fold(DivergenceFold::new(slots), keep_trace, slots)
    }

    /// State over a caller-built fold (the horizon driver passes a
    /// windowed one).
    pub(crate) fn with_fold(fold: DivergenceFold, keep_trace: bool, slots: usize) -> EngineCore {
        let mut tips_end = Vec::with_capacity(if keep_trace { slots + 1 } else { 1 });
        tips_end.push(0);
        EngineCore {
            fold,
            acc: MetricsAccumulator::new(),
            rollbacks: Vec::new(),
            tips_flat: Vec::new(),
            tips_end,
            cached_tips: 1,
            cached_height: 0,
            cached_div: 0,
            cached_tip_block: 0,
        }
    }
}

// Private fan-in of every public entry point: each parameter is one
// caller-facing knob, and bundling them into a struct would only move
// the argument list one call up.
#[allow(clippy::too_many_arguments)]
fn execute<S: MetricsSink, H: SlotHook<S>, P: Recorder>(
    arena: &mut ExecutionArena,
    config: &SimConfig,
    schedule: &ColumnarSchedule,
    strategy: &mut dyn AdversaryStrategy,
    keep_trace: bool,
    sink: &mut S,
    hook: &mut H,
    faults: &mut FaultRuntime<'_>,
    prof: &mut P,
) -> ExecOutput {
    assert_eq!(
        schedule.len(),
        config.slots,
        "schedule must cover the configured horizon"
    );
    // Expected blocks ≈ one per leader flag; reserve with headroom.
    let expected = schedule.active_slots() + schedule.len() / 8 + 16;
    arena.reset(config, strategy.lookahead(config.delta), expected);
    // The cached end-of-slot observation the quiet path replays: at slot
    // 0 every node sits on genesis — one distinct tip, height 0, no
    // divergence — and `uniq` mirrors it for the trace writer.
    arena.uniq.push(0);
    let mut core = EngineCore::new(config.slots, keep_trace);
    run_slots(
        arena,
        &mut core,
        config,
        schedule,
        0,
        1,
        config.slots,
        strategy,
        keep_trace,
        sink,
        hook,
        faults,
        prof,
    );
    finish_full(arena, core, schedule)
}

/// The engine loop shared by the trace-retaining and streaming modes.
///
/// The loop is a **two-path slot kernel**. A slot is *quiet* when its
/// honest mint list and (post-fault) due-delivery list are both empty:
/// honest tips can only move through [`receive`], which is called
/// exactly from those two places, so on a quiet slot every tip — and
/// therefore the distinct-tip set, best height, slot divergence and
/// rollback record — is provably unchanged from the previous slot. The
/// quiet path replays the cached fold observation in O(1) and skips the
/// before-copy, the rollback scan, the uniq sort and the pairwise LCA
/// loop entirely. Under sparse leader schedules (`f` well below 1) the
/// quiet path covers the majority of slots, which is where the columnar
/// engine's throughput comes from; the busy path additionally
/// fast-cases the unanimous-tip slot (all nodes agree: no sort, no
/// pairwise walk). Both paths feed the same sinks in the same order, so
/// the split is invisible to every observer — bit-identical traces,
/// metrics, fold state and hook observations.
///
/// `run_slots` executes slots `first_slot..=last_slot` of an execution
/// whose mutable state lives in `arena` + `core`, making the loop
/// **re-enterable**: [`execute`] calls it once over the full horizon,
/// while the segmented horizon driver calls it per schedule segment with
/// compaction in between. `schedule` covers the absolute slots
/// `(sched_base, sched_base + schedule.len()]`; slot numbers stay
/// absolute throughout (strategies, the ring, the fold and every sink
/// see the global slot clock), so a segmented run is
/// observation-identical to a monolithic one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_slots<S: MetricsSink, H: SlotHook<S>, P: Recorder>(
    arena: &mut ExecutionArena,
    core: &mut EngineCore,
    config: &SimConfig,
    schedule: &ColumnarSchedule,
    sched_base: usize,
    first_slot: usize,
    last_slot: usize,
    strategy: &mut dyn AdversaryStrategy,
    keep_trace: bool,
    sink: &mut S,
    hook: &mut H,
    faults: &mut FaultRuntime<'_>,
    prof: &mut P,
) {
    let n = config.honest_nodes;
    assert!(n > 0, "need at least one honest node");
    let ExecutionArena {
        store,
        ring,
        tips,
        known,
        minted,
        before,
        due,
        uniq,
    } = arena;
    let EngineCore {
        fold,
        acc,
        rollbacks,
        tips_flat,
        tips_end,
        cached_tips,
        cached_height,
        cached_div,
        cached_tip_block,
    } = core;
    let have_faults = !faults.is_empty();
    // A passive strategy on a leaderless slot provably does nothing, so
    // such a slot with an empty delivery bucket needs no context, no
    // strategy dispatch and no drain at all — the short-circuit below.
    // Fault plans act every slot (deferred re-injection), so they opt
    // the execution out of the short-circuit wholesale.
    let passive = !have_faults && strategy.passive_without_leaders();

    for slot in first_slot..=last_slot {
        prof.lap_start();
        // 1. Honest leaders mint on their current tips and adopt their
        //    own block at mint time (no rushed same-height injection can
        //    win the first-seen tie against a minter).
        let leaders = schedule.leaders(slot - sched_base);
        if passive
            && leaders.is_empty()
            && !schedule.adversarial(slot - sched_base)
            && ring.bucket_is_empty(slot)
        {
            // Fully quiet slot: nothing minted, nothing due, strategy
            // provably inert — replay the cached observation and move on.
            fold.observe_tips_unchanged(slot);
            TeeSink {
                a: &mut *acc,
                b: &mut *sink,
            }
            .on_slot(slot, *cached_tips, *cached_height, *cached_div);
            if keep_trace {
                tips_flat.extend_from_slice(uniq);
                tips_end.push(tips_flat.len() as u32);
            }
            prof.lap(Phase::Fold.label());
            hook.on_slot_end(slot, store, sink);
            prof.lap(Phase::Hook.label());
            continue;
        }
        minted.clear();
        if !leaders.is_empty() {
            for &leader in leaders {
                let l = leader as usize;
                if have_faults && !faults.can_mint(slot, l) {
                    continue;
                }
                // Mint-time adoption, specialised: the fresh block's
                // parent is the minter's own (known) tip and its height
                // strictly exceeds it, so `receive` reduces to one
                // known-bit insert and the tip store.
                let b = store.mint(tips[l], slot, leader, true);
                let fresh = known.insert(b, l);
                debug_assert!(fresh, "a minted block is new to its minter");
                tips[l] = b;
                minted.push(BlockId::from_index(b as usize));
            }
            prof.lap(Phase::Mint.label());
        }
        // 2. The rushing adversary observes the minted blocks and acts —
        //    through the same trait the reference engine drives.
        let mut ctx = ColumnarSlotContext {
            store: &mut *store,
            ring: &mut *ring,
            delta: config.delta,
            honest_nodes: n,
            faults: &*faults,
            slot,
            adversarial_leader: schedule.adversarial(slot - sched_base),
        };
        strategy.on_slot(&mut ctx, minted);
        prof.lap(Phase::Strategy.label());
        // 3. Drain this slot's deliveries — filtered through the fault
        //    plan when one is active (which may also re-inject previously
        //    deferred deliveries, so the plan runs even on empty drains).
        ring.drain_into(slot, due);
        if have_faults {
            let mut tee = TeeSink {
                a: &mut *acc,
                b: &mut *sink,
            };
            faults.apply(
                slot,
                due,
                |b| DeliveryMeta {
                    src: store.issuer(b) as usize,
                    honest: store.is_honest(b),
                    broadcast_slot: store.slot(b),
                },
                &mut tee,
            );
        }
        prof.lap(Phase::Drain.label());
        let quiet = due.is_empty() && minted.is_empty();
        if quiet {
            // Quiet slot: no receive() ran, so every tip is unchanged.
            // Replay the cached observation and keep the fold's run open.
            fold.observe_tips_unchanged(slot);
            TeeSink {
                a: &mut *acc,
                b: &mut *sink,
            }
            .on_slot(slot, *cached_tips, *cached_height, *cached_div);
            if keep_trace {
                tips_flat.extend_from_slice(uniq);
                tips_end.push(tips_flat.len() as u32);
            }
            prof.lap(Phase::Fold.label());
            hook.on_slot_end(slot, store, sink);
            prof.lap(Phase::Hook.label());
            continue;
        }
        // 4. Apply due deliveries in scheduled order, recording chain
        //    rollbacks (only deliveries can cause them: minting extends
        //    the minter's own chain).
        //
        // `collapsed` records the broadcast-collapse fast path: a
        // broadcast of `b` onto the distinct tip set `{parent(b), b}`
        // provably leaves every node unanimous on `b` with no rollbacks,
        // so both the per-node merge and the fold are replaced by
        // structural updates.
        let mut collapsed = None;
        if !due.is_empty() {
            let b = due[0].1;
            // Broadcast fast path: the dominant due-list shape is one
            // block reaching every node in ascending recipient order
            // (what the batched `deliver_*_to_all` scheduling produces).
            // With a single delivered block, per-node receives are
            // independent, so apply + rollback-check fuse into one pass:
            // a node sitting on the block's parent extends its chain —
            // one known-bit and the tip store, no heights, no ancestry —
            // and only cross-branch nodes take the general `receive`.
            let broadcast = due.len() == n
                && due
                    .iter()
                    .enumerate()
                    .all(|(i, &(r, blk))| r as usize == i && blk == b);
            if broadcast {
                let pb = store.parent(b).expect("a delivered block is never genesis");
                // Collapse fast path: when the previous distinct tips are
                // exactly `{pb, b}` and no new block was minted this slot,
                // every node either sits on `pb` (and adopts the strictly
                // taller child `b` — the direct extension above, no
                // heights, no rollback) or already sits on `b` (the
                // minter; a receive would dedup out). The whole merge is
                // one word-at-a-time known-row fill and a tip fill, and
                // the resulting views are unanimous on `b`.
                if minted.is_empty() && (*cached_tips) == 2 && uniq[0] == pb && uniq[1] == b {
                    known.insert_all(b, n);
                    tips.fill(b);
                    collapsed = Some(b);
                } else {
                    for (r, tip) in tips.iter_mut().enumerate() {
                        let old = *tip;
                        if old == pb {
                            // Direct extension: the parent is the node's own
                            // (known) tip, the child strictly taller — adopt.
                            known.insert(b, r);
                            *tip = b;
                            continue;
                        }
                        if old == b {
                            continue; // the minter; a receive would dedup out
                        }
                        receive(store, config.tie_break, known, r, tip, b);
                        let new = *tip;
                        if new != old
                            && store.parent(new) != Some(old)
                            && !store.is_ancestor(old, new)
                        {
                            if keep_trace {
                                rollbacks.push((slot as u32, old, new));
                            }
                            fold.observe_rollback(store, slot, old, new);
                            TeeSink {
                                a: &mut *acc,
                                b: &mut *sink,
                            }
                            .on_rollback(
                                slot,
                                store.height(old),
                                store.height(new),
                            );
                        }
                    }
                }
            } else {
                before.copy_from_slice(tips);
                for &(recipient, block) in due.iter() {
                    let r = recipient as usize;
                    receive(store, config.tie_break, known, r, &mut tips[r], block);
                }
                for i in 0..n {
                    let (old, new) = (before[i], tips[i]);
                    // Adoption only ever raises height, and the dominant
                    // case is adopting a direct child of the old tip — one
                    // parent load rules the rollback out before any
                    // ancestry descent.
                    if new != old && store.parent(new) != Some(old) && !store.is_ancestor(old, new)
                    {
                        if keep_trace {
                            rollbacks.push((slot as u32, old, new));
                        }
                        fold.observe_rollback(store, slot, old, new);
                        TeeSink {
                            a: &mut *acc,
                            b: &mut *sink,
                        }
                        .on_rollback(
                            slot,
                            store.height(old),
                            store.height(new),
                        );
                    }
                }
            }
        }
        if config.tie_break == TieBreak::AdversarialOrder {
            for &b in minted.iter() {
                let leader = store.issuer(b.index() as u32) as usize;
                let tip = tips[leader];
                debug_assert!(
                    tip == b.index() as u32 || store.height(tip) > store.height(b.index() as u32),
                    "leader {leader} lost its own slot-{slot} block to an equal-height tie"
                );
            }
        }
        prof.lap(Phase::Merge.label());
        // 5. Fold the distinct honest views.
        //
        // Broadcast-collapse fast case: the merge above proved the views
        // unanimous on `nb` structurally. The best height is unchanged
        // (it was already `height(nb)`, the taller of `{parent, nb}`),
        // the slot divergence of a unanimous set is zero, and the fold
        // sees the (cheap) single-tip set.
        if let Some(nb) = collapsed {
            uniq.clear();
            uniq.push(nb);
            (*cached_tips) = 1;
            (*cached_tip_block) = nb;
            (*cached_div) = 0;
            debug_assert_eq!((*cached_height), store.height(nb));
            fold.observe_tips(store, slot, uniq);
            TeeSink {
                a: &mut *acc,
                b: &mut *sink,
            }
            .on_slot(slot, 1, *cached_height, 0);
            if keep_trace {
                tips_flat.extend_from_slice(uniq);
                tips_end.push(tips_flat.len() as u32);
            }
            prof.lap(Phase::Fold.label());
            hook.on_slot_end(slot, store, sink);
            prof.lap(Phase::Hook.label());
            continue;
        }
        // Single-mint fast case first: one fresh honest block on the
        // previous slot's unanimous tip (no deliveries) splits the views
        // into exactly `{parent, child}` — already id-sorted, meeting at
        // the parent, zero slot divergence, best height one up. Every
        // fold quantity is structural; no sort, no LCA, no chain walk.
        if due.is_empty() && minted.len() == 1 && (*cached_tips) == 1 && n > 1 {
            let child = minted[0].index() as u32;
            let parent = *cached_tip_block;
            debug_assert_eq!(store.parent(child), Some(parent));
            uniq.clear();
            uniq.push(parent);
            uniq.push(child);
            (*cached_tips) = 2;
            (*cached_height) += 1;
            (*cached_div) = 0;
            fold.observe_fresh_child(slot, parent, child, slot);
            TeeSink {
                a: &mut *acc,
                b: &mut *sink,
            }
            .on_slot(slot, 2, *cached_height, 0);
            if keep_trace {
                tips_flat.extend_from_slice(uniq);
                tips_end.push(tips_flat.len() as u32);
            }
            prof.lap(Phase::Fold.label());
            hook.on_slot_end(slot, store, sink);
            prof.lap(Phase::Hook.label());
            continue;
        }
        // The unanimous case (every node on one tip — the common case
        // between forks) needs no sort and no pairwise divergence walk.
        let first = tips[0];
        uniq.clear();
        let mut div = 0usize;
        let mut best_height = 0usize;
        if tips.iter().all(|&t| t == first) {
            uniq.push(first);
            (*cached_tip_block) = first;
            best_height = store.height(first);
        } else {
            uniq.extend_from_slice(tips);
            uniq.sort_unstable();
            uniq.dedup();
            for (i, &a) in uniq.iter().enumerate() {
                best_height = best_height.max(store.height(a));
                for &b in &uniq[i + 1..] {
                    let lca = store.last_common_block(a, b);
                    let first = store.slot(a).min(store.slot(b));
                    div = div.max(first.saturating_sub(store.slot(lca)));
                }
            }
        }
        fold.observe_tips(store, slot, uniq);
        (*cached_tips) = uniq.len();
        (*cached_height) = best_height;
        (*cached_div) = div;
        TeeSink {
            a: &mut *acc,
            b: &mut *sink,
        }
        .on_slot(slot, uniq.len(), best_height, div);
        if keep_trace {
            tips_flat.extend_from_slice(uniq);
            tips_end.push(tips_flat.len() as u32);
        }
        prof.lap(Phase::Fold.label());
        hook.on_slot_end(slot, store, sink);
        prof.lap(Phase::Hook.label());
    }
}

/// Folds the end-of-run state of a **full** (unsegmented) execution into
/// its output: best-tip chain walk down to genesis plus the fold's final
/// index. The horizon driver has its own finish (evicted-prefix counters
/// plus a windowed fold drain).
fn finish_full(
    arena: &mut ExecutionArena,
    core: EngineCore,
    schedule: &ColumnarSchedule,
) -> ExecOutput {
    let EngineCore {
        fold,
        acc,
        rollbacks,
        tips_flat,
        tips_end,
        ..
    } = core;
    let store = &arena.store;
    let tips = &arena.tips;
    // Best tip over node views, later nodes winning height
    // ties (matching the reference's `max_by_key`).
    let mut best_tip = tips[0];
    for &t in tips.iter() {
        if store.height(t) >= store.height(best_tip) {
            best_tip = t;
        }
    }
    let mut chain_blocks = 0usize;
    let mut honest_chain_blocks = 0usize;
    let mut cur = best_tip;
    while let Some(p) = store.parent(cur) {
        chain_blocks += 1;
        honest_chain_blocks += usize::from(store.is_honest(cur));
        cur = p;
    }
    let divergence = fold.finish();
    let metrics = acc.finish(
        schedule.active_slots(),
        store.height(best_tip),
        chain_blocks,
        honest_chain_blocks,
        divergence.max_settlement_lag(),
    );
    ExecOutput {
        tips_flat,
        tips_end,
        rollbacks,
        divergence,
        metrics,
    }
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
            let reused = ColumnarSimulation::run_streaming_in(
                &mut arena,
                &config,
                &schedule,
                s2.as_mut(),
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
        let mut s1 = config.strategy.instantiate();
        let (cols, cl) =
            ColumnarSimulation::run_with_schedule_faults(config, &cs, s1.as_mut(), plan);
        let mut s2 = config.strategy.instantiate();
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
        let (metrics, index, sl) = ColumnarSimulation::run_streaming_faults(
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

    #[test]
    fn consistent_tie_break_matches_reference() {
        let mut config = cfg(Strategy::BalanceAttack, 1, 400);
        config.tie_break = TieBreak::Consistent;
        config.active_slot_coeff = 0.5;
        assert_matches_reference(&config, 7);
    }

    #[test]
    fn known_matrix_semantics() {
        let mut s = KnownMatrix::default();
        s.reset(70); // two words per block
        assert!(!s.insert(0, 3), "genesis pre-seeded for every node");
        assert!(!s.insert(0, 69), "pre-seeding covers the second word");
        assert!(s.insert(1000, 5));
        assert!(!s.insert(1000, 5));
        assert!(s.insert(1000, 68), "per-node bits are independent");
        assert!(s.contains(1000, 5));
        assert!(s.contains(1000, 68));
        assert!(!s.contains(1000, 6));
        assert!(!s.contains(999, 5));
        s.reset(4);
        assert!(!s.contains(1000, 5), "reset clears every mask");
        assert!(s.contains(0, 3), "genesis re-seeded");
        assert!(!s.contains(0, 4), "only configured nodes are seeded");
    }
}
