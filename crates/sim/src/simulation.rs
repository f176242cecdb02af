//! The slot-driven execution engine.

use multihonest_chars::SemiString;
use multihonest_fork::{Fork, ForkError, ForkFold, VertexId};

use crate::block::{BlockId, BlockStore};
use crate::consistency::DivergenceIndex;
use crate::fault::{DegradationLedger, DeliveryMeta, FaultPlan, FaultRuntime};
use crate::leader::LeaderSchedule;
use crate::metrics::{Metrics, MetricsAccumulator, MetricsSink};
use crate::network::Network;
use crate::node::{HonestNode, TieBreak};
use crate::strategy::{AdversaryStrategy, SlotContext, Strategy};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of honest nodes (honest stake is split equally).
    pub honest_nodes: usize,
    /// Relative stake held by the adversary, in `[0, 1)`.
    pub adversarial_stake: f64,
    /// Active-slot coefficient `f ∈ (0, 1)`.
    pub active_slot_coeff: f64,
    /// Network delay bound `Δ` (0 = synchronous).
    pub delta: usize,
    /// Number of slots to simulate.
    pub slots: usize,
    /// Honest tie-breaking rule (axiom A0 vs A0′).
    pub tie_break: TieBreak,
    /// The adversary's strategy.
    pub strategy: Strategy,
}

/// A finished execution: the block DAG, per-slot honest views, metrics
/// and extraction utilities.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    schedule: LeaderSchedule,
    store: BlockStore,
    /// Distinct honest tips at the end of each slot (index = slot − 1).
    tips_per_slot: Vec<Vec<BlockId>>,
    /// Rollback events: `(slot, previous tip, new tip)` for every honest
    /// tip switch onto a non-descendant chain.
    rollbacks: Vec<(usize, BlockId, BlockId)>,
    /// Per-anchor divergence observations, folded once after the slot
    /// loop; every settlement query is a lookup into this index.
    divergence: DivergenceIndex,
    metrics: Metrics,
}

/// The engine-side [`SlotContext`] of the reference simulator: mints into
/// the [`BlockStore`] and schedules through the [`Network`] (whose
/// `schedule_honest` clamp enforces the Δ axiom against any strategy).
struct RefSlotContext<'a> {
    store: &'a mut BlockStore,
    network: &'a mut Network,
    config: &'a SimConfig,
    faults: &'a FaultRuntime<'a>,
    slot: usize,
    adversarial_leader: bool,
}

impl SlotContext for RefSlotContext<'_> {
    fn slot(&self) -> usize {
        self.slot
    }

    fn delta(&self) -> usize {
        self.config.delta
    }

    fn honest_nodes(&self) -> usize {
        self.config.honest_nodes
    }

    fn adversarial_leader(&self) -> bool {
        self.adversarial_leader
    }

    fn height_of(&self, block: BlockId) -> usize {
        self.store.block(block).height
    }

    fn parent_of(&self, block: BlockId) -> Option<BlockId> {
        self.store.block(block).parent
    }

    fn mint_adversarial(&mut self, parent: BlockId) -> BlockId {
        self.store.mint(parent, self.slot, usize::MAX - 1, false)
    }

    fn deliver_honest(&mut self, requested_slot: usize, recipient: usize, block: BlockId) {
        self.network
            .schedule_honest(self.slot, requested_slot, recipient, block);
    }

    fn deliver_adversarial(&mut self, at_slot: usize, recipient: usize, block: BlockId) {
        if at_slot >= self.slot {
            self.network.schedule_adversarial(at_slot, recipient, block);
        }
    }

    fn node_is_live(&self, node: usize) -> bool {
        self.faults.node_is_live(self.slot, node)
    }

    fn node_is_reachable(&self, node: usize) -> bool {
        self.faults.node_is_reachable(self.slot, node)
    }
}

impl Simulation {
    /// Runs an execution with the given seed, instantiating the
    /// configured built-in [`Strategy`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (see the field docs of
    /// [`SimConfig`]; validation mirrors [`LeaderSchedule::sample`]).
    pub fn run(config: &SimConfig, seed: u64) -> Simulation {
        let mut strategy = config.strategy.instantiate();
        Simulation::run_with(config, seed, strategy.as_mut())
    }

    /// Runs an execution with an arbitrary [`AdversaryStrategy`] — the
    /// open strategy surface. `config.strategy` is recorded but not
    /// consulted; the trait object drives every adversarial decision.
    pub fn run_with(
        config: &SimConfig,
        seed: u64,
        strategy: &mut dyn AdversaryStrategy,
    ) -> Simulation {
        let schedule = LeaderSchedule::sample(
            config.honest_nodes,
            config.adversarial_stake,
            config.active_slot_coeff,
            config.slots,
            seed,
        );
        Simulation::run_with_schedule(config, schedule, strategy)
    }

    /// Runs an execution over an explicit leader schedule (heterogeneous
    /// stake profiles sample theirs with
    /// [`LeaderSchedule::sample_weighted`]) and an arbitrary strategy.
    ///
    /// # Panics
    ///
    /// Panics if the schedule length differs from `config.slots`.
    pub fn run_with_schedule(
        config: &SimConfig,
        schedule: LeaderSchedule,
        strategy: &mut dyn AdversaryStrategy,
    ) -> Simulation {
        let empty = FaultPlan::default();
        Simulation::run_with_schedule_faults(config, schedule, strategy, &empty).0
    }

    /// Runs an execution over an explicit leader schedule under a
    /// [`FaultPlan`]: crashed nodes skip their leadership slots, and
    /// every due delivery passes through the plan's predicate (blocked
    /// deliveries are parked until their fault window closes — see
    /// [`crate::fault`]). The empty plan is bit-identical to
    /// [`Simulation::run_with_schedule`]. Returns the execution together
    /// with its [`DegradationLedger`].
    ///
    /// # Panics
    ///
    /// Panics if the schedule length differs from `config.slots` or the
    /// plan fails [`FaultPlan::validate`].
    pub fn run_with_schedule_faults(
        config: &SimConfig,
        schedule: LeaderSchedule,
        strategy: &mut dyn AdversaryStrategy,
        plan: &FaultPlan,
    ) -> (Simulation, DegradationLedger) {
        assert_eq!(
            schedule.len(),
            config.slots,
            "schedule must cover the configured horizon"
        );
        let mut faults = FaultRuntime::new(plan, config.honest_nodes, config.slots);
        let mut fault_due: Vec<(u32, u32)> = Vec::new();
        let mut store = BlockStore::new();
        let mut nodes: Vec<HonestNode> = (0..config.honest_nodes)
            .map(|i| HonestNode::new(i, config.tie_break))
            .collect();
        let mut network = Network::new(config.delta, config.slots);
        let mut tips_per_slot = Vec::with_capacity(config.slots);
        let mut rollbacks: Vec<(usize, BlockId, BlockId)> = Vec::new();
        let mut acc = MetricsAccumulator::new();

        for slot in 1..=config.slots {
            let leaders = schedule.leaders(slot).clone();
            // 1. Honest leaders mint on their current tips (start of
            //    slot) and adopt their own block at mint time: a leader
            //    has seen its own output before any of the slot's
            //    deliveries, so no rushed same-height injection can win
            //    the first-seen tie against it. (Network scheduling below
            //    still broadcasts the block to everyone, minter included —
            //    that delivery is an idempotent no-op.)
            let minted: Vec<BlockId> = leaders
                .honest
                .iter()
                .filter(|&&leader| faults.can_mint(slot, leader))
                .map(|&leader| {
                    let b = store.mint(nodes[leader].tip(), slot, leader, true);
                    nodes[leader].receive(&store, b);
                    b
                })
                .collect();
            // 2. The rushing adversary observes the minted blocks, mints
            //    its own, and schedules all deliveries for this slot —
            //    through the trait, against the Δ-clamping context.
            let mut ctx = RefSlotContext {
                store: &mut store,
                network: &mut network,
                config,
                faults: &faults,
                slot,
                adversarial_leader: leaders.adversarial,
            };
            strategy.on_slot(&mut ctx, &minted);
            // 3. Apply this slot's deliveries in scheduled order —
            //    filtered through the fault plan when one is active —
            //    recording chain rollbacks (tip switches onto chains that
            //    do not extend the previous tip).
            let before: Vec<BlockId> = nodes.iter().map(HonestNode::tip).collect();
            let due = network.due(slot);
            if faults.is_empty() {
                for (recipient, block) in due {
                    nodes[recipient].receive(&store, block);
                }
            } else {
                fault_due.clear();
                fault_due.extend(due.iter().map(|&(r, b)| (r as u32, b.index() as u32)));
                faults.apply(
                    slot,
                    &mut fault_due,
                    |b| {
                        let blk = store.block(BlockId::from_index(b as usize));
                        DeliveryMeta {
                            src: blk.issuer,
                            honest: blk.honest,
                            broadcast_slot: blk.slot,
                        }
                    },
                    &mut acc,
                );
                for &(recipient, block) in fault_due.iter() {
                    nodes[recipient as usize].receive(&store, BlockId::from_index(block as usize));
                }
            }
            for (node, &old) in nodes.iter().zip(&before) {
                let new = node.tip();
                if new != old && store.last_common_block(old, new) != old {
                    rollbacks.push((slot, old, new));
                    acc.on_rollback(slot, store.block(old).height, store.block(new).height);
                }
            }
            // Mint-time adoption makes this invariant: under first-seen
            // ties a leader keeps its own block unless a strictly longer
            // chain arrived (axiom A0′'s consistent rule may legitimately
            // swap equal-height tips, so it is exempt).
            if config.tie_break == TieBreak::AdversarialOrder {
                for &b in &minted {
                    let leader = store.block(b).issuer;
                    let tip = nodes[leader].tip();
                    debug_assert!(
                        tip == b || store.block(tip).height > store.block(b).height,
                        "leader {leader} lost its own slot-{slot} block to an equal-height tie"
                    );
                }
            }
            // 4. Record the distinct honest views.
            let mut tips: Vec<BlockId> = nodes.iter().map(|n| n.tip()).collect();
            tips.sort_unstable();
            tips.dedup();
            let mut div = 0usize;
            let mut best_height = 0usize;
            for (i, &a) in tips.iter().enumerate() {
                best_height = best_height.max(store.block(a).height);
                for &b in &tips[i + 1..] {
                    let lca = store.last_common_block(a, b);
                    let first = store.block(a).slot.min(store.block(b).slot);
                    div = div.max(first.saturating_sub(store.block(lca).slot));
                }
            }
            acc.on_slot(slot, tips.len(), best_height, div);
            tips_per_slot.push(tips);
        }

        // Final metrics from node 0's view (all honest views agree up to
        // the recent window in healthy runs).
        let best_tip = nodes
            .iter()
            .map(HonestNode::tip)
            .max_by_key(|t| store.block(*t).height)
            .expect("at least one node");
        let chain = store.chain(best_tip);
        let chain_blocks = chain.len() - 1;
        let honest_chain_blocks = chain
            .iter()
            .skip(1)
            .filter(|b| store.block(**b).honest)
            .count();
        let semi = schedule.characteristic_string();
        let divergence = DivergenceIndex::build(&store, &tips_per_slot, &rollbacks);
        let metrics = acc.finish(
            semi.count_nonempty(),
            store.block(best_tip).height,
            chain_blocks,
            honest_chain_blocks,
            divergence.max_settlement_lag(),
        );
        let ledger = faults.finish();
        (
            Simulation {
                config: *config,
                schedule,
                store,
                tips_per_slot,
                rollbacks,
                divergence,
                metrics,
            },
            ledger,
        )
    }

    /// Assembles a simulation from recorded parts — tests use this to
    /// construct boundary executions (e.g. a rollback at exactly
    /// `t = s + k`) that seeded runs cannot hit reliably.
    #[cfg(test)]
    fn from_parts(
        store: BlockStore,
        tips_per_slot: Vec<Vec<BlockId>>,
        rollbacks: Vec<(usize, BlockId, BlockId)>,
    ) -> Simulation {
        let slots = tips_per_slot.len();
        let config = SimConfig {
            honest_nodes: 1,
            adversarial_stake: 0.0,
            active_slot_coeff: 0.5,
            delta: 0,
            slots,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::Honest,
        };
        let schedule = LeaderSchedule::sample(1, 0.0, 0.5, slots, 0);
        let divergence = DivergenceIndex::build(&store, &tips_per_slot, &rollbacks);
        let metrics = Metrics {
            slots,
            active_slots: 0,
            final_height: 0,
            chain_blocks: 0,
            honest_chain_blocks: 0,
            max_slot_divergence: 0,
            rollback_count: rollbacks.len(),
            max_settlement_lag: divergence.max_settlement_lag(),
        };
        Simulation {
            config,
            schedule,
            store,
            tips_per_slot,
            rollbacks,
            divergence,
            metrics,
        }
    }

    /// The configuration used.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The sampled leader schedule.
    pub fn schedule(&self) -> &LeaderSchedule {
        &self.schedule
    }

    /// The block arena.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The execution's semi-synchronous characteristic string.
    pub fn characteristic_string(&self) -> SemiString {
        self.schedule.characteristic_string()
    }

    /// Execution metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Distinct honest tips at the end of `slot`.
    ///
    /// Slots are **1-based** (`1..=slots`, matching the execution loop);
    /// slot 0 is the genesis boundary, where no views have been recorded
    /// yet, so it reports no tips rather than panicking.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the simulated horizon.
    pub fn tips_at(&self, slot: usize) -> &[BlockId] {
        if slot == 0 {
            return &[];
        }
        &self.tips_per_slot[slot - 1]
    }

    /// All recorded rollbacks: `(slot, previous tip, new tip)`.
    pub fn rollbacks(&self) -> &[(usize, BlockId, BlockId)] {
        &self.rollbacks
    }

    /// The execution's [`DivergenceIndex`]: per-anchor latest diverging
    /// observations, folded once during [`Simulation::run`].
    pub fn divergence_index(&self) -> &DivergenceIndex {
        &self.divergence
    }

    /// Whether the execution exhibits a settlement violation for `slot`
    /// at parameter `k` (paper Definition 3, observed): at some slot
    /// `t ≥ slot + k`, either two simultaneous honest views diverge prior
    /// to `slot`, or an honest node rolled over to a chain diverging
    /// prior to `slot` (the withheld-chain release pattern). Both event
    /// kinds use the same `t ≥ slot + k` observation window.
    ///
    /// Anchor slots are 1-based; `slot = 0` (the genesis boundary) and
    /// anchors beyond the horizon are vacuously settled. `O(1)` per query
    /// — see [`Simulation::settlement_violations`] for whole sweeps.
    pub fn settlement_violation(&self, slot: usize, k: usize) -> bool {
        self.divergence.violates(slot, k)
    }

    /// The full settlement sweep at parameter `k`: entry `s − 1` is
    /// [`Simulation::settlement_violation`]`(s, k)` for `s ∈ 1..=slots`.
    /// `O(slots)` for any `k`.
    pub fn settlement_violations(&self, k: usize) -> Vec<bool> {
        self.divergence.violations(k)
    }

    /// The smallest anchor slot violated at parameter `k`, if any.
    pub fn first_violating_slot(&self, k: usize) -> Option<usize> {
        self.divergence.first_violation(k)
    }

    /// Number of violating anchors `s ≤ upto` at parameter `k` — the
    /// reduction every sweep consumer wants. `upto` is clamped to the
    /// horizon; pass `usize::MAX` (or `slots`) to count every anchor.
    pub fn count_violating_slots(&self, k: usize, upto: usize) -> usize {
        self.divergence.count_violations(k, upto)
    }

    /// The naive per-query scan over observation slots and tip pairs,
    /// retained verbatim (modulo the unified `t ≥ slot + k` window and
    /// the slot-0 guard) as the equivalence oracle for the indexed path.
    /// Only tests call this; all other consumers should use
    /// [`Simulation::settlement_violation`].
    #[doc(hidden)]
    pub fn settlement_violation_oracle(&self, slot: usize, k: usize) -> bool {
        if slot == 0 {
            return false;
        }
        let concurrent = (slot.saturating_add(k)..=self.config.slots).any(|t| {
            let tips = self.tips_at(t);
            tips.iter().enumerate().any(|(i, &a)| {
                tips[i + 1..]
                    .iter()
                    .any(|&b| self.store.diverge_prior_to(a, b, slot))
            })
        });
        concurrent
            || self.rollbacks.iter().any(|&(t, old, new)| {
                t >= slot.saturating_add(k) && self.store.diverge_prior_to(old, new, slot)
            })
    }

    /// Extracts the execution's fork: every minted block becomes a vertex
    /// labelled with its slot.
    ///
    /// Extraction streams through a [`ForkFold`]: slot symbols and minted
    /// blocks interleave in one pass (blocks sit in the store in mint
    /// order, which is non-decreasing in slot), so the Δ-axiom verdict is
    /// computed **online** while the fork materialises and is ready in
    /// [`ExtractedFork::streaming_validation`] with no second pass. The
    /// batch oracle [`ExtractedFork::validate_against_axioms`] is retained
    /// for equivalence testing.
    pub fn fork(&self) -> ExtractedFork {
        let semi = self.characteristic_string();
        let mut fold = ForkFold::new(self.config.delta);
        let mut vertex_of: Vec<VertexId> = vec![VertexId::ROOT; self.store.len()];
        let mut blocks = self.store.iter().peekable();
        // Genesis is the fork's root, not a vertex.
        let genesis = blocks.next();
        debug_assert!(genesis.is_some_and(|b| b.id == BlockId::GENESIS));
        for (slot, sym) in semi.iter_slots() {
            fold.push_symbol(sym);
            while let Some(block) = blocks.next_if(|b| b.slot == slot) {
                let parent = vertex_of[block.parent.expect("non-genesis").index()];
                vertex_of[block.id.index()] = fold.push_vertex(parent, block.slot);
            }
        }
        debug_assert!(blocks.next().is_none(), "store is in slot order");
        let streamed = fold.finish();
        ExtractedFork {
            fork: streamed.fork,
            semi,
            delta: self.config.delta,
            streaming: streamed.validation,
        }
    }
}

/// A fork extracted from an execution, with Δ-aware axiom validation.
#[derive(Debug, Clone)]
pub struct ExtractedFork {
    fork: Fork,
    semi: SemiString,
    delta: usize,
    streaming: Result<(), ForkError>,
}

impl ExtractedFork {
    /// The fork itself.
    pub fn fork(&self) -> &Fork {
        &self.fork
    }

    /// The semi-synchronous characteristic string it was extracted with.
    pub fn characteristic_string(&self) -> &SemiString {
        &self.semi
    }

    /// The verdict computed online during extraction: equivalent to
    /// [`validate_against_axioms`](Self::validate_against_axioms) at the
    /// `is_ok` level (the streaming parity contract — the *first* reported
    /// violation may differ), for free instead of a full second pass.
    pub fn streaming_validation(&self) -> Result<(), ForkError> {
        self.streaming.clone()
    }

    /// Validates the fork against the paper's axioms: (F1)–(F4) for
    /// `Δ = 0`, (F1)–(F3) + (F4Δ) otherwise — the batch oracle, retained
    /// as the equivalence reference for the streaming verdict.
    ///
    /// # Errors
    ///
    /// Returns the first axiom violation — any violation means the
    /// simulator broke the abstract model, so tests treat this as fatal.
    pub fn validate_against_axioms(&self) -> Result<(), ForkError> {
        multihonest_fork::validate::validate_delta(&self.fork, &self.semi, self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_chars::SemiSymbol;

    fn base_config() -> SimConfig {
        SimConfig {
            honest_nodes: 6,
            adversarial_stake: 0.25,
            active_slot_coeff: 0.2,
            delta: 0,
            slots: 400,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::Honest,
        }
    }

    #[test]
    fn honest_run_converges_after_unique_leader_slots() {
        let cfg = base_config();
        let sim = Simulation::run(&cfg, 7);
        // Concurrent honest leaders legitimately split views (each keeps
        // its own block on the first-seen tie — the paper's multi-leader
        // ambiguity), but at Δ = 0 every *uniquely* honest slot mints a
        // chain strictly longer than all views and collapses them to one.
        let semi = sim.characteristic_string();
        let mut unique_slots = 0;
        for (slot, sym) in semi.iter_slots() {
            if sym == SemiSymbol::UniqueHonest {
                assert_eq!(sim.tips_at(slot).len(), 1, "slot {slot}");
                unique_slots += 1;
            }
        }
        assert!(unique_slots > 0, "degenerate schedule");
        // The transient splits never outlive a moderate settlement window.
        assert!(!sim.metrics().observed_settlement_violation(10));
        assert!(!sim.settlement_violation(1, 10));
        // Chain growth ≈ active-slot density (every active slot adds 1).
        let growth = sim.metrics().chain_growth();
        let active = sim.metrics().active_slots as f64 / cfg.slots as f64;
        assert!(
            (growth - active).abs() < 0.02,
            "growth {growth} vs active {active}"
        );
    }

    #[test]
    fn extracted_fork_satisfies_axioms() {
        for strategy in Strategy::ALL {
            for delta in [0usize, 2] {
                let cfg = SimConfig {
                    strategy,
                    delta,
                    ..base_config()
                };
                let sim = Simulation::run(&cfg, 11);
                let fork = sim.fork();
                assert_eq!(
                    fork.validate_against_axioms(),
                    Ok(()),
                    "strategy {strategy} delta {delta}"
                );
                // The verdict computed online during extraction must agree
                // with the batch oracle just asserted.
                assert_eq!(
                    fork.streaming_validation(),
                    Ok(()),
                    "streaming verdict diverged for {strategy} delta {delta}"
                );
            }
        }
    }

    #[test]
    fn withholding_attack_rolls_back_honest_blocks() {
        // With high adversarial stake the private chain overtakes the
        // public one from time to time, producing settlement violations
        // for recent slots.
        let cfg = SimConfig {
            adversarial_stake: 0.45,
            strategy: Strategy::PrivateWithholding,
            slots: 2000,
            ..base_config()
        };
        let sim = Simulation::run(&cfg, 3);
        let quality = sim.metrics().chain_quality();
        assert!(
            quality < 0.9,
            "adversarial blocks displace honest ones: {quality}"
        );
        let any_violation =
            (1..=cfg.slots.saturating_sub(5)).any(|s| sim.settlement_violation(s, 3));
        assert!(
            any_violation,
            "a 45% adversary must cause small-k violations"
        );
    }

    #[test]
    fn balance_attack_splits_views_under_adversarial_ties() {
        let cfg = SimConfig {
            honest_nodes: 8,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.5, // frequent concurrent leaders
            strategy: Strategy::BalanceAttack,
            slots: 600,
            ..base_config()
        };
        let sim = Simulation::run(&cfg, 5);
        assert!(
            sim.metrics().max_slot_divergence >= 3,
            "balance attack should keep honest views apart: div = {}",
            sim.metrics().max_slot_divergence
        );
    }

    #[test]
    fn consistent_tie_breaking_blunts_the_balance_attack() {
        let mk = |tie| SimConfig {
            honest_nodes: 8,
            adversarial_stake: 0.2,
            active_slot_coeff: 0.5,
            strategy: Strategy::BalanceAttack,
            slots: 800,
            tie_break: tie,
            ..base_config()
        };
        let runs = 8;
        let mut div_adv = 0usize;
        let mut div_con = 0usize;
        for seed in 0..runs {
            div_adv += Simulation::run(&mk(TieBreak::AdversarialOrder), seed)
                .metrics()
                .max_slot_divergence;
            div_con += Simulation::run(&mk(TieBreak::Consistent), seed)
                .metrics()
                .max_slot_divergence;
        }
        assert!(
            div_con < div_adv,
            "consistent rule should reduce divergence: {div_con} vs {div_adv}"
        );
    }

    #[test]
    fn rollback_violation_at_exactly_t_equals_s_plus_k() {
        // Regression for the Definition-3 off-by-one: the rollback branch
        // used `t > slot + k` while the concurrent branch used
        // `t ≥ slot + k`. Construct an execution whose ONLY divergence
        // evidence is a rollback at exactly t = s + k, with single honest
        // views at every slot (so the concurrent branch can never fire).
        let mut store = BlockStore::new();
        let a1 = store.mint(BlockId::GENESIS, 1, 0, true); // anchor s = 1
        let a2 = store.mint(a1, 2, 0, true);
        let b6 = store.mint(BlockId::GENESIS, 6, usize::MAX - 1, false);
        let b7 = store.mint(b6, 7, usize::MAX - 1, false);
        let b8 = store.mint(b7, 8, usize::MAX - 1, false);
        // One honest view throughout; at slot 9 it rolls back onto b8.
        let tips = vec![
            vec![a1],
            vec![a2],
            vec![a2],
            vec![a2],
            vec![a2],
            vec![a2],
            vec![a2],
            vec![a2],
            vec![b8],
            vec![b8],
        ];
        let sim = Simulation::from_parts(store, tips, vec![(9, a2, b8)]);
        // t = 9, s = 1, k = 8: exactly t = s + k. The paper's reading
        // (t ≥ s + k) makes this a violation; the old rollback branch
        // (t > s + k) missed it.
        assert!(sim.settlement_violation(1, 8));
        assert!(sim.settlement_violation_oracle(1, 8));
        assert!(!sim.settlement_violation(1, 9));
        assert!(!sim.settlement_violation_oracle(1, 9));
        assert_eq!(sim.first_violating_slot(8), Some(1));
        assert_eq!(sim.metrics().max_settlement_lag, Some(8));
        // Anchor 2 diverges too (a2 vs b8 differ at slot 2): t = s + 7.
        assert!(sim.settlement_violation(2, 7));
        assert!(!sim.settlement_violation(2, 8));
    }

    #[test]
    fn own_block_is_adopted_despite_delta() {
        // A lone honest leader must adopt its own minted block in its
        // minting slot: with Δ > 0, every active slot still extends the
        // chain by exactly one block, under every strategy's routing.
        for strategy in Strategy::ALL {
            let cfg = SimConfig {
                honest_nodes: 1,
                adversarial_stake: 0.0,
                active_slot_coeff: 0.6,
                delta: 3,
                slots: 300,
                tie_break: TieBreak::AdversarialOrder,
                strategy,
            };
            let sim = Simulation::run(&cfg, 13);
            let m = sim.metrics();
            assert!(m.active_slots > 0, "degenerate schedule");
            assert_eq!(
                m.final_height, m.active_slots,
                "strategy {strategy}: a lone leader's chain must grow on \
                 every active slot (Δ must not delay a node to itself)"
            );
        }
    }

    #[test]
    fn minters_never_lose_their_own_block_to_a_tie() {
        // Multi-node balance attack, where a cross-group minter's own
        // block competes with same-slot deliveries of the other branch:
        // at the end of its minting slot, every honest leader's view must
        // hold its own block or a strictly taller chain — never an
        // equal-height competitor that won a first-seen tie. (The run
        // loop debug_asserts the exact per-node form; this checks the
        // observable tip sets, release builds included.)
        for strategy in [Strategy::BalanceAttack, Strategy::PrivateWithholding] {
            for seed in 0..10u64 {
                let cfg = SimConfig {
                    honest_nodes: 4,
                    adversarial_stake: 0.3,
                    active_slot_coeff: 0.5,
                    delta: 2,
                    slots: 150,
                    tie_break: TieBreak::AdversarialOrder,
                    strategy,
                };
                let sim = Simulation::run(&cfg, seed);
                for block in sim.store().iter() {
                    if !block.honest || block.id == BlockId::GENESIS {
                        continue;
                    }
                    let tips = sim.tips_at(block.slot);
                    assert!(
                        tips.contains(&block.id)
                            || tips
                                .iter()
                                .any(|&t| sim.store().block(t).height > block.height),
                        "honest block {} (slot {}, height {}) displaced by an \
                         equal-height tie ({strategy}, seed {seed})",
                        block.id,
                        block.slot,
                        block.height
                    );
                }
            }
        }
    }

    #[test]
    fn slot_zero_and_horizon_edges_are_guarded() {
        let cfg = base_config();
        let sim = Simulation::run(&cfg, 7);
        // The genesis boundary: no views yet, vacuously settled.
        assert!(sim.tips_at(0).is_empty());
        assert!(!sim.settlement_violation(0, 0));
        assert!(!sim.settlement_violation(0, 10));
        assert!(!sim.settlement_violation_oracle(0, 0));
        // Beyond the horizon: vacuously settled (matching the oracle,
        // whose observation range is empty there).
        assert!(!sim.settlement_violation(cfg.slots + 1, 0));
        assert!(!sim.settlement_violation_oracle(cfg.slots + 1, 0));
        // The last simulated slot is a valid anchor.
        assert_eq!(sim.tips_at(cfg.slots).len(), 1);
        assert_eq!(
            sim.settlement_violation(cfg.slots, 0),
            sim.settlement_violation_oracle(cfg.slots, 0)
        );
        let sweep = sim.settlement_violations(5);
        assert_eq!(sweep.len(), cfg.slots);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = base_config();
        let a = Simulation::run(&cfg, 99);
        let b = Simulation::run(&cfg, 99);
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.store().len(), b.store().len());
    }

    #[test]
    fn delta_delays_are_respected() {
        // With Δ = 3 and honest-only behaviour, views may lag but the
        // extracted fork still satisfies (F4Δ), and growth stays positive.
        let cfg = SimConfig {
            delta: 3,
            slots: 600,
            ..base_config()
        };
        let sim = Simulation::run(&cfg, 23);
        assert!(sim.fork().validate_against_axioms().is_ok());
        assert!(sim.metrics().chain_growth() > 0.0);
    }
}
