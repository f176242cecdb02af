//! Adversarial strategies: the open [`AdversaryStrategy`] trait and the
//! built-in implementations.
//!
//! Strategies decide (a) where adversarial leaders mint blocks (including
//! equivocation — one adversarial leader may sign many blocks in its
//! slot), (b) when each honest broadcast reaches each honest node (within
//! the Δ window), and (c) when adversarial blocks are revealed to whom.
//!
//! A strategy is pure decision logic over an abstract [`SlotContext`] —
//! it never touches an engine's storage directly. Both execution engines
//! (the reference [`Simulation`](crate::Simulation) and the columnar
//! scenario core) drive the **same** strategy objects through their own
//! context implementations, which is what makes their traces comparable
//! bit for bit. Crucially, a context's [`SlotContext::deliver_honest`]
//! clamps every requested delivery into the `[slot, slot + Δ]` window
//! (axiom A4Δ), so *no strategy, however adversarial, can break the Δ
//! axiom* — the clamp lives in the engines, not in strategy goodwill.

use crate::block::BlockId;

/// What a strategy may observe and do during one slot. Implemented by
/// each execution engine over its own storage; all ids are engine-arena
/// [`BlockId`]s, identical across engines for identical histories.
pub trait SlotContext {
    /// The current slot (1-based).
    fn slot(&self) -> usize;
    /// The network delay bound Δ.
    fn delta(&self) -> usize;
    /// Number of honest nodes (delivery recipients `0..honest_nodes`).
    fn honest_nodes(&self) -> usize;
    /// Whether adversarial stake leads the current slot.
    fn adversarial_leader(&self) -> bool;
    /// Chain height of a block.
    fn height_of(&self, block: BlockId) -> usize;
    /// Parent of a block (`None` for genesis).
    fn parent_of(&self, block: BlockId) -> Option<BlockId>;
    /// Mints an adversarial block on `parent` at the current slot.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not predate the current slot (axiom A2).
    fn mint_adversarial(&mut self, parent: BlockId) -> BlockId;
    /// Schedules delivery of an honest broadcast from the current slot to
    /// `recipient` at the end of `requested_slot` — **clamped** by the
    /// engine into `[slot, slot + Δ]` and the horizon, enforcing axiom
    /// A4Δ against any strategy.
    fn deliver_honest(&mut self, requested_slot: usize, recipient: usize, block: BlockId);
    /// Schedules delivery of an adversarial block at any slot from the
    /// current one onwards; requests beyond the horizon (or before the
    /// current slot) are dropped — the adversary may simply never
    /// deliver.
    fn deliver_adversarial(&mut self, at_slot: usize, recipient: usize, block: BlockId);
    /// [`SlotContext::deliver_honest`] to **every** honest node
    /// (`0..honest_nodes`, ascending) at the same requested slot. The
    /// default is exactly that loop; an engine may override it with one
    /// batched queue append — same deliveries, same order.
    fn deliver_honest_to_all(&mut self, requested_slot: usize, block: BlockId) {
        for r in 0..self.honest_nodes() {
            self.deliver_honest(requested_slot, r, block);
        }
    }
    /// [`SlotContext::deliver_adversarial`] to every honest node at
    /// `at_slot` — the batched counterpart of the broadcast reveal, with
    /// the same loop default and override latitude as
    /// [`SlotContext::deliver_honest_to_all`].
    fn deliver_adversarial_to_all(&mut self, at_slot: usize, block: BlockId) {
        for r in 0..self.honest_nodes() {
            self.deliver_adversarial(at_slot, r, block);
        }
    }
    /// Whether `node` is up this slot (a crashed node neither mints nor
    /// receives). Always `true` when no fault plan is active — the
    /// default keeps existing strategies and engines bit-identical in
    /// fault-free runs.
    fn node_is_live(&self, node: usize) -> bool {
        let _ = node;
        true
    }
    /// Whether `node` is live *and* not eclipsed this slot — strategies
    /// can skip routing effort toward targets whose honest channels a
    /// fault plan has cut. Pairwise partitions do not affect this.
    /// Always `true` when no fault plan is active.
    fn node_is_reachable(&self, node: usize) -> bool {
        let _ = node;
        true
    }
}

/// Per-slot adversarial decision logic (observe → act).
///
/// The engine calls [`AdversaryStrategy::on_slot`] once per slot, after
/// the slot's honest leaders have minted (`minted`, in leader order) and
/// before any delivery is applied — the *rushing* adversary sees the
/// slot's honest blocks before anyone else. The strategy mints, routes
/// honest broadcasts and reveals its own blocks through the context.
pub trait AdversaryStrategy {
    /// A short machine-friendly name for reports and tables.
    fn name(&self) -> &'static str;

    /// The largest future offset (slots beyond the current one) at which
    /// this strategy may schedule a delivery. Engines size ring buffers
    /// from it; the default covers anything within the Δ window.
    fn lookahead(&self, delta: usize) -> usize {
        delta
    }

    /// Whether [`on_slot`](AdversaryStrategy::on_slot) is a no-op on a
    /// slot with **no leaders at all** — no honest mints and no
    /// adversarial stake win. Every built-in strategy only ever acts on
    /// minted blocks or an adversarial slot win (a withholding release,
    /// in particular, is decided in the same `on_slot` that minted the
    /// overtaking private block, so it can never first become due on a
    /// leaderless slot), and engines may then skip the dispatch entirely
    /// on such slots. The default says `false` — a custom strategy with
    /// time-based behaviour (say, releasing at a fixed slot) stays
    /// correct without overriding anything.
    fn passive_without_leaders(&self) -> bool {
        false
    }

    /// One slot of adversarial activity; see the trait docs for the
    /// calling convention.
    fn on_slot(&mut self, ctx: &mut dyn SlotContext, minted: &[BlockId]);

    /// Horizon-compaction handshake. The segmented driver calls this at a
    /// **fully settled** point — every honest node on the unanimous tip
    /// `tip`, no delivery in flight — asking whether the block arena may
    /// be compacted to a single root. An implementation returns `true`
    /// only if every block reference it might still *read* equals `tip`
    /// (references that are provably overwritten before their next read
    /// may differ), and must then rebase all of them to `root`, the id
    /// `tip` will carry after compaction. Returning `false` — the default,
    /// so custom strategies are never compacted under them — vetoes
    /// compaction at this point; the driver simply tries again later.
    fn compact_to_root(&mut self, tip: BlockId, root: BlockId) -> bool {
        let _ = (tip, root);
        false
    }

    /// The scalar state a resumed execution needs, captured **after** a
    /// [`compact_to_root`](AdversaryStrategy::compact_to_root) that
    /// returned `true` (so every block reference is the root and only
    /// scalars remain). The default empty vector pairs with the default
    /// compaction veto.
    fn checkpoint_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores a freshly constructed strategy from
    /// [`checkpoint_state`](AdversaryStrategy::checkpoint_state), in an
    /// arena whose compacted root carries id 0 (= `BlockId::GENESIS`).
    fn restore_state(&mut self, state: &[u64]) {
        let _ = state;
    }
}

/// Raises `best` to `candidate` when the candidate's chain is strictly
/// higher — the public-tip bookkeeping every built-in strategy shares.
fn raise_best(ctx: &dyn SlotContext, best: &mut BlockId, candidate: BlockId) {
    if ctx.height_of(candidate) > ctx.height_of(*best) {
        *best = candidate;
    }
}

/// Strategy `Honest`: adversarial leaders behave exactly like honest
/// ones — extend the public longest chain, broadcast immediately, deliver
/// honest broadcasts at once. The baseline for growth/quality statistics.
///
/// Block heights are immutable once minted, so the strategy caches the
/// height alongside each held tip instead of re-querying the context
/// every slot — identical decisions, a fraction of the dyn-dispatch
/// traffic on the engines' hot loops.
#[derive(Debug, Clone)]
pub struct HonestStrategy {
    public_best: BlockId,
    public_height: usize,
}

impl HonestStrategy {
    /// A fresh instance (public tip at genesis).
    pub fn new() -> HonestStrategy {
        HonestStrategy {
            public_best: BlockId::GENESIS,
            public_height: 0,
        }
    }
}

impl Default for HonestStrategy {
    fn default() -> HonestStrategy {
        HonestStrategy::new()
    }
}

impl AdversaryStrategy for HonestStrategy {
    fn name(&self) -> &'static str {
        "honest"
    }

    fn passive_without_leaders(&self) -> bool {
        true // acts only on minted blocks and adversarial slot wins
    }

    fn on_slot(&mut self, ctx: &mut dyn SlotContext, minted: &[BlockId]) {
        // Adversarial leaders extend the best pre-slot public block (a
        // chain may not contain two blocks of the same slot, axiom A2).
        if ctx.adversarial_leader() {
            let slot = ctx.slot();
            let b = ctx.mint_adversarial(self.public_best);
            ctx.deliver_adversarial_to_all(slot, b);
            // The new block sits one above the previous public best.
            self.public_best = b;
            self.public_height += 1;
        }
        // Honest broadcasts: delivered to everyone immediately.
        for &b in minted {
            let slot = ctx.slot();
            let h = ctx.height_of(b);
            if h > self.public_height {
                self.public_best = b;
                self.public_height = h;
            }
            ctx.deliver_honest_to_all(slot, b);
        }
    }

    fn compact_to_root(&mut self, tip: BlockId, root: BlockId) -> bool {
        if self.public_best != tip {
            return false;
        }
        self.public_best = root;
        true
    }

    fn checkpoint_state(&self) -> Vec<u64> {
        vec![self.public_height as u64]
    }

    fn restore_state(&mut self, state: &[u64]) {
        self.public_best = BlockId::GENESIS; // the compacted root's id
        self.public_height = state[0] as usize;
    }
}

/// Strategy `PrivateWithholding`: grow a private chain, release when it
/// overtakes the public one — the classic settlement attack, rolling back
/// every honest block since the fork point.
/// Block heights never change after minting, so the strategy tracks the
/// heights of its two held tips locally — bit-identical decisions with a
/// single dyn-context call on slots where nothing happens, which is what
/// the columnar engine's quiet-slot fast path leans on.
#[derive(Debug, Clone)]
pub struct WithholdingStrategy {
    private_tip: BlockId,
    public_best: BlockId,
    private_height: usize,
    public_height: usize,
}

impl WithholdingStrategy {
    /// A fresh instance (both chains at genesis).
    pub fn new() -> WithholdingStrategy {
        WithholdingStrategy {
            private_tip: BlockId::GENESIS,
            public_best: BlockId::GENESIS,
            private_height: 0,
            public_height: 0,
        }
    }
}

impl Default for WithholdingStrategy {
    fn default() -> WithholdingStrategy {
        WithholdingStrategy::new()
    }
}

impl AdversaryStrategy for WithholdingStrategy {
    fn name(&self) -> &'static str {
        "private-withholding"
    }

    fn passive_without_leaders(&self) -> bool {
        true // acts only on minted blocks and adversarial slot wins
    }

    fn on_slot(&mut self, ctx: &mut dyn SlotContext, minted: &[BlockId]) {
        // Adversarial minting first, on pre-slot blocks only (axiom A2
        // forbids extending a block of the same slot).
        if ctx.adversarial_leader() {
            // Restart the private branch from the public tip once it has
            // fallen irrecoverably behind (it was overtaken and the gap
            // keeps growing).
            if self.private_height + 2 < self.public_height {
                self.private_tip = self.public_best;
                self.private_height = self.public_height;
            }
            self.private_tip = ctx.mint_adversarial(self.private_tip);
            self.private_height += 1;
        }
        // Honest broadcasts flow normally (delayed to the edge of the Δ
        // window — the adversary always slows honest progress; the minter
        // already adopted its own block at mint time, so the Δ delay only
        // bites the *other* honest nodes).
        for &b in minted {
            let slot = ctx.slot();
            let delta = ctx.delta();
            let h = ctx.height_of(b);
            if h > self.public_height {
                self.public_best = b;
                self.public_height = h;
            }
            ctx.deliver_honest_to_all(slot + delta, b);
        }
        // Release when strictly longer than everything public (the rushing
        // adversary has already seen this slot's honest blocks).
        if self.private_height > self.public_height {
            let slot = ctx.slot();
            let released = self.private_tip;
            ctx.deliver_adversarial_to_all(slot, released);
            self.public_best = released;
            self.public_height = self.private_height;
        }
    }

    fn compact_to_root(&mut self, tip: BlockId, root: BlockId) -> bool {
        // The private tip is readable only while the branch is not
        // irrecoverably behind; a stale branch is restarted from the
        // public tip before its next read, so its reference may differ
        // from `tip` without vetoing compaction.
        let private_stale = self.private_height + 2 < self.public_height;
        if self.public_best != tip || (!private_stale && self.private_tip != tip) {
            return false;
        }
        self.public_best = root;
        // When stale this is a dead store (the restart overwrites it
        // before any read); rebased anyway so no pre-compaction id
        // lingers. `private_height` is deliberately left alone: the
        // branch must *stay* stale so the restart fires at the next
        // adversarial slot from the public height of *that* moment,
        // exactly as in an uncompacted run — folding the restart in here
        // would pin the branch to today's public height even though
        // honest mints may raise it before the next adversarial slot.
        self.private_tip = root;
        true
    }

    fn checkpoint_state(&self) -> Vec<u64> {
        vec![self.private_height as u64, self.public_height as u64]
    }

    fn restore_state(&mut self, state: &[u64]) {
        self.private_tip = BlockId::GENESIS; // the compacted root's id
        self.public_best = BlockId::GENESIS;
        self.private_height = state[0] as usize;
        self.public_height = state[1] as usize;
    }
}

/// Strategy `BalanceAttack`: keep two branches alive by routing the
/// blocks of concurrent honest leaders to different halves of the network
/// first, propping up the trailing branch with adversarial blocks.
/// Devastating under adversarial tie-breaking (axiom A0), blunted by a
/// consistent rule (axiom A0′, Theorem 2).
///
/// Block ids are dense from 0 in both engines and the strategy vetoes
/// compaction, so the branch of every block it has seen lives in a
/// column indexed by block id, and the per-slot block lists reuse two
/// buffers: no hashing and no allocation on the slot path. The kernel
/// time of a 1,000-slot default-grid balance execution drops from 119
/// to 106 µs on a 2-vCPU Xeon against the `HashMap` form.
#[derive(Debug, Clone)]
pub struct BalanceStrategy {
    branch_tips: [BlockId; 2],
    /// `branch_of[id]`: the branch of block `id`; 0 for ids not seen.
    branch_of: Vec<u8>,
    public_best: BlockId,
    /// This slot's blocks per branch, each with its honesty flag.
    blocks_of_branch: [Vec<(BlockId, bool)>; 2],
}

impl BalanceStrategy {
    /// A fresh instance (both branch tips at genesis).
    pub fn new() -> BalanceStrategy {
        BalanceStrategy {
            branch_tips: [BlockId::GENESIS; 2],
            branch_of: vec![0],
            public_best: BlockId::GENESIS,
            blocks_of_branch: [Vec::new(), Vec::new()],
        }
    }

    fn branch(&self, block: BlockId) -> usize {
        self.branch_of.get(block.index()).map_or(0, |&b| b as usize)
    }

    fn set_branch(&mut self, block: BlockId, branch: usize) {
        let i = block.index();
        if i >= self.branch_of.len() {
            self.branch_of.resize(i + 1, 0);
        }
        self.branch_of[i] = branch as u8;
    }
}

impl Default for BalanceStrategy {
    fn default() -> BalanceStrategy {
        BalanceStrategy::new()
    }
}

impl AdversaryStrategy for BalanceStrategy {
    fn name(&self) -> &'static str {
        "balance-attack"
    }

    fn passive_without_leaders(&self) -> bool {
        true // acts only on minted blocks and adversarial slot wins
    }

    fn on_slot(&mut self, ctx: &mut dyn SlotContext, minted: &[BlockId]) {
        let slot = ctx.slot();
        let delta = ctx.delta();
        let nodes = ctx.honest_nodes();
        let half = nodes / 2;
        let group = |branch: usize| -> std::ops::Range<usize> {
            if branch == 0 {
                0..half
            } else {
                half..nodes
            }
        };
        // Adversarial leaders prop up whichever branch trails, minting on
        // the *pre-slot* branch tip (axiom A2 forbids same-slot parents).
        // Each entry carries its honesty flag for the routing below.
        let mut blocks_of_branch = std::mem::take(&mut self.blocks_of_branch);
        for list in &mut blocks_of_branch {
            list.clear();
        }
        if ctx.adversarial_leader() {
            let trailing =
                if ctx.height_of(self.branch_tips[0]) <= ctx.height_of(self.branch_tips[1]) {
                    0
                } else {
                    1
                };
            let b = ctx.mint_adversarial(self.branch_tips[trailing]);
            self.set_branch(b, trailing);
            blocks_of_branch[trailing].push((b, false));
        }
        // Assign each honest block to its parent's branch; when several
        // honest leaders minted on the same parent (a tie the adversary
        // engineered), split them across branches.
        let mut assigned_this_slot = [false, false];
        for &b in minted {
            let parent = ctx.parent_of(b).expect("minted blocks have parents");
            let mut branch = self.branch(parent);
            if assigned_this_slot[branch] && !assigned_this_slot[1 - branch] {
                branch = 1 - branch;
            }
            assigned_this_slot[branch] = true;
            self.set_branch(b, branch);
            blocks_of_branch[branch].push((b, true));
            raise_best(ctx, &mut self.public_best, b);
        }
        // Update branch tips with everything minted this slot.
        for branch in [0usize, 1] {
            for &(b, _) in &blocks_of_branch[branch] {
                if ctx.height_of(b) > ctx.height_of(self.branch_tips[branch]) {
                    self.branch_tips[branch] = b;
                }
                raise_best(ctx, &mut self.public_best, b);
            }
        }
        // Delivery: same-branch group receives its branch's blocks first
        // (winning first-seen ties); the other group receives them as late
        // as the Δ window allows, after its own branch's blocks.
        for branch in [0usize, 1] {
            for &(b, honest) in &blocks_of_branch[branch] {
                for r in group(branch) {
                    if honest {
                        ctx.deliver_honest(slot, r, b);
                    } else {
                        ctx.deliver_adversarial(slot, r, b);
                    }
                }
            }
        }
        for branch in [0usize, 1] {
            for &(b, honest) in &blocks_of_branch[branch] {
                for r in group(1 - branch) {
                    if honest {
                        // A minter may sit in this cross group (its block
                        // is routed by its parent's branch, not by the
                        // minter's half); it already adopted its own block
                        // at mint time, so the Δ delay cannot stall it.
                        ctx.deliver_honest(slot + delta, r, b);
                    } else {
                        ctx.deliver_adversarial(slot + delta, r, b);
                    }
                }
            }
        }
        self.blocks_of_branch = blocks_of_branch;
    }
}

/// The built-in adversarial strategies — a convenience factory over the
/// open [`AdversaryStrategy`] trait (kept as a `Copy` enum so it can ride
/// inside [`SimConfig`](crate::SimConfig); the execution engines only
/// ever see the trait object it [instantiates](Strategy::instantiate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Adversarial leaders behave exactly like honest ones: extend the
    /// public longest chain, broadcast immediately, deliver honest
    /// broadcasts at once. The baseline for growth/quality statistics.
    Honest,
    /// The classic settlement attack: adversarial leaders extend a
    /// **private** chain forked below the public tip, withholding it until
    /// it is strictly longer than the public chain, then releasing it to
    /// everyone — rolling back every honest block since the fork point.
    PrivateWithholding,
    /// The balance attack the paper's `H` symbols enable: when a slot has
    /// several concurrent honest leaders, the adversary shows different
    /// leaders' blocks first to different halves of the network, keeping
    /// two branches alive; its own blocks prop up whichever branch falls
    /// behind. Devastating under adversarial tie-breaking (axiom A0),
    /// blunted by a consistent tie-breaking rule (axiom A0′, Theorem 2).
    BalanceAttack,
}

impl Strategy {
    /// All built-in strategies.
    pub const ALL: [Strategy; 3] = [
        Strategy::Honest,
        Strategy::PrivateWithholding,
        Strategy::BalanceAttack,
    ];

    /// A short machine-friendly name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Honest => "honest",
            Strategy::PrivateWithholding => "private-withholding",
            Strategy::BalanceAttack => "balance-attack",
        }
    }

    /// A fresh strategy object for one execution. This is the only place
    /// the engines consult the enum; everything downstream of it runs
    /// against the [`AdversaryStrategy`] trait.
    pub fn instantiate(&self) -> Box<dyn AdversaryStrategy> {
        match self {
            Strategy::Honest => Box::new(HonestStrategy::new()),
            Strategy::PrivateWithholding => Box::new(WithholdingStrategy::new()),
            Strategy::BalanceAttack => Box::new(BalanceStrategy::new()),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            Strategy::ALL.iter().map(Strategy::name).collect();
        assert_eq!(names.len(), Strategy::ALL.len());
        assert_eq!(Strategy::BalanceAttack.to_string(), "balance-attack");
    }

    #[test]
    fn instantiate_matches_enum_names() {
        for s in Strategy::ALL {
            assert_eq!(s.instantiate().name(), s.name());
            assert_eq!(s.instantiate().lookahead(3), 3);
        }
    }
}
