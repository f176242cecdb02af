//! The ring-buffer delivery queue of the columnar engine.
//!
//! The reference [`Network`](multihonest_sim::network::Network) keeps one
//! `Vec` per simulated slot for the whole horizon — `O(slots)` queues
//! alive at once, each heap-allocated on first use. Every strategy's
//! deliveries land within a bounded window of the current slot
//! (`AdversaryStrategy::lookahead`), so the columnar engine keeps only
//! `window` bucket vectors and reuses them as the execution sweeps
//! forward: `O(1)` amortized work and zero steady-state allocation per
//! delivery.
//!
//! Like the reference network, [`DeliveryRing::schedule_honest`]
//! **clamps** every requested slot into `[broadcast, broadcast + Δ]` and
//! the horizon — the engine-side enforcement of axiom A4Δ that no
//! strategy can bypass.
//!
//! A delivery to every honest node is one **broadcast entry**
//! `(ALL, block)` rather than one entry per recipient, so scheduling it
//! costs one append and the engine can recognise a due list made only
//! of broadcasts by its tags ([`ALL`], [`expand_broadcasts`]).

/// The recipient tag of a **broadcast entry**: `(ALL, block)` stands for
/// `(0, block), (1, block), …, (nodes − 1, block)` in that order, where
/// `nodes` is the execution's honest node count.
pub const ALL: u32 = u32::MAX;

/// Expands every broadcast entry of `due` in place into one entry per
/// recipient `0..nodes`, ascending, keeping the order of all entries —
/// the per-recipient list a broadcast stands for. A list without
/// broadcast entries is left untouched.
///
/// # Panics
///
/// Panics if `due` holds a broadcast entry and `nodes` is 0.
pub fn expand_broadcasts(due: &mut Vec<(u32, u32)>, nodes: usize) {
    let broadcasts = due.iter().filter(|e| e.0 == ALL).count();
    if broadcasts == 0 {
        return;
    }
    assert!(nodes > 0, "a broadcast needs a recipient");
    // Grow once, then move every entry to its final place back to front.
    let len = due.len();
    due.resize(len + broadcasts * (nodes - 1), (0, 0));
    let mut end = due.len();
    for i in (0..len).rev() {
        let (recipient, block) = due[i];
        if recipient == ALL {
            for r in (0..nodes as u32).rev() {
                end -= 1;
                due[end] = (r, block);
            }
        } else {
            end -= 1;
            due[end] = (recipient, block);
        }
    }
    debug_assert_eq!(end, 0);
}

/// A bounded-lookahead delivery queue over `(recipient, block)` pairs,
/// where the recipient [`ALL`] marks a broadcast entry.
#[derive(Debug, Clone)]
pub struct DeliveryRing {
    delta: usize,
    slots: usize,
    /// `buckets[t % window]` holds the deliveries due at the end of slot
    /// `t`, for the `window` slots starting at the current one.
    buckets: Vec<Vec<(u32, u32)>>,
}

impl DeliveryRing {
    /// A ring covering deliveries up to `lookahead` slots ahead, with
    /// delay bound `delta`, over a horizon of `slots`.
    pub fn new(delta: usize, lookahead: usize, slots: usize) -> DeliveryRing {
        let window = lookahead.max(delta) + 1;
        DeliveryRing {
            delta,
            slots,
            buckets: vec![Vec::new(); window],
        }
    }

    /// The ring's window (maximum schedulable offset + 1).
    pub fn window(&self) -> usize {
        self.buckets.len()
    }

    /// Reconfigures the ring in place for a new execution, clearing every
    /// bucket but keeping their allocations — the arena-reuse hook
    /// mirroring [`ColumnarStore::reset`](crate::ColumnarStore::reset).
    pub fn reset(&mut self, delta: usize, lookahead: usize, slots: usize) {
        self.delta = delta;
        self.slots = slots;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.buckets.resize(lookahead.max(delta) + 1, Vec::new());
    }

    /// Whether every bucket is empty — nothing scheduled and not yet
    /// drained. Used by the arena's reuse audit between executions.
    pub fn is_idle(&self) -> bool {
        self.buckets.iter().all(|b| b.is_empty())
    }

    /// Whether nothing is due at the end of `slot` — the engine's fully
    /// quiet-slot precheck, one load instead of a drain of an empty
    /// bucket. (Skipping the drain of an empty bucket is sound: buckets
    /// only ever hold *future* deliveries within the window, so an empty
    /// bucket needs no clearing before its index comes around again.)
    #[inline]
    pub fn bucket_is_empty(&self, slot: usize) -> bool {
        self.buckets[slot % self.buckets.len()].is_empty()
    }

    /// Schedules an honest broadcast from `broadcast_slot` to `recipient`
    /// at the end of `requested_slot`, clamped into
    /// `[broadcast_slot, broadcast_slot + Δ]` and the horizon — identical
    /// semantics to the reference network's `schedule_honest`.
    pub fn schedule_honest(
        &mut self,
        broadcast_slot: usize,
        requested_slot: usize,
        recipient: usize,
        block: u32,
    ) {
        let latest = (broadcast_slot + self.delta).min(self.slots);
        let at = requested_slot.clamp(broadcast_slot, latest);
        debug_assert!(at - broadcast_slot < self.window());
        let w = self.window();
        self.buckets[at % w].push((recipient as u32, block));
    }

    /// Batch form of [`DeliveryRing::schedule_honest`] for recipients
    /// `0..nodes` ascending: the same clamp, and one broadcast entry
    /// `(ALL, block)` — what the columnar engine's
    /// `deliver_honest_to_all` override lands on instead of `nodes`
    /// separate dispatches. [`expand_broadcasts`] with the same `nodes`
    /// turns the drained entry into the per-recipient list.
    pub fn schedule_honest_all(
        &mut self,
        broadcast_slot: usize,
        requested_slot: usize,
        nodes: usize,
        block: u32,
    ) {
        debug_assert!(nodes > 0, "a broadcast needs a recipient");
        let latest = (broadcast_slot + self.delta).min(self.slots);
        let at = requested_slot.clamp(broadcast_slot, latest);
        debug_assert!(at - broadcast_slot < self.window());
        let w = self.window();
        self.buckets[at % w].push((ALL, block));
    }

    /// Batch form of [`DeliveryRing::schedule_adversarial`] for
    /// recipients `0..nodes` ascending: identical window/horizon
    /// semantics, and one broadcast entry `(ALL, block)`.
    ///
    /// # Panics
    ///
    /// Panics if `at_slot` lies beyond the ring's window, like the
    /// per-recipient form.
    pub fn schedule_adversarial_all(
        &mut self,
        now: usize,
        at_slot: usize,
        nodes: usize,
        block: u32,
    ) {
        debug_assert!(nodes > 0, "a broadcast needs a recipient");
        if at_slot < now || at_slot > self.slots {
            return;
        }
        assert!(
            at_slot - now < self.window(),
            "delivery at slot {at_slot} exceeds the ring window ({} from {now}); \
             raise the strategy's lookahead",
            self.window()
        );
        let w = self.window();
        self.buckets[at_slot % w].push((ALL, block));
    }

    /// Schedules an adversarial delivery at `at_slot` (which must be at
    /// or after the current slot `now` and within the ring's window);
    /// requests beyond the horizon or before `now` are dropped, matching
    /// the reference network's effective semantics.
    ///
    /// # Panics
    ///
    /// Panics if `at_slot` lies beyond the ring's window — a strategy
    /// scheduling further ahead must raise its
    /// [`lookahead`](multihonest_sim::AdversaryStrategy::lookahead).
    pub fn schedule_adversarial(
        &mut self,
        now: usize,
        at_slot: usize,
        recipient: usize,
        block: u32,
    ) {
        if at_slot < now || at_slot > self.slots {
            return;
        }
        assert!(
            at_slot - now < self.window(),
            "delivery at slot {at_slot} exceeds the ring window ({} from {now}); \
             raise the strategy's lookahead",
            self.window()
        );
        let w = self.window();
        self.buckets[at_slot % w].push((recipient as u32, block));
    }

    /// Swaps the deliveries due at the end of `slot` into `out` (cleared
    /// first) and leaves the bucket empty for reuse one window later.
    /// Entries keep their scheduling order, broadcast entries included
    /// as `(ALL, block)`. Must be called once per slot, in increasing
    /// order.
    pub fn drain_into(&mut self, slot: usize, out: &mut Vec<(u32, u32)>) {
        out.clear();
        let w = self.window();
        std::mem::swap(&mut self.buckets[slot % w], out);
        self.buckets[slot % w].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_delivery_is_clamped_to_delta() {
        let mut ring = DeliveryRing::new(2, 2, 10);
        let mut out = Vec::new();
        ring.schedule_honest(3, 9, 0, 7); // clamped to 5
        ring.drain_into(4, &mut out);
        assert!(out.is_empty());
        ring.drain_into(5, &mut out);
        assert_eq!(out, vec![(0, 7)]);
        ring.schedule_honest(6, 1, 1, 8); // clamped up to broadcast slot
        ring.drain_into(6, &mut out);
        assert_eq!(out, vec![(1, 8)]);
    }

    #[test]
    fn adversarial_outside_window_or_horizon() {
        let mut ring = DeliveryRing::new(0, 4, 5);
        let mut out = Vec::new();
        ring.schedule_adversarial(2, 1, 0, 1); // past: dropped
        ring.schedule_adversarial(2, 9, 0, 2); // beyond horizon: dropped
        ring.schedule_adversarial(2, 5, 0, 3);
        for t in 2..5 {
            ring.drain_into(t, &mut out);
            assert!(out.is_empty(), "slot {t}");
        }
        ring.drain_into(5, &mut out);
        assert_eq!(out, vec![(0, 3)]);

        // Δ = 2 and lookahead 2: a window of 3, so offset 2 is the last
        // schedulable one and offset 3 panics.
        let mut ring = DeliveryRing::new(2, 2, 100);
        assert_eq!(ring.window(), 3);
        ring.schedule_adversarial(10, 12, 0, 1);
        let overflow = std::panic::catch_unwind(move || ring.schedule_adversarial(10, 13, 0, 2));
        let message = overflow.expect_err("offset 3 lies outside the window");
        let message = message
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            message.contains("raise the strategy's lookahead"),
            "{message}"
        );
    }

    #[test]
    fn order_is_preserved_and_buckets_are_reused() {
        let mut ring = DeliveryRing::new(1, 1, 20);
        let mut out = Vec::new();
        ring.schedule_adversarial(3, 3, 0, 1); // rushing: injected first
        ring.schedule_honest(3, 3, 0, 2);
        ring.drain_into(3, &mut out);
        assert_eq!(out, vec![(0, 1), (0, 2)]);
        // One window later, the same bucket serves a new slot cleanly.
        ring.schedule_honest(5, 5, 1, 9);
        ring.drain_into(4, &mut out);
        assert!(out.is_empty());
        ring.drain_into(5, &mut out);
        assert_eq!(out, vec![(1, 9)]);
    }

    #[test]
    fn broadcasts_drain_as_tagged_entries() {
        let mut ring = DeliveryRing::new(2, 2, 10);
        let mut out = Vec::new();
        // Clamped like the per-recipient form, one entry per broadcast.
        ring.schedule_honest_all(3, 9, 4, 7);
        ring.drain_into(5, &mut out);
        assert_eq!(out, vec![(ALL, 7)]);
        // Beyond the horizon: dropped like the per-recipient form.
        ring.schedule_adversarial_all(9, 11, 4, 8);
        ring.drain_into(10, &mut out);
        assert!(out.is_empty());

        // A mixed bucket keeps the scheduling order of every entry.
        ring.schedule_honest_all(6, 6, 4, 1);
        ring.schedule_honest(6, 6, 2, 2);
        ring.schedule_adversarial_all(6, 6, 4, 3);
        ring.drain_into(6, &mut out);
        assert_eq!(out, vec![(ALL, 1), (2, 2), (ALL, 3)]);
        assert!(ring.is_idle());
        expand_broadcasts(&mut out, 4);
        let per_recipient: Vec<(u32, u32)> = (0..4)
            .map(|r| (r, 1))
            .chain([(2, 2)])
            .chain((0..4).map(|r| (r, 3)))
            .collect();
        assert_eq!(out, per_recipient);
        // Expanding a list without broadcasts changes nothing.
        expand_broadcasts(&mut out, 4);
        assert_eq!(out, per_recipient);
        let mut single = vec![(ALL, 5)];
        expand_broadcasts(&mut single, 1);
        assert_eq!(single, vec![(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "raise the strategy's lookahead")]
    fn window_overflow_panics() {
        let mut ring = DeliveryRing::new(1, 1, 100);
        ring.schedule_adversarial(3, 8, 0, 1);
    }
}
