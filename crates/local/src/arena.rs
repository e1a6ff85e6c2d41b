//! The message plane: a double-buffered, stamp-validated **flat arena**.
//!
//! One arena slot exists per *directed* edge slot of the CSR graph (the slot
//! of `(receiver, port)`, i.e. one per `EdgeId` per direction), so a node's
//! inbox is a contiguous run of slots. The arena is allocated once and then
//! kept: a [`crate::ChurnSim`] keeps its own for its whole life, and
//! [`crate::Simulator`] keeps one per thread and protocol type from one run
//! to the next, growing it only when a run's network has more slots. The
//! hot loop performs **zero message allocations**: sending overwrites the
//! slot's payload in place, and "delivering" a round's messages is a
//! logical **buffer swap** — a parity flip selecting which of the two
//! buffers is read and which is written, moving no data.
//!
//! ## Layout
//!
//! Each slot is a bare `(stamp, payload)` pair — **no `Option`**. The
//! payload is always initialized (`M: Default` seeds the arena) and validity
//! is tracked *only* by the stamp: a slot's content counts as a message for
//! round `r` iff its stamp equals `r`. This removes the `Option`
//! discriminant write from the send path and the discriminant branch from
//! the receive path, keeps stamp and payload on the same cache line, and
//! avoids an O(m) clear every round — crucial when round counts reach Θ(Δ⁴)
//! on small graphs.
//!
//! ## Stamps across runs
//!
//! A slot's stamp is the arena's *base* plus the round it is addressed to.
//! The base is 0 for a churn plane, whose round counter never goes back. A
//! one-shot run restarts its round numbers at 0, so
//! [`MessageArena::restart`] moves the base above every stamp the arena
//! holds: what earlier runs left behind is stale without a clear pass. Only
//! when the base would run into the reserved [`STAMP_EMPTY`] stamp are the
//! slots cleared and the base reset to 0.
//!
//! ## One writer per slot
//!
//! The two buffers are plain `Vec`s. [`MessageArena::epoch`] borrows the
//! arena mutably and splits it into a shared [`ArenaReader`] over the
//! buffer read in the round and an exclusive [`ArenaWriter`] over the
//! buffer written for the next one, so the borrow checker proves that a
//! round's writes never touch the messages it reads. Every node stepped in
//! the round sends through a reborrow of that one writer, which stays the
//! only way to write. Which node writes a slot is fixed by the port
//! numbering: the slot of `(receiver, port)` is written only by the
//! neighbor behind that port, so the order the loop steps nodes in cannot
//! change what a round delivers.

use td_graph::CsrGraph;

/// Stamp value meaning "never written". Rounds are capped strictly below
/// `u32::MAX - 1` (the simulator asserts this), and a run's base plus its
/// round cap stays below that too ([`MessageArena::restart`]), so no live
/// stamp collides.
pub const STAMP_EMPTY: u32 = u32::MAX;

/// One message slot: the round the payload is addressed to, plus the payload
/// itself (always initialized; meaningful only when the stamp matches).
pub struct Slot<M> {
    pub(crate) stamp: u32,
    pub(crate) msg: M,
}

impl<M: Default> Slot<M> {
    /// A never-written slot.
    fn empty() -> Self {
        Slot {
            stamp: STAMP_EMPTY,
            msg: M::default(),
        }
    }
}

impl<M> Slot<M> {
    /// The payload, if it is a message for round `stamp`.
    #[inline(always)]
    pub(crate) fn addressed_to(&self, stamp: u32) -> Option<&M> {
        (self.stamp == stamp).then_some(&self.msg)
    }
}

/// The double-buffered flat message arena of one simulation.
///
/// Allocated once (two buffers of `num_slots` slots each); reused across
/// every round, and across runs. `bufs[stamp % 2]` is the buffer *read* in
/// the round whose stamp is `stamp` (written during the round before).
///
/// ```
/// use td_local::arena::MessageArena;
/// use td_graph::gen::classic::path;
///
/// let g = path(4); // 3 edges -> 6 directed slots, one per (receiver, port)
/// let mut arena: MessageArena<u64> = MessageArena::for_graph(&g);
/// assert_eq!(arena.num_slots(), 6);
/// // Advancing the round is the whole delivery step: `epoch` hands out the
/// // read view of the previous round's writes and the write view of the
/// // next round's — a parity flip, no data moves.
/// let (_reader, _writer) = arena.epoch(0);
/// ```
pub struct MessageArena<M> {
    bufs: [Vec<Slot<M>>; 2],
    /// Added to a round number to make its stamp.
    base: u32,
    /// Every stamp the arena holds is below this, or [`STAMP_EMPTY`].
    fresh: u32,
}

impl<M: Default> MessageArena<M> {
    /// An arena with `slots` directed-edge slots per buffer.
    pub fn with_slots(slots: usize) -> Self {
        let buf = || (0..slots).map(|_| Slot::empty()).collect();
        MessageArena {
            bufs: [buf(), buf()],
            base: 0,
            fresh: 0,
        }
    }

    /// An arena sized for `graph` (one slot per directed edge slot).
    pub fn for_graph(graph: &CsrGraph) -> Self {
        Self::with_slots(graph.num_slots())
    }

    /// Number of slots per buffer.
    pub fn num_slots(&self) -> usize {
        self.bufs[0].len()
    }

    /// Resizes the arena to `slots` slots per buffer, keeping the buffers'
    /// allocations: kept slots keep their contents, new ones start
    /// never-written. The churn plane re-lays its arena this way when
    /// membership changes the network under a quiescent simulation: slot
    /// indices move, but every kept stamp is stale as long as the round
    /// counter only moves forward.
    pub fn resize(&mut self, slots: usize) {
        for buf in &mut self.bufs {
            buf.resize_with(slots, Slot::empty);
        }
    }

    /// [`MessageArena::resize`], then clears every slot to the
    /// never-written state [`MessageArena::with_slots`] starts from, with
    /// base 0.
    pub fn reset(&mut self, slots: usize) {
        self.resize(slots);
        for buf in &mut self.bufs {
            buf.fill_with(Slot::empty);
        }
        self.base = 0;
        self.fresh = 0;
    }

    /// Readies a kept arena for a new run of at most `max_rounds` rounds,
    /// numbered from 0, on `slots` slots per buffer: it is
    /// [`MessageArena::resize`]d, and its base moves above every stamp it
    /// holds, so no slot reads as a message before the new run writes it.
    /// Only when that base plus `max_rounds` would reach `STAMP_EMPTY - 1`,
    /// past the stamps a run may use, is the arena [`MessageArena::reset`]
    /// instead.
    pub fn restart(&mut self, slots: usize, max_rounds: u32) {
        if u64::from(self.fresh) + u64::from(max_rounds) >= u64::from(STAMP_EMPTY - 1) {
            self.reset(slots);
        } else {
            self.resize(slots);
            self.base = self.fresh;
        }
    }

    /// Rebases the arena's stamps so a long-lived simulation can reset its
    /// monotonic round counter without losing in-flight messages.
    ///
    /// Messages addressed to round `live_round` (stamped `live_round`, in
    /// the buffer read at that round) are re-stamped to `new_round`; every
    /// other slot — necessarily stale — is cleared to [`STAMP_EMPTY`]. The
    /// caller then continues running from `new_round`, which must have the
    /// same parity as `live_round` so the preserved messages stay in the
    /// buffer the next epoch reads.
    ///
    /// This is the wraparound escape hatch for persistent executors (the
    /// churn plane's round counter is monotonic across repairs, so a daemon
    /// that never rebuilds its arena would eventually collide with the
    /// reserved [`STAMP_EMPTY`] stamp): an O(slots) scrub, amortized over
    /// the billions of rounds between renormalizations.
    pub fn renormalize(&mut self, live_round: u32, new_round: u32) {
        assert_eq!(
            live_round % 2,
            new_round % 2,
            "renormalization must preserve buffer parity"
        );
        let live_buf = (live_round % 2) as usize;
        for (b, buf) in self.bufs.iter_mut().enumerate() {
            for slot in buf {
                slot.stamp = if b == live_buf && slot.stamp == live_round {
                    new_round
                } else {
                    STAMP_EMPTY
                };
            }
        }
    }

    /// The read/write views of round `round`. This *is* the buffer swap:
    /// advancing the round flips which buffer is read and which is written —
    /// no data moves, no clear pass runs.
    #[inline(always)]
    pub fn epoch(&mut self, round: u32) -> (ArenaReader<'_, M>, ArenaWriter<'_, M>) {
        let stamp = self.base + round;
        self.fresh = self.fresh.max(stamp + 2);
        let [even, odd] = &mut self.bufs;
        let (read, write) = if stamp.is_multiple_of(2) {
            (even, odd)
        } else {
            (odd, even)
        };
        (
            ArenaReader { slots: read, stamp },
            ArenaWriter {
                slots: write,
                stamp: stamp + 1,
            },
        )
    }
}

/// Read view of the buffer delivered in one round.
pub struct ArenaReader<'a, M> {
    slots: &'a [Slot<M>],
    /// Messages are valid iff their slot stamp equals this round.
    stamp: u32,
}

/// Write view of the buffer being filled for the next round.
pub struct ArenaWriter<'a, M> {
    slots: &'a mut [Slot<M>],
    /// Stamp published with every write: the round the message arrives in.
    stamp: u32,
}

impl<'a, M> ArenaReader<'a, M> {
    /// The contiguous slot run `[base, base + len)` — a node's inbox row.
    #[inline(always)]
    pub(crate) fn row(&self, base: usize, len: usize) -> &'a [Slot<M>] {
        &self.slots[base..base + len]
    }

    /// The round whose messages this view exposes.
    #[inline(always)]
    pub(crate) fn stamp(&self) -> u32 {
        self.stamp
    }
}

impl<M> ArenaWriter<'_, M> {
    /// A writer over the same buffer for a shorter borrow: the stepping
    /// loops hand one to each node's outbox.
    #[inline(always)]
    pub(crate) fn reborrow(&mut self) -> ArenaWriter<'_, M> {
        ArenaWriter {
            slots: self.slots,
            stamp: self.stamp,
        }
    }

    /// Writes `msg` into `slot` in place and publishes its stamp.
    #[inline(always)]
    pub(crate) fn write(&mut self, slot: usize, msg: M) {
        self.slots[slot] = Slot {
            stamp: self.stamp,
            msg,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message in `slot` of `r`'s buffer, if one was sent for its round.
    pub(super) fn get<'a, M>(r: &ArenaReader<'a, M>, slot: usize) -> Option<&'a M> {
        r.slots[slot].addressed_to(r.stamp)
    }

    #[test]
    fn epoch_alternates_buffers() {
        let mut arena: MessageArena<u8> = MessageArena::with_slots(3);
        let (r0, w0) = arena.epoch(0);
        let (r0, w0) = (r0.slots.as_ptr(), w0.slots.as_ptr());
        let (r1, w1) = arena.epoch(1);
        let (r1, w1) = (r1.slots.as_ptr(), w1.slots.as_ptr());
        // What is written in round 0 is read in round 1, and vice versa.
        assert!(std::ptr::eq(w0, r1));
        assert!(std::ptr::eq(w1, r0));
        assert!(!std::ptr::eq(r0, r1));
    }

    #[test]
    fn stamp_gates_delivery() {
        let mut arena: MessageArena<u16> = MessageArena::with_slots(4);
        // Send in round 0 (stamped 1): visible in round 1, gone in round 3.
        let (_, mut w) = arena.epoch(0);
        w.write(2, 99);
        let (r, _) = arena.epoch(1);
        assert_eq!(get(&r, 2), Some(&99));
        assert_eq!(get(&r, 1), None);
        // Round 3 reads the same physical buffer, but the stamp is stale.
        let (r3, _) = arena.epoch(3);
        assert_eq!(get(&r3, 2), None);
    }

    #[test]
    fn overwrite_in_same_round_keeps_last() {
        let mut arena: MessageArena<u64> = MessageArena::with_slots(2);
        let (_, mut w) = arena.epoch(0);
        w.write(0, 1);
        w.write(0, 2);
        let (r, _) = arena.epoch(1);
        assert_eq!(get(&r, 0), Some(&2));
    }

    #[test]
    fn row_matches_get() {
        let mut arena: MessageArena<u8> = MessageArena::with_slots(5);
        let (_, mut w) = arena.epoch(6);
        w.write(1, 10);
        w.write(3, 30);
        let (r, _) = arena.epoch(7);
        let row = r.row(0, 5);
        let hits: Vec<(usize, u8)> = row
            .iter()
            .enumerate()
            .filter(|(_, s)| s.stamp == r.stamp())
            .map(|(i, s)| (i, s.msg))
            .collect();
        assert_eq!(hits, vec![(1, 10), (3, 30)]);
    }

    #[test]
    fn renormalize_preserves_in_flight_and_clears_stale() {
        let mut arena: MessageArena<u16> = MessageArena::with_slots(4);
        // A stale message from an old round…
        let (_, mut w) = arena.epoch(96);
        w.write(0, 11);
        // …and an in-flight one addressed to round 101 (written in 100).
        let (_, mut w) = arena.epoch(100);
        w.write(2, 77);
        // Rebase round 101 -> 1 (same parity).
        arena.renormalize(101, 1);
        let (r, _) = arena.epoch(1);
        assert_eq!(get(&r, 2), Some(&77), "in-flight message survives");
        assert_eq!(get(&r, 0), None, "stale slot cleared");
        // The stale slot must not resurface at its old stamp either.
        let (r97, _) = arena.epoch(97);
        assert_eq!(get(&r97, 0), None);
    }

    #[test]
    #[should_panic(expected = "parity")]
    fn renormalize_rejects_parity_flip() {
        let mut arena: MessageArena<u8> = MessageArena::with_slots(1);
        arena.renormalize(5, 0);
    }

    #[test]
    fn resize_keeps_slots_and_reset_clears_them() {
        let mut arena: MessageArena<u16> = MessageArena::with_slots(4);
        let (_, mut w) = arena.epoch(6);
        w.write(1, 9);
        arena.resize(6);
        assert_eq!(arena.num_slots(), 6);
        let (r, _) = arena.epoch(7);
        assert_eq!(get(&r, 1), Some(&9), "kept slot keeps its message");
        assert_eq!(get(&r, 5), None, "new slot starts empty");
        for slots in [6, 2] {
            arena.reset(slots);
            assert_eq!(arena.num_slots(), slots);
            for round in 0..8 {
                let (r, _) = arena.epoch(round);
                for s in 0..slots {
                    assert_eq!(get(&r, s), None, "round {round} slot {s}");
                }
            }
        }
    }

    /// A restarted arena shows none of an earlier run's messages, without
    /// a clear, and delivers the new run's as before.
    #[test]
    fn restart_moves_the_base_past_every_stamp() {
        let mut arena: MessageArena<u16> = MessageArena::with_slots(3);
        for round in 0..3 {
            let (_, mut w) = arena.epoch(round);
            w.write(round as usize, 7);
        }
        arena.restart(4, 100);
        assert_eq!((arena.num_slots(), arena.base), (4, 4));
        for round in 0..8 {
            let (r, _) = arena.epoch(round);
            for slot in 0..4 {
                assert_eq!(get(&r, slot), None, "round {round} slot {slot}");
            }
        }
        let (_, mut w) = arena.epoch(8);
        w.write(1, 5);
        let (r, _) = arena.epoch(9);
        assert_eq!(get(&r, 1), Some(&5));
        assert_eq!(get(&r, 0), None);
    }

    /// Where the base plus the next run's round cap would reach the last
    /// stamps before [`STAMP_EMPTY`], the restart clears the arena and
    /// starts over at base 0; one round less, and it moves the base.
    #[test]
    fn restart_near_the_reserved_stamp_clears() {
        let mut arena: MessageArena<u8> = MessageArena::with_slots(2);
        let (_, mut w) = arena.epoch(0);
        w.write(0, 1);
        // Every stamp is below 2 now.
        arena.restart(2, u32::MAX - 4);
        assert_eq!(arena.base, 2, "2 + (u32::MAX - 4) stays below u32::MAX - 1");
        let (_, mut w) = arena.epoch(0);
        w.write(1, 2);
        arena.restart(2, u32::MAX - 4);
        assert_eq!(arena.base, 0, "4 + (u32::MAX - 4) reaches u32::MAX - 1");
        for round in 0..4 {
            let (r, _) = arena.epoch(round);
            assert_eq!((get(&r, 0), get(&r, 1)), (None, None), "round {round}");
        }
    }

    #[test]
    fn sized_for_graph() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let arena: MessageArena<u8> = MessageArena::for_graph(&g);
        assert_eq!(arena.num_slots(), 4);
    }
}

/// Property tests: the arena under random send/deliver/flip interleavings
/// must behave exactly like the naive `Vec<Option<Msg>>` mailbox design it
/// replaced — one cleared-every-round option per slot — even though the
/// arena never clears anything and tracks validity only through stamps.
#[cfg(test)]
mod prop_tests {
    use super::tests::get;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of sends and epoch flips: every read agrees
        /// with the `Vec<Option<M>>` model, so (a) a slot not written for
        /// the current round is *never* read (no stale stamps leak through
        /// the parity flip, even after idle rounds), and (b) same-round
        /// overwrites keep the last payload.
        #[test]
        fn matches_vec_option_model(
            seed in 0u64..1_000_000,
            slots in 1usize..24,
            rounds in 1u32..48,
            density in 0.0f64..1.0,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut arena: MessageArena<u64> = MessageArena::with_slots(slots);
            // Messages written during the previous round, i.e. what the
            // model delivers this round. The model clears every round; the
            // arena must match without ever clearing.
            let mut inflight: Vec<Option<u64>> = vec![None; slots];
            for r in 0..rounds {
                let (reader, mut writer) = arena.epoch(r);
                for (s, expect) in inflight.iter().enumerate() {
                    prop_assert_eq!(get(&reader, s).copied(), *expect,
                        "round {} slot {}", r, s);
                }
                // The row view must agree with per-slot gets.
                let row = reader.row(0, slots);
                for (s, slot) in row.iter().enumerate() {
                    let via_row = (slot.stamp == reader.stamp()).then_some(slot.msg);
                    prop_assert_eq!(via_row, inflight[s], "row round {} slot {}", r, s);
                }
                // Random sends for the next round; some rounds send nothing
                // at all (a pure flip), some slots twice (overwrite).
                let mut next: Vec<Option<u64>> = vec![None; slots];
                if rng.gen_bool(0.85) {
                    for (s, model) in next.iter_mut().enumerate() {
                        for _ in 0..2 {
                            if rng.gen_bool(density) {
                                let val: u64 = rng.gen();
                                writer.write(s, val);
                                *model = Some(val);
                            }
                        }
                    }
                }
                inflight = next;
            }
        }

        /// Double-buffer parity: writes of round `r` are invisible to round
        /// `r`'s reader (they land in the other buffer) and visible exactly
        /// once, in round `r + 1`.
        #[test]
        fn writes_never_visible_in_their_own_round(
            seed in 0u64..1_000_000,
            slots in 1usize..16,
            start in 0u32..64,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut arena: MessageArena<u32> = MessageArena::with_slots(slots);
            let slot = rng.gen_range(0..slots);
            let (reader, mut writer) = arena.epoch(start);
            let before = get(&reader, slot).copied();
            writer.write(slot, 7);
            // Same epoch, same reader: the write went to the other buffer.
            prop_assert_eq!(get(&reader, slot).copied(), before);
            let (r1, _) = arena.epoch(start + 1);
            prop_assert_eq!(get(&r1, slot).copied(), Some(7));
            // Two flips later the stamp is stale again.
            let (r3, _) = arena.epoch(start + 3);
            prop_assert_eq!(get(&r3, slot).copied(), None);
        }
    }
}
