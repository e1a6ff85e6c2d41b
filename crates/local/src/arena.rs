//! The message plane: a double-buffered, stamp-validated **flat arena**.
//!
//! One arena slot exists per *directed* edge slot of the CSR graph (the slot
//! of `(receiver, port)`, i.e. one per `EdgeId` per direction), so a node's
//! inbox is a contiguous run of slots. The arena is allocated **once** per
//! simulation; after that warm-up the hot loop performs **zero message
//! allocations**: sending overwrites the slot's payload in place, and
//! "delivering" a round's messages is a logical **buffer swap** — a parity
//! flip selecting which of the two buffers is read and which is written,
//! moving no data.
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
//! ## Aliasing discipline
//!
//! Every executor steps its nodes on the calling thread, but a round holds
//! the read view of one buffer and the write view of the other at once,
//! both borrowed from the shared arena, and every stepped node writes
//! through the same write view. That is sound because of the structural
//! one-writer-per-slot guarantee spelled out in [`crate::disjoint`]: the
//! slot of `(receiver, port)` is written by exactly one node per round, and
//! nothing reads the write buffer until the next round. The slot array is a
//! [`DisjointSlots`], so the unsafe surface stays in one module.

use crate::disjoint::DisjointSlots;
use td_graph::CsrGraph;

/// Stamp value meaning "never written". Rounds are capped strictly below
/// `u32::MAX - 1` (the simulator asserts this), so no live stamp collides.
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

/// The double-buffered flat message arena of one simulation.
///
/// Allocated once (two buffers of `num_slots` slots each); reused across
/// every round. `bufs[round % 2]` is the buffer *read* in `round` (written
/// during `round - 1`).
///
/// ```
/// use td_local::arena::MessageArena;
/// use td_graph::gen::classic::path;
///
/// let g = path(4); // 3 edges -> 6 directed slots, one per (receiver, port)
/// let arena: MessageArena<u64> = MessageArena::for_graph(&g);
/// assert_eq!(arena.num_slots(), 6);
/// // Advancing the round is the whole delivery step: `epoch` hands out the
/// // read view of the previous round's writes and the write view of the
/// // next round's — a parity flip, no data moves.
/// let (_reader, _writer) = arena.epoch(0);
/// ```
pub struct MessageArena<M> {
    bufs: [DisjointSlots<Slot<M>>; 2],
}

impl<M: Default + Send> MessageArena<M> {
    /// An arena with `slots` directed-edge slots per buffer.
    pub fn with_slots(slots: usize) -> Self {
        let buf = || DisjointSlots::new_with(slots, |_| Slot::empty());
        MessageArena {
            bufs: [buf(), buf()],
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
    /// never-written state [`MessageArena::with_slots`] starts from.
    pub fn reset(&mut self, slots: usize) {
        self.resize(slots);
        for buf in &mut self.bufs {
            buf.as_mut_slice().fill_with(Slot::empty);
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
            for slot in buf.as_mut_slice() {
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
    pub fn epoch(&self, round: u32) -> (ArenaReader<'_, M>, ArenaWriter<'_, M>) {
        (
            ArenaReader {
                slots: &self.bufs[(round % 2) as usize],
                stamp: round,
            },
            ArenaWriter {
                slots: &self.bufs[((round + 1) % 2) as usize],
                stamp: round + 1,
            },
        )
    }
}

/// Read view of the buffer delivered in one round.
pub struct ArenaReader<'a, M> {
    slots: &'a DisjointSlots<Slot<M>>,
    /// Messages are valid iff their slot stamp equals this round.
    stamp: u32,
}

/// Write view of the buffer being filled for the next round.
pub struct ArenaWriter<'a, M> {
    slots: &'a DisjointSlots<Slot<M>>,
    /// Stamp published with every write: the round the message arrives in.
    stamp: u32,
}

// The views are plain (ref, u32) regardless of `M`, so implement Copy by
// hand instead of deriving (derive would demand `M: Copy`).
impl<M> Clone for ArenaReader<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for ArenaReader<'_, M> {}
impl<M> Clone for ArenaWriter<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for ArenaWriter<'_, M> {}

impl<'a, M> ArenaReader<'a, M> {
    /// The message in `slot`, if one was sent for this round.
    ///
    /// # Safety
    /// Nothing may be writing this buffer (the executors guarantee this:
    /// writes go to the other buffer until the round ends).
    #[inline(always)]
    pub(crate) unsafe fn get(&self, slot: usize) -> Option<&'a M> {
        let s = self.slots.read(slot);
        if s.stamp == self.stamp {
            Some(&s.msg)
        } else {
            None
        }
    }

    /// The contiguous slot run `[base, base + len)` — a node's inbox row.
    ///
    /// # Safety
    /// As for [`ArenaReader::get`].
    #[inline(always)]
    pub(crate) unsafe fn row(&self, base: usize, len: usize) -> &'a [Slot<M>] {
        self.slots.slice(base, len)
    }

    /// The round whose messages this view exposes.
    #[inline(always)]
    pub(crate) fn stamp(&self) -> u32 {
        self.stamp
    }
}

impl<M> ArenaWriter<'_, M> {
    /// Writes `msg` into `slot` in place and publishes its stamp.
    ///
    /// # Safety
    /// Within the current round, nothing else may access `slot` in this
    /// buffer. The simulator's one-writer-per-slot discipline (see
    /// [`crate::disjoint`]) provides exactly this.
    #[inline(always)]
    pub(crate) unsafe fn write(&self, slot: usize, msg: M) {
        self.slots.write(
            slot,
            Slot {
                stamp: self.stamp,
                msg,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_alternates_buffers() {
        let arena: MessageArena<u8> = MessageArena::with_slots(3);
        let (r0, w0) = arena.epoch(0);
        let (r1, w1) = arena.epoch(1);
        // What is written in round 0 is read in round 1, and vice versa.
        assert!(std::ptr::eq(w0.slots, r1.slots));
        assert!(std::ptr::eq(w1.slots, r0.slots));
        assert!(!std::ptr::eq(r0.slots, r1.slots));
    }

    #[test]
    fn stamp_gates_delivery() {
        let arena: MessageArena<u16> = MessageArena::with_slots(4);
        // Send in round 0 (stamped 1): visible in round 1, gone in round 3.
        let (_, w) = arena.epoch(0);
        unsafe { w.write(2, 99) };
        let (r, _) = arena.epoch(1);
        unsafe {
            assert_eq!(r.get(2), Some(&99));
            assert_eq!(r.get(1), None);
        }
        // Round 3 reads the same physical buffer, but the stamp is stale.
        let (r3, _) = arena.epoch(3);
        unsafe {
            assert_eq!(r3.get(2), None);
        }
    }

    #[test]
    fn overwrite_in_same_round_keeps_last() {
        let arena: MessageArena<u64> = MessageArena::with_slots(2);
        let (_, w) = arena.epoch(0);
        unsafe {
            w.write(0, 1);
            w.write(0, 2);
        }
        let (r, _) = arena.epoch(1);
        unsafe {
            assert_eq!(r.get(0), Some(&2));
        }
    }

    #[test]
    fn row_matches_get() {
        let arena: MessageArena<u8> = MessageArena::with_slots(5);
        let (_, w) = arena.epoch(6);
        unsafe {
            w.write(1, 10);
            w.write(3, 30);
        }
        let (r, _) = arena.epoch(7);
        let row = unsafe { r.row(0, 5) };
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
        let (_, w) = arena.epoch(96);
        unsafe { w.write(0, 11) };
        // …and an in-flight one addressed to round 101 (written in 100).
        let (_, w) = arena.epoch(100);
        unsafe { w.write(2, 77) };
        // Rebase round 101 -> 1 (same parity).
        arena.renormalize(101, 1);
        let (r, _) = arena.epoch(1);
        unsafe {
            assert_eq!(r.get(2), Some(&77), "in-flight message survives");
            assert_eq!(r.get(0), None, "stale slot cleared");
        }
        // The stale slot must not resurface at its old stamp either.
        let (r97, _) = arena.epoch(97);
        unsafe { assert_eq!(r97.get(0), None) };
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
        let (_, w) = arena.epoch(6);
        unsafe { w.write(1, 9) };
        arena.resize(6);
        assert_eq!(arena.num_slots(), 6);
        let (r, _) = arena.epoch(7);
        unsafe {
            assert_eq!(r.get(1), Some(&9), "kept slot keeps its message");
            assert_eq!(r.get(5), None, "new slot starts empty");
        }
        for slots in [6, 2] {
            arena.reset(slots);
            assert_eq!(arena.num_slots(), slots);
            for round in 0..8 {
                let (r, _) = arena.epoch(round);
                for s in 0..slots {
                    assert_eq!(unsafe { r.get(s) }, None, "round {round} slot {s}");
                }
            }
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
            let arena: MessageArena<u64> = MessageArena::with_slots(slots);
            // Messages written during the previous round, i.e. what the
            // model delivers this round. The model clears every round; the
            // arena must match without ever clearing.
            let mut inflight: Vec<Option<u64>> = vec![None; slots];
            for r in 0..rounds {
                let (reader, writer) = arena.epoch(r);
                for (s, expect) in inflight.iter().enumerate() {
                    prop_assert_eq!(unsafe { reader.get(s) }.copied(), *expect,
                        "round {} slot {}", r, s);
                }
                // The row view must agree with per-slot gets.
                let row = unsafe { reader.row(0, slots) };
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
                                unsafe { writer.write(s, val) };
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
            let arena: MessageArena<u32> = MessageArena::with_slots(slots);
            let slot = rng.gen_range(0..slots);
            let (reader, writer) = arena.epoch(start);
            let before = unsafe { reader.get(slot) }.copied();
            unsafe { writer.write(slot, 7) };
            // Same epoch, same reader: the write went to the other buffer.
            prop_assert_eq!(unsafe { reader.get(slot) }.copied(), before);
            let (r1, _) = arena.epoch(start + 1);
            prop_assert_eq!(unsafe { r1.get(slot) }.copied(), Some(7));
            // Two flips later the stamp is stale again.
            let (r3, _) = arena.epoch(start + 3);
            prop_assert_eq!(unsafe { r3.get(slot) }.copied(), None);
        }
    }
}
