//! A shared-slice cell for provably disjoint writes through `&self`.
//!
//! The message arena hands out a read view of one buffer and a write view
//! of the other for the same round, both borrowed from `&self`, and the
//! write view is used by every node stepped in that round. The structural
//! guarantee that makes this sound: the arena slot for `(receiver, port)`
//! is written only by the unique neighbor sitting at the other end of that
//! port, so within one round **every message slot has at most one writer**
//! and no reader (reads happen on the *other* buffer of the double-buffered
//! [`crate::arena`]). [`DisjointSlots`] encapsulates the `unsafe` needed to
//! exploit this: plain writes through a shared reference.
//!
//! The contract is the standard "disjoint index sets" one of parallel graph
//! kernels, so it also holds across threads (the type is `Sync`), although
//! every executor of this crate steps its nodes on the calling thread.

use std::cell::UnsafeCell;

/// A fixed-size buffer allowing writes to *disjoint* indices through a
/// shared reference, plus exclusive access for the owner.
///
/// # Safety contract
///
/// * [`DisjointSlots::write`] may be called through shared references
///   **only if** no two calls in the same epoch target the same index while
///   a reference to that index is alive, and no call overlaps a read of the
///   same index. Epochs (one round of the arena) must be separated by a
///   happens-before edge; on one thread, program order is that edge.
pub struct DisjointSlots<T> {
    slots: Vec<UnsafeCell<T>>,
}

// SAFETY: `DisjointSlots` hands out access only through `write` (whose
// caller contract forbids aliasing, see above) and through `&mut self`
// methods. `T: Send` suffices because values only move between threads,
// they are never referenced concurrently.
unsafe impl<T: Send> Sync for DisjointSlots<T> {}

impl<T> DisjointSlots<T> {
    /// Creates a buffer of `len` slots built by `init(i)`.
    pub fn new_with(len: usize, mut init: impl FnMut(usize) -> T) -> Self {
        let slots: Vec<UnsafeCell<T>> = (0..len).map(|i| UnsafeCell::new(init(i))).collect();
        DisjointSlots { slots }
    }

    /// Resizes to `len` slots, filling new ones with `init()`; like
    /// [`Vec::resize_with`], it keeps the allocation when shrinking or
    /// regrowing within capacity (no unsafety: `&mut self`).
    pub fn resize_with(&mut self, len: usize, mut init: impl FnMut() -> T) {
        self.slots.resize_with(len, || UnsafeCell::new(init()));
    }

    /// Number of slots.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Writes `value` into slot `idx` through a shared reference.
    ///
    /// # Safety
    /// `idx < len()` (checked only in debug builds), and within the current
    /// synchronization epoch no other thread may access slot `idx` (read or
    /// write). See the type-level contract.
    #[inline(always)]
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.slots.len());
        *self.slots[idx].get() = value;
    }

    /// Reads slot `idx` through a shared reference.
    ///
    /// # Safety
    /// `idx < len()` (checked only in debug builds), and within the current
    /// synchronization epoch no thread may *write* slot `idx`. Concurrent
    /// reads are fine.
    #[inline(always)]
    pub unsafe fn read(&self, idx: usize) -> &T {
        debug_assert!(idx < self.slots.len());
        &*self.slots[idx].get()
    }

    /// Shared view of the contiguous subrange `[start, start + len)`.
    ///
    /// # Safety
    /// `start + len <= len()` — the range must be in bounds; this is checked
    /// only in debug builds, and an out-of-range span in release is
    /// immediate undefined behavior. Additionally, no thread may *write* any
    /// slot in the range while the returned slice is alive. Concurrent reads
    /// are fine.
    #[inline(always)]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &[T] {
        debug_assert!(start + len <= self.slots.len());
        let base = self.slots.as_ptr() as *const T;
        std::slice::from_raw_parts(base.add(start), len)
    }

    /// Exclusive view of the whole buffer (no unsafety: `&mut self`).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: exclusive borrow of self gives exclusive access to all cells.
        unsafe { &mut *(self.slots.as_mut_slice() as *mut [UnsafeCell<T>] as *mut [T]) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_roundtrip() {
        let mut s = DisjointSlots::new_with(4, |i| i as u64);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        // SAFETY: single thread, no concurrent access.
        unsafe {
            s.write(2, 99);
            assert_eq!(*s.read(2), 99);
        }
        assert_eq!(s.as_mut_slice(), &mut [0, 1, 99, 3]);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let n = 10_000;
        let s = DisjointSlots::new_with(n, |_| 0usize);
        let nthreads = 4;
        crossbeam::thread::scope(|scope| {
            for t in 0..nthreads {
                let s = &s;
                scope.spawn(move |_| {
                    // Thread t owns indices ≡ t (mod nthreads): disjoint.
                    for i in (t..n).step_by(nthreads) {
                        // SAFETY: index sets are disjoint across threads and
                        // nothing reads during this scope.
                        unsafe { s.write(i, i * 2 + 1) };
                    }
                });
            }
        })
        .unwrap();
        let mut s = s;
        let slice = s.as_mut_slice();
        for (i, &v) in slice.iter().enumerate() {
            assert_eq!(v, i * 2 + 1);
        }
    }

    #[test]
    fn subslice_view() {
        let s = DisjointSlots::new_with(6, |i| i as u32 * 10);
        // SAFETY: no writers exist.
        let mid = unsafe { s.slice(2, 3) };
        assert_eq!(mid, &[20, 30, 40]);
        assert!(unsafe { s.slice(6, 0) }.is_empty());
    }

    #[test]
    fn empty_buffer() {
        let s: DisjointSlots<u8> = DisjointSlots::new_with(0, |_| 0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
