//! `GraphBuilder::build` and `random_layered` allocate a constant number of
//! times, whatever the graph's size: the build sorts each adjacency row in
//! place and derives mirrors through one cursor per node, and the layered
//! generator reuses one pick list for every node.
//!
//! The counting allocator counts per thread, so the counts are exact even
//! while the test runner's other threads allocate.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use td_graph::gen::structured::random_layered;
use td_graph::{GraphBuilder, NodeId};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most allocations either call may make, at any size.
const MAX_ALLOCS: u64 = 32;

/// Runs `f` and counts the allocations it makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn build_allocates_a_constant_number_of_times() {
    for n in [1_000usize, 64_000] {
        let m = 3 * n;
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let mut b = GraphBuilder::with_capacity(n, m);
        while b.num_edges() < m {
            let u = NodeId(rng.gen_range(0..n as u32));
            let v = NodeId(rng.gen_range(0..n as u32));
            if u != v {
                b.add_edge_if_absent(u, v).unwrap();
            }
        }
        let (g, allocs) = counted(|| b.build().unwrap());
        assert_eq!((g.num_nodes(), g.num_edges()), (n, m));
        assert!(
            allocs <= MAX_ALLOCS,
            "n = {n}: build allocated {allocs} times"
        );
    }
}

#[test]
fn random_layered_allocates_a_constant_number_of_times() {
    // Five levels: 1,000 and 64,000 nodes.
    for width in [200usize, 12_800] {
        let widths = vec![width; 5];
        let mut rng = SmallRng::seed_from_u64(width as u64);
        let ((g, levels), allocs) = counted(|| random_layered(&widths, 3, &mut rng));
        assert_eq!((g.num_nodes(), g.num_edges()), (5 * width, 4 * 3 * width));
        assert_eq!(levels.len(), 5 * width);
        assert!(
            allocs <= MAX_ALLOCS,
            "width {width}: random_layered allocated {allocs} times"
        );
    }
}
