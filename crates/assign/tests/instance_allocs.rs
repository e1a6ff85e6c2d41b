//! `AssignmentInstance::from_bipartite_graph` copies the graph's sorted
//! customer rows straight into the instance: it allocates a constant number
//! of times, whatever the number of customers.
//!
//! The counting allocator counts per thread, so the counts are exact even
//! while the test runner's other threads allocate.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use td_assign::AssignmentInstance;
use td_graph::gen::random::random_bipartite;

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

/// Runs `f` and counts the allocations it makes on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn from_bipartite_graph_allocates_a_constant_number_of_times() {
    for customers in [64usize, 2_048] {
        let servers = customers / 2;
        let mut rng = SmallRng::seed_from_u64(customers as u64);
        let g = random_bipartite(customers, servers, 1..=4, &mut rng);
        let (inst, allocs) = counted(|| AssignmentInstance::from_bipartite_graph(&g, customers));
        assert_eq!(inst.num_customers(), customers);
        assert_eq!(inst.num_servers(), servers);
        assert!(
            allocs <= 2,
            "{customers} customers: from_bipartite_graph allocated {allocs} times"
        );
    }
}
