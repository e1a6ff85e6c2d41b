//! `OrientNode::round` allocates nothing: over whole solves, no allocation
//! is made inside `round`, including the grant rounds in which requests
//! arrive. The node's port states live in the simulator's port slab, and
//! the requester it grants to is picked while it reads the inbox.
//!
//! The counting allocator counts per thread, and the sequential executor
//! steps every node on the calling thread, so the count is exact even while
//! the test runner's other threads allocate.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use td_graph::gen::classic::{petersen, star, torus};
use td_graph::gen::random::gnm;
use td_local::{Inbox, NodeInit, Outbox, PortProtocol, RoundCtx, Simulator, Status};
use td_orient::protocol::{OrientInput, OrientMsg, OrientNode, OrientOutput, PortState};
use td_orient::{solve_stable_orientation, PhaseConfig};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the ones made inside `OrientNode::round`.
    static ROUND_ALLOCS: Cell<u64> = const { Cell::new(0) };
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

/// The orientation node program, with the allocations of each round counted.
struct Counted(OrientNode);

impl PortProtocol for Counted {
    type Input = OrientInput;
    type Message = OrientMsg;
    type Output = OrientOutput;
    type Port = PortState;

    fn init(node: NodeInit<'_, OrientInput>, ports: &mut [PortState]) -> Self {
        Counted(OrientNode::init(node, ports))
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        ports: &mut [PortState],
        inbox: &Inbox<'_, OrientMsg>,
        outbox: &mut Outbox<'_, '_, OrientMsg>,
    ) -> Status {
        let before = ALLOCS.get();
        let status = self.0.round(ctx, ports, inbox, outbox);
        ROUND_ALLOCS.set(ROUND_ALLOCS.get() + ALLOCS.get() - before);
        status
    }

    fn finish(self, ports: &[PortState]) -> OrientOutput {
        self.0.finish(ports)
    }
}

#[test]
fn round_allocates_nothing() {
    let mut rng = SmallRng::seed_from_u64(11);
    let graphs = [
        petersen(),
        star(5),
        torus(6, 6),
        gnm(24, 48, &mut rng),
        gnm(30, 45, &mut rng),
    ];
    let mut moves = 0;
    for (k, g) in graphs.iter().enumerate() {
        ROUND_ALLOCS.set(0);
        let delta = g.max_degree() as u32;
        let inputs = vec![OrientInput { delta }; g.num_nodes()];
        let out = Simulator::sequential().run::<Counted>(g, &inputs);
        assert!(out.completed, "graph {k}");
        assert_eq!(
            ROUND_ALLOCS.get(),
            0,
            "graph {k}: allocations inside round()"
        );
        // The protocol moves the tokens `solve_stable_orientation` moves,
        // each by a request and its grant.
        let lockstep = solve_stable_orientation(g, PhaseConfig::default());
        moves += lockstep.stats.iter().map(|s| s.td_moves).sum::<usize>();
    }
    assert!(moves > 0, "no token moved, so no request was sent");
}
