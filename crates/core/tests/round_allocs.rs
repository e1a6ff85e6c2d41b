//! `ProposalNode::round` allocates nothing per node-round except the pushes
//! onto its record of grants sent: over a whole solve, the allocations made
//! inside `round` never outnumber the grants.
//!
//! The counting allocator counts per thread, and the sequential executor
//! steps every node on the calling thread, so the count is exact even while
//! the test runner's other threads allocate.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use td_core::proposal::{self, Msg, NodeOutput, ProposalNode, TokenInput};
use td_core::TokenGame;
use td_local::{Inbox, NodeInit, Outbox, Protocol, RoundCtx, Simulator, Status};

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the ones made inside `ProposalNode::round`.
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

/// The proposal node program, with the allocations of each round counted.
struct Counted(ProposalNode);

impl Protocol for Counted {
    type Input = TokenInput;
    type Message = Msg;
    type Output = NodeOutput;

    fn init(node: NodeInit<'_, TokenInput>) -> Self {
        Counted(ProposalNode::init(node))
    }

    fn round(
        &mut self,
        ctx: &RoundCtx,
        inbox: &Inbox<'_, Msg>,
        outbox: &mut Outbox<'_, '_, Msg>,
    ) -> Status {
        let before = ALLOCS.get();
        let status = self.0.round(ctx, inbox, outbox);
        ROUND_ALLOCS.set(ROUND_ALLOCS.get() + ALLOCS.get() - before);
        status
    }

    fn finish(self) -> NodeOutput {
        self.0.finish()
    }
}

#[test]
fn round_allocates_only_for_its_grant_record() {
    let mut rng = SmallRng::seed_from_u64(5);
    let games = [
        TokenGame::figure2(),
        TokenGame::contention_comb(9),
        TokenGame::waterfall(6, 5),
        TokenGame::random(&[40; 6], 4, 0.5, &mut rng),
    ];
    for (k, game) in games.iter().enumerate() {
        ROUND_ALLOCS.set(0);
        let out = Simulator::sequential().run::<Counted>(game.graph(), &proposal::inputs(game));
        assert!(out.completed, "game {k}");
        let grants: usize = out.outputs.iter().map(|o| o.grants_sent.len()).sum();
        assert!(grants > 0, "game {k}: no token moved");
        let in_round = ROUND_ALLOCS.get();
        assert!(
            in_round <= grants as u64,
            "game {k}: {in_round} allocations inside round() for {grants} grants"
        );
    }
}
