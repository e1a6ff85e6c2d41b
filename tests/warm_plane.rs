//! The warm-run contract of the simulator plane: `Simulator::run` keeps its
//! node states, port slab, message arena and awake list between runs, one
//! plane per thread and protocol type.
//!
//! - A warm run allocates a constant number of times, whatever the size of
//!   its network: none for the run itself, a few for what the host reads
//!   off the finished plane.
//! - A warm run repeats a cold run exactly (outputs, rounds, messages,
//!   work counters and per-round trace), on networks of other shapes than
//!   the run before it, and after a run whose round cap forces the kept
//!   arena to be cleared.
//!
//! The counting allocator counts per thread, and the simulator steps every
//! node on the calling thread, so the counts are exact even while the test
//! runner's other threads allocate. A cold run is made on a new thread,
//! which has no kept plane yet.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use token_dropping::core::proposal::{self, ProposalNode};
use token_dropping::graph::gen::classic::{cycle, petersen};
use token_dropping::local::{ExecPerf, RoundStats};
use token_dropping::orient::protocol::{run_distributed, OrientInput, OrientNode};
use token_dropping::prelude::*;

thread_local! {
    /// Allocations made by this thread.
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

/// Runs `f` twice and counts the allocations the second, warm run makes
/// on this thread.
fn warm_allocs(f: impl Fn()) -> u64 {
    f();
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A layered token game with about `n` nodes on four levels.
fn layered_game(n: usize) -> TokenGame {
    let mut rng = SmallRng::seed_from_u64(n as u64);
    TokenGame::random(&[n / 4; 4], 3, 0.5, &mut rng)
}

/// Warm runs of the proposal and orientation protocols allocate the same
/// few times at 1k and 64k nodes: nothing in the simulator, and only the
/// host's result buffers in the readers.
#[test]
fn warm_runs_allocate_a_constant_number_of_times() {
    let sim = Simulator::sequential();
    let mut counts = Vec::new();
    for n in [1_024usize, 65_536] {
        let game = layered_game(n);
        let inputs = proposal::inputs(&game);
        let bare = warm_allocs(|| {
            let out = sim.run_with::<ProposalNode, _>(game.graph(), &inputs, |_| ());
            assert!(out.completed);
        });
        assert_eq!(bare, 0, "{n} nodes: a warm proposal run allocated");
        let logged = warm_allocs(|| {
            let out = sim.run_with(game.graph(), &inputs, proposal::move_log);
            assert!(!out.outputs.events.is_empty());
        });
        // A perfect matching: Δ = 1 keeps the known-Δ schedule at 108
        // rounds, so 64k nodes stay quick in debug builds.
        let pairs: Vec<(u32, u32)> = (0..n as u32 / 2).map(|i| (2 * i, 2 * i + 1)).collect();
        let g = CsrGraph::from_edges(n, &pairs).unwrap();
        let inputs = vec![OrientInput { delta: 1 }; n];
        let bare = warm_allocs(|| {
            let out = sim.run_with::<OrientNode, _>(&g, &inputs, |_| ());
            assert!(out.completed);
        });
        assert_eq!(bare, 0, "{n} nodes: a warm orientation run allocated");
        let solved = warm_allocs(|| {
            run_distributed(&g, &sim);
        });
        counts.push((logged, solved));
    }
    assert_eq!(
        counts[0], counts[1],
        "(move log, orientation) allocations at 1k vs 64k nodes"
    );
    assert!(counts[0].0 <= 4 && counts[0].1 <= 8, "{counts:?}");
}

/// What a proposal solve must repeat exactly.
type ProposalRun = (MoveLog, u32, u64, ExecPerf, Vec<RoundStats>);

fn solve_game(game: &TokenGame, sim: Simulator) -> ProposalRun {
    let r = proposal::run_on_simulator(game, &sim.with_trace(true));
    (r.log, r.comm_rounds, r.messages, r.perf, r.trace.unwrap())
}

/// What an orientation solve must repeat exactly.
type OrientRun = (Orientation, u32, u64, ExecPerf, Vec<RoundStats>);

fn solve_graph(g: &CsrGraph, sim: Simulator) -> OrientRun {
    let r = run_distributed(g, &sim.with_trace(true));
    (
        r.orientation,
        r.comm_rounds,
        r.messages,
        r.perf,
        r.trace.unwrap(),
    )
}

/// Runs `f` on a new thread, whose planes all start cold.
fn cold<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

/// Runs alternate between two games and two graphs of different shapes on
/// one thread, under the production loop and the dense oracle, and one
/// proposal run has a round cap so close to `u32::MAX` that its kept arena
/// must be cleared: every run repeats the cold run of the same instance.
#[test]
fn warm_runs_repeat_cold_runs_across_shapes_and_an_arena_clear() {
    let games = [layered_game(512), {
        let mut rng = SmallRng::seed_from_u64(7);
        TokenGame::random(&[40, 90, 60], 4, 0.7, &mut rng)
    }];
    let graphs = [cycle(24), petersen()];
    let sims = [Simulator::sequential(), Simulator::dense()];
    let want_games: Vec<Vec<ProposalRun>> = games
        .iter()
        .map(|g| {
            sims.iter()
                .map(|&sim| cold(|| solve_game(g, sim)))
                .collect()
        })
        .collect();
    let want_graphs: Vec<Vec<OrientRun>> = graphs
        .iter()
        .map(|g| {
            sims.iter()
                .map(|&sim| cold(|| solve_graph(g, sim)))
                .collect()
        })
        .collect();
    // A warm arena restarts from a base of at least 2, which this cap
    // would carry past the stamps a run may use: the arena is cleared.
    let near_the_stamp_limit = |sim: Simulator| sim.with_max_rounds(u32::MAX - 2);
    for pass in 0..3 {
        for (k, s) in [0, 1, 0, 1, 1, 0].into_iter().enumerate() {
            for (j, &sim) in sims.iter().enumerate() {
                let sim = if pass == 1 && k == 2 {
                    near_the_stamp_limit(sim)
                } else {
                    sim
                };
                let case = format!("pass {pass} step {k}, game {s}, sim {j}");
                assert!(solve_game(&games[s], sim) == want_games[s][j], "{case}");
                let case = format!("pass {pass} step {k}, graph {s}, sim {j}");
                assert!(solve_graph(&graphs[s], sim) == want_graphs[s][j], "{case}");
            }
        }
    }
}
