//! Every small instance, not a sample: the paper's claims checked on every
//! instance up to a size, where the seeded tests of `tests/theorems.rs`
//! check a handful.
//!
//! **Token dropping.** Every layered game on levels 0–2 with one or two
//! nodes per level: every edge set between adjacent levels, every token
//! placement (21,536 games, 16,384 of them of the full 2-2-2 shape). Release
//! builds add a level (levels 0–3, 1,422,464 games). Each game is solved by
//! the LOCAL proposal protocol, and:
//!
//! - its move log equals the lockstep engine's (the two implement the same
//!   tie-breaking: request from the smallest-id occupied parent, grant to
//!   the smallest-id requester);
//! - `verify_solution` accepts its traversals;
//! - the lockstep engine's game rounds stay within Theorem 4.1's explicit
//!   bound `2·L·Δ² + L + Δ + 4`, and the protocol's communication rounds
//!   within twice that plus the hello round and termination lag;
//! - on three levels, the Theorem 4.7 protocol makes its lockstep engine's
//!   moves (the two list a round's moves in different orders), its
//!   traversals verify, and the lockstep engine's rounds stay within
//!   `3·Δ + 6`.
//!
//! **Stable orientation.** Every labeled graph on 1–5 nodes (1,099
//! graphs; release builds add the 32,768 graphs on 6 nodes). The Theorem
//! 5.1 protocol's orientation equals the phase engine's, it is stable, and
//! the run takes exactly the known-Δ budget `total_rounds(Δ)`, the
//! edgeless graph aside.
//!
//! **Orientation repair.** Every single edge insert, delete and flip on
//! every graph of 2–5 nodes (15,975 events; release builds add the 737,280
//! events on 6 nodes), each applied to a freshly stabilized churn engine:
//! incremental repair equals the full-recompute fallback in rounds,
//! messages and orientation, and the repaired orientation is stable.
//!
//! All instances of a test run on one thread, so every solve after the
//! first runs on the simulator plane the previous, differently shaped
//! instance left behind.

use token_dropping::core::{lockstep, proposal, three_level, TokenGame};
use token_dropping::local::{ChurnEvent, RepairMode};
use token_dropping::orient::protocol::{run_distributed, total_rounds};
use token_dropping::orient::OrientChurnEngine;
use token_dropping::prelude::*;

/// Calls `check` on every layered game whose level `l` has `sizes[l]`
/// nodes, numbered level by level: every subset of the node pairs on
/// adjacent levels as the edge set, every subset of the nodes as the token
/// placement.
fn for_each_game(sizes: &[usize], mut check: impl FnMut(&TokenGame)) {
    let mut level = Vec::new();
    for (l, &size) in sizes.iter().enumerate() {
        level.extend(std::iter::repeat_n(l as u32, size));
    }
    let n = level.len();
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| level[v] == level[u] + 1)
        .map(|(u, v)| (u as u32, v as u32))
        .collect();
    for edge_set in 0u32..1 << pairs.len() {
        let edges: Vec<(u32, u32)> = (0..pairs.len())
            .filter(|&i| edge_set >> i & 1 == 1)
            .map(|i| pairs[i])
            .collect();
        let graph = CsrGraph::from_edges(n, &edges).unwrap();
        for placement in 0u32..1 << n {
            let tokens = (0..n).map(|v| placement >> v & 1 == 1).collect();
            let game = TokenGame::new(graph.clone(), level.clone(), tokens).unwrap();
            check(&game);
        }
    }
}

/// Every shape of `levels` levels with one or two nodes on each.
fn shapes(levels: usize) -> Vec<Vec<usize>> {
    (0..1usize << levels)
        .map(|bits| (0..levels).map(|l| 1 + (bits >> l & 1)).collect())
        .collect()
}

/// The levels enumerated: one more in release builds, where the solves are
/// fast enough for the 1.4 million games of four levels.
fn levels() -> usize {
    if cfg!(debug_assertions) {
        3
    } else {
        4
    }
}

/// A game's id in failure messages: levels, edges and tokens.
fn describe(game: &TokenGame) -> String {
    let edges: Vec<(u32, u32)> = game
        .graph()
        .edge_list()
        .map(|(_, u, v)| (u.0, v.0))
        .collect();
    format!(
        "levels {:?}, edges {edges:?}, tokens {:?}",
        game.levels(),
        game.tokens()
    )
}

/// A log's moves as `(round, from, to)`, sorted.
fn sorted(log: &MoveLog) -> Vec<(u32, u32, u32)> {
    let mut moves: Vec<_> = log
        .events
        .iter()
        .map(|e| (e.round, e.from.0, e.to.0))
        .collect();
    moves.sort_unstable();
    moves
}

/// Theorem 4.1 on every small game: the proposal protocol repeats the
/// lockstep engine's moves, its solution verifies, and the rounds stay
/// within the theorem's explicit bound.
#[test]
fn theorem_4_1_on_every_small_layered_game() {
    let sim = Simulator::sequential();
    let mut games = 0usize;
    for sizes in shapes(levels()) {
        for_each_game(&sizes, |game| {
            games += 1;
            let proto = proposal::run_on_simulator(game, &sim);
            let lock = lockstep::run(game);
            assert_eq!(proto.log, lock.log, "{}", describe(game));
            if let Err(e) = verify_solution(game, &proto.solution) {
                panic!("{}: {e:?}", describe(game));
            }
            let (l, d) = (game.height() as u64, game.max_degree() as u64);
            let bound = 2 * l * d * d + l + d + 4;
            assert!(
                u64::from(lock.rounds) <= bound,
                "{}: {} game rounds past the bound {bound}",
                describe(game),
                lock.rounds
            );
            assert!(
                u64::from(proto.comm_rounds) <= 2 * bound + 4,
                "{}: {} comm rounds past twice the bound {bound}",
                describe(game),
                proto.comm_rounds
            );
        });
    }
    let expect = if cfg!(debug_assertions) {
        21_536
    } else {
        1_422_464
    };
    assert_eq!(games, expect);
}

/// Theorem 4.7 on every small three-level game: the message-passing
/// protocol repeats its lockstep engine's moves, its solution verifies, and
/// the rounds stay linear in Δ.
#[test]
fn theorem_4_7_on_every_small_three_level_game() {
    let sim = Simulator::sequential();
    for sizes in shapes(3) {
        for_each_game(&sizes, |game| {
            let proto = three_level::run_protocol(game, &sim);
            let lock = three_level::run_lockstep(game);
            assert_eq!(sorted(&proto.log), sorted(&lock.log), "{}", describe(game));
            if let Err(e) = verify_solution(game, &proto.solution) {
                panic!("{}: {e:?}", describe(game));
            }
            let d = game.max_degree() as u32;
            assert!(
                lock.rounds <= 3 * d + 6,
                "{}: {} rounds for Δ = {d}",
                describe(game),
                lock.rounds
            );
        });
    }
}

/// Calls `check` on every labeled graph on `n` nodes: every subset of the
/// node pairs as the edge set.
fn for_each_graph(n: usize, mut check: impl FnMut(&CsrGraph)) {
    let n32 = n as u32;
    let pairs: Vec<(u32, u32)> = (0..n32)
        .flat_map(|u| (u + 1..n32).map(move |v| (u, v)))
        .collect();
    for edge_set in 0u32..1 << pairs.len() {
        let edges: Vec<(u32, u32)> = (0..pairs.len())
            .filter(|&i| edge_set >> i & 1 == 1)
            .map(|i| pairs[i])
            .collect();
        check(&CsrGraph::from_edges(n, &edges).unwrap());
    }
}

/// The node counts of the orientation slices: one more in release builds.
fn max_nodes() -> usize {
    if cfg!(debug_assertions) {
        5
    } else {
        6
    }
}

/// A graph's id in failure messages: node count and edges.
fn describe_graph(g: &CsrGraph) -> String {
    let edges: Vec<(u32, u32)> = g.edge_list().map(|(_, u, v)| (u.0, v.0)).collect();
    format!("{} nodes, edges {edges:?}", g.num_nodes())
}

/// Theorem 5.1 on every small graph: the distributed protocol orients
/// every edge as the phase engine does, the orientation is stable, and the
/// run takes exactly `total_rounds(Δ)` rounds, the explicit Θ(Δ⁴) of the
/// theorem (e14's claim).
///
/// The one exception is intended: on the edgeless graph every node has
/// degree 0 and halts in round 0, with nothing to orient, so the run takes
/// 1 round against `total_rounds(0)` = 38. Any graph with an edge keeps
/// the nodes that have one in the schedule for all of its phases.
#[test]
fn theorem_5_1_on_every_small_graph() {
    let sim = Simulator::sequential();
    let mut graphs = 0usize;
    for n in 1..=max_nodes() {
        for_each_graph(n, |g| {
            graphs += 1;
            let dist = run_distributed(g, &sim);
            let phases = solve_stable_orientation(g, PhaseConfig::default());
            assert_eq!(
                dist.orientation,
                phases.orientation,
                "{}",
                describe_graph(g)
            );
            if let Err(e) = dist.orientation.verify_stable(g) {
                panic!("{}: {e:?}", describe_graph(g));
            }
            let want = if g.num_edges() == 0 {
                1
            } else {
                total_rounds(g.max_degree() as u32)
            };
            assert_eq!(
                u64::from(dist.comm_rounds),
                want,
                "{}: rounds",
                describe_graph(g)
            );
        });
    }
    let expect = if cfg!(debug_assertions) {
        1_099
    } else {
        33_867
    };
    assert_eq!(graphs, expect);
}

/// The locality claim's repair (§1.1) on every small edge event: from a
/// stabilized engine, incremental repair of one edge insert, delete or flip
/// repeats the full-recompute fallback's rounds, messages and orientation,
/// and leaves the orientation stable. Inserts and deletes rebuild the
/// repair network; flips patch it in place.
#[test]
fn orientation_repair_on_every_small_edge_event() {
    let mut events = 0usize;
    for n in 2..=max_nodes() {
        for_each_graph(n, |g| {
            for (u, v) in (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))) {
                let (u, v) = (NodeId::from(u), NodeId::from(v));
                let edits = if g.edge_between(u, v).is_some() {
                    vec![
                        ChurnEvent::EdgeDelete { u, v },
                        ChurnEvent::EdgeFlip { u, v },
                    ]
                } else {
                    vec![ChurnEvent::EdgeInsert { u, v }]
                };
                for ev in edits {
                    events += 1;
                    let [mut inc, mut full] = [RepairMode::Incremental, RepairMode::FullRecompute]
                        .map(|mode| {
                            let mut eng = OrientChurnEngine::new(
                                g.clone(),
                                Orientation::toward_larger(g),
                                mode,
                            );
                            assert!(eng.stabilize().completed);
                            eng
                        });
                    let a = inc.apply(&ev).unwrap();
                    let b = full.apply(&ev).unwrap();
                    let case = format!("{} {ev:?}", describe_graph(g));
                    assert!(a.completed && b.completed, "{case}");
                    assert_eq!((a.rounds, a.messages), (b.rounds, b.messages), "{case}");
                    assert_eq!(inc.orientation(), full.orientation(), "{case}");
                    if let Err(e) = inc.verify() {
                        panic!("{case}: {e:?}");
                    }
                }
            }
        });
    }
    let expect = if cfg!(debug_assertions) {
        15_975
    } else {
        15_975 + 737_280
    };
    assert_eq!(events, expect);
}
