//! Differential testing of the sparse lane against the dense sequential
//! scan: for every registry scenario and the protocol stacks, the two
//! loops must be **bit-identical** — same outputs, same round counts, same
//! message counts. On the churn engines, repairing from the dirtied nodes
//! only must land where waking every node lands.

use td_bench::scenario::{registry, ScenarioKind};
use td_bench::workloads;
use td_local::churn::RepairMode;
use td_local::Simulator;
use token_dropping::assign::protocol::run_distributed_assignment;
use token_dropping::assign::repair::AssignChurnEngine;
use token_dropping::core::proposal;
use token_dropping::local::ChurnEvent;
use token_dropping::orient::protocol::run_distributed;
use token_dropping::orient::repair::OrientChurnEngine;
use token_dropping::orient::Orientation;

fn small_size(kind: ScenarioKind, name: &str) -> u32 {
    match kind {
        ScenarioKind::Game => 4,
        ScenarioKind::Orientation => {
            if name == "cascade-orientation" {
                16
            } else {
                3
            }
        }
        // The exact stable-assignment protocol is O(C·S⁴); size 3 keeps
        // the sweep fast.
        ScenarioKind::Assignment => 3,
    }
}

/// Every registry scenario reports identical rounds and message counts
/// under the dense scan and the sparse lane. Each run also self-verifies
/// its output (stability, rules 1-3, k-boundedness) inside `Scenario::run`.
#[test]
fn registry_scenarios_identical_across_executors() {
    for sc in registry() {
        let size = small_size(sc.kind(), sc.name());
        let seq = sc.run(size, 42, &Simulator::sequential());
        let sp = sc.run(size, 42, &Simulator::sparse());
        assert_eq!(seq.rounds, sp.rounds, "{} rounds", sc.name());
        assert_eq!(seq.messages, sp.messages, "{} messages", sc.name());
    }
}

/// Protocol-level outputs (not just counts): the proposal protocol's move
/// log and solution are bit-identical on both loops.
#[test]
fn game_outputs_identical_across_executors() {
    for &seed in &[3u64, 9001] {
        let game = workloads::layered_game(4, 4, seed);
        let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
        let sp = proposal::run_on_simulator(&game, &Simulator::sparse());
        assert_eq!(seq.solution, sp.solution, "seed {seed}");
        assert_eq!(seq.log, sp.log, "seed {seed}");
        assert_eq!(seq.comm_rounds, sp.comm_rounds, "seed {seed}");
        assert_eq!(seq.messages, sp.messages, "seed {seed}");
    }
}

/// Stable orientation outputs on both loops.
#[test]
fn orientation_outputs_identical_across_executors() {
    for &seed in &[17u64, 9001] {
        let g = workloads::regular_graph(3, 8, seed);
        let seq = run_distributed(&g, &Simulator::sequential());
        seq.orientation.verify_stable(&g).unwrap();
        let sp = run_distributed(&g, &Simulator::sparse());
        assert_eq!(seq.orientation, sp.orientation, "seed {seed}");
        assert_eq!(seq.comm_rounds, sp.comm_rounds, "seed {seed}");
        assert_eq!(seq.messages, sp.messages, "seed {seed}");
    }
}

/// Stable assignment outputs (exact and 2-bounded) on both loops.
#[test]
fn assignment_outputs_identical_across_executors() {
    let inst = workloads::uniform_assignment(9, 4, 3);
    for bound in [None, Some(2)] {
        let seq = run_distributed_assignment(&inst, bound, &Simulator::sequential());
        let sp = run_distributed_assignment(&inst, bound, &Simulator::sparse());
        assert_eq!(seq.assignment, sp.assignment, "bound {bound:?}");
        assert_eq!(seq.comm_rounds, sp.comm_rounds, "bound {bound:?}");
        assert_eq!(seq.messages, sp.messages, "bound {bound:?}");
    }
}

/// An adversarial edge-flip trace on the orientation repair engine:
/// incremental repair and the full recompute agree on the final solution,
/// the rounds and the messages of every repair.
#[test]
fn churn_orientation_trace_identical_on_sharded_plane() {
    use td_graph::EdgeId;
    let run = |mode: RepairMode| {
        let g = workloads::regular_graph(4, 10, 7);
        let mut eng = OrientChurnEngine::new(g.clone(), Orientation::toward_larger(&g), mode);
        let mut total = eng.stabilize();
        eng.verify().expect("initial stabilization");
        // Deterministic flip trace: walk the edge list with a fixed stride.
        for i in 0..12u32 {
            let e = EdgeId((i * 7) % g.num_edges() as u32);
            let (u, v) = g.endpoints(e);
            total.absorb(eng.apply(&ChurnEvent::EdgeFlip { u, v }).expect("valid"));
            eng.verify().expect("stable after repair");
        }
        let fingerprint: Vec<u32> = g
            .edges()
            .map(|e| eng.orientation().head(e).expect("complete").0)
            .collect();
        (total, fingerprint)
    };
    let (inc, inc_fp) = run(RepairMode::Incremental);
    let (full, full_fp) = run(RepairMode::FullRecompute);
    assert_eq!(inc_fp, full_fp, "solution diverges");
    assert_eq!((inc.rounds, inc.messages), (full.rounds, full.messages));
    assert!(inc.node_steps <= full.node_steps);
}

/// Same for the assignment repair engine, under a drain/rejoin trace.
#[test]
fn churn_assignment_trace_identical_on_sharded_plane() {
    let run = |mode: RepairMode| {
        let base = workloads::uniform_assignment(18, 6, 11);
        let mut eng = AssignChurnEngine::new(&base, mode);
        let mut total = eng.stabilize();
        eng.verify().expect("initial stabilization");
        for i in 0..10u32 {
            let ev = match i % 3 {
                0 => ChurnEvent::ServerCapacity {
                    server: (i / 3) % 6,
                    capacity: 0,
                },
                1 => ChurnEvent::ServerCapacity {
                    server: (i / 3) % 6,
                    capacity: 1,
                },
                _ => ChurnEvent::CustomerJoin {
                    servers: vec![i % 6, (i + 2) % 6],
                },
            };
            total.absorb(eng.apply(&ev).expect("valid"));
            eng.verify().expect("stable after repair");
        }
        let fp: Vec<u32> = eng
            .assignment_vector()
            .iter()
            .map(|a| a.map_or(0, |s| s + 1))
            .collect();
        (total, fp)
    };
    let (inc, inc_fp) = run(RepairMode::Incremental);
    let (full, full_fp) = run(RepairMode::FullRecompute);
    assert_eq!(inc_fp, full_fp, "assignment diverges");
    assert_eq!((inc.rounds, inc.messages), (full.rounds, full.messages));
    assert!(inc.node_steps <= full.node_steps);
}

/// The skip over quiesced nodes is observable: the layered game drains top
/// down, so the sparse lane skips halted node-rounds without changing any
/// output.
#[test]
fn quiesced_regions_skip_shard_rounds_without_changing_outputs() {
    let game = workloads::layered_game(4, 6, 5);
    let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
    let sp = proposal::run_on_simulator(&game, &Simulator::sparse());
    assert_eq!(seq.log, sp.log);
    assert!(
        sp.perf.sparse_skips > 0,
        "layered drains quiesce nodes early: {:?}",
        sp.perf
    );
    assert_eq!(sp.perf.sparse_skips, seq.perf.halted_scans);
}
