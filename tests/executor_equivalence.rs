//! Executor equivalence: the production stepping loop behind
//! `Simulator::sequential()` must be *bit-identical* to the dense reference
//! scan behind `Simulator::dense()` — same outputs, same round counts, same
//! message counts — for every registry scenario and every protocol stack.
//! Which nodes a round visits never changes the round in which a message
//! is delivered, or the content delivered.
//!
//! On the churn engines, the same contract holds between the two wake
//! policies: repairing from the dirtied nodes only must land where waking
//! every node (the full recompute) lands.

use td_bench::scenario::{registry, ScenarioKind};
use td_bench::workloads;
use token_dropping::assign::protocol::run_distributed_assignment;
use token_dropping::assign::repair::AssignChurnEngine;
use token_dropping::core::proposal;
use token_dropping::local::{ChurnEvent, RepairMode, Simulator};
use token_dropping::orient::protocol::run_distributed;
use token_dropping::orient::repair::OrientChurnEngine;
use token_dropping::orient::Orientation;

const SEEDS: [u64; 3] = [3, 17, 9001];

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
/// under the dense oracle and the production loop. Each run also
/// self-verifies its output (stability, rules 1-3, k-boundedness) inside
/// `Scenario::run`.
#[test]
fn registry_scenarios_identical_across_executors() {
    for sc in registry() {
        let size = small_size(sc.kind(), sc.name());
        let dense = sc.run(size, 42, &Simulator::dense());
        let sp = sc.run(size, 42, &Simulator::sequential());
        assert_eq!(dense.rounds, sp.rounds, "{} rounds", sc.name());
        assert_eq!(dense.messages, sp.messages, "{} messages", sc.name());
    }
}

/// Protocol-level outputs (not just counts): the proposal protocol's move
/// log and solution are bit-identical on both loops.
#[test]
fn proposal_protocol_matches_the_dense_oracle() {
    for &seed in &SEEDS {
        let game = workloads::layered_game(4, 4, seed);
        let dense = proposal::run_on_simulator(&game, &Simulator::dense());
        let sp = proposal::run_on_simulator(&game, &Simulator::sequential());
        assert_eq!(dense.solution, sp.solution, "seed {seed}");
        assert_eq!(dense.log, sp.log, "seed {seed}");
        assert_eq!(dense.comm_rounds, sp.comm_rounds, "seed {seed}");
        assert_eq!(dense.messages, sp.messages, "seed {seed}");
    }
}

/// Stable orientation outputs on both loops.
#[test]
fn orientation_protocol_matches_the_dense_oracle() {
    for &seed in &SEEDS {
        let g = workloads::regular_graph(3, 8, seed);
        let dense = run_distributed(&g, &Simulator::dense());
        dense.orientation.verify_stable(&g).unwrap();
        let sp = run_distributed(&g, &Simulator::sequential());
        assert_eq!(dense.orientation, sp.orientation, "seed {seed}");
        assert_eq!(dense.comm_rounds, sp.comm_rounds, "seed {seed}");
        assert_eq!(dense.messages, sp.messages, "seed {seed}");
    }
}

/// Stable assignment outputs (exact and 2-bounded) on both loops.
#[test]
fn assignment_protocol_matches_the_dense_oracle() {
    for &seed in &SEEDS {
        let inst = workloads::uniform_assignment(9, 4, seed);
        for bound in [None, Some(2)] {
            let dense = run_distributed_assignment(&inst, bound, &Simulator::dense());
            let sp = run_distributed_assignment(&inst, bound, &Simulator::sequential());
            let at = format!("seed {seed}, bound {bound:?}");
            assert_eq!(dense.assignment, sp.assignment, "{at}");
            assert_eq!(dense.comm_rounds, sp.comm_rounds, "{at}");
            assert_eq!(dense.messages, sp.messages, "{at}");
        }
    }
}

/// The skip over quiesced nodes is observable: the layered game drains top
/// down, so the production loop skips halted node-rounds — exactly the
/// ones the dense oracle scans past — without changing any output.
#[test]
fn quiesced_regions_skip_rounds_without_changing_outputs() {
    let game = workloads::layered_game(4, 6, 5);
    let dense = proposal::run_on_simulator(&game, &Simulator::dense());
    let sp = proposal::run_on_simulator(&game, &Simulator::sequential());
    assert_eq!(dense.log, sp.log);
    assert!(
        sp.perf.sparse_skips > 0,
        "layered drains quiesce nodes early: {:?}",
        sp.perf
    );
    assert_eq!(sp.perf.sparse_skips, dense.perf.halted_scans);
}

/// Every churn registry scenario lands on the same final solution, rounds
/// and messages whether a repair wakes only the dirtied nodes or every
/// node.
#[test]
fn churn_registry_repairs_identical_across_repair_modes() {
    for sc in td_bench::churn::churn_registry() {
        let size = match sc.kind() {
            ScenarioKind::Orientation => 48,
            _ => 6,
        };
        for &seed in &SEEDS {
            let inc = sc.run(size, 6, seed, RepairMode::Incremental, false);
            let full = sc.run(size, 6, seed, RepairMode::FullRecompute, false);
            let at = format!("{} seed {seed}", sc.name());
            assert_eq!(inc.fingerprint, full.fingerprint, "{at}");
            assert_eq!(
                (inc.repair.rounds, inc.repair.messages),
                (full.repair.rounds, full.repair.messages),
                "{at}"
            );
        }
    }
}

/// An adversarial edge-flip trace on the orientation repair engine:
/// incremental repair and the full recompute agree on the final solution,
/// the rounds and the messages of every repair.
#[test]
fn churn_orientation_trace_identical_across_repair_modes() {
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
fn churn_assignment_trace_identical_across_repair_modes() {
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
