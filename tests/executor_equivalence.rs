//! Cross-stack executor equivalence: the sparse lane must be
//! *bit-identical* to the dense sequential scan — same outputs, same round
//! counts, same message counts — for every protocol stack.
//!
//! This is the contract that lets `Simulator::sparse()` be a pure
//! performance choice: which nodes a round visits never changes the round
//! in which a message is delivered, or the content delivered.

use td_bench::workloads;
use token_dropping::assign::protocol::run_distributed_assignment;
use token_dropping::core::proposal;
use token_dropping::local::Simulator;
use token_dropping::orient::protocol::run_distributed;

const SEEDS: [u64; 3] = [3, 17, 9001];

/// The churn (wake-based) executor obeys the same contract across its two
/// wake policies: waking only the dirtied nodes and waking every node give
/// the same final solution, rounds and messages, for every repair engine.
#[test]
fn churn_repair_matches_sequential_at_every_thread_count() {
    use td_local::churn::RepairMode;
    for sc in td_bench::churn::churn_registry() {
        let size = match sc.kind() {
            td_bench::ScenarioKind::Orientation => 48,
            _ => 6,
        };
        for &seed in &SEEDS {
            let inc = sc.run(size, 6, seed, RepairMode::Incremental, false);
            let full = sc.run(size, 6, seed, RepairMode::FullRecompute, false);
            assert_eq!(
                inc.fingerprint,
                full.fingerprint,
                "{} seed {seed}",
                sc.name()
            );
            assert_eq!(
                (inc.repair.rounds, inc.repair.messages),
                (full.repair.rounds, full.repair.messages),
                "{} seed {seed}",
                sc.name()
            );
        }
    }
}

#[test]
fn proposal_protocol_matches_sequential_at_every_thread_count() {
    for &seed in &SEEDS {
        let game = workloads::layered_game(4, 4, seed);
        let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
        let sp = proposal::run_on_simulator(&game, &Simulator::sparse());
        assert_eq!(seq.solution, sp.solution, "seed {seed}");
        assert_eq!(seq.log, sp.log, "seed {seed}");
        assert_eq!(seq.comm_rounds, sp.comm_rounds, "seed {seed}");
        assert_eq!(seq.messages, sp.messages, "seed {seed}");
    }
}

#[test]
fn orientation_protocol_matches_sequential_at_every_thread_count() {
    for &seed in &SEEDS {
        let g = workloads::regular_graph(3, 8, seed);
        let seq = run_distributed(&g, &Simulator::sequential());
        seq.orientation.verify_stable(&g).unwrap();
        let sp = run_distributed(&g, &Simulator::sparse());
        assert_eq!(seq.orientation, sp.orientation, "seed {seed}");
        assert_eq!(seq.comm_rounds, sp.comm_rounds, "seed {seed}");
        assert_eq!(seq.messages, sp.messages, "seed {seed}");
    }
}

#[test]
fn assignment_protocol_matches_sequential_at_every_thread_count() {
    for &seed in &SEEDS {
        let inst = workloads::uniform_assignment(9, 4, seed);
        for bound in [None, Some(2)] {
            let seq = run_distributed_assignment(&inst, bound, &Simulator::sequential());
            let sp = run_distributed_assignment(&inst, bound, &Simulator::sparse());
            assert_eq!(
                seq.assignment, sp.assignment,
                "seed {seed}, bound {bound:?}"
            );
            assert_eq!(
                seq.comm_rounds, sp.comm_rounds,
                "seed {seed}, bound {bound:?}"
            );
            assert_eq!(seq.messages, sp.messages, "seed {seed}, bound {bound:?}");
        }
    }
}
