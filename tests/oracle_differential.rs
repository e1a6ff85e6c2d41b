//! Work-counter differential of the three protocol stacks: on each stack
//! the production loop behind `Simulator::sequential()` returns the dense
//! oracle's outputs, rounds and messages, and its work counters mirror the
//! oracle's — the node-rounds it never visits are exactly the halted
//! node-rounds the dense scan iterates past.
//!
//! `tests/executor_equivalence.rs` holds the output differential over every
//! registry scenario and the repair-mode differential of the churn engines.

use td_bench::workloads;
use token_dropping::assign::protocol::run_distributed_assignment;
use token_dropping::core::proposal;
use token_dropping::local::{ExecPerf, Simulator};
use token_dropping::orient::protocol::run_distributed;

/// Node-rounds and stamp scans agree, the dense scan's halted scans are
/// the production loop's skips, and the production loop scans no halted
/// node.
fn assert_counters_mirror(dense: &ExecPerf, sp: &ExecPerf, at: &str) {
    assert_eq!(sp.node_rounds, dense.node_rounds, "{at} node_rounds");
    assert_eq!(sp.stamp_scans, dense.stamp_scans, "{at} stamp_scans");
    assert_eq!(sp.sparse_skips, dense.halted_scans, "{at} skips");
    assert_eq!(sp.halted_scans, 0, "{at} halted_scans");
}

/// The proposal protocol's move log, solution and counters.
#[test]
fn game_outputs_match_the_dense_oracle() {
    for &seed in &[3u64, 9001] {
        let game = workloads::layered_game(4, 4, seed);
        let dense = proposal::run_on_simulator(&game, &Simulator::dense());
        let sp = proposal::run_on_simulator(&game, &Simulator::sequential());
        assert_eq!(dense.solution, sp.solution, "seed {seed}");
        assert_eq!(dense.log, sp.log, "seed {seed}");
        assert_eq!(dense.comm_rounds, sp.comm_rounds, "seed {seed}");
        assert_eq!(dense.messages, sp.messages, "seed {seed}");
        assert_counters_mirror(&dense.perf, &sp.perf, &format!("seed {seed}"));
    }
}

/// Stable orientation outputs and counters.
#[test]
fn orientation_outputs_match_the_dense_oracle() {
    for &seed in &[17u64, 9001] {
        let g = workloads::regular_graph(3, 8, seed);
        let dense = run_distributed(&g, &Simulator::dense());
        dense.orientation.verify_stable(&g).unwrap();
        let sp = run_distributed(&g, &Simulator::sequential());
        assert_eq!(dense.orientation, sp.orientation, "seed {seed}");
        assert_eq!(dense.comm_rounds, sp.comm_rounds, "seed {seed}");
        assert_eq!(dense.messages, sp.messages, "seed {seed}");
        assert_counters_mirror(&dense.perf, &sp.perf, &format!("seed {seed}"));
    }
}

/// Stable assignment outputs (exact and 2-bounded) and counters.
#[test]
fn assignment_outputs_match_the_dense_oracle() {
    let inst = workloads::uniform_assignment(9, 4, 3);
    for bound in [None, Some(2)] {
        let dense = run_distributed_assignment(&inst, bound, &Simulator::dense());
        let sp = run_distributed_assignment(&inst, bound, &Simulator::sequential());
        let at = format!("bound {bound:?}");
        assert_eq!(dense.assignment, sp.assignment, "{at}");
        assert_eq!(dense.comm_rounds, sp.comm_rounds, "{at}");
        assert_eq!(dense.messages, sp.messages, "{at}");
        assert_counters_mirror(&dense.perf, &sp.perf, &at);
    }
}
