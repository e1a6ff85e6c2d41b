//! Differential testing of the churn engines: for every seeded trace, the
//! incremental repair path must be **bit-identical** to the full-recompute
//! fallback (same final solution, same rounds, same messages — only
//! node-steps may differ, and only downward), and every trace must repeat
//! itself exactly when run again.
//!
//! This is the contract that makes incremental repair safe to ship: the
//! dirty-set optimization is a pure performance knob.

use std::path::Path;
use td_bench::churn::{churn_registry, ChurnScenario};
use td_bench::{Trace, WorkloadInstance, WorkloadSpec};
use td_local::churn::RepairMode;
use td_local::ChurnEvent;
use token_dropping::assign::repair::AssignChurnEngine;

fn scenario_size(sc: &dyn ChurnScenario) -> u32 {
    match sc.kind() {
        td_bench::ScenarioKind::Orientation => 32,
        _ => 5,
    }
}

/// ≥ 100 seeded traces in total: 35 seeds × 3 scenarios, each verified
/// stable after every event inside `run`, and compared across the
/// incremental and full-recompute paths.
#[test]
fn repair_equals_full_recompute_over_100_traces() {
    const SEEDS_PER_SCENARIO: u64 = 35;
    let mut traces = 0usize;
    for sc in churn_registry() {
        let size = scenario_size(*sc);
        for seed in 0..SEEDS_PER_SCENARIO {
            let inc = sc.run(size, 8, seed, RepairMode::Incremental, false);
            let full = sc.run(size, 8, seed, RepairMode::FullRecompute, false);
            assert_eq!(
                inc.fingerprint,
                full.fingerprint,
                "{} seed {seed}: solutions diverge",
                sc.name()
            );
            assert_eq!(
                inc.repair.rounds,
                full.repair.rounds,
                "{} seed {seed}: rounds diverge",
                sc.name()
            );
            assert_eq!(
                inc.repair.messages,
                full.repair.messages,
                "{} seed {seed}: messages diverge",
                sc.name()
            );
            assert!(
                inc.repair.node_steps <= full.repair.node_steps,
                "{} seed {seed}: incremental stepped more ({} > {})",
                sc.name(),
                inc.repair.node_steps,
                full.repair.node_steps
            );
            traces += 1;
        }
    }
    assert!(traces >= 100, "only {traces} traces exercised");
}

/// The incremental repair is deterministic: running a trace again
/// repeats its final solution, rounds, messages and node-steps.
#[test]
fn incremental_repair_repeats_itself() {
    for sc in churn_registry() {
        let size = scenario_size(*sc);
        for seed in [3u64, 17] {
            let first = sc.run(size, 8, seed, RepairMode::Incremental, false);
            let again = sc.run(size, 8, seed, RepairMode::Incremental, false);
            assert_eq!(
                first.fingerprint,
                again.fingerprint,
                "{} seed {seed}",
                sc.name()
            );
            assert_eq!(first.repair, again.repair, "{} seed {seed}", sc.name());
        }
    }
}

/// The fallback is deterministic too (all-dirty wakes are the stress case
/// for the wake bookkeeping).
#[test]
fn full_recompute_repeats_itself() {
    for sc in churn_registry() {
        let size = scenario_size(*sc);
        let first = sc.run(size, 6, 9, RepairMode::FullRecompute, false);
        let again = sc.run(size, 6, 9, RepairMode::FullRecompute, false);
        assert_eq!(first.fingerprint, again.fingerprint, "{}", sc.name());
        assert_eq!(first.repair, again.repair, "{}", sc.name());
    }
}

/// Joins and leaves patch the live repair network in place, and debug
/// builds of `AssignChurnEngine` check every patch against a fresh build of
/// the network from the engine's records. Replays each committed assignment
/// trace and each `churn-assign` spec of the fuzz corpus through that
/// oracle, in both repair modes, verifying stability after every event.
#[test]
fn membership_patches_match_fresh_builds_on_committed_assignment_workloads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut specs: Vec<(WorkloadSpec, Option<Vec<ChurnEvent>>)> = Vec::new();
    for name in ["drain-wave", "flash-crowd"] {
        let text = std::fs::read_to_string(root.join("traces").join(format!("{name}.tdt")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let t = Trace::read(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        specs.push((t.spec, Some(t.events)));
    }
    for entry in std::fs::read_dir(root.join("tests/corpus")).expect("corpus dir") {
        let text = std::fs::read_to_string(entry.expect("corpus entry").path()).unwrap();
        for line in text.lines().filter(|l| l.starts_with("churn-assign")) {
            specs.push((WorkloadSpec::parse(line).unwrap(), None));
        }
    }
    assert!(
        specs.len() >= 3,
        "two traces and the corpus's churn-assign specs"
    );
    let mut membership = 0;
    for (spec, recorded) in &specs {
        let WorkloadInstance::AssignChurn { base, trace } = spec.build().unwrap() else {
            panic!("{spec}: not an assignment churn workload");
        };
        let events = recorded.as_ref().unwrap_or(&trace);
        for mode in [RepairMode::Incremental, RepairMode::FullRecompute] {
            let mut eng = AssignChurnEngine::new(&base, mode);
            eng.stabilize();
            for (i, ev) in events.iter().enumerate() {
                eng.apply(ev)
                    .unwrap_or_else(|e| panic!("{spec} {mode:?} event {i}: {e}"));
                eng.verify()
                    .unwrap_or_else(|e| panic!("{spec} {mode:?} after event {i}: {e:?}"));
                membership += usize::from(matches!(
                    ev,
                    ChurnEvent::CustomerJoin { .. } | ChurnEvent::CustomerLeave(_)
                ));
            }
        }
    }
    assert!(
        membership >= 100,
        "only {membership} joins and leaves replayed"
    );
}
