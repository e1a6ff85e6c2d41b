//! Golden snapshot tests for [`td_bench::ScenarioReport`]: every registry
//! scenario, run at a fixed small size and seed on the sequential
//! executor, must serialize to exactly the snapshot stored under
//! `tests/golden/`. Any drift in instance shape, rounds, messages, or
//! notes fails with a readable line diff.
//!
//! To bless intentional changes (new scenario, changed workload, changed
//! cost accounting), regenerate the snapshots with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and review the resulting `tests/golden/*.golden` diff like any other
//! code change.

use std::fmt::Write as _;
use std::path::PathBuf;
use td_bench::compare::compare_families;
use td_bench::scenario::{registry, Scenario, ScenarioKind};
use td_bench::CompareConfig;
use td_local::Simulator;

/// Fixed golden sizes: small enough to run in milliseconds, large enough
/// that every scenario does nontrivial work.
fn golden_size(sc: &dyn Scenario) -> u32 {
    match sc.kind() {
        ScenarioKind::Game => 4,
        ScenarioKind::Orientation => {
            if sc.name() == "cascade-orientation" {
                16
            } else {
                3
            }
        }
        ScenarioKind::Assignment => 3,
    }
}

const GOLDEN_SEED: u64 = 42;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Renders a line-by-line diff: ` ` common, `-` expected only, `+` actual
/// only (plain LCS-free positional diff — the snapshots are short and
/// line-aligned, so positional is the readable choice).
fn render_diff(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for i in 0..e.len().max(a.len()) {
        match (e.get(i), a.get(i)) {
            (Some(x), Some(y)) if x == y => writeln!(out, "  {x}").unwrap(),
            (Some(x), Some(y)) => {
                writeln!(out, "- {x}").unwrap();
                writeln!(out, "+ {y}").unwrap();
            }
            (Some(x), None) => writeln!(out, "- {x}").unwrap(),
            (None, Some(y)) => writeln!(out, "+ {y}").unwrap(),
            (None, None) => unreachable!(),
        }
    }
    out
}

#[test]
fn every_scenario_report_matches_its_golden_snapshot() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let sim = Simulator::sequential();
    let mut failures = Vec::new();
    for sc in registry() {
        let rep = sc.run(golden_size(*sc), GOLDEN_SEED, &sim);
        let actual = rep.golden();
        let path = dir.join(format!("{}.golden", sc.name()));
        if update {
            std::fs::write(&path, &actual).expect("write golden");
            continue;
        }
        // An absent snapshot (new scenario, fresh checkout of a pruned
        // tree) is a first-class "bless me" failure, not a raw io error —
        // and it joins `failures` so every missing scenario is listed in
        // one run instead of aborting at the first.
        let expected = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                failures.push(format!(
                    "{}: no golden at {path:?} — run UPDATE_GOLDEN=1 cargo test --test golden_reports",
                    sc.name()
                ));
                continue;
            }
        };
        if expected != actual {
            failures.push(format!(
                "{} drifted from {path:?} (-expected +actual):\n{}",
                sc.name(),
                render_diff(&expected, &actual)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} scenario report(s) drifted:\n\n{}\n\
         If the change is intentional, bless it with \
         UPDATE_GOLDEN=1 cargo test --test golden_reports",
        failures.len(),
        failures.join("\n")
    );
}

/// The `td compare` balancer sweep over two small families, pinned at a
/// fixed size and seed. Drift in convergence rounds, message counts, token
/// moves, final discrepancy, or load fingerprints of *any* registered
/// protocol fails with a line diff; bless intentional protocol changes
/// with `UPDATE_GOLDEN=1 cargo test --test golden_reports`.
fn compare_golden() -> String {
    let cfg = CompareConfig {
        size: Some(8),
        seed: GOLDEN_SEED,
        ..CompareConfig::default()
    };
    compare_families(&cfg, &["rotor".to_string(), "torus".to_string()])
        .expect("compare runs clean at golden size")
        .golden()
}

#[test]
fn compare_report_matches_its_golden_snapshot() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    let path = dir.join("compare-rotor-torus.golden");
    let actual = compare_golden();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("no golden at {path:?} — run UPDATE_GOLDEN=1 cargo test --test golden_reports")
    });
    assert!(
        expected == actual,
        "compare report drifted from {path:?} (-expected +actual):\n{}\n\
         If the change is intentional, bless it with \
         UPDATE_GOLDEN=1 cargo test --test golden_reports",
        render_diff(&expected, &actual)
    );
}

/// The compare snapshot is a pure function of (instance, seed): rerunning
/// the sweep must golden-match exactly.
#[test]
fn compare_golden_is_executor_independent() {
    assert_eq!(
        compare_golden(),
        compare_golden(),
        "compare sweep drifts between runs"
    );
}

/// One rendered `td exp` markdown table (e17) and one rendered SVG plot
/// (e21's race chart), produced from a warm quick-mode cache, pinned as
/// golden snapshots. Everything upstream is deterministic — workload
/// generation, protocol execution, integer-math plot layout — so the
/// rendered artifacts must reproduce byte-identically on every machine,
/// and a second render over the same cache must match the first exactly.
#[test]
fn exp_render_matches_its_golden_snapshots() {
    use td_bench::exp;

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    let results = std::env::temp_dir().join(format!("td-exp-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results);

    let cfg = exp::ExpConfig::quick();
    let ids: Vec<String> = vec!["e17".into(), "e21".into()];
    exp::run(&cfg, &ids, &results, false).expect("exp run at quick size");
    let rendered = exp::render(&cfg, &ids, &results).expect("exp render from warm cache");

    let table = rendered
        .tables
        .iter()
        .find(|(id, _)| id == "e17")
        .map(|(_, block)| block.clone())
        .expect("e17 renders a table");
    let plot = rendered
        .plots
        .iter()
        .find(|(name, _)| name == "race.svg")
        .map(|(_, svg)| svg.clone())
        .expect("e21 renders race.svg");

    // Render is a pure function of the cache: a second pass must be
    // byte-identical.
    let again = exp::render(&cfg, &ids, &results).expect("second render");
    assert_eq!(
        rendered.tables, again.tables,
        "exp tables drift across renders of the same cache"
    );
    assert_eq!(
        rendered.plots, again.plots,
        "exp plots drift across renders of the same cache"
    );
    let _ = std::fs::remove_dir_all(&results);

    let mut failures = Vec::new();
    for (name, actual) in [
        ("exp-e17-table.golden", table),
        ("exp-e21-race.svg.golden", plot),
    ] {
        let path = dir.join(name);
        if update {
            std::fs::create_dir_all(&dir).expect("create tests/golden");
            std::fs::write(&path, &actual).expect("write golden");
            continue;
        }
        let expected = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                failures.push(format!(
                    "{name}: no golden at {path:?} — run UPDATE_GOLDEN=1 cargo test --test golden_reports"
                ));
                continue;
            }
        };
        if expected != actual {
            failures.push(format!(
                "{name} drifted from {path:?} (-expected +actual):\n{}",
                render_diff(&expected, &actual)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} exp artifact(s) drifted:\n\n{}\n\
         If the change is intentional, bless it with \
         UPDATE_GOLDEN=1 cargo test --test golden_reports",
        failures.len(),
        failures.join("\n")
    );
}

/// The snapshots themselves must be executor-independent: the golden run
/// reproduces bit-identically on the dense oracle.
#[test]
fn golden_runs_are_executor_independent() {
    let sim = Simulator::sequential();
    let dense = Simulator::dense();
    for sc in registry() {
        // cascade-orientation uses its own host-side driver; everything
        // else exercises the executor. Run both anyway — equality must
        // hold regardless.
        let a = sc.run(golden_size(*sc), GOLDEN_SEED, &sim);
        let b = sc.run(golden_size(*sc), GOLDEN_SEED, &dense);
        assert_eq!(
            a.golden(),
            b.golden(),
            "{} drifts on the dense oracle",
            sc.name()
        );
    }
}
