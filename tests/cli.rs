//! Integration tests for the `td` command-line tool: generate → solve →
//! verify pipelines through the actual binary.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_td");

fn run_td(args: &[&str], stdin: Option<&str>) -> (String, String, bool) {
    let mut cmd = Command::new(BIN);
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    }
    let mut child = cmd.spawn().expect("spawn td");
    if let Some(input) = stdin {
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
    }
    let out = child.wait_with_output().expect("td runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn gen_info_pipeline() {
    let (edge_list, _, ok) = run_td(&["gen", "gnm", "25", "50", "3"], None);
    assert!(ok);
    assert!(edge_list.starts_with("25 50\n"));
    let (info, _, ok) = run_td(&["info", "-"], Some(&edge_list));
    assert!(ok);
    assert!(info.contains("nodes:      25"));
    assert!(info.contains("edges:      50"));
}

#[test]
fn orient_produces_all_edges() {
    let (edge_list, _, ok) = run_td(&["gen", "regular", "16", "3", "5"], None);
    assert!(ok);
    let (out, _, ok) = run_td(&["orient", "-"], Some(&edge_list));
    assert!(ok, "orient failed: {out}");
    assert!(out.contains("verified stable"));
    let oriented = out.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(oriented, 16 * 3 / 2);
}

#[test]
fn orient_distributed_refuses_a_round_budget_past_u32() {
    // A 152-leaf star: Δ = 152 needs 4,298,644,854 rounds, past u32::MAX.
    let mut star = String::from("153 152\n");
    for leaf in 1..=152 {
        star.push_str(&format!("0 {leaf}\n"));
    }
    let mut child = Command::new(BIN)
        .args(["orient", "-", "--distributed"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(star.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("Δ = 152") && err.contains("4298644854"),
        "{err}"
    );
}

#[test]
fn game_pipeline_solves_comb() {
    let (game, _, ok) = run_td(&["gen", "comb", "5"], None);
    assert!(ok);
    let (out, _, ok) = run_td(&["game", "-"], Some(&game));
    assert!(ok);
    assert!(out.contains("solved in 5 game rounds"), "{out}");
    // 5 traversals, each two nodes.
    let traversals: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(traversals.len(), 5);
}

/// Numbers past `u32` in a game file or an edge list are rejected with a
/// line diagnostic and exit 1: never truncated into a different instance,
/// and never turned into a capacity-overflow panic or a huge allocation.
#[test]
fn out_of_range_counts_and_ids_exit_1_with_a_line_diagnostic() {
    for (cmd, input, line) in [
        ("game", "2 1\n0 1\n1 0\n4294967296 1\n", 4),
        ("game", "18446744073709551615 0\n", 1),
        ("game", "100000000000 0\n", 1),
        ("orient", "3 1\n4294967296 1\n", 2),
        ("orient", "18446744073709551615 0\n", 1),
        ("orient", "100000000000 0\n", 1),
    ] {
        let what = match cmd {
            "game" => "bad game file",
            _ => "bad edge list",
        };
        let needle = format!("{what}: line {line}: ");
        let mut child = Command::new(BIN)
            .args([cmd, "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "td {cmd} on {input:?}: {err}");
        assert!(err.contains(&needle), "td {cmd} on {input:?}: {err}");
        assert!(err.contains("32 bits"), "td {cmd} on {input:?}: {err}");
    }
}

/// Arguments outside a generator's valid range are usage errors: exit 2
/// with a one-line diagnostic that names the range, never a panic.
#[test]
fn out_of_range_generator_arguments_exit_2_naming_the_range() {
    for (args, names) in [
        (vec!["bench", "layered-game", "--size", "0"], "[1,"),
        (vec!["bench", "contention-comb", "--size", "0"], "[1,"),
        (vec!["bench", "waterfall", "--size", "0"], "[1,"),
        (vec!["gen", "comb", "0"], "[1,"),
        (vec!["gen", "gnm", "5", "100", "1"], "[0, 10]"),
        (vec!["gen", "regular", "5", "3", "1"], "even"),
        (vec!["gen", "regular", "4", "4"], "[0, 3]"),
        (vec!["gen", "tree", "1", "5"], "[2,"),
        (vec!["gen", "game", "4,4", "0"], "[1,"),
    ] {
        let out = Command::new(BIN).args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {err}");
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "args {args:?}: {err}");
        assert!(err.contains(names), "args {args:?}: {err}");
    }
}

#[test]
fn assign_stable_and_bounded() {
    // A 6-customer, 3-server bipartite graph: customers 0..6, servers 6..9.
    let mut edges = String::from("9 12\n");
    for c in 0..6 {
        edges.push_str(&format!("{} {}\n", c, 6 + (c % 3)));
        edges.push_str(&format!("{} {}\n", c, 6 + ((c + 1) % 3)));
    }
    let (out, err, ok) = run_td(&["assign", "-", "--customers", "6"], Some(&edges));
    assert!(ok, "{err}");
    assert!(out.contains("# stable"));
    let (out, _, ok) = run_td(
        &["assign", "-", "--customers", "6", "--bounded", "2"],
        Some(&edges),
    );
    assert!(ok);
    assert!(out.contains("2-bounded stable"));
    let (out, _, ok) = run_td(
        &["assign", "-", "--customers", "6", "--optimal"],
        Some(&edges),
    );
    assert!(ok);
    assert!(out.contains("optimal semi-matching"));
}

#[test]
fn bad_input_fails_cleanly() {
    let (_, err, ok) = run_td(&["info", "-"], Some("this is not a graph\n"));
    assert!(!ok);
    assert!(err.contains("bad edge list"));
    let (_, _, ok) = run_td(&["nonsense"], None);
    assert!(!ok);
}

#[test]
fn churn_lists_scenarios() {
    let (out, _, ok) = run_td(&["churn"], None);
    assert!(ok);
    for name in [
        "edge-flip",
        "flash-crowd",
        "rolling-restart",
        "small-world-flux",
    ] {
        assert!(out.contains(name), "listing missing {name}:\n{out}");
    }
}

#[test]
fn churn_runs_a_trace_and_reports() {
    let (out, err, ok) = run_td(
        &[
            "churn",
            "rolling-restart",
            "--size",
            "5",
            "--events",
            "6",
            "--seed",
            "7",
            "--compare",
        ],
        None,
    );
    assert!(ok, "{err}");
    assert!(out.contains("events:     6 applied"), "{out}");
    assert!(out.contains("repair:"), "{out}");
    assert!(out.contains("recompute:"), "{out}");
    assert!(out.contains("verified:   ok"), "{out}");
}

#[test]
fn churn_unknown_scenario_exits_2() {
    let mut cmd = Command::new(BIN);
    let out = cmd
        .args(["churn", "no-such-scenario"])
        .output()
        .expect("td runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario"));
    // Unknown subcommands still exit 2 as well.
    let out = Command::new(BIN).args(["nonsense"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn churn_zero_events_is_a_clean_noop() {
    let (out, err, ok) = run_td(
        &["churn", "flash-crowd", "--size", "4", "--events", "0"],
        None,
    );
    assert!(ok, "{err}");
    assert!(out.contains("events:     0 applied"), "{out}");
    assert!(out.contains("verified:   ok"), "{out}");
}

/// Every executor runs on one thread and one message plane, so no
/// subcommand takes `--threads` or `--shards`: both are unknown flags,
/// exit 2, whatever their value.
#[test]
fn bench_shards_flag_errors_exit_2() {
    for bad in [
        vec!["bench", "rotor-sweep", "--shards", "0"],
        vec!["bench", "rotor-sweep", "--shards", "x"],
        vec!["bench", "rotor-sweep", "--shards"],
        vec!["bench", "rotor-sweep", "--shards", "4"],
        vec!["bench", "rotor-sweep", "--threads", "2"],
        vec!["churn", "edge-flip", "--shards", "4"],
        vec!["churn", "edge-flip", "--threads", "1"],
        vec!["perf", "--threads", "1", "--list"],
        vec!["serve", "churn-orient", "--shards", "1"],
        vec!["trace", "replay", "traces/drain-wave.tdt", "--threads", "2"],
        vec!["compare", "--shards", "3"],
        vec!["exp", "run", "e17", "--threads", "2"],
        vec!["exp", "render", "e17", "--shards", "2"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "args {bad:?}: {err}");
    }
}

/// `--seed` goes through the one shared `RunFlags` parser, so `td bench`
/// and `td churn` must reject garbage identically: exit 2 plus a message
/// naming the flag.
#[test]
fn seed_parsing_is_uniform_across_bench_and_churn() {
    for bad in [
        vec!["bench", "rotor-sweep", "--seed", "garbage"],
        vec!["bench", "rotor-sweep", "--seed", "1.5"],
        vec!["bench", "rotor-sweep", "--seed", "-1"],
        vec!["bench", "rotor-sweep", "--seed"],
        vec!["churn", "edge-flip", "--seed", "garbage"],
        vec!["churn", "edge-flip", "--seed", "1.5"],
        vec!["churn", "edge-flip", "--seed", "-1"],
        vec!["churn", "edge-flip", "--seed"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--seed needs an integer"),
            "args {bad:?}: {err}"
        );
    }
    // And valid seeds are accepted by both subcommands.
    let (out, err, ok) = run_td(
        &["bench", "rotor-sweep", "--size", "4", "--seed", "7"],
        None,
    );
    assert!(ok, "{err}");
    assert!(out.contains("seed = 7"), "{out}");
    let (out, err, ok) = run_td(
        &[
            "churn",
            "edge-flip",
            "--size",
            "24",
            "--events",
            "2",
            "--seed",
            "7",
        ],
        None,
    );
    assert!(ok, "{err}");
    assert!(out.contains("seed = 7"), "{out}");
}

#[test]
fn fuzz_lists_families_without_args() {
    let (out, _, ok) = run_td(&["fuzz"], None);
    assert!(ok);
    for fam in ["small-world", "power-law", "zipf-cluster", "churn-orient"] {
        assert!(out.contains(fam), "listing missing {fam}:\n{out}");
    }
}

#[test]
fn fuzz_replays_a_single_spec() {
    let (out, err, ok) = run_td(&["fuzz", "--spec", "rotor:size=4:seed=1"], None);
    assert!(ok, "{err}");
    assert!(out.contains("ok   rotor:size=4:seed=1"), "{out}");
    assert!(out.contains("1/1 specs clean"), "{out}");
}

#[test]
fn fuzz_runs_a_tiny_budget() {
    let (out, err, ok) = run_td(&["fuzz", "--budget", "2", "--seed", "3"], None);
    assert!(ok, "{err}");
    assert!(out.contains("2/2 specs clean"), "{out}");
}

#[test]
fn fuzz_flag_errors_exit_2() {
    for bad in [
        vec!["fuzz", "--spec", "no-such-family:size=3"],
        vec!["fuzz", "--spec", "rotor:bogus=1"],
        vec!["fuzz", "--spec"],
        vec!["fuzz", "--budget", "0"],
        vec!["fuzz", "--budget", "x"],
        vec!["fuzz", "--budget"],
        vec!["fuzz", "--seed", "garbage"],
        vec!["fuzz", "--bogus"],
        // --spec replays one exact spec; combining it with the corpus
        // flags would silently fake coverage, so it must be rejected.
        vec!["fuzz", "--spec", "rotor:size=4:seed=1", "--seed", "9"],
        vec!["fuzz", "--budget", "8", "--spec", "rotor:size=4:seed=1"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(!out.stderr.is_empty(), "args {bad:?}: silent failure");
    }
}

#[test]
fn perf_lists_scenarios() {
    let (out, _, ok) = run_td(&["perf", "--list"], None);
    assert!(ok);
    for name in ["drain-wave", "rotor", "torus", "churn-assign"] {
        assert!(out.contains(name), "listing missing {name}:\n{out}");
    }
    // --list does not bypass validation: a malformed flag next to it must
    // still exit 2, like every other subcommand.
    for bad in [
        vec!["perf", "--seed", "x", "--list"],
        vec!["perf", "--list", "--bogus"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
    }
}

/// `--seed` goes through the one shared `RunFlags` parser, so `td perf`
/// must reject garbage exactly like bench/churn: exit 2 plus a message
/// naming the flag. `--threads` and `--shards` are unknown flags.
#[test]
fn perf_flag_validation_is_uniform() {
    for bad in [
        vec!["perf", "--threads", "0"],
        vec!["perf", "--threads", "garbage"],
        vec!["perf", "--threads"],
        vec!["perf", "--shards", "0"],
        vec!["perf", "--shards", "x"],
        vec!["perf", "--shards"],
        vec!["perf", "--seed", "garbage"],
        vec!["perf", "--seed", "-1"],
        vec!["perf", "--seed"],
        vec!["perf", "--sizes", "0"],
        vec!["perf", "--sizes", "a,b"],
        vec!["perf", "--sizes", ""],
        vec!["perf", "--sizes"],
        vec!["perf", "--scenario"],
        vec!["perf", "--scenario", "no-such-scenario"],
        // --sizes without --scenario would apply one size list to every
        // ladder (size units differ per scenario) — rejected.
        vec!["perf", "--sizes", "64"],
        vec!["perf", "--out"],
        vec!["perf", "--size", "4"],
        vec!["perf", "--repeat", "0"],
        vec!["perf", "--repeat", "garbage"],
        vec!["perf", "--repeat"],
        vec!["perf", "--bogus"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.is_empty(), "args {bad:?}: silent failure");
        // The exact bench/churn wording for the shared numeric flags.
        if matches!(bad.get(1), Some(&"--threads" | &"--shards")) {
            assert!(err.contains("unknown flag"), "args {bad:?}: {err}");
        }
        if bad.get(1) == Some(&"--seed") {
            assert!(
                err.contains("--seed needs an integer"),
                "args {bad:?}: {err}"
            );
        }
    }
}

#[test]
fn perf_writes_versioned_json_report() {
    let out_path = std::env::temp_dir().join(format!("td-perf-test-{}.json", std::process::id()));
    let out_str = out_path.to_str().unwrap();
    let (out, err, ok) = run_td(
        &[
            "perf",
            "--scenario",
            "drain-wave",
            "--sizes",
            "512",
            "--repeat",
            "2",
            "--out",
            out_str,
        ],
        None,
    );
    assert!(ok, "{err}");
    assert!(out.contains("drain-wave"), "{out}");
    assert!(out.contains(out_str), "{out}");
    let json = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();
    assert!(json.contains("\"schema\":\"td-perf/v1\""), "{json}");
    assert!(json.contains("\"bench\":10"), "{json}");
    assert!(json.contains("\"repeat\":2"), "{json}");
    assert!(
        json.contains("\"executors\":[\"dense\",\"sparse\"]"),
        "{json}"
    );
    assert!(json.contains("\"sparse_skips\""), "{json}");
    assert!(json.contains("\"executor\":\"sparse\""), "{json}");
    assert!(json.contains("\"curve\""), "{json}");
    // The sparse-vs-dense speedup column of the committed benchmark.
    assert!(json.contains("\"sparse_speedup_drain-wave\""), "{json}");
    assert!(!json.contains("\"threads\""), "{json}");
}

/// A restricted sweep without `--out` prints its table and writes no file:
/// it must not replace the committed full-sweep `BENCH_10.json` with its
/// few rows.
#[test]
fn restricted_perf_sweep_writes_no_file_without_out() {
    let dir = std::env::temp_dir().join(format!("td-perf-restricted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(BIN)
        .args([
            "perf",
            "--scenario",
            "drain-wave",
            "--sizes",
            "512",
            "--repeat",
            "1",
        ])
        .current_dir(&dir)
        .output()
        .expect("td runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let written = dir.join("BENCH_10.json").exists();
    let entries = std::fs::read_dir(&dir).unwrap().count();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("drain-wave"), "{stdout}");
    assert!(stdout.contains("no file written"), "{stdout}");
    assert!(!written, "a restricted sweep wrote BENCH_10.json");
    assert_eq!(entries, 0, "a restricted sweep wrote a file");
}

#[test]
fn serve_lists_families_without_args() {
    let (out, _, ok) = run_td(&["serve"], None);
    assert!(ok);
    for fam in ["small-world", "power-law", "churn-orient", "churn-assign"] {
        assert!(out.contains(fam), "listing missing {fam}:\n{out}");
    }
}

/// Two `td serve` runs with the same family/size/seed/budget must report
/// the same fingerprint and repair totals — the open-loop generator's
/// event mix is a pure function of the spec, and wall-clock pacing may
/// never leak into the applied trace.
#[test]
fn serve_is_deterministic_and_writes_versioned_json() {
    let json_for = |tag: &str| -> String {
        let out_path =
            std::env::temp_dir().join(format!("td-serve-test-{}-{tag}.json", std::process::id()));
        let out_str = out_path.to_str().unwrap().to_string();
        let (out, err, ok) = run_td(
            &[
                "serve",
                "churn-orient",
                "--size",
                "24",
                "--seed",
                "9",
                "--budget",
                "32",
                "--out",
                &out_str,
            ],
            None,
        );
        assert!(ok, "{err}");
        assert!(out.contains("fingerprint"), "{out}");
        assert!(out.contains("events"), "{out}");
        let json = std::fs::read_to_string(&out_path).expect("report written");
        std::fs::remove_file(&out_path).ok();
        json
    };
    let (a, b) = (json_for("a"), json_for("b"));
    assert!(a.contains("\"schema\":\"td-serve/v1\""), "{a}");
    assert!(a.contains("\"events\":32"), "{a}");
    assert!(a.contains("\"p999\""), "{a}");
    assert!(a.contains("\"sparse_skips\""), "{a}");
    let field = |json: &str, key: &str| -> String {
        let start = json.find(key).unwrap_or_else(|| panic!("{key} in {json}")) + key.len();
        json[start..]
            .chars()
            .take_while(|c| *c != ',' && *c != '}' && *c != '\n')
            .collect()
    };
    for key in ["\"fingerprint\":", "\"repair\":", "\"max_load\":"] {
        assert_eq!(field(&a, key), field(&b, key), "{key} differs");
    }
}

#[test]
fn serve_flag_errors_exit_2() {
    for bad in [
        // Not a churn family (static workload) / unknown family.
        vec!["serve", "rotor"],
        vec!["serve", "no-such-family"],
        // A leading flag means the family positional was omitted.
        vec!["serve", "--rate", "100"],
        vec!["serve", "churn-orient", "--rate", "x"],
        vec!["serve", "churn-orient", "--rate"],
        vec!["serve", "churn-orient", "--budget", "0"],
        vec!["serve", "churn-orient", "--budget"],
        vec!["serve", "churn-orient", "--queue", "0"],
        vec!["serve", "churn-orient", "--out"],
        vec!["serve", "churn-orient", "--seed", "garbage"],
        vec!["serve", "churn-orient", "--threads", "0"],
        vec!["serve", "churn-orient", "--shards", "0"],
        vec!["serve", "churn-orient", "--bogus"],
        vec!["serve", "churn-orient", "trailing-garbage"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(!out.stderr.is_empty(), "args {bad:?}: silent failure");
    }
}

/// The hand-rolled positional parsers used to ignore trailing arguments
/// (or panic on garbage); every subcommand must reject them with exit 2.
#[test]
fn trailing_and_malformed_args_exit_2_everywhere() {
    for bad in [
        vec!["gen", "gnm", "10", "20", "3", "extra"],
        vec!["gen", "gnm", "10", "20", "not-a-seed"],
        vec!["gen", "gnm", "10"],
        vec!["gen", "regular", "16", "3", "5", "extra"],
        vec!["gen", "tree", "2", "3", "extra"],
        vec!["gen", "comb", "5", "extra"],
        vec!["gen", "comb", "x"],
        vec!["gen", "game", "4,4", "2", "1", "extra"],
        vec!["gen", "game", "4,x", "2"],
        vec!["info", "-", "extra"],
        vec!["orient", "-", "--distribtued"],
        vec!["orient", "-", "second-file"],
        vec!["game", "-", "extra"],
        vec!["assign", "-", "--customers"],
        vec!["assign", "-", "--customers", "x"],
        vec!["assign", "-", "--bounded", "x", "--customers", "4"],
        vec!["assign", "-"],
        vec!["perf", "--quick", "extra-garbage"],
        vec!["exp", "check-bench"],
        vec!["exp", "check-bench", "BENCH_10.json"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(!out.stderr.is_empty(), "args {bad:?}: silent failure");
    }
}

#[test]
fn exp_check_bench_accepts_the_committed_file_and_rejects_drift() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_10.json");
    let out = Command::new(BIN)
        .args(["exp", "check-bench", committed, committed])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let drifted = std::env::temp_dir().join(format!("td-check-bench-{}.json", std::process::id()));
    let text = std::fs::read_to_string(committed).unwrap();
    std::fs::write(
        &drifted,
        text.replacen("\"rounds\":240,", "\"rounds\":241,", 1),
    )
    .unwrap();
    let out = Command::new(BIN)
        .args(["exp", "check-bench", drifted.to_str().unwrap(), committed])
        .output()
        .unwrap();
    std::fs::remove_file(&drifted).unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rounds 241 (committed 240)"), "{err}");
}

/// A document nested far past the JSON reader's depth limit is a
/// diagnostic with exit 1, not a stack overflow.
#[test]
fn exp_check_bench_rejects_a_deeply_nested_document() {
    let deep =
        std::env::temp_dir().join(format!("td-check-bench-deep-{}.json", std::process::id()));
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let path = deep.to_str().unwrap();
    let out = Command::new(BIN)
        .args(["exp", "check-bench", path, path])
        .output()
        .unwrap();
    std::fs::remove_file(&deep).unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nesting deeper than"), "{err}");
}

#[test]
fn churn_flag_errors_exit_2() {
    let out = Command::new(BIN)
        .args(["churn", "edge-flip", "--events"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(BIN)
        .args(["churn", "edge-flip", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn trace_lists_shapes_without_args() {
    let (out, _, ok) = run_td(&["trace"], None);
    assert!(ok);
    for shape in [
        "diurnal",
        "rack-burst",
        "drain-wave",
        "flash-crowd",
        "hotspot",
    ] {
        assert!(out.contains(shape), "missing shape {shape}: {out}");
    }
}

#[test]
fn trace_record_replay_pipeline_agrees_on_fingerprints() {
    let (doc, _, ok) = run_td(
        &[
            "trace",
            "record",
            "--shape",
            "drain-wave",
            "--events",
            "24",
            "--seed",
            "9",
        ],
        None,
    );
    assert!(ok, "record failed");
    assert!(doc.starts_with("td-trace/v1\n"), "{doc}");
    assert!(doc.contains("source shape:drain-wave"), "{doc}");
    assert!(doc.trim_end().ends_with("end"), "{doc}");

    let (info, _, ok) = run_td(&["trace", "info", "-"], Some(&doc));
    assert!(ok, "info failed");
    assert!(info.contains("td-trace/v1"), "{info}");
    assert!(info.contains("24"), "{info}");

    let (replay, _, ok) = run_td(&["trace", "replay", "-", "--consumer", "all"], Some(&doc));
    assert!(ok, "replay failed: {replay}");
    assert!(replay.contains("all consumers agree"), "{replay}");
    // Engine and serve rows print the same 16-hex fingerprint.
    let fps: Vec<&str> = replay
        .lines()
        .filter(|l| l.trim_start().starts_with("engine") || l.trim_start().starts_with("serve"))
        .filter_map(|l| l.split_whitespace().last())
        .collect();
    assert_eq!(fps.len(), 2, "{replay}");
    assert_eq!(fps[0], fps[1], "{replay}");
}

#[test]
fn trace_record_spec_mix_matches_a_serve_run() {
    let (doc, _, ok) = run_td(
        &[
            "trace",
            "record",
            "--spec",
            "churn-orient:size=24:seed=6:events=16",
        ],
        None,
    );
    assert!(ok);
    let (replay, _, ok) = run_td(&["trace", "replay", "-", "--consumer", "serve"], Some(&doc));
    assert!(ok, "{replay}");
    assert!(replay.contains("serve"), "{replay}");
}

#[test]
fn trace_convert_reseeds_deterministically() {
    let (doc, _, ok) = run_td(
        &[
            "trace",
            "record",
            "--shape",
            "flash-crowd",
            "--events",
            "20",
        ],
        None,
    );
    assert!(ok);
    let (a, _, ok) = run_td(&["trace", "convert", "-", "--seed", "77"], Some(&doc));
    assert!(ok, "{a}");
    let (b, _, ok) = run_td(&["trace", "convert", "-", "--seed", "77"], Some(&doc));
    assert!(ok);
    assert_eq!(a, b, "conversion is deterministic");
    assert!(a.contains("seed=77"), "{a}");
    assert_ne!(a, doc, "a new seed records a new stream");
}

#[test]
fn trace_flag_errors_exit_2() {
    for bad in [
        vec!["trace", "bogus-action"],
        vec!["trace", "record"],
        vec!["trace", "record", "--spec", "torus:size=8"],
        vec!["trace", "record", "--spec", "churn-orient:size=0"],
        vec!["trace", "record", "--spec", "not-a-family:size=8"],
        vec!["trace", "record", "--shape", "no-such-shape"],
        vec!["trace", "record", "--shape", "diurnal", "--size", "x"],
        vec![
            "trace",
            "record",
            "--shape",
            "diurnal",
            "--spec",
            "churn-orient",
        ],
        vec![
            "trace",
            "record",
            "--spec",
            "churn-orient:size=24",
            "--seed",
            "3",
        ],
        vec!["trace", "record", "--out"],
        vec!["trace", "info"],
        vec!["trace", "info", "a", "b"],
        vec!["trace", "replay"],
        vec!["trace", "replay", "--consumer", "engine"],
        vec!["trace", "convert", "-"],
        vec!["trace", "convert", "-", "--seed", "x"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(!out.stderr.is_empty(), "args {bad:?}: silent failure");
    }
}

#[test]
fn trace_malformed_files_exit_1_with_diagnostics() {
    let (doc, _, ok) = run_td(
        &["trace", "record", "--shape", "hotspot", "--events", "8"],
        None,
    );
    assert!(ok);
    for (mangled, needle) in [
        (doc.replacen("td-trace/v1", "td-trace/v9", 1), "schema"),
        (
            doc.lines()
                .take(8)
                .map(|l| format!("{l}\n"))
                .collect::<String>(),
            "truncated",
        ),
        (doc.replacen("flip ", "teleport ", 1), "teleport"),
    ] {
        let out = {
            let mut cmd = Command::new(BIN);
            cmd.args(["trace", "replay", "-"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped());
            let mut child = cmd.spawn().unwrap();
            child
                .stdin
                .as_mut()
                .unwrap()
                .write_all(mangled.as_bytes())
                .unwrap();
            child.wait_with_output().unwrap()
        };
        assert_eq!(out.status.code(), Some(1), "needle {needle}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "stderr {err}");
    }
}

/// Degenerate specs are usage errors (exit 2) at every spec-accepting
/// entry point, not panics or runtime failures.
#[test]
fn degenerate_specs_exit_2_everywhere() {
    for bad in [
        vec!["fuzz", "--spec", "torus:size=0"],
        vec!["fuzz", "--spec", "regular:size=4:d=3"],
        vec!["serve", "churn-orient", "--size", "0"],
        vec!["trace", "record", "--spec", "small-world:size=32:k=40"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(!out.stderr.is_empty(), "args {bad:?}: silent failure");
    }
}

/// `td compare` runs the balancer sweep, prints a per-protocol table plus
/// the summary line, and writes `td-compare/v1` JSON with one row per
/// (instance, protocol) pair.
#[test]
fn compare_sweeps_protocols_and_writes_versioned_json() {
    let out_path =
        std::env::temp_dir().join(format!("td-compare-test-{}.json", std::process::id()));
    let out_str = out_path.to_str().unwrap().to_string();
    let (out, err, ok) = run_td(
        &[
            "compare",
            "--families",
            "grid,torus",
            "--size",
            "8",
            "--seed",
            "7",
            "--out",
            &out_str,
        ],
        None,
    );
    assert!(ok, "{err}");
    for proto in ["token-drop", "rotor-router", "matching"] {
        assert!(out.contains(proto), "table missing {proto}:\n{out}");
    }
    assert!(out.contains("6 rows, every run verified"), "{out}");
    assert!(out.contains("td-compare/v1 report written"), "{out}");
    let json = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();
    assert!(json.contains("\"schema\":\"td-compare/v1\""), "{json}");
    assert!(json.contains("\"protocol\":\"matching\""), "{json}");
    assert!(json.contains("\"fingerprint\":\""), "{json}");
}

/// Assignment-churn traces carry join/leave/cap events that do not project
/// onto node loads; `td compare` must skip them with a reason, not fail.
#[test]
fn compare_skips_assignment_churn_traces_with_a_reason() {
    let (out, err, ok) = run_td(
        &[
            "compare",
            "--families",
            "rotor",
            "--size",
            "8",
            "--trace",
            "traces/drain-wave.tdt",
        ],
        None,
    );
    assert!(ok, "{err}");
    assert!(out.contains("skipped drain-wave"), "{out}");
}

#[test]
fn compare_flag_errors_exit_2() {
    for bad in [
        vec!["compare", "--protocols", "no-such-balancer"],
        vec!["compare", "--families", "no-such-family"],
        vec!["compare", "--size", "0"],
        vec!["compare", "--size"],
        vec!["compare", "--seed", "garbage"],
        vec!["compare", "--threads", "0"],
        vec!["compare", "--shards", "0"],
        vec!["compare", "--bogus"],
        vec!["compare", "trailing-garbage"],
    ] {
        let out = Command::new(BIN).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
        assert!(!out.stderr.is_empty(), "args {bad:?}: silent failure");
    }
}

/// An absurd rate/budget pair whose tick schedule cannot fit the u64
/// nanosecond horizon is a usage error caught before the daemon starts.
#[test]
fn serve_rejects_overflowing_tick_schedule() {
    let out = Command::new(BIN)
        .args([
            "serve",
            "churn-orient",
            "--rate",
            "1",
            "--budget",
            "100000000000",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("overflows the tick schedule"), "{err}");
    // Just past u32::MAX but schedule-safe at a fast rate: rejected for the
    // budget cap instead, again before any work happens.
    let out = Command::new(BIN)
        .args([
            "serve",
            "churn-orient",
            "--rate",
            "1000000",
            "--budget",
            "4294967296",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("exceeds the supported maximum"), "{err}");
}

// ------------------------------------------------------------------ td exp ---

#[test]
fn exp_list_shows_the_registry() {
    // Bare `td exp` and `td exp --list` are the same listing.
    for args in [&["exp"][..], &["exp", "--list"][..]] {
        let (out, err, ok) = run_td(args, None);
        assert!(ok, "{err}");
        for id in ["e15", "e17", "e18", "e19", "e21", "perf"] {
            assert!(out.contains(id), "listing misses {id}:\n{out}");
        }
        assert!(out.contains("td exp run"), "{out}");
        assert!(out.contains("td exp render"), "{out}");
    }
    // Trailing arguments after --list are usage errors.
    let out = Command::new(BIN)
        .args(["exp", "--list", "extra"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn exp_run_caches_rerenders_and_selects_subsets() {
    let base = std::env::temp_dir().join(format!("td-exp-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let results = base.join("results");
    let plots = base.join("plots");
    let r = results.to_str().unwrap();
    let p = plots.to_str().unwrap();

    // Kick-tires subset selection: running only e21 must record only e21.
    let (out, err, ok) = run_td(&["exp", "run", "e21", "--quick", "--results", r], None);
    assert!(ok, "{err}");
    assert!(out.contains("hits: 0"), "{out}");
    assert!(
        !out.contains("misses: 0"),
        "cold run cannot be all hits:\n{out}"
    );
    let manifest = std::fs::read_to_string(results.join("manifest.json")).expect("manifest");
    assert!(manifest.contains("\"experiments\":[\"e21\"]"), "{manifest}");
    assert!(!manifest.contains("\"exp\":\"e17\""), "{manifest}");

    // Warm rerun executes zero configurations — and flag order does not
    // matter (ids after flags parse the same).
    let (out, err, ok) = run_td(&["exp", "run", "--quick", "e21", "--results", r], None);
    assert!(ok, "{err}");
    assert!(out.contains("misses: 0"), "{out}");

    // Render from the warm cache writes the e21 plot.
    let (out, err, ok) = run_td(
        &[
            "exp",
            "render",
            "e21",
            "--quick",
            "--results",
            r,
            "--plots",
            p,
        ],
        None,
    );
    assert!(ok, "{err}");
    assert!(out.contains("plot:"), "{out}");
    assert!(plots.join("race.svg").is_file());

    // --bench without the perf experiment in the selection is a usage error.
    let out = Command::new(BIN)
        .args([
            "exp",
            "render",
            "e21",
            "--quick",
            "--results",
            r,
            "--bench",
            base.join("bench.json").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("perf"), "{err}");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn exp_usage_errors_exit_2() {
    // Unknown experiment ids, garbage flags, unknown actions, and bad flag
    // values are all usage errors (exit 2), diagnosed before any cache I/O.
    for bad in [
        &["exp", "run", "e99"][..],
        &["exp", "run", "--nonsense"][..],
        &["exp", "render", "no-such-exp"][..],
        &["exp", "frobnicate"][..],
        &["exp", "render", "e17", "--plots"][..],
        &["exp", "run", "e17", "--repeat", "0"][..],
        &["exp", "run", "e17", "--results"][..],
    ] {
        let out = Command::new(BIN).args(bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
    }
    // The unknown-id diagnostic names the known ids.
    let out = Command::new(BIN)
        .args(["exp", "run", "e99"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "{err}");
    assert!(err.contains("e17"), "{err}");
}

#[test]
fn exp_unwritable_results_dir_exits_1() {
    // A results path under a regular file cannot be created: runtime error,
    // exit 1 (distinct from the usage-error exit 2).
    let blocker = std::env::temp_dir().join(format!("td-exp-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "not a directory").unwrap();
    let results = blocker.join("sub");
    let out = Command::new(BIN)
        .args([
            "exp",
            "run",
            "e17",
            "--quick",
            "--results",
            results.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot create"), "{err}");
    let _ = std::fs::remove_file(&blocker);
}
