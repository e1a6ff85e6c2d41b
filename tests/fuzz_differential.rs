//! The mass randomized differential fuzz plane: a deterministic corpus of
//! 200+ seeded [`WorkloadSpec`]s, spanning every generator family, driven
//! through every protocol stack on both executors by [`td_bench::fuzz`].
//! Each spec is checked for
//!
//! * verifier acceptance (rules 1–3 + dynamics, orientation stability,
//!   assignment stability / k-boundedness — after every churn event on
//!   live traces),
//! * bit-identical outputs, rounds, and message counts across the
//!   production loop and the dense oracle (incremental repair vs full
//!   recompute on churn traces),
//! * metamorphic relabeling invariance (a seeded node relabeling still
//!   verifies, with label-invariant structure preserved), and
//! * seed-independent structural stats of the generator itself.
//!
//! Every failure prints a self-contained `td fuzz --spec '<spec>'` repro
//! line. The corpus is split across one test per pipeline kind so a
//! divergence names its family group in the test name too.

use td_bench::fuzz::{check, check_balance, corpus, repro_line};
use td_bench::spec::{FamilyKind, WorkloadSpec, FAMILIES};

/// Total corpus size.
const CORPUS: usize = 208;
// The acceptance floor, enforced at compile time: >= 200 specs.
const _: () = assert!(CORPUS >= 200);
const BASE_SEED: u64 = 0xF0CC;

fn full_corpus() -> Vec<WorkloadSpec> {
    corpus(CORPUS, BASE_SEED)
}

/// Runs every corpus spec of the given kinds, collecting failures instead
/// of stopping at the first, and panics with one repro line per failure.
fn run_kinds(kinds: &[FamilyKind]) -> usize {
    let specs: Vec<WorkloadSpec> = full_corpus()
        .into_iter()
        .filter(|s| kinds.contains(&s.kind()))
        .collect();
    assert!(!specs.is_empty(), "no specs of kinds {kinds:?} in corpus");
    let mut failures = Vec::new();
    for spec in &specs {
        if let Err(e) = check(spec) {
            failures.push(format!("  {}   # {e}", repro_line(spec)));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} specs diverged; repro lines:\n{}",
        failures.len(),
        specs.len(),
        failures.join("\n")
    );
    specs.len()
}

#[test]
fn corpus_spans_families_and_roundtrips() {
    let specs = full_corpus();
    assert_eq!(specs.len(), CORPUS);

    // Spans every registered family (>= 6 required, we ship 13).
    let mut families: Vec<&str> = specs.iter().map(|s| s.family).collect();
    families.sort_unstable();
    families.dedup();
    assert!(
        families.len() >= 6,
        "corpus spans only {} families",
        families.len()
    );
    assert_eq!(families.len(), FAMILIES.len(), "corpus misses a family");

    // Every spec's one-line form is a complete repro: display -> parse is
    // the identity, and no two specs collide.
    let mut lines: Vec<String> = Vec::with_capacity(specs.len());
    for spec in &specs {
        let line = spec.to_string();
        let back = WorkloadSpec::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(*spec, back, "roundtrip drift for {line}");
        lines.push(line);
    }
    lines.sort_unstable();
    let before = lines.len();
    lines.dedup();
    assert_eq!(lines.len(), before, "duplicate specs in corpus");

    // Determinism: the corpus is a pure function of (count, base_seed).
    assert_eq!(specs, full_corpus());
}

#[test]
fn game_specs_have_zero_divergence() {
    let n = run_kinds(&[FamilyKind::Game]);
    assert!(n >= 40, "only {n} game specs");
}

#[test]
fn orientation_specs_have_zero_divergence() {
    let n = run_kinds(&[FamilyKind::Orientation]);
    assert!(n >= 40, "only {n} orientation specs");
}

#[test]
fn assignment_specs_have_zero_divergence() {
    let n = run_kinds(&[FamilyKind::Assignment]);
    assert!(n >= 20, "only {n} assignment specs");
}

#[test]
fn churn_specs_have_zero_divergence() {
    let n = run_kinds(&[FamilyKind::OrientChurn, FamilyKind::AssignChurn]);
    assert!(n >= 40, "only {n} churn specs");
}

/// The competing-balancer differential on a pinned sub-corpus: every
/// registered protocol (token dropping, rotor-router, matching exchange)
/// on each spec's projected node-load workload, accepted by its own
/// verifier, and invariant under metamorphic relabeling. The stride keeps
/// the sample deterministic while still cycling through every family.
#[test]
fn balance_protocols_have_zero_divergence() {
    let specs: Vec<WorkloadSpec> = full_corpus().into_iter().step_by(7).collect();
    assert!(specs.len() >= 25, "only {} balance specs", specs.len());
    let mut failures = Vec::new();
    for spec in &specs {
        if let Err(e) = check_balance(spec) {
            failures.push(format!("  {}   # {e}", repro_line(spec)));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} balance specs diverged; repro lines:\n{}",
        failures.len(),
        specs.len(),
        failures.join("\n")
    );
}

/// The checked-in regression corpus: specs that once exercised tricky
/// paths (degenerate sizes, wraparound edges, delete-heavy traces, extreme
/// skew), replayed forever. `td fuzz` appends failing specs to
/// `fuzz-failures.spec` in exactly this one-spec-per-line format — move
/// them into `tests/corpus/` to pin them.
#[test]
fn regression_corpus_replays_clean() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing {dir:?}: {e}"))
        .map(|r| r.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "spec"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no .spec files under {dir:?}");
    let mut total = 0usize;
    let mut failures = Vec::new();
    for path in &entries {
        let text = std::fs::read_to_string(path).expect("readable spec file");
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let spec = WorkloadSpec::parse(line)
                .unwrap_or_else(|e| panic!("{path:?}: bad spec '{line}': {e}"));
            total += 1;
            if let Err(e) = check(&spec) {
                failures.push(format!("  {}   # {path:?}: {e}", repro_line(&spec)));
            }
        }
    }
    assert!(total >= 6, "regression corpus holds only {total} specs");
    assert!(
        failures.is_empty(),
        "{} regression spec(s) regressed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
