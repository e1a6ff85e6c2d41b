//! The committed trace corpus (`traces/*.tdt`) and the `td-trace/v1`
//! format itself, checked end to end:
//!
//! * every committed trace parses, matches its header fingerprint, and is
//!   **re-derivable**: regenerating its shape from the header's spec and
//!   seed reproduces the committed events bit for bit (so the corpus
//!   cannot silently drift from the generators),
//! * every committed trace replays clean through the repair engine —
//!   incremental repair, a second incremental run and the full recompute
//!   all landing on the same solution fingerprint — and through the fuzz
//!   plane's full differential,
//! * malformed documents (wrong schema line, truncation, tampered events,
//!   forged fingerprints, unknown event keywords) are diagnostics, never
//!   panics, and
//! * a proptest round-trip: any event sequence survives
//!   `write -> read` unchanged.

use proptest::prelude::*;
use td_bench::trace::{self, Trace, TraceSource};
use td_bench::WorkloadSpec;
use td_graph::NodeId;
use td_local::{ChurnEvent, RepairMode};

fn corpus_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces")
}

fn corpus() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(corpus_dir())
        .expect("traces/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tdt"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).expect("readable trace"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_covers_every_registered_shape() {
    let names: Vec<String> = corpus().iter().map(|(n, _)| n.clone()).collect();
    assert!(names.len() >= 5, "corpus holds >= 5 traces: {names:?}");
    for s in trace::SHAPES {
        assert!(
            names.iter().any(|n| n == &format!("{}.tdt", s.name)),
            "shape '{}' has a committed trace",
            s.name
        );
    }
}

#[test]
fn corpus_parses_and_is_rederivable_from_its_own_header() {
    for (name, text) in corpus() {
        let t = Trace::read(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let TraceSource::Shape(shape) = &t.source else {
            panic!("{name}: corpus traces record shapes");
        };
        // Same shape, same size, same seed => the exact committed events.
        let again = Trace::from_shape(shape, t.spec.size, t.spec.seed, t.spec.param("events"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            again, t,
            "{name}: committed corpus drifted from the generator"
        );
        // And the serialized form round-trips byte-identically.
        assert_eq!(again.write(), text, "{name}: serialization drifted");
    }
}

#[test]
fn corpus_replays_bit_identically_across_executors() {
    for (name, text) in corpus() {
        let t = Trace::read(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let seq = trace::replay_engine(&t, RepairMode::Incremental)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(seq.events, t.events.len(), "{name}");
        let again = trace::replay_engine(&t, RepairMode::Incremental)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(again, seq, "{name}: a replay repeats itself");
        let rec = trace::replay_engine(&t, RepairMode::FullRecompute)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rec.solution_fp, seq.solution_fp, "{name}: recompute agrees");
    }
}

#[test]
fn corpus_survives_the_fuzz_differential() {
    for (name, text) in corpus() {
        let t = Trace::read(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = trace::replay_differential(&t).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.compared > 0, "{name}: differential ran its grid");
    }
}

#[test]
fn malformed_trace_documents_are_rejected_with_diagnostics() {
    let (name, good) = corpus().into_iter().next().expect("non-empty corpus");

    let e = Trace::read(&good.replacen("td-trace/v1", "td-trace/v2", 1)).unwrap_err();
    assert!(e.contains("schema mismatch"), "{name}: {e}");

    let cut: String = good.lines().take(10).map(|l| format!("{l}\n")).collect();
    let e = Trace::read(&cut).unwrap_err();
    assert!(e.contains("truncated"), "{name}: {e}");

    let e = Trace::read(good.trim_end_matches("end\n")).unwrap_err();
    assert!(e.contains("end"), "{name}: {e}");

    // An event variant this schema version does not know.
    let mut lines: Vec<&str> = good.lines().collect();
    let ev = lines
        .iter()
        .position(|l| ChurnEvent::decode(l).is_ok())
        .expect("an event line");
    let swapped = format!("teleport {}", lines[ev]);
    lines[ev] = &swapped;
    let doc = lines.join("\n") + "\n";
    let e = Trace::read(&doc).unwrap_err();
    assert!(e.contains("unknown event keyword"), "{name}: {e}");

    // A forged header fingerprint.
    let forged: String = good
        .lines()
        .map(|l| {
            if l.starts_with("fingerprint ") {
                "fingerprint 0123456789abcdef\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    let e = Trace::read(&forged).unwrap_err();
    assert!(e.contains("fingerprint mismatch"), "{name}: {e}");
}

/// A seeded stream of arbitrary events — every variant, full-range ids
/// (the codec round-trip does not require semantic validity).
fn random_events(seed: u64, len: usize) -> Vec<ChurnEvent> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => ChurnEvent::EdgeInsert {
                u: NodeId(rng.gen()),
                v: NodeId(rng.gen()),
            },
            1 => ChurnEvent::EdgeDelete {
                u: NodeId(rng.gen()),
                v: NodeId(rng.gen()),
            },
            2 => ChurnEvent::EdgeFlip {
                u: NodeId(rng.gen()),
                v: NodeId(rng.gen()),
            },
            3 => ChurnEvent::TokenArrive(NodeId(rng.gen())),
            4 => ChurnEvent::TokenDrop(NodeId(rng.gen())),
            5 => ChurnEvent::CustomerJoin {
                servers: (0..rng.gen_range(0..5usize)).map(|_| rng.gen()).collect(),
            },
            6 => ChurnEvent::CustomerLeave(rng.gen()),
            _ => ChurnEvent::ServerCapacity {
                server: rng.gen(),
                capacity: rng.gen(),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full document round-trip: any event sequence, wrapped in a
    /// valid header, survives `write -> read` unchanged — header, source,
    /// events, fingerprint.
    #[test]
    fn trace_documents_roundtrip_any_event_sequence(
        seed in 0u64..u64::MAX,
        len in 0usize..80,
    ) {
        let events = random_events(seed, len);
        let spec = WorkloadSpec::parse("churn-orient:size=16:seed=1").unwrap()
            .with_seed(seed)
            .with_param("events", events.len() as u32);
        let t = Trace { spec, source: TraceSource::SpecMix, events };
        let back = Trace::read(&t.write()).unwrap();
        prop_assert_eq!(back, t);
    }

    /// Every single event round-trips through the line codec.
    #[test]
    fn event_lines_roundtrip(seed in 0u64..u64::MAX) {
        for ev in random_events(seed, 24) {
            prop_assert_eq!(ChurnEvent::decode(&ev.encode()).unwrap(), ev);
        }
    }
}
