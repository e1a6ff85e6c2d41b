//! Bit-identity pins of the proposal protocol (Thm 4.1).
//!
//! Each case pins what the benchmark and the paper measure of one solve:
//! communication rounds, messages, the executor work counters, and FNV-1a
//! fingerprints of the move log and of the reconstructed traversals. The
//! values were recorded before the node program's internals were last
//! rewritten, so a refactor that changes any of them changes behaviour.
//!
//! The pins hold under the dense reference scan and under the production
//! loop. The production loop never scans a halted node, so there the dense
//! run's `halted_scans` reappears as `sparse_skips`.

use td_bench::scenario::rotor_sweep_game;
use td_bench::spec::{WorkloadInstance, WorkloadSpec};
use token_dropping::core::proposal::{self, ProtocolRunResult};
use token_dropping::core::TokenGame;
use token_dropping::local::Simulator;

/// The pinned measurements of one solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    comm_rounds: u32,
    messages: u64,
    node_rounds: u64,
    stamp_scans: u64,
    halted_scans: u64,
    log_fp: u64,
    traversals_fp: u64,
}

/// FNV-1a over a stream of 64-bit words, byte by byte (little endian).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn spec_game(spec: &str, seed: u64) -> TokenGame {
    match WorkloadSpec::parse(spec)
        .expect("valid spec")
        .with_seed(seed)
        .build()
        .expect("spec builds")
    {
        WorkloadInstance::Game(g) => g,
        _ => panic!("{spec} is not a game family"),
    }
}

fn cases() -> Vec<(String, TokenGame)> {
    let mut out = vec![
        ("figure2".to_string(), TokenGame::figure2()),
        (
            "contention_comb(7)".to_string(),
            TokenGame::contention_comb(7),
        ),
        ("waterfall(5,4)".to_string(), TokenGame::waterfall(5, 4)),
        ("rotor(12)".to_string(), rotor_sweep_game(12)),
    ];
    for seed in [1, 2, 3] {
        let spec = "layered:size=24:levels=5:delta=4";
        out.push((format!("{spec}@{seed}"), spec_game(spec, seed)));
    }
    out.push((
        "layered:size=96:levels=3:delta=6:density_pct=30@4".to_string(),
        spec_game("layered:size=96:levels=3:delta=6:density_pct=30", 4),
    ));
    for seed in [5, 6, 7] {
        let spec = "hourglass:size=32:delta=3";
        out.push((format!("{spec}@{seed}"), spec_game(spec, seed)));
    }
    out
}

fn measure(res: &ProtocolRunResult, halted_scans: u64) -> Pin {
    Pin {
        comm_rounds: res.comm_rounds,
        messages: res.messages,
        node_rounds: res.perf.node_rounds,
        stamp_scans: res.perf.stamp_scans,
        halted_scans,
        log_fp: fnv1a(
            res.log
                .events
                .iter()
                .flat_map(|e| [u64::from(e.round), u64::from(e.from.0), u64::from(e.to.0)]),
        ),
        traversals_fp: fnv1a(res.solution.traversals.iter().flat_map(|t| {
            std::iter::once(t.path.len() as u64).chain(t.path.iter().map(|v| u64::from(v.0)))
        })),
    }
}

/// `(case, comm_rounds, messages, node_rounds, stamp_scans, halted_scans,
/// log_fp, traversals_fp)`.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const PINS: &[(&str, u32, u64, u64, u64, u64, u64, u64)] = &[
    ("figure2", 12, 83, 106, 276, 62, 0x6c617304e1e40cac, 0xd235f653d552f8cd),
    ("contention_comb(7)", 16, 175, 133, 931, 91, 0x57ae971e397c3dc3, 0xec76dcb7b21934c6),
    ("waterfall(5,4)", 24, 484, 385, 3175, 215, 0x587473cd5f6e4bd9, 0xc9f78a1d2a9239e0),
    ("rotor(12)", 26, 1106, 1140, 5988, 732, 0x1b8cad51a4d235aa, 0x7f4ced4094c78086),
    ("layered:size=24:levels=5:delta=4@1", 21, 2094, 1201, 8908, 1823, 0x94f0f727f452e6ed, 0x0e49874d2dd1847b),
    ("layered:size=24:levels=5:delta=4@2", 18, 2013, 1103, 8246, 1489, 0xbf1744108656a62a, 0x97b5dcabcf45813d),
    ("layered:size=24:levels=5:delta=4@3", 22, 2232, 1439, 10672, 1729, 0xb67cdec6004743fe, 0x8eba0234a677724c),
    ("layered:size=96:levels=3:delta=6:density_pct=30@4", 14, 6187, 2075, 20590, 3301, 0x5d2b8e099aebc0c4, 0x2c6bed021b9d3793),
    ("hourglass:size=32:delta=3@5", 19, 837, 709, 4075, 1267, 0x790674eeebaa555e, 0x7ad7a511296aa0bc),
    ("hourglass:size=32:delta=3@6", 22, 863, 795, 4749, 1493, 0x6b40e7b937ddf7b8, 0xef0215901f666eb4),
    ("hourglass:size=32:delta=3@7", 21, 892, 836, 4889, 1348, 0xae1b3212ae04bc01, 0xec57d5244d6ad270),
];

#[test]
fn proposal_protocol_repeats_its_pins_on_every_executor() {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len(), "one pin per case");
    for ((name, game), p) in cases.iter().zip(PINS) {
        assert_eq!(p.0, name, "pin order");
        let want = Pin {
            comm_rounds: p.1,
            messages: p.2,
            node_rounds: p.3,
            stamp_scans: p.4,
            halted_scans: p.5,
            log_fp: p.6,
            traversals_fp: p.7,
        };
        let dense = proposal::run_on_simulator(game, &Simulator::dense());
        assert_eq!(
            dense.perf.sparse_skips, 0,
            "{name}: the dense scan skips nothing"
        );
        assert_eq!(
            measure(&dense, dense.perf.halted_scans),
            want,
            "{name}: dense"
        );
        let sparse = proposal::run_on_simulator(game, &Simulator::sequential());
        assert_eq!(
            sparse.perf.halted_scans, 0,
            "{name}: the production loop scans no halted node"
        );
        assert_eq!(
            measure(&sparse, sparse.perf.sparse_skips),
            want,
            "{name}: sparse (halted_scans read as sparse_skips)"
        );
    }
}
