//! Bit-identity pins of the distributed stable orientation protocol
//! (Thm 5.1).
//!
//! Each case pins what the benchmark and the paper measure of one solve:
//! communication rounds, messages, the executor work counters, and an
//! FNV-1a fingerprint of the final orientation (the head of every edge, in
//! edge-id order). The values were recorded before the node program's
//! internals were last rewritten, so a refactor that changes any of them
//! changes behaviour.
//!
//! The first eight cases are the instances the end-to-end benchmark's
//! orient-regular workload builds for seed 1. The pins hold under the dense
//! reference scan and under the production loop. The production loop never
//! scans a halted node, so there the dense run's `halted_scans` reappears
//! as `sparse_skips`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use td_bench::spec::{WorkloadInstance, WorkloadSpec};
use token_dropping::graph::gen::classic::{hypercube, path, petersen, star, torus};
use token_dropping::graph::gen::random::gnm;
use token_dropping::graph::CsrGraph;
use token_dropping::local::Simulator;
use token_dropping::orient::protocol::{run_distributed, DistributedResult};

/// The pinned measurements of one solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pin {
    comm_rounds: u32,
    messages: u64,
    node_rounds: u64,
    stamp_scans: u64,
    sparse_skips: u64,
    orientation_fp: u64,
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

fn spec_graph(spec: &str, seed: u64) -> CsrGraph {
    match WorkloadSpec::parse(spec)
        .expect("valid spec")
        .with_seed(seed)
        .build()
        .expect("spec builds")
    {
        WorkloadInstance::Orientation(g) => g,
        _ => panic!("{spec} is not an orientation family"),
    }
}

fn cases() -> Vec<(String, CsrGraph)> {
    let mut out = Vec::new();
    // The orient-regular benchmark instances of seed 1: spec seeds 8..=15.
    for seed in 8..16 {
        let spec = "regular:size=512:d=4";
        out.push((format!("{spec}@{seed}"), spec_graph(spec, seed)));
    }
    out.push(("torus(8,8)".to_string(), torus(8, 8)));
    out.push(("hypercube(4)".to_string(), hypercube(4)));
    out.push(("petersen".to_string(), petersen()));
    out.push(("star(6)".to_string(), star(6)));
    out.push(("path(9)".to_string(), path(9)));
    let mut rng = SmallRng::seed_from_u64(2021);
    for (n, m) in [(24, 48), (30, 45), (16, 24)] {
        out.push((format!("gnm({n},{m})"), gnm(n, m, &mut rng)));
    }
    out.push((
        "isolated".to_string(),
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 1)]).expect("valid edges"),
    ));
    out
}

fn measure(g: &CsrGraph, res: &DistributedResult, sparse_skips: u64) -> Pin {
    Pin {
        comm_rounds: res.comm_rounds,
        messages: res.messages,
        node_rounds: res.perf.node_rounds,
        stamp_scans: res.perf.stamp_scans,
        sparse_skips,
        orientation_fp: fnv1a(
            g.edge_list()
                .map(|(e, _, _)| u64::from(res.orientation.head(e).expect("fully oriented").0)),
        ),
    }
}

/// `(case, comm_rounds, messages, node_rounds, stamp_scans, sparse_skips,
/// orientation_fp)`.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const PINS: &[(&str, u32, u64, u64, u64, u64, u64)] = &[
    ("regular:size=512:d=4@8", 2910, 24794, 1489920, 5959680, 0, 0xaa1ef30e00a3c1e9),
    ("regular:size=512:d=4@9", 2910, 24791, 1489920, 5959680, 0, 0x1bbe3ebf72dee07e),
    ("regular:size=512:d=4@10", 2910, 24768, 1489920, 5959680, 0, 0x67e06609235189fc),
    ("regular:size=512:d=4@11", 2910, 24803, 1489920, 5959680, 0, 0x255773ad7ed15857),
    ("regular:size=512:d=4@12", 2910, 24753, 1489920, 5959680, 0, 0xff7de43b936e23d5),
    ("regular:size=512:d=4@13", 2910, 24807, 1489920, 5959680, 0, 0x4d5a7e182f79d10e),
    ("regular:size=512:d=4@14", 2910, 24721, 1489920, 5959680, 0, 0x053bff5745f8b7e9),
    ("regular:size=512:d=4@15", 2910, 24737, 1489920, 5959680, 0, 0x76f94a0884e494bb),
    ("torus(8,8)", 2910, 3107, 186240, 744960, 0, 0x36f545fb7a595c65),
    ("hypercube(4)", 2910, 768, 46560, 186240, 0, 0x2e1fcef470798ba5),
    ("petersen", 1112, 285, 11120, 33360, 0, 0x4c17b58984fe574a),
    ("star(6)", 12698, 179, 88886, 152376, 0, 0x802dc7226d7e8623),
    ("path(9)", 354, 111, 3186, 5664, 0, 0xb0099f969b546f25),
    ("gnm(24,48)", 37782, 1946, 906768, 3627072, 0, 0xdb962c48725b87a7),
    ("gnm(30,45)", 22704, 1622, 635714, 2043360, 45406, 0x66129b4c585246f0),
    ("gnm(16,24)", 6468, 656, 103488, 310464, 0, 0x0afddf175d1fd687),
    ("isolated", 1112, 72, 4449, 8896, 1111, 0xebd8861eaa5a6805),
];

/// Solves every case with `sim` and compares it with its pin; `skips`
/// reads the counter that holds the pinned `sparse_skips` on that loop.
fn check_pins(sim: &Simulator, label: &str, skips: impl Fn(&DistributedResult) -> u64) {
    let cases = cases();
    assert_eq!(cases.len(), PINS.len(), "one pin per case");
    for ((name, g), p) in cases.iter().zip(PINS) {
        assert_eq!(p.0, name, "pin order");
        let want = Pin {
            comm_rounds: p.1,
            messages: p.2,
            node_rounds: p.3,
            stamp_scans: p.4,
            sparse_skips: p.5,
            orientation_fp: p.6,
        };
        let res = run_distributed(g, sim);
        res.orientation.verify_stable(g).expect("stable");
        assert_eq!(measure(g, &res, skips(&res)), want, "{name}: {label}");
    }
}

#[test]
fn orientation_pins_hold_on_the_dense_oracle() {
    check_pins(&Simulator::dense(), "dense", |res| {
        assert_eq!(res.perf.sparse_skips, 0, "the dense scan skips nothing");
        res.perf.halted_scans
    });
}

#[test]
fn orientation_pins_hold_on_the_production_loop() {
    check_pins(&Simulator::sequential(), "sparse", |res| {
        assert_eq!(
            res.perf.halted_scans, 0,
            "the production loop scans no halted node"
        );
        res.perf.sparse_skips
    });
}
