//! Bit-identity pins of the workload generators and the CSR build.
//!
//! Each case builds one [`WorkloadSpec`] and pins an FNV-1a fingerprint of
//! everything the instance hands to its pipeline: the CSR arrays (offsets,
//! neighbors, edge ids, mirrors and endpoints, read through the public
//! accessors), a game's levels and tokens, an assignment's customer rows
//! and bound, and a churn trace's events in their `td-trace/v1` line
//! encoding. The values were recorded before the graph builder and the
//! random generators were last rewritten, so a change to any edge id, port
//! order, mirror slot or random draw fails here.
//!
//! The cases are every registered family at every ladder size and its
//! default size for seeds 0–3, plus the three end-to-end benchmark specs at
//! the spec seeds their workloads build for seed 1 (8–15).

use td_bench::spec::{WorkloadInstance, WorkloadSpec, FAMILIES};
use token_dropping::assign::AssignmentInstance;
use token_dropping::graph::{CsrGraph, NodeId, Port};
use token_dropping::local::ChurnEvent;

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

/// Every CSR array of `g`, as read through the public accessors.
fn graph_words(g: &CsrGraph) -> Vec<u64> {
    let n = g.num_nodes();
    let mut w = vec![n as u64, g.num_edges() as u64];
    w.extend((0..n).map(|v| g.node_offset(NodeId::from(v)) as u64));
    w.push(g.num_slots() as u64);
    for v in g.nodes() {
        w.extend(g.neighbors(v).iter().map(|&u| u64::from(u)));
    }
    for v in g.nodes() {
        w.extend((0..g.degree(v)).map(|p| u64::from(g.edge_at(v, Port::from(p)).0)));
    }
    w.extend((0..g.num_slots()).map(|s| g.mirror_slot(s) as u64));
    for (e, a, b) in g.edge_list() {
        w.extend([u64::from(e.0), u64::from(a.0), u64::from(b.0)]);
    }
    w
}

/// The `td-trace/v1` lines of a churn trace, one word per byte.
fn event_words(trace: &[ChurnEvent]) -> impl Iterator<Item = u64> + '_ {
    trace.iter().flat_map(|ev| {
        let mut line = ev.encode().into_bytes();
        line.push(b'\n');
        line.into_iter().map(u64::from)
    })
}

fn assignment_words(inst: &AssignmentInstance) -> Vec<u64> {
    let mut w = vec![inst.num_customers() as u64, inst.num_servers() as u64];
    for c in 0..inst.num_customers() {
        let row = inst.servers_of(c);
        w.push(row.len() as u64);
        w.extend(row.iter().map(|&s| u64::from(s)));
    }
    w
}

/// Nodes, edges (or customers and servers) and the fingerprint of `spec`.
fn measure(spec: &WorkloadSpec) -> (usize, usize, u64) {
    match spec.build().expect("spec builds") {
        WorkloadInstance::Game(game) => {
            let g = game.graph();
            let words = graph_words(g)
                .into_iter()
                .chain(game.levels().iter().map(|&l| u64::from(l)))
                .chain(game.tokens().iter().map(|&t| u64::from(t)));
            (g.num_nodes(), g.num_edges(), fnv1a(words))
        }
        WorkloadInstance::Orientation(g) => (g.num_nodes(), g.num_edges(), fnv1a(graph_words(&g))),
        WorkloadInstance::Assignment { inst, bound } => {
            let words = assignment_words(&inst)
                .into_iter()
                .chain([bound.map_or(u64::MAX, u64::from)]);
            (inst.num_customers(), inst.num_servers(), fnv1a(words))
        }
        WorkloadInstance::OrientChurn { graph, trace } => {
            let words = graph_words(&graph).into_iter().chain(event_words(&trace));
            (graph.num_nodes(), graph.num_edges(), fnv1a(words))
        }
        WorkloadInstance::AssignChurn { base, trace } => {
            let words = assignment_words(&base)
                .into_iter()
                .chain(event_words(&trace));
            (base.num_customers(), base.num_servers(), fnv1a(words))
        }
    }
}

/// The pinned specs, each with its label in [`PINS`].
fn cases() -> Vec<(String, WorkloadSpec)> {
    let mut out = Vec::new();
    for f in FAMILIES {
        let mut sizes = f.size_ladder.to_vec();
        if !sizes.contains(&f.default_size) {
            sizes.push(f.default_size);
        }
        for size in sizes {
            for seed in 0..4 {
                let spec = WorkloadSpec::new(f.name)
                    .expect("registered family")
                    .with_size(size)
                    .with_seed(seed);
                out.push((format!("{}:size={size}@{seed}", f.name), spec));
            }
        }
    }
    // The benchmark's instances for seed 1: orient-regular and
    // token-layered build spec seeds 8..=15; serve-assign's pin stream
    // is 1,000 events long.
    for spec in [
        "regular:size=512:d=4",
        "layered:size=8192",
        "churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000",
    ] {
        for seed in 8..16 {
            let parsed = WorkloadSpec::parse(spec)
                .expect("valid spec")
                .with_seed(seed);
            out.push((format!("{spec}@{seed}"), parsed));
        }
    }
    out
}

/// `(case, nodes or customers, edges or servers, fingerprint)`.
#[rustfmt::skip]
const PINS: &[(&str, usize, usize, u64)] = &[
    ("regular:size=16@0", 16, 24, 0x12916a4d53f8ae4d),
    ("regular:size=16@1", 16, 24, 0x234886b76f0164cd),
    ("regular:size=16@2", 16, 24, 0x0de6d02d36ad254d),
    ("regular:size=16@3", 16, 24, 0x0b87792ed065d04d),
    ("regular:size=24@0", 24, 36, 0x56946656bc8e73a9),
    ("regular:size=24@1", 24, 36, 0x6095c67bb5405de9),
    ("regular:size=24@2", 24, 36, 0xf4e6505bcfc77a89),
    ("regular:size=24@3", 24, 36, 0xfd3796f9676159e9),
    ("regular:size=32@0", 32, 48, 0xeb041997c8ada8d5),
    ("regular:size=32@1", 32, 48, 0x119cb729ff95b7f5),
    ("regular:size=32@2", 32, 48, 0xcf1cd89380805315),
    ("regular:size=32@3", 32, 48, 0x0dee1272bd0a1eb5),
    ("grid:size=4@0", 16, 24, 0x17440a29d8037125),
    ("grid:size=4@1", 16, 24, 0x17440a29d8037125),
    ("grid:size=4@2", 16, 24, 0x17440a29d8037125),
    ("grid:size=4@3", 16, 24, 0x17440a29d8037125),
    ("grid:size=5@0", 25, 40, 0x90c9e2385722f498),
    ("grid:size=5@1", 25, 40, 0x90c9e2385722f498),
    ("grid:size=5@2", 25, 40, 0x90c9e2385722f498),
    ("grid:size=5@3", 25, 40, 0x90c9e2385722f498),
    ("grid:size=6@0", 36, 60, 0xef1ecc5f7635e53d),
    ("grid:size=6@1", 36, 60, 0xef1ecc5f7635e53d),
    ("grid:size=6@2", 36, 60, 0xef1ecc5f7635e53d),
    ("grid:size=6@3", 36, 60, 0xef1ecc5f7635e53d),
    ("grid:size=7@0", 49, 84, 0xd64736dba28d507c),
    ("grid:size=7@1", 49, 84, 0xd64736dba28d507c),
    ("grid:size=7@2", 49, 84, 0xd64736dba28d507c),
    ("grid:size=7@3", 49, 84, 0xd64736dba28d507c),
    ("torus:size=3@0", 9, 18, 0x82c25daba31df3bb),
    ("torus:size=3@1", 9, 18, 0x82c25daba31df3bb),
    ("torus:size=3@2", 9, 18, 0x82c25daba31df3bb),
    ("torus:size=3@3", 9, 18, 0x82c25daba31df3bb),
    ("torus:size=4@0", 16, 32, 0x9b29b2bceb48c175),
    ("torus:size=4@1", 16, 32, 0x9b29b2bceb48c175),
    ("torus:size=4@2", 16, 32, 0x9b29b2bceb48c175),
    ("torus:size=4@3", 16, 32, 0x9b29b2bceb48c175),
    ("torus:size=5@0", 25, 50, 0x59a62d920b83c90b),
    ("torus:size=5@1", 25, 50, 0x59a62d920b83c90b),
    ("torus:size=5@2", 25, 50, 0x59a62d920b83c90b),
    ("torus:size=5@3", 25, 50, 0x59a62d920b83c90b),
    ("hypercube:size=3@0", 8, 12, 0x3cfd67ea0e8915f1),
    ("hypercube:size=3@1", 8, 12, 0x3cfd67ea0e8915f1),
    ("hypercube:size=3@2", 8, 12, 0x3cfd67ea0e8915f1),
    ("hypercube:size=3@3", 8, 12, 0x3cfd67ea0e8915f1),
    ("hypercube:size=4@0", 16, 32, 0x1399e389755b48f5),
    ("hypercube:size=4@1", 16, 32, 0x1399e389755b48f5),
    ("hypercube:size=4@2", 16, 32, 0x1399e389755b48f5),
    ("hypercube:size=4@3", 16, 32, 0x1399e389755b48f5),
    ("small-world:size=24@0", 24, 48, 0x76bed47331ac2528),
    ("small-world:size=24@1", 24, 48, 0x77eaa11370520124),
    ("small-world:size=24@2", 24, 48, 0x45a77cf9b1761597),
    ("small-world:size=24@3", 24, 48, 0x5f22831e728fc0b5),
    ("small-world:size=32@0", 32, 64, 0x794b9f8929fcb351),
    ("small-world:size=32@1", 32, 64, 0x3d444370cb3cdb35),
    ("small-world:size=32@2", 32, 64, 0x4252192823fe57de),
    ("small-world:size=32@3", 32, 64, 0xcadf5ead0b743fa1),
    ("small-world:size=48@0", 48, 96, 0xd7c378e56b05eb46),
    ("small-world:size=48@1", 48, 96, 0x94ba5524fdba4630),
    ("small-world:size=48@2", 48, 96, 0x5ffb01b38aa6d052),
    ("small-world:size=48@3", 48, 96, 0x604312e171dc8168),
    ("power-law:size=24@0", 24, 45, 0x1865f3c58573eb14),
    ("power-law:size=24@1", 24, 45, 0x8890bc2e9d9b2733),
    ("power-law:size=24@2", 24, 45, 0x073c1e6779ba252f),
    ("power-law:size=24@3", 24, 45, 0x98582bb2875f31e6),
    ("power-law:size=32@0", 32, 61, 0xb8d08f9d7c967cf1),
    ("power-law:size=32@1", 32, 61, 0x6ea5714f2ac8475a),
    ("power-law:size=32@2", 32, 61, 0x79a0bcb100da5573),
    ("power-law:size=32@3", 32, 61, 0xac35fc474a6553cf),
    ("power-law:size=48@0", 48, 93, 0x1dff728a2471f0f9),
    ("power-law:size=48@1", 48, 93, 0xcbd5fe266ec48750),
    ("power-law:size=48@2", 48, 93, 0x1ec63cc49afbf251),
    ("power-law:size=48@3", 48, 93, 0x02d9b0bcee17f883),
    ("layered:size=4@0", 20, 48, 0x7a93eb4cf35b9a1b),
    ("layered:size=4@1", 20, 48, 0xea1cac7064da0c99),
    ("layered:size=4@2", 20, 48, 0x77edf5d3a3418e1f),
    ("layered:size=4@3", 20, 48, 0x2f8dd792a2276589),
    ("layered:size=6@0", 30, 72, 0x74dc6b4d8aabdc77),
    ("layered:size=6@1", 30, 72, 0x6080fda2ba6d5200),
    ("layered:size=6@2", 30, 72, 0x4fa1ecc6979efe2a),
    ("layered:size=6@3", 30, 72, 0xf6c4815ad3ee5bdf),
    ("layered:size=8@0", 40, 96, 0x8ab6cd981ca1a1e4),
    ("layered:size=8@1", 40, 96, 0x575e59ec7bf00c6a),
    ("layered:size=8@2", 40, 96, 0xc07902fd93f4c598),
    ("layered:size=8@3", 40, 96, 0x7f96a61e59f38561),
    ("hourglass:size=6@0", 19, 23, 0x66c8058558ae6bd0),
    ("hourglass:size=6@1", 19, 23, 0xc7b0db255d32b828),
    ("hourglass:size=6@2", 19, 23, 0x7bf2f2c1b3b0d386),
    ("hourglass:size=6@3", 19, 23, 0x2cd8ad8419f48cec),
    ("hourglass:size=8@0", 26, 36, 0x4581a8dedfa7e987),
    ("hourglass:size=8@1", 26, 36, 0xef7b66acec1b4cfc),
    ("hourglass:size=8@2", 26, 36, 0x89e9225e7e151233),
    ("hourglass:size=8@3", 26, 36, 0x4a68fc8acd63e0f1),
    ("hourglass:size=10@0", 32, 44, 0xef479b442d4361e7),
    ("hourglass:size=10@1", 32, 44, 0x8b50b40a0474bcec),
    ("hourglass:size=10@2", 32, 44, 0xe370a273d47deb06),
    ("hourglass:size=10@3", 32, 44, 0xd182385f6f7a2a13),
    ("rotor:size=6@0", 36, 90, 0x56f164cdf1ae245a),
    ("rotor:size=6@1", 36, 90, 0x56f164cdf1ae245a),
    ("rotor:size=6@2", 36, 90, 0x56f164cdf1ae245a),
    ("rotor:size=6@3", 36, 90, 0x56f164cdf1ae245a),
    ("rotor:size=10@0", 60, 150, 0x282e66b7e1938a11),
    ("rotor:size=10@1", 60, 150, 0x282e66b7e1938a11),
    ("rotor:size=10@2", 60, 150, 0x282e66b7e1938a11),
    ("rotor:size=10@3", 60, 150, 0x282e66b7e1938a11),
    ("rotor:size=14@0", 84, 210, 0x4a1696f8fb092d45),
    ("rotor:size=14@1", 84, 210, 0x4a1696f8fb092d45),
    ("rotor:size=14@2", 84, 210, 0x4a1696f8fb092d45),
    ("rotor:size=14@3", 84, 210, 0x4a1696f8fb092d45),
    ("rotor:size=8@0", 48, 120, 0x28cd962eeea6beed),
    ("rotor:size=8@1", 48, 120, 0x28cd962eeea6beed),
    ("rotor:size=8@2", 48, 120, 0x28cd962eeea6beed),
    ("rotor:size=8@3", 48, 120, 0x28cd962eeea6beed),
    ("zipf-cluster:size=4@0", 12, 4, 0x9749254ea26b368c),
    ("zipf-cluster:size=4@1", 12, 4, 0x8dea2dd7c4e4576d),
    ("zipf-cluster:size=4@2", 12, 4, 0x62c1ca784b91174e),
    ("zipf-cluster:size=4@3", 12, 4, 0x838602dcb84e33ad),
    ("zipf-cluster:size=5@0", 15, 5, 0x6d33a0d98eefd12b),
    ("zipf-cluster:size=5@1", 15, 5, 0xab8f148035d0ef6d),
    ("zipf-cluster:size=5@2", 15, 5, 0x6e8c8f212b97f4cc),
    ("zipf-cluster:size=5@3", 15, 5, 0x3dbfb6df779b23c8),
    ("zipf-cluster:size=6@0", 18, 6, 0x31c8738727d9afd5),
    ("zipf-cluster:size=6@1", 18, 6, 0xd087eb0fa73b61b4),
    ("zipf-cluster:size=6@2", 18, 6, 0x169da680738987d7),
    ("zipf-cluster:size=6@3", 18, 6, 0xb0f8d46cc308bb13),
    ("uniform-assign:size=3@0", 9, 3, 0x283892c7cf5a3987),
    ("uniform-assign:size=3@1", 9, 3, 0xa05adf066bb92bc7),
    ("uniform-assign:size=3@2", 9, 3, 0x64094431936a89e6),
    ("uniform-assign:size=3@3", 9, 3, 0xb6654c203ce62ac4),
    ("uniform-assign:size=4@0", 12, 4, 0x1b44c91d799dbe44),
    ("uniform-assign:size=4@1", 12, 4, 0xaab0486701957724),
    ("uniform-assign:size=4@2", 12, 4, 0xa741d9195d4e4984),
    ("uniform-assign:size=4@3", 12, 4, 0xb79c179df5e83344),
    ("uniform-assign:size=5@0", 15, 5, 0xd913b42e5be9eae3),
    ("uniform-assign:size=5@1", 15, 5, 0x923103ecba62a3c3),
    ("uniform-assign:size=5@2", 15, 5, 0xc9a3d1dbcaab0ba1),
    ("uniform-assign:size=5@3", 15, 5, 0xfcb5b857067d5320),
    ("churn-orient:size=32@0", 32, 64, 0x49f3b1a6ad560371),
    ("churn-orient:size=32@1", 32, 64, 0x55fa3b801fc9a9e4),
    ("churn-orient:size=32@2", 32, 64, 0xd6570041fe1cfa13),
    ("churn-orient:size=32@3", 32, 64, 0x136222a76b6d313f),
    ("churn-orient:size=48@0", 48, 96, 0xffae326d53264e3f),
    ("churn-orient:size=48@1", 48, 96, 0x3fb517516087aede),
    ("churn-orient:size=48@2", 48, 96, 0xfddb43250e6579a2),
    ("churn-orient:size=48@3", 48, 96, 0x79e457430c57c150),
    ("churn-orient:size=64@0", 64, 128, 0x3ace7ed76dff3d13),
    ("churn-orient:size=64@1", 64, 128, 0xcaedeb20ca7b1b9b),
    ("churn-orient:size=64@2", 64, 128, 0x29dc4d16a5af4bac),
    ("churn-orient:size=64@3", 64, 128, 0x6e207c2c1d5f5039),
    ("churn-assign:size=4@0", 8, 4, 0x5bfc76188f36d337),
    ("churn-assign:size=4@1", 8, 4, 0xa2a161211b87176c),
    ("churn-assign:size=4@2", 8, 4, 0x86ececf5f3141186),
    ("churn-assign:size=4@3", 8, 4, 0xbc4a35e8323a43bb),
    ("churn-assign:size=6@0", 12, 6, 0x810b7b58c1c68b48),
    ("churn-assign:size=6@1", 12, 6, 0x6b2f1cf791cdcb1a),
    ("churn-assign:size=6@2", 12, 6, 0x88df51382072989b),
    ("churn-assign:size=6@3", 12, 6, 0xa4a7487f7d8367a4),
    ("churn-assign:size=8@0", 16, 8, 0xe867bc05fc88cca6),
    ("churn-assign:size=8@1", 16, 8, 0x8d4331b58c103f6d),
    ("churn-assign:size=8@2", 16, 8, 0xaf9c389865b430f4),
    ("churn-assign:size=8@3", 16, 8, 0x512e84b960598502),
    ("regular:size=512:d=4@8", 512, 1024, 0x298a087784202ce7),
    ("regular:size=512:d=4@9", 512, 1024, 0xf94c2db010be1897),
    ("regular:size=512:d=4@10", 512, 1024, 0x92c684968de1c463),
    ("regular:size=512:d=4@11", 512, 1024, 0x3763e3f83eb6b653),
    ("regular:size=512:d=4@12", 512, 1024, 0x395b6311386cd763),
    ("regular:size=512:d=4@13", 512, 1024, 0x8673b8faf24aec0f),
    ("regular:size=512:d=4@14", 512, 1024, 0xf847dc116972e1e3),
    ("regular:size=512:d=4@15", 512, 1024, 0xcb3dfbc7911b1023),
    ("layered:size=8192@8", 40960, 98304, 0xe0742924e01a4ceb),
    ("layered:size=8192@9", 40960, 98304, 0x58aa497343a02f4c),
    ("layered:size=8192@10", 40960, 98304, 0x69287534a22e21ec),
    ("layered:size=8192@11", 40960, 98304, 0x91790babd858ef58),
    ("layered:size=8192@12", 40960, 98304, 0xeb1ff1954e73e8f1),
    ("layered:size=8192@13", 40960, 98304, 0x8ae7f30850b387a7),
    ("layered:size=8192@14", 40960, 98304, 0x1fabd8d6c0447098),
    ("layered:size=8192@15", 40960, 98304, 0xd9400e32bee17669),
    ("churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000@8", 2048, 1024, 0x4ffe9052a17e9886),
    ("churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000@9", 2048, 1024, 0x58fefc3bf69b33d2),
    ("churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000@10", 2048, 1024, 0x606dba365fe700e9),
    ("churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000@11", 2048, 1024, 0x44a95a7cc3f31815),
    ("churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000@12", 2048, 1024, 0x3409c20cebd2a4f9),
    ("churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000@13", 2048, 1024, 0xdaddbf665f70bff4),
    ("churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000@14", 2048, 1024, 0xe0edc51c383edbc7),
    ("churn-assign:size=1024:join_w=2:leave_w=2:cap_w=1:events=1000@15", 2048, 1024, 0x001d7f47d48aab85),
];

#[test]
fn generated_instances_repeat_their_pins() {
    let cases = cases();
    let got: Vec<(String, usize, usize, u64)> = cases
        .iter()
        .map(|(label, spec)| {
            let (a, b, fp) = measure(spec);
            (label.clone(), a, b, fp)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(l, a, b, fp)| format!("    (\"{l}\", {a}, {b}, 0x{fp:016x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        PINS.len(),
        "one pin per case; measured:\n{table}"
    );
    for ((label, a, b, fp), p) in got.iter().zip(PINS) {
        assert_eq!(p.0, label, "pin order");
        assert_eq!((*a, *b, *fp), (p.1, p.2, p.3), "{label}");
    }
}
