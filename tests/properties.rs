//! Property-based tests (proptest) on the core invariants, across crates.
//!
//! Strategy: generate random-but-valid instances from seeds and sizes, run
//! the real solvers, and assert the paper's invariants through the
//! independent verifiers. Shrinking lands on minimal failing sizes/seeds.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use token_dropping::assign::phases::solve_stable_assignment;
use token_dropping::assign::semi_matching::{approximation_ratio, optimal_semi_matching};
use token_dropping::assign::AssignmentInstance;
use token_dropping::core::{greedy, lockstep, proposal, TokenGame};
use token_dropping::graph::gen::random::gnm;
use token_dropping::local::Simulator;
use token_dropping::orient::phases::{solve_stable_orientation, PhaseConfig};
use token_dropping::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every lockstep token dropping run satisfies rules 1–3 and the
    /// temporal dynamics, on arbitrary layered instances.
    #[test]
    fn token_dropping_rules_hold(
        seed in 0u64..1_000_000,
        levels in 2usize..6,
        width in 2usize..14,
        deg in 1usize..5,
        density in 0.05f64..0.95,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let game = TokenGame::random(&vec![width; levels], deg, density, &mut rng);
        let res = lockstep::run(&game);
        prop_assert!(verify_solution(&game, &res.solution).is_ok());
        prop_assert!(verify_dynamics(&game, &res.log).is_ok());
        // Theorem 4.1 with a generous constant.
        let (l, d) = (game.height() as u64, game.max_degree() as u64);
        prop_assert!((res.rounds as u64) <= 4 * (l * d * d + l + d + 4));
    }

    /// The LOCAL protocol and the lockstep engine produce identical moves.
    #[test]
    fn protocol_lockstep_equivalence(
        seed in 0u64..1_000_000,
        width in 2usize..10,
        deg in 1usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let game = TokenGame::random(&[width, width, width], deg, 0.5, &mut rng);
        let a = lockstep::run(&game);
        let b = proposal::run_on_simulator(&game, &Simulator::sequential());
        prop_assert_eq!(a.log, b.log);
    }

    /// Greedy (centralized) also satisfies the rules, and consumes at most
    /// m edges.
    #[test]
    fn greedy_rules_hold(
        seed in 0u64..1_000_000,
        levels in 2usize..6,
        width in 2usize..12,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let game = TokenGame::random(&vec![width; levels], 2, 0.5, &mut rng);
        let res = greedy::run(&game);
        prop_assert!(verify_solution(&game, &res.solution).is_ok());
        prop_assert!(res.steps <= game.graph().num_edges());
    }

    /// The phase algorithm always ends stable, within the Lemma 5.5 phase
    /// budget, without invariant violations.
    #[test]
    fn stable_orientation_invariants(
        seed in 0u64..1_000_000,
        n in 4usize..40,
        density in 1usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = (n * density).min(n * (n - 1) / 2);
        let g = gnm(n, m, &mut rng);
        let res = solve_stable_orientation(&g, PhaseConfig::default());
        prop_assert!(res.orientation.verify_stable(&g).is_ok());
        prop_assert!(res.phases as usize <= 2 * g.max_degree() + 2);
        prop_assert_eq!(res.invariant_violations, 0);
    }

    /// Stable assignments verify and 2-approximate the optimum.
    #[test]
    fn stable_assignment_invariants(
        seed in 0u64..1_000_000,
        nc in 2usize..40,
        ns in 2usize..12,
        dmax in 1usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = AssignmentInstance::random(nc, ns, 1..=dmax, &mut rng);
        let res = solve_stable_assignment(&inst);
        prop_assert!(res.assignment.verify_stable(&inst).is_ok());
        let opt = optimal_semi_matching(&inst);
        let ratio = approximation_ratio(&res.assignment, &opt.assignment);
        prop_assert!(ratio <= 2.0 + 1e-9, "ratio {}", ratio);
    }

    /// k-bounded solutions verify at their own k and at every smaller k.
    #[test]
    fn k_bounded_monotonicity(
        seed in 0u64..1_000_000,
        nc in 2usize..30,
        ns in 2usize..10,
        k in 2u32..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = AssignmentInstance::random(nc, ns, 1..=3, &mut rng);
        let res = token_dropping::assign::bounded::solve_k_bounded(&inst, k);
        for kk in 2..=k {
            prop_assert!(res.assignment.verify_k_bounded(&inst, kk).is_ok());
        }
    }

    /// Executor equivalence on the real protocol over random games: the
    /// production loop repeats the dense oracle.
    #[test]
    fn executor_equivalence(seed in 0u64..100_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let game = TokenGame::random(&[8, 8, 8], 3, 0.5, &mut rng);
        let dense = proposal::run_on_simulator(&game, &Simulator::dense());
        let sp = proposal::run_on_simulator(&game, &Simulator::sequential());
        prop_assert_eq!(dense.log, sp.log);
        prop_assert_eq!(dense.comm_rounds, sp.comm_rounds);
        prop_assert_eq!(dense.messages, sp.messages);
    }

    /// Orientation flips preserve the load sum and strictly reduce the
    /// potential when applied to unhappy edges.
    #[test]
    fn flip_potential_property(
        seed in 0u64..1_000_000,
        n in 4usize..30,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = (2 * n).min(n * (n - 1) / 2);
        let g = gnm(n, m, &mut rng);
        let mut o = Orientation::random(&g, &mut rng);
        let total_before: u32 = g.nodes().map(|v| o.load(v)).sum();
        for _ in 0..50 {
            let Some(e) = o.unhappy_edges(&g).next() else { break };
            let p = o.potential();
            o.flip(&g, e);
            prop_assert!(o.potential() < p);
        }
        let total_after: u32 = g.nodes().map(|v| o.load(v)).sum();
        prop_assert_eq!(total_before, total_after);
    }

    /// Graph substrate: builder output always validates; mirrors are
    /// involutive (checked inside validate()).
    #[test]
    fn graph_invariants(
        seed in 0u64..1_000_000,
        n in 2usize..60,
        density in 1usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = (n * density).min(n * (n - 1) / 2);
        let g = gnm(n, m, &mut rng);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_edges(), m);
    }
}

/// Random hypergraph token dropping games, built to satisfy the level rule
/// by construction: head at level ℓ ≥ 1, at least one member at ℓ − 1,
/// extra members at any level ≥ ℓ − 1.
fn random_hyper_game(
    seed: u64,
    nodes: usize,
    edges: usize,
    max_level: u32,
) -> token_dropping::assign::hyper::HyperGame {
    use rand::Rng;
    use token_dropping::assign::hyper::{HyperEdge, HyperGame};
    let mut rng = SmallRng::seed_from_u64(seed);
    let levels: Vec<u32> = (0..nodes).map(|_| rng.gen_range(0..=max_level)).collect();
    let tokens: Vec<bool> = (0..nodes).map(|_| rng.gen_bool(0.5)).collect();
    let mut hyperedges = Vec::new();
    for _ in 0..edges {
        // Pick a head with level >= 1 and a child candidate one level below.
        let heads: Vec<usize> = (0..nodes).filter(|&v| levels[v] >= 1).collect();
        if heads.is_empty() {
            break;
        }
        let head = heads[rng.gen_range(0..heads.len())];
        let want = levels[head] - 1;
        let children: Vec<usize> = (0..nodes).filter(|&v| levels[v] == want).collect();
        if children.is_empty() {
            continue;
        }
        let mut members = vec![
            head as u32,
            children[rng.gen_range(0..children.len())] as u32,
        ];
        // Optional extra members at levels >= want.
        for _ in 0..rng.gen_range(0..3usize) {
            let cands: Vec<usize> = (0..nodes)
                .filter(|&v| levels[v] >= want && !members.contains(&(v as u32)))
                .collect();
            if let Some(&m) = cands.get(
                rng.gen_range(0..cands.len().max(1))
                    .min(cands.len().saturating_sub(1)),
            ) {
                if !cands.is_empty() {
                    members.push(m as u32);
                }
            }
        }
        members.sort_unstable();
        members.dedup();
        if members.len() >= 2 {
            hyperedges.push(HyperEdge {
                head: head as u32,
                members,
            });
        }
    }
    HyperGame::new(levels, tokens, hyperedges).expect("constructed valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hypergraph proposal engine always produces rule-satisfying,
    /// maximal outcomes on random hypergraph games.
    #[test]
    fn hyper_game_rules_hold(
        seed in 0u64..1_000_000,
        nodes in 4usize..30,
        edges in 1usize..40,
        max_level in 1u32..5,
    ) {
        use token_dropping::assign::hyper::{run_proposal, verify_hyper};
        let game = random_hyper_game(seed, nodes, edges, max_level);
        let res = run_proposal(&game);
        prop_assert!(verify_hyper(&game, &res.moves).is_ok());
        // Token conservation.
        let final_count = res.final_tokens.iter().filter(|&&t| t).count();
        prop_assert_eq!(final_count, game.token_count());
        // Each hyperedge is consumed at most once (edge ids unique).
        let mut used: Vec<u32> = res.moves.iter().map(|m| m.edge).collect();
        used.sort_unstable();
        used.dedup();
        prop_assert_eq!(used.len(), res.moves.len());
        // Rounds bounded by move count (every non-final round moves).
        prop_assert!(res.rounds as usize <= res.moves.len() + 1);
    }

    /// Three-level hyper games: the specialised driver agrees with the
    /// general one (shared move rule) and respects the O(S) shape.
    #[test]
    fn hyper_three_level_matches_general(
        seed in 0u64..1_000_000,
        nodes in 4usize..24,
        edges in 1usize..30,
    ) {
        use token_dropping::assign::hyper::{run_proposal, run_three_level, verify_hyper};
        let game = random_hyper_game(seed, nodes, edges, 2);
        let a = run_proposal(&game);
        let b = run_three_level(&game);
        prop_assert_eq!(&a.moves, &b.moves);
        prop_assert!(verify_hyper(&game, &b.moves).is_ok());
    }

    /// Game I/O roundtrips arbitrary random games.
    #[test]
    fn game_io_roundtrip(
        seed in 0u64..1_000_000,
        width in 2usize..10,
        levels in 2usize..5,
    ) {
        use token_dropping::core::game_io::{read_game, write_game};
        let mut rng = SmallRng::seed_from_u64(seed);
        let game = TokenGame::random(&vec![width; levels], 2, 0.5, &mut rng);
        let mut buf = Vec::new();
        write_game(&game, &mut buf).unwrap();
        let game2 = read_game(&buf[..]).unwrap();
        prop_assert_eq!(game.levels(), game2.levels());
        prop_assert_eq!(game.tokens(), game2.tokens());
        prop_assert_eq!(game.graph(), game2.graph());
    }

    /// Edge-list I/O roundtrips arbitrary graphs.
    #[test]
    fn edge_list_io_roundtrip(
        seed in 0u64..1_000_000,
        n in 2usize..40,
    ) {
        use token_dropping::graph::io::{read_edge_list, write_edge_list};
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = (2 * n).min(n * (n - 1) / 2);
        let g = gnm(n, m, &mut rng);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }
}
