//! End-to-end integration tests spanning all crates: graphs → games →
//! orientations → assignments, with every output independently verified.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use token_dropping::assign::phases::solve_stable_assignment;
use token_dropping::assign::semi_matching::{approximation_ratio, optimal_semi_matching};
use token_dropping::assign::AssignmentInstance;
use token_dropping::core::{greedy, lockstep, proposal, TokenGame};
use token_dropping::graph::gen::random::{gnm, random_bipartite};
use token_dropping::local::Simulator;
use token_dropping::orient::phases::{solve_stable_orientation, PhaseConfig};
use token_dropping::prelude::*;

#[test]
fn token_dropping_three_engines_agree_on_validity() {
    let mut rng = SmallRng::seed_from_u64(1001);
    for _ in 0..10 {
        let game = TokenGame::random(&[10, 12, 12, 10, 6], 3, 0.5, &mut rng);
        let a = lockstep::run(&game);
        let b = greedy::run(&game);
        let c = proposal::run_on_simulator(&game, &Simulator::sequential());
        for (name, sol, log) in [
            ("lockstep", &a.solution, &a.log),
            ("greedy", &b.solution, &b.log),
            ("protocol", &c.solution, &c.log),
        ] {
            verify_solution(&game, sol).unwrap_or_else(|e| panic!("{name}: {e}"));
            verify_dynamics(&game, log).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        // Lockstep and the LOCAL protocol are move-identical.
        assert_eq!(a.log, c.log);
    }
}

#[test]
fn orientation_pipeline_on_many_families() {
    let mut rng = SmallRng::seed_from_u64(1002);
    let graphs: Vec<(String, CsrGraph)> = vec![
        ("path".into(), token_dropping::graph::gen::classic::path(40)),
        (
            "cycle".into(),
            token_dropping::graph::gen::classic::cycle(41),
        ),
        ("star".into(), token_dropping::graph::gen::classic::star(25)),
        (
            "grid".into(),
            token_dropping::graph::gen::classic::grid(6, 7),
        ),
        (
            "torus".into(),
            token_dropping::graph::gen::classic::torus(5, 5),
        ),
        (
            "complete".into(),
            token_dropping::graph::gen::classic::complete(9),
        ),
        (
            "petersen".into(),
            token_dropping::graph::gen::classic::petersen(),
        ),
        ("gnm".into(), gnm(50, 130, &mut rng)),
    ];
    for (name, g) in graphs {
        let res = solve_stable_orientation(&g, PhaseConfig::default());
        res.orientation
            .verify_stable(&g)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(res.invariant_violations, 0, "{name}");
        assert!(
            res.phases as usize <= 2 * g.max_degree() + 2,
            "{name}: Lemma 5.5"
        );
        // All engines end with the same total load (= m).
        let total: u32 = g.nodes().map(|v| res.orientation.load(v)).sum();
        assert_eq!(total as usize, g.num_edges(), "{name}");
    }
}

#[test]
fn rank2_assignment_equals_orientation_stability() {
    // A degree-2 customer instance is exactly the stable orientation
    // problem: build both views of the same structure and check that the
    // assignment solution, translated to an orientation, is stable.
    let mut rng = SmallRng::seed_from_u64(1003);
    let g = gnm(25, 60, &mut rng);
    // Customers = edges; servers = nodes.
    let customers: Vec<Vec<u32>> = g.edge_list().map(|(_, u, v)| vec![u.0, v.0]).collect();
    let inst = AssignmentInstance::new(g.num_nodes(), &customers);
    let res = solve_stable_assignment(&inst);
    res.assignment.verify_stable(&inst).unwrap();

    // Translate: customer e assigned to server s ⇒ edge e oriented toward s.
    let mut o = Orientation::unoriented(&g);
    for (i, (e, _, _)) in g.edge_list().enumerate() {
        let s = res.assignment.server_of(i).unwrap();
        o.orient(&g, e, NodeId(s));
    }
    o.verify_stable(&g).unwrap();
}

#[test]
fn assignment_to_semi_matching_quality() {
    let mut rng = SmallRng::seed_from_u64(1004);
    for _ in 0..5 {
        let inst = AssignmentInstance::random(80, 16, 2..=4, &mut rng);
        let stable = solve_stable_assignment(&inst);
        let opt = optimal_semi_matching(&inst);
        let ratio = approximation_ratio(&stable.assignment, &opt.assignment);
        assert!((1.0..=2.0).contains(&ratio), "ratio {ratio}");
    }
}

#[test]
fn matching_reductions_cross_check() {
    // Both reductions (Thm 4.6 via td-core, Thm 7.4 via td-assign) must
    // produce maximal matchings on the same graphs.
    let mut rng = SmallRng::seed_from_u64(1005);
    for _ in 0..5 {
        let customers = 40;
        let g = random_bipartite(customers, 25, 1..=4, &mut rng);
        let side: Vec<u8> = (0..g.num_nodes())
            .map(|v| if v < customers { 1 } else { 0 })
            .collect();
        let (m1, _) =
            token_dropping::core::matching::maximal_matching_via_token_dropping(&g, &side);
        let m2 = token_dropping::assign::matching_reduction::maximal_matching_via_2_bounded(
            &g, customers,
        );
        assert!(token_dropping::core::matching::is_maximal_matching(&g, &m1));
        assert!(token_dropping::core::matching::is_maximal_matching(
            &g,
            &m2.matching
        ));
    }
}

#[test]
fn simulator_dense_oracle_equivalence_on_real_protocol() {
    // The real proposal protocol (not a toy) must be executor-invariant.
    let mut rng = SmallRng::seed_from_u64(1006);
    let game = TokenGame::random(&[20, 24, 24, 20], 4, 0.5, &mut rng);
    let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
    let dense = proposal::run_on_simulator(&game, &Simulator::dense());
    assert_eq!(seq.log, dense.log);
    assert_eq!(seq.comm_rounds, dense.comm_rounds);
    assert_eq!(seq.messages, dense.messages);
}

#[test]
fn figure1_shapes_are_stable() {
    // The left graph of Figure 1 is a 4-cycle with a chord; the right one a
    // small tree. Any output of our solver on them must be stable, and the
    // cycle's loads must sum to m.
    let chord = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
    let tree = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]).unwrap();
    for g in [chord, tree] {
        let res = solve_stable_orientation(&g, PhaseConfig::default());
        res.orientation.verify_stable(&g).unwrap();
    }
}

#[test]
fn classic_matching_protocol_cross_checks_token_dropping() {
    // The HKP98-style proposal matching (td-local::classics) and the
    // height-2 token dropping reduction (td-core::matching) both produce
    // maximal matchings on the same bipartite graphs.
    use token_dropping::local::classics::run_proposal_matching;
    let mut rng = SmallRng::seed_from_u64(1007);
    for _ in 0..5 {
        let customers = 30;
        let g = random_bipartite(customers, 20, 1..=4, &mut rng);
        let left: Vec<bool> = (0..g.num_nodes()).map(|v| v < customers).collect();
        let (matched, rounds) = run_proposal_matching(&g, &left, &Simulator::sequential());
        // Convert to edge ids and verify with the independent checker.
        let mut edges: Vec<EdgeId> = Vec::new();
        for v in g.nodes() {
            let m = matched[v.idx()];
            if m != u32::MAX && v.0 < m {
                edges.push(g.edge_between(v, NodeId(m)).unwrap());
            }
        }
        assert!(token_dropping::core::matching::is_maximal_matching(
            &g, &edges
        ));
        assert!(rounds as usize <= 4 * g.max_degree() + 8);

        let side: Vec<u8> = (0..g.num_nodes())
            .map(|v| if v < customers { 1 } else { 0 })
            .collect();
        let (m2, _) =
            token_dropping::core::matching::maximal_matching_via_token_dropping(&g, &side);
        assert!(token_dropping::core::matching::is_maximal_matching(&g, &m2));
        // Both are maximal; sizes are within the factor-2 window of each other.
        assert!(2 * edges.len() >= m2.len());
        assert!(2 * m2.len() >= edges.len());
    }
}
