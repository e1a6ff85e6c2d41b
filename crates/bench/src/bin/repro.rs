//! `repro` — regenerates every experiment table in EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p td-bench --bin repro -- [e1|e2|...|e18|stress|scenarios|all]`
//!
//! Each experiment prints a table of *measured* quantities (rounds, phases,
//! ratios) next to the paper's bound, so the shape claims — who wins, by
//! what factor, where growth rates sit — can be read off directly.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use td_assign::bounded::solve_2_bounded;
use td_assign::phases::solve_stable_assignment;
use td_assign::semi_matching::{approximation_ratio, optimal_semi_matching};
use td_bench::workloads::*;
use td_bench::{fit_power_law, mean, scenario, Table};
use td_core::{greedy, lockstep, matching, proposal, three_level};
use td_local::Simulator;
use td_orient::baseline;
use td_orient::lower_bound::{
    check_regular_indegree_lb, check_tree_indegree_bound, stabilization_probe,
};
use td_orient::orientation::Orientation;
use td_orient::phases::{run_phases_capped, solve_stable_orientation, PhaseConfig, ProposalTie};
use td_orient::sequential;

const SEEDS: [u64; 5] = [11, 22, 33, 44, 55];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let all = arg == "all";
    let run = |id: &str| all || arg == id;
    if run("e1") {
        e1();
    }
    if run("e2") {
        e2();
    }
    if run("e3") {
        e3();
    }
    if run("e4") {
        e4();
    }
    if run("e5") {
        e5();
    }
    if run("e6") {
        e6();
    }
    if run("e7") {
        e7();
    }
    if run("e8") {
        e8();
    }
    if run("e9") {
        e9();
    }
    if run("e12") {
        e12();
    }
    if run("stress") {
        stress();
    }
    if run("scenarios") {
        scenarios();
    }
    if run("e14") {
        e14();
    }
    if run("e13") {
        e13();
    }
    if run("e15") {
        e15();
    }
    if run("e17") {
        e17();
    }
    if run("e18") {
        e18();
    }
}

fn banner(id: &str, claim: &str) {
    println!("\n## {id} — {claim}\n");
}

/// E1 — Theorem 4.1: proposal algorithm solves token dropping in O(L·Δ²).
fn e1() {
    banner("E1", "Theorem 4.1: token dropping in O(L·Δ²) rounds");
    // Sweep Δ at fixed L.
    let levels = 4;
    let mut t = Table::new(&[
        "Δ",
        "L",
        "rounds(mean)",
        "rounds(max)",
        "bound L·Δ²",
        "comm rounds(protocol)",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &d in &[2usize, 4, 8, 16, 24] {
        let mut rounds = Vec::new();
        let mut comm = Vec::new();
        for &seed in &SEEDS {
            let game = layered_game(d, levels, seed);
            let res = lockstep::run(&game);
            td_core::verify_solution(&game, &res.solution).unwrap();
            rounds.push(res.rounds as f64);
            if d <= 8 {
                let p = proposal::run_on_simulator(&game, &Simulator::sequential());
                comm.push(p.comm_rounds as f64);
            }
        }
        let bound = (levels * d * d) as f64;
        xs.push(d as f64);
        ys.push(mean(&rounds));
        t.row(vec![
            d.to_string(),
            levels.to_string(),
            format!("{:.1}", mean(&rounds)),
            format!("{:.0}", td_bench::max(&rounds)),
            format!("{bound:.0}"),
            if comm.is_empty() {
                "-".into()
            } else {
                format!("{:.1}", mean(&comm))
            },
        ]);
    }
    t.print();
    println!(
        "fitted exponent rounds ~ Δ^b at fixed L: b = {:.2}  (paper bound: ≤ 2)",
        fit_power_law(&xs, &ys)
    );

    // Sweep L at fixed Δ.
    let d = 4usize;
    let mut t = Table::new(&["L", "Δ", "rounds(mean)", "rounds(max)", "bound L·Δ²"]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &levels in &[2usize, 4, 8, 16, 32] {
        let mut rounds = Vec::new();
        for &seed in &SEEDS {
            let game = layered_game(d, levels, seed);
            let res = lockstep::run(&game);
            rounds.push(res.rounds as f64);
        }
        xs.push(levels as f64);
        ys.push(mean(&rounds));
        t.row(vec![
            levels.to_string(),
            d.to_string(),
            format!("{:.1}", mean(&rounds)),
            format!("{:.0}", td_bench::max(&rounds)),
            format!("{:.0}", (levels * d * d) as f64),
        ]);
    }
    t.print();
    println!(
        "fitted exponent rounds ~ L^b at fixed Δ: b = {:.2}  (paper bound: ≤ 1)",
        fit_power_law(&xs, &ys)
    );
}

/// E2 — Theorem 4.7: 3-level games in O(Δ) vs the general algorithm.
fn e2() {
    banner(
        "E2",
        "Theorem 4.7: 3-level games in O(Δ) rounds (vs general O(Δ²))",
    );
    let mut t = Table::new(&["Δ", "3-level rounds", "general rounds", "bound 3Δ"]);
    let (mut xs, mut ys3, mut ysg) = (Vec::new(), Vec::new(), Vec::new());
    for &d in &[2usize, 4, 8, 16, 32, 48] {
        let mut r3 = Vec::new();
        let mut rg = Vec::new();
        for &seed in &SEEDS {
            let game = three_level_game(d, seed);
            let a = three_level::run_lockstep(&game);
            td_core::verify_solution(&game, &a.solution).unwrap();
            let b = lockstep::run(&game);
            r3.push(a.rounds as f64);
            rg.push(b.rounds as f64);
        }
        xs.push(d as f64);
        ys3.push(mean(&r3));
        ysg.push(mean(&rg));
        t.row(vec![
            d.to_string(),
            format!("{:.1}", mean(&r3)),
            format!("{:.1}", mean(&rg)),
            (3 * d).to_string(),
        ]);
    }
    t.print();
    println!(
        "fitted exponents: 3-level b = {:.2} (≤ 1), general b = {:.2}",
        fit_power_law(&xs, &ys3),
        fit_power_law(&xs, &ysg)
    );
}

/// E3 — Theorem 4.6: maximal matching via height-2 token dropping.
fn e3() {
    banner(
        "E3",
        "Theorem 4.6: maximal matching = height-2 token dropping",
    );
    let mut t = Table::new(&["Δ", "n(per side)", "rounds", "matched", "maximal?"]);
    for &d in &[2usize, 4, 8, 16, 32] {
        let g = matching_graph(20 * d, d, 7 + d as u64);
        let nc = 20 * d;
        let side: Vec<u8> = (0..g.num_nodes())
            .map(|v| if v < nc { 1 } else { 0 })
            .collect();
        let (m, rounds) = matching::maximal_matching_via_token_dropping(&g, &side);
        let ok = matching::is_maximal_matching(&g, &m);
        assert!(ok);
        t.row(vec![
            g.max_degree().to_string(),
            nc.to_string(),
            rounds.to_string(),
            m.len().to_string(),
            ok.to_string(),
        ]);
    }
    t.print();
    println!("(the matching LB of [BBH+19] therefore applies to the game: Ω(Δ + log n/log log n))");
}

/// E4 — Theorem 5.1 / Lemma 5.5: stable orientation, ours vs baselines.
fn e4() {
    banner(
        "E4",
        "Theorem 5.1: stable orientation — phase algorithm vs arbitrary-start baseline",
    );
    let mut t = Table::new(&[
        "Δ",
        "n",
        "ours phases",
        "bound 2Δ",
        "ours comm",
        "baseline comm",
        "seq flips",
    ]);
    let (mut xs, mut ours_r, mut base_r) = (Vec::new(), Vec::new(), Vec::new());
    for &d in &[3usize, 4, 6, 8, 12, 16, 24] {
        let mut phases = Vec::new();
        let mut comm = Vec::new();
        let mut bl = Vec::new();
        let mut flips = Vec::new();
        let mut n = 0;
        for &seed in &SEEDS {
            let g = regular_graph(d, 12, seed);
            n = g.num_nodes();
            let res = solve_stable_orientation(&g, PhaseConfig::default());
            res.orientation.verify_stable(&g).unwrap();
            phases.push(res.phases as f64);
            comm.push(res.comm_rounds as f64);
            let b = baseline::run(&g, Orientation::toward_larger(&g), seed, 10_000_000);
            bl.push(b.comm_rounds as f64);
            let s = sequential::run(&g, Orientation::toward_larger(&g));
            flips.push(s.flips as f64);
        }
        xs.push(d as f64);
        ours_r.push(mean(&comm));
        base_r.push(mean(&bl));
        t.row(vec![
            d.to_string(),
            n.to_string(),
            format!("{:.1}", mean(&phases)),
            (2 * d).to_string(),
            format!("{:.0}", mean(&comm)),
            format!("{:.0}", mean(&bl)),
            format!("{:.0}", mean(&flips)),
        ]);
    }
    t.print();
    println!(
        "fitted comm-round exponents vs Δ: ours b = {:.2}, baseline b = {:.2}",
        fit_power_law(&xs, &ours_r),
        fit_power_law(&xs, &base_r)
    );
    println!("(baseline rounds also grow with n at fixed Δ — propagation chains; ours do not)");

    // n-independence check for ours at fixed Δ.
    let mut t = Table::new(&["Δ", "n", "ours comm", "baseline comm"]);
    for &factor in &[6usize, 12, 24, 48] {
        let d = 6;
        let mut comm = Vec::new();
        let mut bl = Vec::new();
        let mut n = 0;
        for &seed in &SEEDS[..3] {
            let g = regular_graph(d, factor, seed);
            n = g.num_nodes();
            comm.push(solve_stable_orientation(&g, PhaseConfig::default()).comm_rounds as f64);
            bl.push(
                baseline::run(&g, Orientation::toward_larger(&g), seed, 10_000_000).comm_rounds
                    as f64,
            );
        }
        t.row(vec![
            d.to_string(),
            n.to_string(),
            format!("{:.0}", mean(&comm)),
            format!("{:.0}", mean(&bl)),
        ]);
    }
    t.print();

    // Quantify Section 1.2's "arbitrary orientation creates a large amount
    // of unhappiness": repair work done by the baseline (flips) vs by our
    // algorithm (token moves inside the per-phase games). Our careful
    // insertion keeps at most one unit of excess per node, so total repair
    // work stays near the number of edges, while the baseline's flip count
    // tracks the initial Σ load² excess.
    println!("\nrepair work comparison (random Δ-regular, arbitrary start for baseline):");
    let mut t = Table::new(&[
        "Δ",
        "m",
        "baseline unhappy@start",
        "baseline flips",
        "ours TD moves",
    ]);
    for &d in &[4usize, 8, 16, 32] {
        let mut unhappy0 = Vec::new();
        let mut flips = Vec::new();
        let mut moves = Vec::new();
        let mut m = 0usize;
        for &seed in &SEEDS[..3] {
            let g = regular_graph(d, 12, seed);
            m = g.num_edges();
            let init = Orientation::random(&g, &mut SmallRng::seed_from_u64(seed));
            unhappy0.push(init.unhappy_edges(&g).count() as f64);
            let b = baseline::run(&g, init, seed, 10_000_000);
            flips.push(b.flips as f64);
            let ours = solve_stable_orientation(&g, PhaseConfig::default());
            moves.push(ours.stats.iter().map(|s| s.td_moves as u64).sum::<u64>() as f64);
        }
        t.row(vec![
            d.to_string(),
            m.to_string(),
            format!("{:.0}", mean(&unhappy0)),
            format!("{:.0}", mean(&flips)),
            format!("{:.0}", mean(&moves)),
        ]);
    }
    t.print();
    println!("(ours never repairs more than ~one excess unit per node per phase)");
}

/// E5 — Theorem 6.3 certificates and the stabilization probe.
fn e5() {
    banner("E5", "Section 6: Ω(Δ) lower-bound certificates");
    let mut t = Table::new(&[
        "family",
        "Δ",
        "n",
        "Lemma",
        "certificate",
        "max stab. phase",
    ]);
    for &d in &[3usize, 4, 5, 6] {
        // Perfect d-ary trees (depth capped to keep n manageable).
        let depth = match d {
            3 => 6,
            4 => 5,
            5 => 4,
            _ => 4,
        };
        let (g, _) = td_graph::gen::structured::perfect_dary_tree(d, depth, 500_000);
        let res = solve_stable_orientation(&g, PhaseConfig::default());
        check_tree_indegree_bound(&g, &res.orientation).unwrap();
        let probe = stabilization_probe(&g);
        t.row(vec![
            format!("{d}-ary tree depth {depth}"),
            d.to_string(),
            g.num_nodes().to_string(),
            "6.1".into(),
            "indeg ≤ h+1 ✓".into(),
            probe.max_stabilization.to_string(),
        ]);
        // High-girth regular graphs.
        let mut rng = SmallRng::seed_from_u64(99 + d as u64);
        if let Some(g) = td_graph::gen::structured::high_girth_regular(30 * d, d, 5, &mut rng, 100)
        {
            let res = solve_stable_orientation(&g, PhaseConfig::default());
            let (ok, max_in) = check_regular_indegree_lb(&g, &res.orientation, d);
            assert!(ok);
            let probe = stabilization_probe(&g);
            t.row(vec![
                format!("{d}-regular girth ≥ 5"),
                d.to_string(),
                g.num_nodes().to_string(),
                "6.2".into(),
                format!("max indeg {max_in} ≥ ⌈Δ/2⌉ ✓"),
                probe.max_stabilization.to_string(),
            ]);
        }
    }
    t.print();
    println!("(both certificates hold on every instance; stabilization grows with Δ)");
}

/// E6 — Theorems 7.1/7.3: stable assignment over a (C, S) grid.
fn e6() {
    banner(
        "E6",
        "Theorem 7.3: stable assignment in O(C·S⁴), O(C·S) phases",
    );
    let mut t = Table::new(&[
        "C",
        "S(max)",
        "customers",
        "phases",
        "bound 2CS",
        "comm rounds",
        "max td rounds/phase",
    ]);
    for &c in &[2usize, 3, 5] {
        for &s_avg in &[4usize, 8, 16] {
            let ns = 24;
            let mut phases = Vec::new();
            let mut comm = Vec::new();
            let mut tdmax = Vec::new();
            let mut s_seen = 0usize;
            let mut nc = 0usize;
            for &seed in &SEEDS[..3] {
                let inst = assignment_instance(c, s_avg, ns, seed);
                nc = inst.num_customers();
                s_seen = s_seen.max(inst.max_server_degree());
                let res = solve_stable_assignment(&inst);
                res.assignment.verify_stable(&inst).unwrap();
                phases.push(res.phases as f64);
                comm.push(res.comm_rounds as f64);
                tdmax.push(res.stats.iter().map(|s| s.td_rounds).max().unwrap_or(0) as f64);
            }
            t.row(vec![
                c.to_string(),
                s_seen.to_string(),
                nc.to_string(),
                format!("{:.1}", mean(&phases)),
                (2 * c * s_seen).to_string(),
                format!("{:.0}", mean(&comm)),
                format!("{:.0}", td_bench::max(&tdmax)),
            ]);
        }
    }
    t.print();
}

/// E7 — Theorem 7.5: 2-bounded vs exact stable assignment.
fn e7() {
    banner(
        "E7",
        "Theorem 7.5: 2-bounded in O(C·S²) — per-phase TD rounds vs exact",
    );
    let mut t = Table::new(&[
        "S(max)",
        "exact max td/phase",
        "bounded max td/phase",
        "exact comm",
        "bounded comm",
    ]);
    let (mut xs, mut ex_td, mut bd_td) = (Vec::new(), Vec::new(), Vec::new());
    for &s_avg in &[4usize, 8, 16, 32] {
        let ns = 24;
        let c = 3;
        let mut ex = Vec::new();
        let mut bd = Vec::new();
        let mut exc = Vec::new();
        let mut bdc = Vec::new();
        let mut s_seen = 0usize;
        for &seed in &SEEDS[..3] {
            let inst = assignment_instance(c, s_avg, ns, seed);
            s_seen = s_seen.max(inst.max_server_degree());
            let e = solve_stable_assignment(&inst);
            let b = solve_2_bounded(&inst);
            e.assignment.verify_stable(&inst).unwrap();
            b.assignment.verify_k_bounded(&inst, 2).unwrap();
            ex.push(e.stats.iter().map(|s| s.td_rounds).max().unwrap_or(0) as f64);
            bd.push(b.stats.iter().map(|s| s.td_rounds).max().unwrap_or(0) as f64);
            exc.push(e.comm_rounds as f64);
            bdc.push(b.comm_rounds as f64);
        }
        xs.push(s_seen as f64);
        ex_td.push(mean(&ex));
        bd_td.push(mean(&bd));
        t.row(vec![
            s_seen.to_string(),
            format!("{:.1}", mean(&ex)),
            format!("{:.1}", mean(&bd)),
            format!("{:.0}", mean(&exc)),
            format!("{:.0}", mean(&bdc)),
        ]);
    }
    t.print();
    println!(
        "fitted per-phase TD exponents vs S: exact b = {:.2}, bounded b = {:.2} (theory: 2 vs 1)",
        fit_power_law(&xs, &ex_td),
        fit_power_law(&xs, &bd_td)
    );
}

/// E8 — stable assignment 2-approximates the optimal semi-matching.
fn e8() {
    banner(
        "E8",
        "[CHSW12]: stable assignment is a 2-approx of optimal semi-matching",
    );
    let mut t = Table::new(&["workload", "cost(stable)", "cost(opt)", "ratio", "≤ 2?"]);
    let mut worst: f64 = 1.0;
    for (label, skew) in [
        ("uniform", None),
        ("zipf α=1.0", Some(1.0)),
        ("zipf α=1.4", Some(1.4)),
    ] {
        for &seed in &SEEDS {
            let inst = match skew {
                None => uniform_assignment(300, 30, seed),
                Some(a) => skewed_assignment(300, 30, a, seed),
            };
            let stable = solve_stable_assignment(&inst);
            stable.assignment.verify_stable(&inst).unwrap();
            let opt = optimal_semi_matching(&inst);
            let ratio = approximation_ratio(&stable.assignment, &opt.assignment);
            worst = worst.max(ratio);
            if seed == SEEDS[0] {
                t.row(vec![
                    label.to_string(),
                    stable.assignment.cost().to_string(),
                    opt.assignment.cost().to_string(),
                    format!("{ratio:.4}"),
                    (ratio <= 2.0).to_string(),
                ]);
            }
            assert!(ratio <= 2.0);
        }
    }
    t.print();
    println!("worst ratio over all seeds/workloads: {worst:.4} (guarantee: 2.0)");
}

/// E9 — Theorem 7.4: maximal matching from a 2-bounded stable assignment.
fn e9() {
    banner(
        "E9",
        "Theorem 7.4: maximal matching from 2-bounded stable assignment (+1 round)",
    );
    let mut t = Table::new(&[
        "Δ",
        "n(per side)",
        "phases",
        "comm rounds",
        "matched",
        "maximal?",
    ]);
    for &d in &[2usize, 4, 8, 16] {
        let nc = 15 * d;
        let g = matching_graph(nc, d, 31 + d as u64);
        let red = td_assign::matching_reduction::maximal_matching_via_2_bounded(&g, nc);
        let ok = matching::is_maximal_matching(&g, &red.matching);
        assert!(ok);
        t.row(vec![
            g.max_degree().to_string(),
            nc.to_string(),
            red.phases.to_string(),
            red.comm_rounds.to_string(),
            red.matching.len().to_string(),
            ok.to_string(),
        ]);
    }
    t.print();
}

/// stress — adversarial token dropping instances: rounds meet the Ω(Δ)
/// serialization floor (contention comb) and funnel through every layer
/// (waterfall), unlike the easy random instances of E1.
fn stress() {
    banner(
        "STRESS",
        "adversarial games: contention comb (Θ(Δ) floor) and waterfall",
    );
    let mut t = Table::new(&["Δ = k", "comb rounds", "floor k", "protocol comm rounds"]);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for &k in &[2usize, 4, 8, 16, 32, 64] {
        let game = td_core::TokenGame::contention_comb(k);
        let res = lockstep::run(&game);
        td_core::verify_solution(&game, &res.solution).unwrap();
        // The protocol-side measurement goes through the scenario registry —
        // the same entry `td bench contention-comb` runs.
        let comm = if k <= 16 {
            scenario::find("contention-comb")
                .expect("registered scenario")
                .run(k as u32, 0, &Simulator::sequential())
                .rounds
                .to_string()
        } else {
            "-".into()
        };
        xs.push(k as f64);
        ys.push(res.rounds as f64);
        t.row(vec![
            k.to_string(),
            res.rounds.to_string(),
            k.to_string(),
            comm,
        ]);
    }
    t.print();
    println!(
        "fitted exponent rounds ~ Δ^b: b = {:.2} (serialization makes the Ω(Δ) floor tight)",
        fit_power_law(&xs, &ys)
    );

    let mut t = Table::new(&["k", "levels L", "waterfall rounds", "k + L floor"]);
    for &(k, l) in &[(4usize, 4usize), (8, 4), (8, 8), (16, 8)] {
        let game = td_core::TokenGame::waterfall(k, l);
        let res = lockstep::run(&game);
        td_core::verify_solution(&game, &res.solution).unwrap();
        t.row(vec![
            k.to_string(),
            l.to_string(),
            res.rounds.to_string(),
            (k + l).to_string(),
        ]);
    }
    t.print();
}

/// SCENARIOS — every entry of the td-bench scenario registry, run through
/// the same `Scenario::run` interface the `td bench` CLI and the criterion
/// benches use. Each run self-verifies (stability, rules 1–3, boundedness).
fn scenarios() {
    banner(
        "SCENARIOS",
        "the scenario registry end-to-end (same entries as `td bench`)",
    );
    let sim = Simulator::sequential();
    let mut t = Table::new(&[
        "scenario", "kind", "size", "seed", "nodes", "edges", "rounds", "messages", "notes",
    ]);
    for s in scenario::registry() {
        let rep = s.run(s.default_size(), SEEDS[0], &sim);
        let notes: Vec<String> = rep.notes.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        t.row(vec![
            rep.scenario.to_string(),
            s.kind().label().to_string(),
            rep.size.to_string(),
            rep.seed.to_string(),
            rep.nodes.to_string(),
            rep.edges.to_string(),
            rep.rounds.to_string(),
            rep.messages.to_string(),
            notes.join("; "),
        ]);
    }
    t.print();
    println!("(every row verified its own output; see also `td bench <name> --size N`)");
}

/// E12 — ablation: careful proposals (paper) vs load-blind proposals.
fn e12() {
    banner(
        "E12",
        "Ablation: 'careful orientation' (Sec 1.2) — load-aware proposals vs load-blind",
    );
    let mut t = Table::new(&[
        "Δ",
        "careful: violations",
        "careful: stable?",
        "blind: violations",
        "blind: stable?",
        "blind: repair flips",
    ]);
    for &d in &[4usize, 8, 16] {
        let mut v_careful = 0u32;
        let mut v_blind = 0u32;
        let mut stable_careful = true;
        let mut stable_blind = true;
        let mut repair = Vec::new();
        for &seed in &SEEDS {
            let g = regular_graph(d, 12, seed);
            let a = solve_stable_orientation(&g, PhaseConfig::default());
            v_careful += a.invariant_violations;
            stable_careful &= a.orientation.verify_stable(&g).is_ok();
            let b = solve_stable_orientation(
                &g,
                PhaseConfig {
                    proposal_tie: ProposalTie::IgnoreLoads,
                },
            );
            v_blind += b.invariant_violations;
            let ok = b.orientation.verify_stable(&g).is_ok();
            stable_blind &= ok;
            if !ok {
                let fixed = sequential::run(&g, b.orientation);
                repair.push(fixed.flips as f64);
            }
        }
        t.row(vec![
            d.to_string(),
            v_careful.to_string(),
            stable_careful.to_string(),
            v_blind.to_string(),
            stable_blind.to_string(),
            if repair.is_empty() {
                "0".into()
            } else {
                format!("{:.0}", mean(&repair))
            },
        ]);
    }
    t.print();
    println!("(the paper's min-load proposal rule is load-bearing: Lemma 5.4 fails without it)");

    // Second ablation: snapshot convergence — how many phases until the
    // partial orientation stops changing (careful policy).
    let g = regular_graph(8, 12, 77);
    let full = solve_stable_orientation(&g, PhaseConfig::default());
    let mut changed_at = 0;
    let mut prev = Orientation::unoriented(&g);
    for p in 1..=full.phases {
        let snap = run_phases_capped(&g, PhaseConfig::default(), p).orientation;
        if snap != prev {
            changed_at = p;
        }
        prev = snap;
    }
    println!(
        "phase trajectory on Δ=8 instance: last change at phase {changed_at} of {}",
        full.phases
    );
}

/// E14 — the fully distributed orientation protocol: explicit Θ(Δ⁴) rounds.
fn e14() {
    banner(
        "E14",
        "Theorem 5.1 end-to-end: distributed protocol with known-Δ phase budgets",
    );
    let mut t = Table::new(&[
        "Δ",
        "n",
        "comm rounds (budget)",
        "Δ⁴",
        "messages",
        "matches lockstep?",
    ]);
    for &d in &[2usize, 3, 4, 5] {
        let g = regular_graph(d, 8, 7);
        let dist = td_orient::protocol::run_distributed(&g, &Simulator::sequential());
        dist.orientation.verify_stable(&g).unwrap();
        let lock = solve_stable_orientation(&g, PhaseConfig::default());
        let same = dist.orientation == lock.orientation;
        assert!(same);
        t.row(vec![
            d.to_string(),
            g.num_nodes().to_string(),
            dist.comm_rounds.to_string(),
            (d as u64).pow(4).to_string(),
            dist.messages.to_string(),
            same.to_string(),
        ]);
    }
    t.print();
    println!("(phase synchronization uses the known-Δ budget, so rounds are the bound itself:");
    println!(" (2Δ+2)·(3 + 2·(2Δ³+2Δ+8)) — the explicit constant behind O(Δ⁴))");
}

/// E13 — simulator loops: wall-clock of the dense scan vs the sparse lane
/// on a large flat game (round counts identical).
fn e13() {
    banner(
        "E13",
        "simulator loops: dense scan vs sparse lane (outputs identical)",
    );
    // A large flat game so per-round work dominates.
    let mut rng = SmallRng::seed_from_u64(1234);
    let game = td_core::TokenGame::random(&[120_000, 120_000, 120_000, 120_000], 6, 0.5, &mut rng);
    println!(
        "instance: n = {}, m = {}, Δ = {}, tokens = {}",
        game.num_nodes(),
        game.graph().num_edges(),
        game.max_degree(),
        game.token_count()
    );
    let mut t = Table::new(&[
        "executor",
        "comm rounds",
        "messages",
        "wall time (ms)",
        "speedup",
    ]);
    let t0 = Instant::now();
    let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    t.row(vec![
        "sequential".into(),
        seq.comm_rounds.to_string(),
        seq.messages.to_string(),
        format!("{seq_ms:.0}"),
        "1.00".into(),
    ]);
    let t0 = Instant::now();
    let sp = proposal::run_on_simulator(&game, &Simulator::sparse());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sp.log, seq.log, "executor changed the output!");
    assert_eq!(sp.comm_rounds, seq.comm_rounds);
    t.row(vec![
        "sparse".into(),
        sp.comm_rounds.to_string(),
        sp.messages.to_string(),
        format!("{ms:.0}"),
        format!("{:.2}", seq_ms / ms),
    ]);
    t.print();
    println!("(rounds and outputs are bit-identical across executors; only wall time varies)");

    // The lockstep fast path on the same instance, for context.
    let t0 = Instant::now();
    let lock = lockstep::run(&game);
    let lock_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let _ = greedy::run(&game);
    let greedy_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "lockstep engine: {} game rounds in {lock_ms:.0} ms; centralized greedy: {greedy_ms:.0} ms",
        lock.rounds
    );
}

/// E15 — dynamic churn: incremental repair of a stable solution is
/// O(Δ)-local per update, while recomputing from scratch pays Θ(n) — the
/// Section 1.1 motivation, measured. For every churn scenario the instance
/// size sweeps upward with a fixed trace length; "repair" columns are the
/// incremental engine, "recompute" columns rebuild a fresh all-dirty engine
/// after each event (the arbitrary-start cascade regime).
fn e15() {
    banner(
        "E15",
        "churn: incremental repair is O(Δ)-local per update; recompute pays Θ(n)",
    );
    use td_bench::churn::churn_registry;
    use td_local::churn::RepairMode;
    const EVENTS: u32 = 24;
    for sc in churn_registry() {
        println!("### {} — {}\n", sc.name(), sc.description());
        let sizes: &[u32] = match sc.kind() {
            td_bench::ScenarioKind::Orientation => &[64, 128, 256, 512, 1024],
            _ => &[8, 16, 32, 64],
        };
        let mut t = Table::new(&[
            "size",
            "n",
            "repair steps/evt",
            "repair msgs/evt",
            "repair rounds/evt",
            "recompute steps/evt",
            "recompute msgs/evt",
            "ratio (steps)",
        ]);
        let mut xs = Vec::new();
        let mut rep_steps = Vec::new();
        let mut rec_steps = Vec::new();
        for &size in sizes {
            let rep = sc.run(size, EVENTS, SEEDS[0], RepairMode::Incremental, true);
            let rec = rep.recompute.expect("measured");
            let e = EVENTS as f64;
            let (a, b) = (rep.repair.node_steps as f64 / e, rec.node_steps as f64 / e);
            xs.push(rep.nodes as f64);
            rep_steps.push(a.max(1e-9));
            rec_steps.push(b.max(1e-9));
            t.row(vec![
                size.to_string(),
                rep.nodes.to_string(),
                format!("{a:.1}"),
                format!("{:.1}", rep.repair.messages as f64 / e),
                format!("{:.1}", rep.repair.rounds as f64 / e),
                format!("{b:.1}"),
                format!("{:.1}", rec.messages as f64 / e),
                format!("{:.1}x", b / a.max(1e-9)),
            ]);
        }
        t.print();
        let brep = fit_power_law(&xs, &rep_steps);
        let brec = fit_power_law(&xs, &rec_steps);
        println!(
            "growth of per-event work vs n: repair n^{brep:.2} (≈ flat), recompute n^{brec:.2} (≈ linear)\n"
        );
    }
    println!("(every event verified stability before the next one was applied;");
    println!(" the differential suite proves repair == full-recompute bit-for-bit)");
}

/// E17 — round/message scaling across the generated workload families of
/// the parametric `WorkloadSpec` suite: rounds are set by Δ alone (flat in
/// n at fixed Δ — the LOCAL-model promise), messages track instance size.
fn e17() {
    banner(
        "E17",
        "generated families: rounds flat in n at fixed Δ, messages scale with size",
    );
    use td_bench::spec::{WorkloadInstance, WorkloadSpec};
    let sim = Simulator::sequential();
    // (family, size sweep) — `size` means what the family says it means
    // (nodes, side, dim, width, servers); see `td fuzz`'s listing.
    let plans: &[(&str, &[u32])] = &[
        ("regular", &[24, 48, 96]),
        ("grid", &[5, 8, 12]),
        ("torus", &[4, 6, 9]),
        ("hypercube", &[3, 4, 5, 6]),
        ("layered", &[6, 12, 24]),
        ("rotor", &[8, 16, 32, 64]),
        ("zipf-cluster", &[6, 10, 14]),
    ];
    let mut rows = Table::new(&["spec", "n", "m", "Δ", "rounds", "messages", "verified"]);
    let mut fits = Table::new(&["family", "rounds ~ n^b", "messages ~ n^b"]);
    for (fam, sizes) in plans {
        let mut ns: Vec<f64> = Vec::new();
        let mut rounds: Vec<f64> = Vec::new();
        let mut msgs: Vec<f64> = Vec::new();
        for &size in *sizes {
            let spec = WorkloadSpec::new(fam)
                .expect("registered family")
                .with_size(size)
                .with_seed(42);
            let (n, m, delta, r, msg) = match spec.build().expect("plan specs are valid") {
                WorkloadInstance::Game(game) => {
                    let res = proposal::run_on_simulator(&game, &sim);
                    td_core::verify_solution(&game, &res.solution).expect("rules 1-3");
                    (
                        game.num_nodes(),
                        game.graph().num_edges(),
                        game.max_degree(),
                        res.comm_rounds as u64,
                        res.messages,
                    )
                }
                WorkloadInstance::Orientation(g) => {
                    let res = td_orient::protocol::run_distributed(&g, &sim);
                    res.orientation.verify_stable(&g).expect("stable");
                    (
                        g.num_nodes(),
                        g.num_edges(),
                        g.max_degree(),
                        res.comm_rounds as u64,
                        res.messages,
                    )
                }
                WorkloadInstance::Assignment { inst, bound } => {
                    let res = td_assign::protocol::run_distributed_assignment(&inst, bound, &sim);
                    match bound {
                        Some(k) => res.assignment.verify_k_bounded(&inst, k).expect("bounded"),
                        None => res.assignment.verify_stable(&inst).expect("stable"),
                    }
                    let m = (0..inst.num_customers())
                        .map(|c| inst.servers_of(c).len())
                        .sum();
                    (
                        inst.num_customers() + inst.num_servers(),
                        m,
                        inst.max_customer_degree(),
                        res.comm_rounds as u64,
                        res.messages,
                    )
                }
                _ => unreachable!("e17 sweeps one-shot families only"),
            };
            rows.row(vec![
                spec.to_string(),
                n.to_string(),
                m.to_string(),
                delta.to_string(),
                r.to_string(),
                msg.to_string(),
                "ok".into(),
            ]);
            ns.push(n as f64);
            rounds.push(r as f64);
            msgs.push(msg as f64);
        }
        fits.row(vec![
            fam.to_string(),
            format!("{:.2}", fit_power_law(&ns, &rounds)),
            format!("{:.2}", fit_power_law(&ns, &msgs)),
        ]);
    }
    rows.print();
    println!();
    fits.print();
    println!("(fixed-Δ families — torus, hypercube at fixed dim, rotor — hold rounds flat");
    println!(" while n grows: the Θ(Δ⁴) / O(L·Δ²) budgets are n-independent, so messages");
    println!(" grow like the instance itself. every row re-verified its output.)");
}

/// E18 — the node-granular sparse scheduler: wall-clock win on quiescing
/// workloads, with the fitted active-fraction curve.
fn e18() {
    banner(
        "E18",
        "sparse scheduling: quiescing workloads skip cold regions at per-node resolution",
    );
    use td_bench::perf::{self, SweepConfig};
    // The drain-wave (rolling-restart analogue: a fixed frontier works
    // while the drained majority idles) and the rotor sweep (its tail
    // quiesces level by level), each on the dense sequential scan vs the
    // sparse lane, so the delta is scheduling alone.
    let mut t = Table::new(&[
        "scenario",
        "n",
        "rounds",
        "active%",
        "halted scans (dense)",
        "seq ms",
        "sparse ms",
        "speedup",
    ]);
    let mut curves = Table::new(&["scenario", "n", "active(round) ~ r^b", "tail active"]);
    for name in ["drain-wave", "rotor"] {
        let cfg = SweepConfig {
            scenario: Some(name.into()),
            ..SweepConfig::default()
        };
        let rep = perf::run_sweep(&cfg).expect("perf sweep runs clean");
        let sizes: Vec<u32> = {
            let mut s: Vec<u32> = rep.points.iter().map(|p| p.size).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        for size in sizes {
            let by = |ex: &str| {
                rep.points
                    .iter()
                    .find(|p| p.size == size && p.executor == ex)
                    .expect("grid point measured")
            };
            let seq = by("sequential");
            let sparse = by("sparse");
            assert_eq!(seq.rounds, sparse.rounds, "bit-identical contract");
            assert_eq!(seq.messages, sparse.messages, "bit-identical contract");
            assert_eq!(seq.counters.halted_scans, sparse.counters.sparse_skips);
            t.row(vec![
                name.to_string(),
                seq.nodes.to_string(),
                seq.rounds.to_string(),
                format!("{:.1}", 100.0 * seq.active_fraction()),
                seq.counters.halted_scans.to_string(),
                format!("{:.3}", seq.wall_ns as f64 / 1e6),
                format!("{:.3}", sparse.wall_ns as f64 / 1e6),
                format!("{:.2}x", seq.wall_ns as f64 / sparse.wall_ns as f64),
            ]);
            // Fit the active-fraction decay active(round) ~ a·round^b on
            // the traced curve (rounds shifted by 1 for the log fit).
            let xs: Vec<f64> = seq.curve.rounds.iter().map(|&r| (r + 1) as f64).collect();
            let ys: Vec<f64> = seq.curve.active.iter().map(|&a| a as f64).collect();
            let b = fit_power_law(&xs, &ys);
            let tail = *seq.curve.active.last().unwrap_or(&0);
            curves.row(vec![
                name.to_string(),
                seq.nodes.to_string(),
                format!("b = {b:.2}"),
                tail.to_string(),
            ]);
        }
        if let Some(x) = rep.sparse_speedup(name) {
            println!("{name}: sparse speedup at largest size = {x:.2}x");
        }
    }
    println!();
    t.print();
    println!();
    curves.print();
    println!("(halted scans = node-rounds a dense scan wastes on quiesced residents; the");
    println!(" sparse scheduler skips exactly those (sparse_skips == halted_scans, asserted");
    println!(" above) while outputs/rounds/messages stay bit-identical. the drain wave");
    println!(" collapses to its fixed frontier after round 0, so the dense scan wastes");
    println!(" ~n per round and the speedup grows with n — >2x at 131k nodes, well past");
    println!(" the 20% target. the rotor is the documented control: ~50% of its nodes");
    println!(" stay active to the end, so scheduling alone roughly breaks even there.");
    println!(" full counters land in BENCH_10.json via `td perf`.)");
}
