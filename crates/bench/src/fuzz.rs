//! The **mass randomized differential fuzz plane**: seeded
//! [`WorkloadSpec`]s driven through every protocol stack and executor, with
//! each run cross-checked four ways —
//!
//! 1. **verifier acceptance** — every output passes the family's verifier
//!    (rules 1–3 + dynamics replay, orientation stability, assignment
//!    stability / k-boundedness), after every churn event on live traces;
//! 2. **executor differential** — the production loop and the dense
//!    reference scan (and, on churn traces, incremental repair vs full
//!    recompute) must be *bit-identical*: same outputs, same rounds, same
//!    message counts;
//! 3. **metamorphic relabeling** — re-running on a seeded node relabeling
//!    of the same instance must still verify, with label-invariant
//!    structure (node/edge/token counts, degree multiset) preserved;
//! 4. **seed-independent structural stats** — for *any* seed, the family's
//!    generator contract holds (a `d`-regular spec is exactly d-regular, a
//!    small-world spec has exactly `n·k/2` edges, a hypercube is exactly
//!    `dim`-regular, …).
//!
//! Every failure is reported as an `Err(String)` whose caller prints the
//! self-contained repro line [`repro_line`] (`td fuzz --spec '<spec>'`);
//! panics inside protocol or verifier code are caught and converted, so one
//! bad spec never takes down the whole fuzz run.

use crate::spec::{WorkloadInstance, WorkloadSpec, FAMILIES};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use td_assign::protocol::run_distributed_assignment;
use td_assign::repair::AssignChurnEngine;
use td_assign::AssignmentInstance;
use td_balance::{total_of, BalanceInstance};
use td_core::{proposal, TokenGame};
use td_graph::{CsrGraph, NodeId};
use td_local::churn::{ChurnEvent, RepairMode, RepairStats};
use td_local::Simulator;
use td_orient::protocol::run_distributed;
use td_orient::repair::OrientChurnEngine;
use td_orient::Orientation;

/// What one clean fuzz check measured (the sequential run's numbers).
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Nodes of the built instance (customers + servers for assignments).
    pub nodes: usize,
    /// Edges / adjacency entries of the built instance.
    pub edges: usize,
    /// Rounds of the sequential reference run (accumulated over a churn
    /// trace).
    pub rounds: u64,
    /// Messages of the sequential reference run.
    pub messages: u64,
    /// Other runs checked against the reference: the dense oracle or the
    /// full recompute, and the relabeled twin.
    pub compared: usize,
}

/// The self-contained repro command for a spec.
pub fn repro_line(spec: &WorkloadSpec) -> String {
    format!("td fuzz --spec '{spec}'")
}

/// A deterministic fuzz corpus: `count` specs cycling through every family,
/// walking each family's size ladder and a small parameter rotation, with
/// per-spec seeds derived from `base_seed`. Same arguments, same corpus.
pub fn corpus(count: usize, base_seed: u64) -> Vec<WorkloadSpec> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let f = &FAMILIES[i % FAMILIES.len()];
        let v = i / FAMILIES.len();
        let vu = v as u32;
        let mut spec = WorkloadSpec::new(f.name)
            .expect("registered family")
            .with_size(f.size_ladder[v % f.size_ladder.len()])
            .with_seed(base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)));
        spec = match f.name {
            "regular" => spec.with_param("d", 3 + (vu % 2)),
            "layered" => spec
                .with_param("delta", 2 + (vu % 3))
                .with_param("density_pct", 40 + 10 * (vu % 4)),
            "hourglass" => spec.with_param("delta", 2 + (vu % 2)),
            "small-world" => spec.with_param("p_pct", 5 + 10 * (vu % 3)),
            "power-law" => spec.with_param("m", 1 + (vu % 3)),
            // The exact protocol (bound = 0) always pays its full O(C·S⁴)
            // budget, so the corpus runs it only at the smallest size and
            // uses the 2-bounded relaxation everywhere else.
            "zipf-cluster" => spec
                .with_param("clusters", 1 + (vu % 4))
                .with_param("bound", 2),
            "uniform-assign" => {
                if v.is_multiple_of(8) {
                    spec.with_size(3).with_param("bound", 0)
                } else {
                    spec.with_param("bound", 2)
                }
            }
            "churn-orient" => spec.with_param("d", 3 + (vu % 2)),
            "churn-assign" => spec.with_param("cap_w", 1 + (vu % 3)),
            _ => spec,
        };
        out.push(spec);
    }
    out
}

/// Runs the full differential + metamorphic check for one spec. `Err`
/// carries a human-readable failure description (panics inside protocol or
/// verifier code included); print [`repro_line`] next to it.
///
/// ```
/// use td_bench::fuzz;
/// use td_bench::spec::WorkloadSpec;
///
/// let spec = WorkloadSpec::parse("rotor:size=4:seed=1").unwrap();
/// let rep = fuzz::check(&spec).expect("rotor at width 4 fuzzes clean");
/// assert_eq!(rep.compared, 2); // the dense oracle and a relabeled twin
/// assert_eq!(fuzz::repro_line(&spec), "td fuzz --spec 'rotor:size=4:seed=1'");
/// ```
pub fn check(spec: &WorkloadSpec) -> Result<FuzzReport, String> {
    let spec = spec.clone();
    catch_unwind(AssertUnwindSafe(move || check_inner(&spec)))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p.as_ref()))))
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs the churn differential (incremental vs full recompute, thread ×
/// shard grid, metamorphic relabeling) for a *provided* event stream
/// instead of the spec's generated mix — the fuzz-plane consumer of
/// `td trace replay`. The spec names the base instance; the trace's events
/// replace the generated ones. Panics are caught like [`check`].
pub fn check_churn_trace(spec: &WorkloadSpec, events: &[ChurnEvent]) -> Result<FuzzReport, String> {
    let spec = spec.clone();
    let events = events.to_vec();
    catch_unwind(AssertUnwindSafe(move || {
        match spec.build().map_err(|e| format!("build: {e}"))? {
            WorkloadInstance::OrientChurn { graph, .. } => check_orient_churn(&spec, graph, events),
            WorkloadInstance::AssignChurn { base, .. } => check_assign_churn(&spec, base, events),
            _ => Err(format!(
                "'{}' is not a churn family; traces replay only through churn pipelines",
                spec.family
            )),
        }
    }))
    .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p.as_ref()))))
}

fn check_inner(spec: &WorkloadSpec) -> Result<FuzzReport, String> {
    match spec.build().map_err(|e| format!("build: {e}"))? {
        WorkloadInstance::Game(game) => check_game(spec, game),
        WorkloadInstance::Orientation(graph) => check_orientation(spec, graph),
        WorkloadInstance::Assignment { inst, bound } => check_assignment(spec, inst, bound),
        WorkloadInstance::OrientChurn { graph, trace } => check_orient_churn(spec, graph, trace),
        WorkloadInstance::AssignChurn { base, trace } => check_assign_churn(spec, base, trace),
    }
}

/// A seeded permutation of `0..n` (the metamorphic relabeling).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0x5eed_ab1e));
    perm
}

/// `g` with node `v` renamed to `perm[v]`.
fn relabel_graph(g: &CsrGraph, perm: &[u32]) -> CsrGraph {
    let edges: Vec<(u32, u32)> = g
        .edge_list()
        .map(|(_, u, v)| (perm[u.idx()], perm[v.idx()]))
        .collect();
    CsrGraph::from_edges(g.num_nodes(), &edges).expect("relabeling preserves simplicity")
}

fn sorted_degrees(g: &CsrGraph) -> Vec<usize> {
    let mut d: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    d.sort_unstable();
    d
}

/// The work-count half of every differential: `got` must report exactly the
/// reference run's rounds and message count.
fn compare_counts(label: &str, got: (u64, u64), reference: (u64, u64)) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "{label}: rounds/messages {}/{} != reference {}/{}",
            got.0, got.1, reference.0, reference.1
        ))
    }
}

// ---------------------------------------------------- balance protocols ---

/// Runs the balance-protocol differential for one spec: every registered
/// balancer ([`td_balance::registry`]) on the spec's projected node-load
/// workload ([`crate::compare::balance_workload`]), cross-checked two
/// ways — **verifier acceptance** (each protocol's own verifier accepts
/// every run: balanced, token-conserving, potential books to the token)
/// and **metamorphic relabeling** (a seeded node relabeling of the
/// instance, loads and churn events carried along, must still verify,
/// balance, and conserve the token total). Panics are caught like
/// [`check`].
///
/// ```
/// use td_bench::fuzz;
/// use td_bench::spec::WorkloadSpec;
///
/// let spec = WorkloadSpec::parse("rotor:size=4:seed=1").unwrap();
/// let rep = fuzz::check_balance(&spec).expect("rotor at width 4 balances clean");
/// assert!(rep.compared >= 3); // one relabeled twin per protocol
/// ```
pub fn check_balance(spec: &WorkloadSpec) -> Result<FuzzReport, String> {
    let spec = spec.clone();
    catch_unwind(AssertUnwindSafe(move || check_balance_inner(&spec)))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p.as_ref()))))
}

fn check_balance_inner(spec: &WorkloadSpec) -> Result<FuzzReport, String> {
    let (graph, events) = crate::compare::balance_workload(spec)?;
    let inst = BalanceInstance::seeded(graph, spec.seed);
    let nodes = inst.graph.num_nodes();
    let edges = inst.graph.num_edges();

    // The relabeled twin: node v becomes perm[v], loads and events carried
    // along. Generated traces only move edges (insert/delete/flip), which
    // relabel cleanly; token arrivals are label-free too.
    let perm = permutation(nodes, spec.seed);
    let r_graph = relabel_graph(&inst.graph, &perm);
    let mut r_load = vec![0u32; nodes];
    for (v, &l) in inst.load.iter().enumerate() {
        r_load[perm[v] as usize] = l;
    }
    let r_inst = BalanceInstance::new(r_graph, r_load);
    if sorted_degrees(&inst.graph) != sorted_degrees(&r_inst.graph) {
        return Err("relabeling changed the degree multiset".into());
    }
    let r_events: Vec<ChurnEvent> = events.iter().map(|ev| relabel_event(ev, &perm)).collect();

    let mut rounds = 0u64;
    let mut messages = 0u64;
    let mut compared = 0usize;
    for proto in td_balance::registry() {
        let name = proto.name();
        let base = proto
            .run(&inst, spec.seed, &events)
            .map_err(|e| format!("balance/{name}: {e}"))?;
        rounds += base.rounds;
        messages += base.messages;
        // The twin takes its own trajectory (roles follow ids) but must
        // still verify, balance, and hold the original's token total.
        let twin = proto
            .run(&r_inst, spec.seed, &r_events)
            .map_err(|e| format!("balance/{name} relabeled: {e}"))?;
        if total_of(&twin.loads) != total_of(&base.loads) {
            return Err(format!(
                "balance/{name} relabeled: token total {} != {}",
                total_of(&twin.loads),
                total_of(&base.loads)
            ));
        }
        if twin.max_gap > 1 {
            return Err(format!(
                "balance/{name} relabeled: final max edge gap {} > 1",
                twin.max_gap
            ));
        }
        compared += 1;
    }
    Ok(FuzzReport {
        nodes,
        edges,
        rounds,
        messages,
        compared,
    })
}

/// `ev` with every node id renamed through `perm`.
fn relabel_event(ev: &ChurnEvent, perm: &[u32]) -> ChurnEvent {
    let p = |v: NodeId| NodeId(perm[v.idx()]);
    match *ev {
        ChurnEvent::EdgeInsert { u, v } => ChurnEvent::EdgeInsert { u: p(u), v: p(v) },
        ChurnEvent::EdgeDelete { u, v } => ChurnEvent::EdgeDelete { u: p(u), v: p(v) },
        ChurnEvent::EdgeFlip { u, v } => ChurnEvent::EdgeFlip { u: p(u), v: p(v) },
        ChurnEvent::TokenArrive(v) => ChurnEvent::TokenArrive(p(v)),
        ChurnEvent::TokenDrop(v) => ChurnEvent::TokenDrop(p(v)),
        ref other => other.clone(),
    }
}

// ------------------------------------------------------------------ games ---

fn check_game(spec: &WorkloadSpec, game: TokenGame) -> Result<FuzzReport, String> {
    // Seed-independent structural stats.
    match spec.family {
        "layered" => {
            let levels = (spec.param("levels") as usize).clamp(1, 8);
            let width = (spec.size as usize).max(2);
            if game.height() != levels as u32 {
                return Err(format!(
                    "layered: height {} != levels {levels}",
                    game.height()
                ));
            }
            let bottom = game.levels().iter().filter(|&&l| l == 0).count();
            if bottom != width {
                return Err(format!("layered: level-0 width {bottom} != {width}"));
            }
        }
        "hourglass" if game.height() != 4 => {
            return Err(format!("hourglass: height {} != 4", game.height()));
        }
        "rotor" => {
            // Deterministic: another seed must build the identical instance.
            let rebuilt = spec
                .clone()
                .with_seed(spec.seed ^ 1)
                .build()
                .map_err(|e| format!("rotor: rebuild failed: {e}"))?;
            let WorkloadInstance::Game(again) = rebuilt else {
                return Err("rotor: rebuild changed kind".into());
            };
            if again.levels() != game.levels() || again.tokens() != game.tokens() {
                return Err("rotor: instance depends on the seed".into());
            }
        }
        _ => {}
    }

    let seq = proposal::run_on_simulator(&game, &Simulator::sequential());
    td_core::verify_solution(&game, &seq.solution).map_err(|e| format!("verifier: {e:?}"))?;
    td_core::verify_dynamics(&game, &seq.log).map_err(|e| format!("dynamics: {e:?}"))?;

    let dense = proposal::run_on_simulator(&game, &Simulator::dense());
    if dense.solution != seq.solution || dense.log != seq.log {
        return Err("dense: output diverges from sequential".into());
    }
    compare_counts(
        "dense",
        (dense.comm_rounds as u64, dense.messages),
        (seq.comm_rounds as u64, seq.messages),
    )?;

    // Metamorphic relabeling: permute node ids, rerun, re-verify.
    let perm = permutation(game.num_nodes(), spec.seed);
    let rg = relabel_graph(game.graph(), &perm);
    let mut level = vec![0u32; game.num_nodes()];
    let mut token = vec![false; game.num_nodes()];
    for v in 0..game.num_nodes() {
        level[perm[v] as usize] = game.level(NodeId::from(v));
        token[perm[v] as usize] = game.has_token(NodeId::from(v));
    }
    let relabeled =
        TokenGame::new(rg, level, token).map_err(|e| format!("relabeled instance invalid: {e}"))?;
    if relabeled.token_count() != game.token_count() {
        return Err("relabeling changed the token count".into());
    }
    let rl = proposal::run_on_simulator(&relabeled, &Simulator::sequential());
    td_core::verify_solution(&relabeled, &rl.solution)
        .map_err(|e| format!("relabeled verifier: {e:?}"))?;
    td_core::verify_dynamics(&relabeled, &rl.log)
        .map_err(|e| format!("relabeled dynamics: {e:?}"))?;

    Ok(FuzzReport {
        nodes: game.num_nodes(),
        edges: game.graph().num_edges(),
        rounds: seq.comm_rounds as u64,
        messages: seq.messages,
        compared: 2,
    })
}

// ----------------------------------------------------------- orientations ---

fn check_orientation(spec: &WorkloadSpec, graph: CsrGraph) -> Result<FuzzReport, String> {
    // Seed-independent structural stats.
    let (n, m) = (graph.num_nodes(), graph.num_edges());
    match spec.family {
        "regular" => {
            let d = (spec.param("d") as usize).clamp(2, 4);
            if !graph.nodes().all(|v| graph.degree(v) == d) {
                return Err(format!("regular: not {d}-regular"));
            }
        }
        "grid" => {
            let side = (spec.size as usize).max(2);
            if n != side * side || m != 2 * side * (side - 1) {
                return Err(format!("grid: n={n}, m={m} for side {side}"));
            }
        }
        "torus" => {
            let side = (spec.size as usize).max(3);
            if n != side * side || !graph.nodes().all(|v| graph.degree(v) == 4) {
                return Err(format!("torus: n={n} not 4-regular for side {side}"));
            }
        }
        "hypercube" => {
            let dim = (spec.size as usize).clamp(1, 10);
            if n != 1 << dim || !graph.nodes().all(|v| graph.degree(v) == dim) {
                return Err(format!("hypercube: n={n} not {dim}-regular"));
            }
        }
        _ => {}
    }

    let seq = run_distributed(&graph, &Simulator::sequential());
    seq.orientation
        .verify_stable(&graph)
        .map_err(|e| format!("verifier: {e:?}"))?;

    let dense = run_distributed(&graph, &Simulator::dense());
    if dense.orientation != seq.orientation {
        return Err("dense: orientation diverges from sequential".into());
    }
    compare_counts(
        "dense",
        (dense.comm_rounds as u64, dense.messages),
        (seq.comm_rounds as u64, seq.messages),
    )?;

    // Metamorphic relabeling.
    let perm = permutation(n, spec.seed);
    let rg = relabel_graph(&graph, &perm);
    if sorted_degrees(&rg) != sorted_degrees(&graph) {
        return Err("relabeling changed the degree multiset".into());
    }
    let rl = run_distributed(&rg, &Simulator::sequential());
    rl.orientation
        .verify_stable(&rg)
        .map_err(|e| format!("relabeled verifier: {e:?}"))?;

    Ok(FuzzReport {
        nodes: n,
        edges: m,
        rounds: seq.comm_rounds as u64,
        messages: seq.messages,
        compared: 2,
    })
}

// ------------------------------------------------------------ assignments ---

fn check_assignment(
    spec: &WorkloadSpec,
    inst: AssignmentInstance,
    bound: Option<u32>,
) -> Result<FuzzReport, String> {
    // Seed-independent structural stats.
    let ns = (spec.size as usize).max(2);
    let nc = (spec.param("cps") as usize).max(1) * ns;
    if inst.num_servers() != ns || inst.num_customers() != nc {
        return Err(format!(
            "instance shape ({}, {}) != requested ({nc}, {ns})",
            inst.num_customers(),
            inst.num_servers()
        ));
    }
    for c in 0..nc {
        let d = inst.degree_of(c);
        if !(1..=3).contains(&d) {
            return Err(format!("customer {c} degree {d} outside 1..=3"));
        }
    }

    let verify = |a: &td_assign::Assignment, label: &str| -> Result<(), String> {
        match bound {
            Some(k) => a
                .verify_k_bounded(&inst, k)
                .map_err(|e| format!("{label}: {e:?}")),
            None => a
                .verify_stable(&inst)
                .map_err(|e| format!("{label}: {e:?}")),
        }
    };
    let seq = run_distributed_assignment(&inst, bound, &Simulator::sequential());
    verify(&seq.assignment, "verifier")?;

    let dense = run_distributed_assignment(&inst, bound, &Simulator::dense());
    if dense.assignment != seq.assignment {
        return Err("dense: assignment diverges from sequential".into());
    }
    compare_counts(
        "dense",
        (dense.comm_rounds as u64, dense.messages),
        (seq.comm_rounds as u64, seq.messages),
    )?;

    // Metamorphic relabeling: permute server ids and customer order.
    let sperm = permutation(ns, spec.seed);
    let cperm = permutation(nc, spec.seed ^ 0x00c0_ffee);
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nc];
    for c in 0..nc {
        lists[cperm[c] as usize] = inst
            .servers_of(c)
            .iter()
            .map(|&s| sperm[s as usize])
            .collect();
    }
    let rinst = AssignmentInstance::new(ns, &lists);
    let rl = run_distributed_assignment(&rinst, bound, &Simulator::sequential());
    match bound {
        Some(k) => rl
            .assignment
            .verify_k_bounded(&rinst, k)
            .map_err(|e| format!("relabeled verifier: {e:?}"))?,
        None => rl
            .assignment
            .verify_stable(&rinst)
            .map_err(|e| format!("relabeled verifier: {e:?}"))?,
    }

    let edges = (0..nc).map(|c| inst.degree_of(c)).sum();
    Ok(FuzzReport {
        nodes: nc + ns,
        edges,
        rounds: seq.comm_rounds as u64,
        messages: seq.messages,
        compared: 2,
    })
}

// ------------------------------------------------------------ churn traces ---

/// Runs a full orientation churn trace: stabilize, then apply every event,
/// verifying stability after each. Returns accumulated stats plus the final
/// solution fingerprint (head id per edge, in edge order).
pub(crate) fn orient_trace_run(
    graph: &CsrGraph,
    trace: &[ChurnEvent],
    mode: RepairMode,
) -> Result<(RepairStats, Vec<u32>), String> {
    let mut eng = OrientChurnEngine::new(graph.clone(), Orientation::toward_larger(graph), mode);
    let mut total = RepairStats::accumulator();
    total.absorb(eng.stabilize());
    eng.verify()
        .map_err(|e| format!("initial stabilization: {e:?}"))?;
    for (i, ev) in trace.iter().enumerate() {
        total.absorb(
            eng.apply(ev)
                .map_err(|e| format!("event {i} {ev:?}: {e}"))?,
        );
        eng.verify()
            .map_err(|e| format!("after event {i}: {e:?}"))?;
    }
    let fp: Vec<u32> = eng
        .graph()
        .edges()
        .map(|e| eng.orientation().head(e).expect("complete").0)
        .collect();
    Ok((total, fp))
}

fn check_orient_churn(
    spec: &WorkloadSpec,
    graph: CsrGraph,
    trace: Vec<ChurnEvent>,
) -> Result<FuzzReport, String> {
    // Seed-independent structural stats.
    let n = graph.num_nodes();
    match spec.family {
        "small-world" => {
            let k = ((spec.param("k") as usize).max(2) / 2) * 2;
            if graph.num_edges() != n * k / 2 {
                return Err(format!(
                    "small-world: {} edges != n*k/2 = {}",
                    graph.num_edges(),
                    n * k / 2
                ));
            }
        }
        "power-law" => {
            let m = (spec.param("m") as usize).clamp(1, 4);
            let expect = m * (m + 1) / 2 + (n - m - 1) * m;
            if graph.num_edges() != expect {
                return Err(format!(
                    "power-law: {} edges != exact BA count {expect}",
                    graph.num_edges()
                ));
            }
        }
        "churn-orient" => {
            let d = (spec.param("d") as usize).clamp(2, 6);
            if !graph.nodes().all(|v| graph.degree(v) == d) {
                return Err(format!("churn-orient: base graph not {d}-regular"));
            }
        }
        _ => {}
    }

    let (base_stats, base_fp) = orient_trace_run(&graph, &trace, RepairMode::Incremental)?;
    let (rec_stats, rec_fp) = orient_trace_run(&graph, &trace, RepairMode::FullRecompute)?;
    if rec_fp != base_fp {
        return Err("full recompute diverges from incremental repair".into());
    }
    compare_counts(
        "full recompute",
        (rec_stats.rounds as u64, rec_stats.messages),
        (base_stats.rounds as u64, base_stats.messages),
    )?;

    // Metamorphic relabeling: permute node ids in the graph *and* the trace.
    let perm = permutation(n, spec.seed);
    let rg = relabel_graph(&graph, &perm);
    let rtrace: Vec<ChurnEvent> = trace
        .iter()
        .map(|ev| match *ev {
            ChurnEvent::EdgeFlip { u, v } => ChurnEvent::EdgeFlip {
                u: NodeId(perm[u.idx()]),
                v: NodeId(perm[v.idx()]),
            },
            ChurnEvent::EdgeInsert { u, v } => ChurnEvent::EdgeInsert {
                u: NodeId(perm[u.idx()]),
                v: NodeId(perm[v.idx()]),
            },
            ChurnEvent::EdgeDelete { u, v } => ChurnEvent::EdgeDelete {
                u: NodeId(perm[u.idx()]),
                v: NodeId(perm[v.idx()]),
            },
            ref other => other.clone(),
        })
        .collect();
    let (_, rfp) = orient_trace_run(&rg, &rtrace, RepairMode::Incremental)?;
    if rfp.len() != base_fp.len() {
        return Err("relabeled trace changed the final edge count".into());
    }

    Ok(FuzzReport {
        nodes: n,
        edges: graph.num_edges(),
        rounds: base_stats.rounds as u64,
        messages: base_stats.messages,
        compared: 2,
    })
}

/// Runs a full assignment churn trace (see [`orient_trace_run`]).
pub(crate) fn assign_trace_run(
    base: &AssignmentInstance,
    trace: &[ChurnEvent],
    mode: RepairMode,
) -> Result<(RepairStats, Vec<u32>), String> {
    let mut eng = AssignChurnEngine::new(base, mode);
    let mut total = RepairStats::accumulator();
    total.absorb(eng.stabilize());
    eng.verify()
        .map_err(|e| format!("initial stabilization: {e:?}"))?;
    for (i, ev) in trace.iter().enumerate() {
        total.absorb(
            eng.apply(ev)
                .map_err(|e| format!("event {i} {ev:?}: {e}"))?,
        );
        eng.verify()
            .map_err(|e| format!("after event {i}: {e:?}"))?;
    }
    let fp: Vec<u32> = eng
        .assignment_vector()
        .iter()
        .map(|a| a.map_or(0, |s| s + 1))
        .collect();
    Ok((total, fp))
}

fn check_assign_churn(
    spec: &WorkloadSpec,
    base: AssignmentInstance,
    trace: Vec<ChurnEvent>,
) -> Result<FuzzReport, String> {
    let ns = (spec.size as usize).max(3);
    if base.num_servers() != ns || base.num_customers() != 2 * ns {
        return Err("churn-assign: base instance shape drifted".into());
    }

    let (base_stats, base_fp) = assign_trace_run(&base, &trace, RepairMode::Incremental)?;
    let (rec_stats, rec_fp) = assign_trace_run(&base, &trace, RepairMode::FullRecompute)?;
    if rec_fp != base_fp {
        return Err("full recompute diverges from incremental repair".into());
    }
    compare_counts(
        "full recompute",
        (rec_stats.rounds as u64, rec_stats.messages),
        (base_stats.rounds as u64, base_stats.messages),
    )?;

    // Metamorphic relabeling: permute server ids in the instance and trace.
    let sperm = permutation(ns, spec.seed);
    let lists: Vec<Vec<u32>> = (0..base.num_customers())
        .map(|c| {
            base.servers_of(c)
                .iter()
                .map(|&s| sperm[s as usize])
                .collect()
        })
        .collect();
    let rbase = AssignmentInstance::new(ns, &lists);
    let rtrace: Vec<ChurnEvent> = trace
        .iter()
        .map(|ev| match ev {
            ChurnEvent::CustomerJoin { servers } => ChurnEvent::CustomerJoin {
                servers: servers.iter().map(|&s| sperm[s as usize]).collect(),
            },
            ChurnEvent::ServerCapacity { server, capacity } => ChurnEvent::ServerCapacity {
                server: sperm[*server as usize],
                capacity: *capacity,
            },
            other => other.clone(),
        })
        .collect();
    let (_, rfp) = assign_trace_run(&rbase, &rtrace, RepairMode::Incremental)?;
    if rfp.len() != base_fp.len() {
        return Err("relabeled trace changed the customer count".into());
    }

    let edges = (0..base.num_customers()).map(|c| base.degree_of(c)).sum();
    Ok(FuzzReport {
        nodes: base.num_customers() + ns,
        edges,
        rounds: base_stats.rounds as u64,
        messages: base_stats.messages,
        compared: 2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_spans_every_family() {
        let a = corpus(2 * FAMILIES.len(), 7);
        let b = corpus(2 * FAMILIES.len(), 7);
        assert_eq!(a, b);
        for f in FAMILIES {
            assert!(
                a.iter().any(|s| s.family == f.name),
                "corpus missing {}",
                f.name
            );
        }
        // Different base seeds give different specs.
        let c = corpus(FAMILIES.len(), 8);
        assert_ne!(a[..FAMILIES.len()], c[..]);
    }

    #[test]
    fn one_spec_per_kind_passes() {
        for name in [
            "layered",
            "torus",
            "uniform-assign",
            "power-law",
            "churn-assign",
        ] {
            let mut spec = WorkloadSpec::new(name).unwrap().with_seed(5);
            if name == "uniform-assign" {
                spec = spec.with_param("bound", 2); // keep the lib test fast
            }
            let rep = check(&spec).unwrap_or_else(|e| panic!("{}: {e}", repro_line(&spec)));
            // The dense oracle or the full recompute, plus the relabeled twin.
            assert_eq!(rep.compared, 2, "{name}");
            assert!(rep.rounds > 0, "{name}");
        }
    }

    #[test]
    fn balance_differential_passes_per_kind_samples() {
        // One representative per projection arm of `balance_workload`:
        // plain graph, game graph, bipartite assignment, churn trace.
        for name in ["torus", "rotor", "uniform-assign", "churn-orient"] {
            let mut spec = WorkloadSpec::new(name).unwrap().with_seed(9);
            if name == "uniform-assign" {
                spec = spec.with_param("bound", 2);
            }
            let rep = check_balance(&spec).unwrap_or_else(|e| panic!("{}: {e}", repro_line(&spec)));
            // 3 protocols x one relabeled twin.
            assert_eq!(rep.compared, 3, "{name}");
            assert!(rep.rounds > 0, "{name}");
        }
    }

    #[test]
    fn check_catches_panics_as_failures() {
        // A spec whose build clamps fine but whose structural check we can
        // only trip via an honest mismatch is hard to fabricate; instead
        // verify the catch_unwind plumbing directly on a poisoned closure.
        let err = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            panic!("boom {}", 42)
        }))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_message(p.as_ref()))));
        assert_eq!(err, Err("panicked: boom 42".to_string()));
    }
}
