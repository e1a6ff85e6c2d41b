//! The **Scenario registry**: named, seeded, sized workloads behind one
//! interface, so every consumer — the `repro` experiment binary, the
//! criterion benches, and the `td bench` CLI subcommand — runs workloads the
//! same way instead of growing its own ad-hoc generators.
//!
//! A [`Scenario`] bundles instance construction *and* the paper-faithful
//! solver for it, verifies the output, and reports a uniform
//! [`ScenarioReport`] (size, seed, instance shape, rounds, messages, wall
//! time, scenario-specific notes). The registry spans all three problem
//! families:
//!
//! * **games** — layered random games, the contention-comb and waterfall
//!   adversaries, and a deterministic top-heavy *rotor sweep* in the spirit
//!   of quasirandom load balancing (Friedrich et al.): a circulant layered
//!   graph drained by the proposal protocol, no randomness anywhere;
//! * **orientations** — the Θ(Δ⁴) fully distributed protocol on random
//!   regular graphs, and the Section 1.1 cascade adversary that makes the
//!   arbitrary-start baseline propagate repairs across the whole path;
//! * **assignments** — uniform customer/server instances, and a Zipf-skewed
//!   *server farm* in the spirit of token-based dispatching (Comte,
//!   "Dynamic Load Balancing with Tokens"), solved 2-bounded.
//!
//! Each scenario interprets its `size` knob in one documented dimension
//! (Δ, k, width, …) so sweeps stay one-dimensional and comparable.

use crate::workloads;
use std::time::{Duration, Instant};
use td_core::TokenGame;
use td_graph::GraphBuilder;
use td_local::{RunSummary, Simulator, Summarize};

/// Which problem family a scenario exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Token dropping games (Section 4).
    Game,
    /// Stable orientations (Section 5).
    Orientation,
    /// Stable assignments / semi-matchings (Section 7).
    Assignment,
}

impl ScenarioKind {
    /// Human-readable family label.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::Game => "game",
            ScenarioKind::Orientation => "orientation",
            ScenarioKind::Assignment => "assignment",
        }
    }
}

/// Uniform result of one scenario run. Every number a consumer prints comes
/// from here; scenario-specific extras ride in `notes`.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Registry name of the scenario.
    pub scenario: &'static str,
    /// The size knob the run used.
    pub size: u32,
    /// The seed the run used (deterministic scenarios ignore it).
    pub seed: u64,
    /// Nodes of the underlying network.
    pub nodes: usize,
    /// Edges of the underlying network.
    pub edges: usize,
    /// Communication rounds (game rounds where a note says so).
    pub rounds: u64,
    /// Messages sent (0 for centralized/lockstep drivers, see notes).
    pub messages: u64,
    /// Wall-clock time of solve + verify.
    pub wall: Duration,
    /// Scenario-specific key/value extras (cost, phases, bounds, …).
    pub notes: Vec<(&'static str, String)>,
}

impl ScenarioReport {
    fn from_summary(
        scenario: &'static str,
        size: u32,
        seed: u64,
        nodes: usize,
        edges: usize,
        s: RunSummary,
        wall: Duration,
    ) -> Self {
        ScenarioReport {
            scenario,
            size,
            seed,
            nodes,
            edges,
            rounds: s.rounds as u64,
            messages: s.messages,
            wall,
            notes: Vec::new(),
        }
    }

    fn note(mut self, key: &'static str, value: impl ToString) -> Self {
        self.notes.push((key, value.to_string()));
        self
    }

    /// A deterministic textual snapshot of the report — everything except
    /// wall-clock time, one `key: value` line each. This is the format of
    /// the golden files under `tests/golden/`; any drift in instance
    /// shape, rounds, messages, or notes shows up as a readable line diff.
    pub fn golden(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("scenario: {}\n", self.scenario));
        s.push_str(&format!("size: {}\n", self.size));
        s.push_str(&format!("seed: {}\n", self.seed));
        s.push_str(&format!("nodes: {}\n", self.nodes));
        s.push_str(&format!("edges: {}\n", self.edges));
        s.push_str(&format!("rounds: {}\n", self.rounds));
        s.push_str(&format!("messages: {}\n", self.messages));
        for (k, v) in &self.notes {
            s.push_str(&format!("note {k}: {v}\n"));
        }
        s
    }
}

/// A named, sized, seeded workload plus its paper-faithful solver.
///
/// Implementations must verify their own output (stability, rules 1–3,
/// k-boundedness, …) before reporting, so a scenario run doubles as an
/// end-to-end correctness check.
///
/// ```
/// use td_bench::scenario;
/// use td_local::Simulator;
///
/// let sc = scenario::find("rotor-sweep").expect("registered");
/// let rep = sc.run(4, 42, &Simulator::sequential()); // verifies internally
/// assert_eq!(rep.scenario, "rotor-sweep");
/// assert!(rep.rounds > 0);
/// // The golden snapshot under tests/golden/ is exactly this rendering.
/// assert!(rep.golden().starts_with("scenario: rotor-sweep\n"));
/// ```
pub trait Scenario: Sync {
    /// Registry name (`td bench <name>`).
    fn name(&self) -> &'static str;
    /// Problem family.
    fn kind(&self) -> ScenarioKind;
    /// One-line description, including what `size` means.
    fn description(&self) -> &'static str;
    /// The size used when the caller does not specify one.
    fn default_size(&self) -> u32;
    /// The smallest size the scenario can build an instance at; smaller
    /// sizes are usage errors. Most scenarios clamp their knob and accept
    /// any size.
    fn min_size(&self) -> u32 {
        0
    }
    /// Builds the instance, solves it on `sim`, verifies, reports.
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport;
}

// ---------------------------------------------------------------- games ---

/// Layered random token dropping solved by the LOCAL proposal protocol
/// (Theorem 4.1). `size` = down-degree Δ.
struct LayeredGame;

impl Scenario for LayeredGame {
    fn name(&self) -> &'static str {
        "layered-game"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Game
    }
    fn description(&self) -> &'static str {
        "random layered game, proposal protocol (Thm 4.1); size = down-degree Δ"
    }
    fn default_size(&self) -> u32 {
        6
    }
    fn min_size(&self) -> u32 {
        1
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let game = workloads::layered_game(size as usize, 4, seed);
        let t0 = Instant::now();
        let res = td_core::proposal::run_on_simulator(&game, sim);
        td_core::verify_solution(&game, &res.solution).expect("rules 1-3");
        td_core::verify_dynamics(&game, &res.log).expect("dynamics replay");
        let wall = t0.elapsed();
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            game.num_nodes(),
            game.graph().num_edges(),
            res.summary(),
            wall,
        )
        .note("tokens", game.token_count())
        .note("moves", res.log.len())
        .note("bound 2·L·Δ²", 2 * 4 * (size as u64) * (size as u64))
    }
}

/// The contention-comb adversary: Θ(k) serialization floor. `size` = k.
struct ContentionComb;

impl Scenario for ContentionComb {
    fn name(&self) -> &'static str {
        "contention-comb"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Game
    }
    fn description(&self) -> &'static str {
        "adversarial comb: k tokens contend for one sink chain; size = k"
    }
    fn default_size(&self) -> u32 {
        16
    }
    fn min_size(&self) -> u32 {
        1
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let game = TokenGame::contention_comb(size as usize);
        let t0 = Instant::now();
        let res = td_core::proposal::run_on_simulator(&game, sim);
        td_core::verify_solution(&game, &res.solution).expect("rules 1-3");
        let wall = t0.elapsed();
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            game.num_nodes(),
            game.graph().num_edges(),
            res.summary(),
            wall,
        )
        .note("serialization floor k", size)
        .note("moves", res.log.len())
    }
}

/// The waterfall adversary: tokens funnel through every layer. `size` = k
/// (and the level count).
struct Waterfall;

impl Scenario for Waterfall {
    fn name(&self) -> &'static str {
        "waterfall"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Game
    }
    fn description(&self) -> &'static str {
        "adversarial waterfall: k tokens funnel through k levels; size = k"
    }
    fn default_size(&self) -> u32 {
        8
    }
    fn min_size(&self) -> u32 {
        1
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let k = size as usize;
        let game = TokenGame::waterfall(k, k);
        let t0 = Instant::now();
        let res = td_core::proposal::run_on_simulator(&game, sim);
        td_core::verify_solution(&game, &res.solution).expect("rules 1-3");
        let wall = t0.elapsed();
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            game.num_nodes(),
            game.graph().num_edges(),
            res.summary(),
            wall,
        )
        .note("floor k + L", 2 * size)
        .note("moves", res.log.len())
    }
}

/// Deterministic top-heavy drain in the spirit of *Quasirandom Load
/// Balancing*: a circulant layered graph (node `i` of a level wires to
/// ports `i, i+1, i+2 (mod w)` below — a fixed rotor-like stride pattern,
/// no randomness), with every node in the top half holding a token. The
/// proposal protocol sweeps the surplus down. `size` = level width w.
struct RotorSweep;

/// The rotor-sweep instance at level width `w` (the same construction the
/// `rotor-sweep` scenario runs) — exposed for the `rotor` spec family and
/// the tests that need the raw [`TokenGame`].
pub fn rotor_sweep_game(w: usize) -> TokenGame {
    RotorSweep::build(w.max(2))
}

impl RotorSweep {
    fn build(w: usize) -> TokenGame {
        const LEVELS: usize = 6;
        const STRIDES: usize = 3;
        let n = w * LEVELS;
        let mut b = GraphBuilder::new(n);
        let id = |level: usize, i: usize| (level * w + i) as u32;
        for level in 1..LEVELS {
            for i in 0..w {
                for s in 0..STRIDES.min(w) {
                    b.add_edge(
                        td_graph::NodeId(id(level, i)),
                        td_graph::NodeId(id(level - 1, (i + s) % w)),
                    )
                    .expect("circulant wiring is simple");
                }
            }
        }
        let g = b.build().expect("valid circulant layering");
        let levels: Vec<u32> = (0..n).map(|v| (v / w) as u32).collect();
        let tokens: Vec<bool> = (0..n).map(|v| v / w >= LEVELS / 2).collect();
        TokenGame::new(g, levels, tokens).expect("valid game")
    }
}

impl Scenario for RotorSweep {
    fn name(&self) -> &'static str {
        "rotor-sweep"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Game
    }
    fn description(&self) -> &'static str {
        "deterministic quasirandom-style sweep: circulant layers, top-heavy tokens; size = width"
    }
    fn default_size(&self) -> u32 {
        12
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let game = Self::build((size as usize).max(2));
        let t0 = Instant::now();
        let res = td_core::proposal::run_on_simulator(&game, sim);
        td_core::verify_solution(&game, &res.solution).expect("rules 1-3");
        td_core::verify_dynamics(&game, &res.log).expect("dynamics replay");
        let wall = t0.elapsed();
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            game.num_nodes(),
            game.graph().num_edges(),
            res.summary(),
            wall,
        )
        .note("deterministic", "seed ignored")
        .note("tokens", game.token_count())
        .note("moves", res.log.len())
    }
}

// --------------------------------------------------------- orientations ---

/// The fully distributed Θ(Δ⁴) stable orientation (Theorem 5.1) on a random
/// Δ-regular graph. `size` = Δ.
struct RegularOrientation;

impl Scenario for RegularOrientation {
    fn name(&self) -> &'static str {
        "regular-orientation"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Orientation
    }
    fn description(&self) -> &'static str {
        "distributed stable orientation (Thm 5.1) on a random Δ-regular graph; size = Δ"
    }
    fn default_size(&self) -> u32 {
        4
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let g = workloads::regular_graph(size as usize, 8, seed);
        let t0 = Instant::now();
        let res = td_orient::protocol::run_distributed(&g, sim);
        res.orientation.verify_stable(&g).expect("stable output");
        let wall = t0.elapsed();
        let max_load = g
            .nodes()
            .map(|v| res.orientation.load(v))
            .max()
            .unwrap_or(0);
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            g.num_nodes(),
            g.num_edges(),
            res.summary(),
            wall,
        )
        .note("budget Θ(Δ⁴)", td_orient::protocol::total_rounds(size))
        .note("max load", max_load)
    }
}

/// The Section 1.1 cascade adversary: a path with extra leaves on one end,
/// started from the worst orientation; the arbitrary-start baseline must
/// propagate repairs across the entire path. `size` = path length.
struct CascadeOrientation;

impl Scenario for CascadeOrientation {
    fn name(&self) -> &'static str {
        "cascade-orientation"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Orientation
    }
    fn description(&self) -> &'static str {
        "Section 1.1 cascade: baseline repair propagates along the whole path; size = path length"
    }
    fn default_size(&self) -> u32 {
        64
    }
    fn run(&self, size: u32, seed: u64, _sim: &Simulator) -> ScenarioReport {
        let n = (size as usize).max(2);
        let (g, init) = workloads::cascade_path(n, 8);
        let t0 = Instant::now();
        let res = td_orient::baseline::run(&g, init, seed, 10_000_000);
        res.orientation.verify_stable(&g).expect("stable output");
        let wall = t0.elapsed();
        ScenarioReport {
            scenario: self.name(),
            size,
            seed,
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            rounds: res.comm_rounds,
            messages: 0,
            wall,
            notes: Vec::new(),
        }
        .note("messages", "not counted by the baseline driver")
        .note("flips", res.flips)
        .note("path length", n)
    }
}

/// The Θ(Δ⁴) distributed protocol on a side×side torus — the canonical
/// grid/torus workload of the quasirandom load-balancing literature
/// (Friedrich et al.), deterministic and exactly 4-regular. `size` = side.
struct TorusOrientation;

impl Scenario for TorusOrientation {
    fn name(&self) -> &'static str {
        "torus-orientation"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Orientation
    }
    fn description(&self) -> &'static str {
        "distributed stable orientation on a side×side torus (4-regular, seed ignored); size = side"
    }
    fn default_size(&self) -> u32 {
        8
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let side = (size as usize).max(3);
        let g = td_graph::gen::classic::torus(side, side);
        let t0 = Instant::now();
        let res = td_orient::protocol::run_distributed(&g, sim);
        res.orientation.verify_stable(&g).expect("stable output");
        let wall = t0.elapsed();
        let max_load = g
            .nodes()
            .map(|v| res.orientation.load(v))
            .max()
            .unwrap_or(0);
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            g.num_nodes(),
            g.num_edges(),
            res.summary(),
            wall,
        )
        .note("deterministic", "seed ignored")
        .note("budget Θ(Δ⁴)", td_orient::protocol::total_rounds(4))
        .note("max load", max_load)
    }
}

/// The Θ(Δ⁴) distributed protocol on the `dim`-dimensional hypercube —
/// exactly `dim`-regular, the classic symmetric interconnect topology.
/// `size` = dimension.
struct HypercubeOrientation;

impl Scenario for HypercubeOrientation {
    fn name(&self) -> &'static str {
        "hypercube-orientation"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Orientation
    }
    fn description(&self) -> &'static str {
        "distributed stable orientation on the dim-dimensional hypercube (seed ignored); size = dim"
    }
    fn default_size(&self) -> u32 {
        5
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let dim = (size as usize).clamp(1, 10);
        let g = td_graph::gen::classic::hypercube(dim);
        let t0 = Instant::now();
        let res = td_orient::protocol::run_distributed(&g, sim);
        res.orientation.verify_stable(&g).expect("stable output");
        let wall = t0.elapsed();
        let max_load = g
            .nodes()
            .map(|v| res.orientation.load(v))
            .max()
            .unwrap_or(0);
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            g.num_nodes(),
            g.num_edges(),
            res.summary(),
            wall,
        )
        .note("deterministic", "seed ignored")
        .note(
            "budget Θ(Δ⁴)",
            td_orient::protocol::total_rounds(dim as u32),
        )
        .note("max load", max_load)
    }
}

// ----------------------------------------------------------- assignments ---

/// Uniform random customers over servers, solved by the distributed stable
/// assignment protocol (Theorem 7.3). `size` = number of servers.
struct UniformAssignment;

impl Scenario for UniformAssignment {
    fn name(&self) -> &'static str {
        "uniform-assignment"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Assignment
    }
    fn description(&self) -> &'static str {
        "distributed stable assignment (Thm 7.3), uniform instance; size = #servers"
    }
    fn default_size(&self) -> u32 {
        12
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let ns = (size as usize).max(2);
        let inst = workloads::uniform_assignment(3 * ns, ns, seed);
        let t0 = Instant::now();
        let res = td_assign::protocol::run_distributed_assignment(&inst, None, sim);
        res.assignment.verify_stable(&inst).expect("stable output");
        let wall = t0.elapsed();
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            inst.num_customers() + inst.num_servers(),
            (0..inst.num_customers())
                .map(|c| inst.servers_of(c).len())
                .sum(),
            res.summary(),
            wall,
        )
        .note("cost Σ load²⁺", res.assignment.cost())
        .note("max load", res.assignment.max_load())
    }
}

/// A Zipf-skewed server farm in the spirit of token-based dispatching
/// (Comte): popular servers attract most customers; the 2-bounded relaxed
/// protocol (Theorem 7.5) rebalances with its O(C·S²) budget. `size` =
/// number of servers.
struct ServerFarm;

impl Scenario for ServerFarm {
    fn name(&self) -> &'static str {
        "server-farm"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Assignment
    }
    fn description(&self) -> &'static str {
        "Zipf-skewed server farm, 2-bounded distributed protocol (Thm 7.5); size = #servers"
    }
    fn default_size(&self) -> u32 {
        16
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        let ns = (size as usize).max(2);
        let inst = workloads::skewed_assignment(4 * ns, ns, 1.2, seed);
        let t0 = Instant::now();
        let res = td_assign::protocol::run_distributed_assignment(&inst, Some(2), sim);
        res.assignment
            .verify_k_bounded(&inst, 2)
            .expect("2-bounded output");
        let wall = t0.elapsed();
        let naive = td_assign::Assignment::first_choice(&inst);
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            inst.num_customers() + inst.num_servers(),
            (0..inst.num_customers())
                .map(|c| inst.servers_of(c).len())
                .sum(),
            res.summary(),
            wall,
        )
        .note("cost Σ load²⁺", res.assignment.cost())
        .note("naive first-choice cost", naive.cost())
        .note("max load", res.assignment.max_load())
    }
}

/// A clustered Zipf server farm (the `zipf-cluster` workload family): each
/// customer cluster concentrates on its own hot server block, solved by the
/// 2-bounded relaxed protocol (Theorem 7.5). `size` = number of servers.
struct ClusteredFarm;

impl Scenario for ClusteredFarm {
    fn name(&self) -> &'static str {
        "clustered-farm"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Assignment
    }
    fn description(&self) -> &'static str {
        "clustered Zipf server farm (multi-hotspot), 2-bounded protocol (Thm 7.5); size = #servers"
    }
    fn default_size(&self) -> u32 {
        16
    }
    fn run(&self, size: u32, seed: u64, sim: &Simulator) -> ScenarioReport {
        use rand::SeedableRng;
        let ns = (size as usize).max(2);
        let clusters = (ns / 4).max(1);
        let nc = 3 * ns;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let g = td_graph::gen::random::clustered_zipf_bipartite(
            nc,
            ns,
            clusters,
            1..=3.min(ns),
            1.2,
            &mut rng,
        );
        let inst = td_assign::AssignmentInstance::from_bipartite_graph(&g, nc);
        let t0 = Instant::now();
        let res = td_assign::protocol::run_distributed_assignment(&inst, Some(2), sim);
        res.assignment
            .verify_k_bounded(&inst, 2)
            .expect("2-bounded output");
        let wall = t0.elapsed();
        let naive = td_assign::Assignment::first_choice(&inst);
        ScenarioReport::from_summary(
            self.name(),
            size,
            seed,
            inst.num_customers() + inst.num_servers(),
            (0..inst.num_customers())
                .map(|c| inst.servers_of(c).len())
                .sum(),
            res.summary(),
            wall,
        )
        .note("clusters", clusters)
        .note("cost Σ load²⁺", res.assignment.cost())
        .note("naive first-choice cost", naive.cost())
        .note("max load", res.assignment.max_load())
    }
}

// -------------------------------------------------------------- registry ---

static REGISTRY: &[&dyn Scenario] = &[
    &LayeredGame,
    &ContentionComb,
    &Waterfall,
    &RotorSweep,
    &RegularOrientation,
    &CascadeOrientation,
    &TorusOrientation,
    &HypercubeOrientation,
    &UniformAssignment,
    &ServerFarm,
    &ClusteredFarm,
];

/// Every registered scenario, games first, then orientations, assignments.
pub fn registry() -> &'static [&'static dyn Scenario] {
    REGISTRY
}

/// Looks a scenario up by its registry name.
pub fn find(name: &str) -> Option<&'static dyn Scenario> {
    REGISTRY.iter().copied().find(|s| s.name() == name)
}

/// Renders the registry as an aligned listing (used by `td bench` and the
/// docs).
pub fn listing() -> String {
    let mut t = crate::Table::new(&["name", "kind", "default size", "description"]);
    for s in registry() {
        t.row(vec![
            s.name().to_string(),
            s.kind().label().to_string(),
            s.default_size().to_string(),
            s.description().to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_spans_all_kinds() {
        assert!(registry().len() >= 6, "need at least 6 scenarios");
        for kind in [
            ScenarioKind::Game,
            ScenarioKind::Orientation,
            ScenarioKind::Assignment,
        ] {
            assert!(
                registry().iter().any(|s| s.kind() == kind),
                "no scenario of kind {kind:?}"
            );
        }
    }

    #[test]
    fn names_unique_and_findable() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate scenario names");
        for n in names {
            assert!(find(n).is_some());
        }
        assert!(find("no-such-scenario").is_none());
    }

    #[test]
    fn every_scenario_runs_and_verifies_small() {
        let sim = Simulator::sequential();
        for s in registry() {
            // Small sizes keep this test fast; run() panics on any
            // verification failure.
            let size = match s.kind() {
                ScenarioKind::Game => 4,
                ScenarioKind::Orientation => {
                    if s.name() == "cascade-orientation" {
                        16
                    } else {
                        3
                    }
                }
                ScenarioKind::Assignment => 6,
            };
            let rep = s.run(size, 42, &sim);
            assert_eq!(rep.scenario, s.name());
            assert!(rep.nodes > 0, "{}: empty instance", s.name());
            assert!(rep.rounds > 0, "{}: zero rounds", s.name());
        }
    }

    #[test]
    fn deterministic_scenarios_ignore_seed() {
        let sim = Simulator::sequential();
        let a = RotorSweep.run(8, 1, &sim);
        let b = RotorSweep.run(8, 2, &sim);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn reports_are_executor_independent() {
        let s = find("layered-game").unwrap();
        let a = s.run(4, 7, &Simulator::sequential());
        let b = s.run(4, 7, &Simulator::dense());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn listing_mentions_every_scenario() {
        let l = listing();
        for s in registry() {
            assert!(l.contains(s.name()), "listing missing {}", s.name());
        }
    }
}
