//! The **churn scenario registry**: trace-driven dynamic workloads over the
//! incremental repair engines, behind one interface — the online regime the
//! one-shot [`crate::scenario`] registry cannot express.
//!
//! A [`ChurnScenario`] builds a live instance, stabilizes it, then streams
//! a deterministic, seeded [`ChurnEvent`] trace through the family's churn
//! engine, verifying stability after *every* event. Each run reports the
//! accumulated repair cost ([`RepairStats`]) and, optionally, the cost of
//! recomputing from scratch after each event with the same protocol
//! dynamics (a fresh engine started from an arbitrary solution with every
//! node dirty — the Section 1.1 arbitrary-start regime), so experiment E15
//! can put "repair is O(Δ)-local per update" next to "recompute pays Θ(n)"
//! in the same units.
//!
//! Scenarios:
//!
//! * **`edge-flip`** — adversarial orientation churn: random edges of a
//!   Δ=4 regular graph are flipped *toward the higher-load endpoint*
//!   (maximizing the created unhappiness); `size` = nodes.
//! * **`flash-crowd`** — a Zipf server farm whose hotspot drifts: a stream
//!   of customer joins whose candidate lists are Zipf-skewed around a
//!   rotating hot server, with periodic departures (Comte's token
//!   dispatching regime); `size` = servers.
//! * **`rolling-restart`** — servers drain and rejoin round-robin, the
//!   canonical deploy pattern; every drain evicts the server's customers
//!   through the unassigned path of the repair protocol; `size` = servers.

use crate::scenario::ScenarioKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use td_assign::repair::AssignChurnEngine;
use td_assign::AssignmentInstance;
use td_graph::{EdgeId, NodeId};
use td_local::churn::{ChurnEvent, RepairMode, RepairStats};
use td_orient::repair::OrientChurnEngine;
use td_orient::Orientation;

/// Uniform result of one churn scenario run.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// Registry name.
    pub scenario: &'static str,
    /// Size knob used.
    pub size: u32,
    /// Seed used.
    pub seed: u64,
    /// Events applied (all trace events apply successfully by design).
    pub events: u32,
    /// Nodes of the (final) network.
    pub nodes: usize,
    /// Edges of the (final) network.
    pub edges: usize,
    /// Accumulated incremental-repair cost over the trace.
    pub repair: RepairStats,
    /// Accumulated from-scratch recompute cost (one fresh all-dirty
    /// stabilization per event), if measured.
    pub recompute: Option<RepairStats>,
    /// Solution fingerprint after the trace (orientation: head per edge;
    /// assignment: server+1 per external customer, 0 = unassigned) — the
    /// quantity the differential tests compare bit-for-bit.
    pub fingerprint: Vec<u32>,
    /// Wall-clock of the trace (repairs + verification).
    pub wall: Duration,
    /// Scenario-specific extras.
    pub notes: Vec<(&'static str, String)>,
}

impl ChurnReport {
    fn note(mut self, key: &'static str, value: impl ToString) -> Self {
        self.notes.push((key, value.to_string()));
        self
    }
}

/// A named, sized, seeded churn workload over one repair engine.
pub trait ChurnScenario: Sync {
    /// Registry name (`td churn <name>`).
    fn name(&self) -> &'static str;
    /// Problem family.
    fn kind(&self) -> ScenarioKind;
    /// One-line description, including what `size` means.
    fn description(&self) -> &'static str;
    /// Default size knob.
    fn default_size(&self) -> u32;
    /// Default trace length.
    fn default_events(&self) -> u32;
    /// Runs the trace. `mode` selects incremental repair or the
    /// full-recompute fallback; `with_recompute` additionally measures a
    /// from-scratch stabilization after every event.
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        mode: RepairMode,
        with_recompute: bool,
    ) -> ChurnReport;
}

// ------------------------------------------------------------ edge-flip ---

/// Adversarial orientation churn on a Δ=4 regular graph.
struct EdgeFlipChurn;

impl EdgeFlipChurn {
    const DEGREE: usize = 4;

    fn graph(size: u32, seed: u64) -> td_graph::CsrGraph {
        let mut n = (size as usize).max(Self::DEGREE + 2);
        if Self::DEGREE % 2 == 1 && n % 2 == 1 {
            n += 1; // the configuration model needs even n·Δ
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        td_graph::gen::random::random_regular(n, Self::DEGREE, &mut rng, 500)
            .expect("configuration model converges")
    }
}

impl ChurnScenario for EdgeFlipChurn {
    fn name(&self) -> &'static str {
        "edge-flip"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Orientation
    }
    fn description(&self) -> &'static str {
        "adversarial flips toward the higher-load endpoint of a Δ=4 regular graph; size = nodes"
    }
    fn default_size(&self) -> u32 {
        128
    }
    fn default_events(&self) -> u32 {
        32
    }
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        mode: RepairMode,
        with_recompute: bool,
    ) -> ChurnReport {
        let g = Self::graph(size, seed);
        let t0 = Instant::now();
        let mut eng = OrientChurnEngine::new(g.clone(), Orientation::toward_larger(&g), mode);
        eng.stabilize();
        eng.verify().expect("initial stabilization");
        let mut repair = RepairStats::accumulator();
        let mut recompute = with_recompute.then(RepairStats::accumulator);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_c4a0);
        for _ in 0..events {
            // Adversarial pick: among a handful of sampled edges, flip the
            // one whose *tail* is most loaded — reversing it dumps the edge
            // onto an already-busy node, maximizing the unhappiness one
            // update can create.
            let (u, v) = {
                let g = eng.graph();
                let o = eng.orientation();
                let mut best: Option<(u32, NodeId, NodeId)> = None;
                for _ in 0..4 {
                    let e = EdgeId(rng.gen_range(0..g.num_edges() as u32));
                    let (a, b) = g.endpoints(e);
                    let head = o.head(e).expect("complete");
                    let tail = if head == a { b } else { a };
                    let damage = o.load(tail);
                    if best.is_none_or(|(d, _, _)| damage > d) {
                        best = Some((damage, a, b));
                    }
                }
                let (_, a, b) = best.expect("sampled");
                (a, b)
            };
            let stats = eng
                .apply(&ChurnEvent::EdgeFlip { u, v })
                .expect("trace events are valid");
            eng.verify().expect("stable after repair");
            repair.absorb(stats);
            if let Some(acc) = recompute.as_mut() {
                let mut fresh = OrientChurnEngine::new(
                    eng.graph().clone(),
                    Orientation::toward_larger(eng.graph()),
                    RepairMode::FullRecompute,
                );
                acc.absorb(fresh.stabilize());
            }
        }
        let wall = t0.elapsed();
        let fingerprint: Vec<u32> = eng
            .graph()
            .edges()
            .map(|e| eng.orientation().head(e).expect("complete").0)
            .collect();
        let max_load = eng
            .graph()
            .nodes()
            .map(|v| eng.orientation().load(v))
            .max()
            .unwrap_or(0);
        ChurnReport {
            scenario: self.name(),
            size,
            seed,
            events,
            nodes: eng.graph().num_nodes(),
            edges: eng.graph().num_edges(),
            repair,
            recompute,
            fingerprint,
            wall,
            notes: Vec::new(),
        }
        .note("Δ", Self::DEGREE)
        .note("max load", max_load)
        .note("potential Σ load²", eng.orientation().potential())
    }
}

// ----------------------------------------------------------- flash-crowd ---

/// Zipf server farm with a drifting hotspot.
struct FlashCrowdChurn;

/// Zipf(1.2) rank weights over `ns` servers, precomputed once per run
/// (draws happen in a rejection loop on every join event).
struct ZipfRanks {
    weights: Vec<f64>,
    total: f64,
}

impl ZipfRanks {
    fn new(ns: usize) -> Self {
        let weights: Vec<f64> = (0..ns).map(|r| 1.0 / ((r + 1) as f64).powf(1.2)).collect();
        let total = weights.iter().sum();
        ZipfRanks { weights, total }
    }

    /// Draws a Zipf-ranked server around the rotating hotspot.
    fn draw(&self, hot: usize, rng: &mut SmallRng) -> u32 {
        let ns = self.weights.len();
        let mut x = rng.gen_range(0.0..self.total);
        for (r, w) in self.weights.iter().enumerate() {
            if x < *w {
                return ((hot + r) % ns) as u32;
            }
            x -= w;
        }
        ((hot + ns - 1) % ns) as u32
    }

    fn join_list(&self, hot: usize, rng: &mut SmallRng) -> Vec<u32> {
        let ns = self.weights.len();
        let want = 3.min(ns);
        let mut list: Vec<u32> = Vec::with_capacity(want);
        while list.len() < want {
            let s = self.draw(hot, rng);
            if !list.contains(&s) {
                list.push(s);
            }
        }
        list
    }
}

impl ChurnScenario for FlashCrowdChurn {
    fn name(&self) -> &'static str {
        "flash-crowd"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Assignment
    }
    fn description(&self) -> &'static str {
        "customer joins with Zipf lists around a drifting hot server, periodic leaves; size = servers"
    }
    fn default_size(&self) -> u32 {
        16
    }
    fn default_events(&self) -> u32 {
        48
    }
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        mode: RepairMode,
        with_recompute: bool,
    ) -> ChurnReport {
        let ns = (size as usize).max(2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = AssignmentInstance::random(2 * ns, ns, 1..=3.min(ns), &mut rng);
        let t0 = Instant::now();
        let mut eng = AssignChurnEngine::new(&base, mode);
        eng.stabilize();
        eng.verify().expect("initial stabilization");
        let mut repair = RepairStats::accumulator();
        let mut recompute = with_recompute.then(RepairStats::accumulator);
        let ranks = ZipfRanks::new(ns);
        let mut alive: Vec<u32> = (0..2 * ns as u32).collect();
        let mut next_id = 2 * ns as u32;
        for i in 0..events {
            // The hotspot drifts one server every four events.
            let hot = (i as usize / 4) % ns;
            let ev = if i % 4 == 3 && alive.len() > ns {
                let k = rng.gen_range(0..alive.len());
                ChurnEvent::CustomerLeave(alive.swap_remove(k))
            } else {
                alive.push(next_id);
                next_id += 1;
                ChurnEvent::CustomerJoin {
                    servers: ranks.join_list(hot, &mut rng),
                }
            };
            let stats = eng.apply(&ev).expect("trace events are valid");
            eng.verify().expect("stable after repair");
            repair.absorb(stats);
            if let Some(acc) = recompute.as_mut() {
                let (inst, _, _) = eng.effective_instance();
                let mut fresh = AssignChurnEngine::new(&inst, RepairMode::FullRecompute);
                acc.absorb(fresh.stabilize());
            }
        }
        let wall = t0.elapsed();
        let fingerprint: Vec<u32> = eng
            .assignment_vector()
            .iter()
            .map(|a| a.map_or(0, |s| s + 1))
            .collect();
        let loads = eng.server_loads();
        let (inst, _, _) = eng.effective_instance();
        let edges = (0..inst.num_customers())
            .map(|c| inst.servers_of(c).len())
            .sum();
        ChurnReport {
            scenario: self.name(),
            size,
            seed,
            events,
            nodes: eng.num_alive() + ns,
            edges,
            repair,
            recompute,
            fingerprint,
            wall,
            notes: Vec::new(),
        }
        .note("customers (final)", eng.num_alive())
        .note("cost Σ load²⁺", eng.cost())
        .note("max load", loads.iter().max().copied().unwrap_or(0))
    }
}

// ------------------------------------------------------- rolling-restart ---

/// Servers drain and rejoin round-robin.
struct RollingRestartChurn;

impl ChurnScenario for RollingRestartChurn {
    fn name(&self) -> &'static str {
        "rolling-restart"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Assignment
    }
    fn description(&self) -> &'static str {
        "servers drain and rejoin round-robin; evicted customers rebalance; size = servers"
    }
    fn default_size(&self) -> u32 {
        16
    }
    fn default_events(&self) -> u32 {
        32
    }
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        mode: RepairMode,
        with_recompute: bool,
    ) -> ChurnReport {
        let ns = (size as usize).max(2);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Degree ≥ 2 so drained customers always have an alternative.
        let base = AssignmentInstance::random(3 * ns, ns, 2.min(ns)..=3.min(ns), &mut rng);
        let t0 = Instant::now();
        let mut eng = AssignChurnEngine::new(&base, mode);
        eng.stabilize();
        eng.verify().expect("initial stabilization");
        let mut repair = RepairStats::accumulator();
        let mut recompute = with_recompute.then(RepairStats::accumulator);
        for i in 0..events {
            let server = ((i / 2) as usize % ns) as u32;
            let ev = if i % 2 == 0 {
                ChurnEvent::ServerCapacity {
                    server,
                    capacity: 0,
                }
            } else {
                ChurnEvent::ServerCapacity {
                    server,
                    capacity: 1,
                }
            };
            let stats = eng.apply(&ev).expect("trace events are valid");
            eng.verify().expect("stable after repair");
            repair.absorb(stats);
            if let Some(acc) = recompute.as_mut() {
                let (inst, _, _) = eng.effective_instance();
                let mut fresh = AssignChurnEngine::new(&inst, RepairMode::FullRecompute);
                acc.absorb(fresh.stabilize());
            }
        }
        let wall = t0.elapsed();
        let fingerprint: Vec<u32> = eng
            .assignment_vector()
            .iter()
            .map(|a| a.map_or(0, |s| s + 1))
            .collect();
        let loads = eng.server_loads();
        let (inst, _, _) = eng.effective_instance();
        let edges = (0..inst.num_customers())
            .map(|c| inst.servers_of(c).len())
            .sum();
        ChurnReport {
            scenario: self.name(),
            size,
            seed,
            events,
            nodes: eng.num_alive() + ns,
            edges,
            repair,
            recompute,
            fingerprint,
            wall,
            notes: Vec::new(),
        }
        .note("customers", eng.num_alive())
        .note("cost Σ load²⁺", eng.cost())
        .note("max load", loads.iter().max().copied().unwrap_or(0))
    }
}

// ------------------------------------------------------- small-world-flux ---

/// Orientation churn on a Watts–Strogatz small-world topology: a mixed
/// flip/insert/delete trace drawn by the `small-world` workload family
/// ([`crate::spec::WorkloadSpec`]), so `td churn small-world-flux` replays
/// exactly what the fuzz plane generates for that family.
struct SmallWorldFlux;

impl ChurnScenario for SmallWorldFlux {
    fn name(&self) -> &'static str {
        "small-world-flux"
    }
    fn kind(&self) -> ScenarioKind {
        ScenarioKind::Orientation
    }
    fn description(&self) -> &'static str {
        "mixed flip/insert/delete churn on a Watts-Strogatz small-world graph; size = nodes"
    }
    fn default_size(&self) -> u32 {
        96
    }
    fn default_events(&self) -> u32 {
        32
    }
    fn run(
        &self,
        size: u32,
        events: u32,
        seed: u64,
        mode: RepairMode,
        with_recompute: bool,
    ) -> ChurnReport {
        let spec = crate::spec::WorkloadSpec::new("small-world")
            .expect("registered family")
            .with_size(size)
            .with_seed(seed)
            .with_param("events", events);
        let built = spec.build().expect("default small-world spec is valid");
        let crate::spec::WorkloadInstance::OrientChurn { graph: g, trace } = built else {
            unreachable!("small-world builds an orientation churn instance");
        };
        let t0 = Instant::now();
        let mut eng = OrientChurnEngine::new(g.clone(), Orientation::toward_larger(&g), mode);
        eng.stabilize();
        eng.verify().expect("initial stabilization");
        let mut repair = RepairStats::accumulator();
        let mut recompute = with_recompute.then(RepairStats::accumulator);
        let mut applied = 0u32;
        for ev in &trace {
            let stats = eng.apply(ev).expect("trace events are valid");
            eng.verify().expect("stable after repair");
            repair.absorb(stats);
            applied += 1;
            if let Some(acc) = recompute.as_mut() {
                let mut fresh = OrientChurnEngine::new(
                    eng.graph().clone(),
                    Orientation::toward_larger(eng.graph()),
                    RepairMode::FullRecompute,
                );
                acc.absorb(fresh.stabilize());
            }
        }
        let wall = t0.elapsed();
        let fingerprint: Vec<u32> = eng
            .graph()
            .edges()
            .map(|e| eng.orientation().head(e).expect("complete").0)
            .collect();
        let max_load = eng
            .graph()
            .nodes()
            .map(|v| eng.orientation().load(v))
            .max()
            .unwrap_or(0);
        ChurnReport {
            scenario: self.name(),
            size,
            seed,
            events: applied,
            nodes: eng.graph().num_nodes(),
            edges: eng.graph().num_edges(),
            repair,
            recompute,
            fingerprint,
            wall,
            notes: Vec::new(),
        }
        .note("spec", spec)
        .note("max load", max_load)
        .note("potential Σ load²", eng.orientation().potential())
    }
}

// -------------------------------------------------------------- registry ---

static CHURN_REGISTRY: &[&dyn ChurnScenario] = &[
    &EdgeFlipChurn,
    &FlashCrowdChurn,
    &RollingRestartChurn,
    &SmallWorldFlux,
];

/// Every registered churn scenario.
pub fn churn_registry() -> &'static [&'static dyn ChurnScenario] {
    CHURN_REGISTRY
}

/// Looks a churn scenario up by name.
pub fn find_churn(name: &str) -> Option<&'static dyn ChurnScenario> {
    CHURN_REGISTRY.iter().copied().find(|s| s.name() == name)
}

/// Renders the churn registry as an aligned listing.
pub fn churn_listing() -> String {
    let mut t = crate::Table::new(&["name", "kind", "size", "events", "description"]);
    for s in churn_registry() {
        t.row(vec![
            s.name().to_string(),
            s.kind().label().to_string(),
            s.default_size().to_string(),
            s.default_events().to_string(),
            s.description().to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_findable() {
        let mut names: Vec<&str> = churn_registry().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for n in names {
            assert!(find_churn(n).is_some());
        }
        assert!(find_churn("no-such-churn").is_none());
        assert!(churn_listing().contains("edge-flip"));
    }

    #[test]
    fn every_churn_scenario_runs_small() {
        for s in churn_registry() {
            let size = match s.kind() {
                ScenarioKind::Orientation => 64,
                _ => 6,
            };
            let rep = s.run(size, 6, 42, RepairMode::Incremental, true);
            assert_eq!(rep.scenario, s.name());
            assert_eq!(rep.events, 6);
            assert!(rep.repair.completed, "{}", s.name());
            let rec = rep.recompute.expect("measured");
            assert!(
                rep.repair.node_steps < rec.node_steps,
                "{}: repair {} !< recompute {}",
                s.name(),
                rep.repair.node_steps,
                rec.node_steps
            );
        }
    }

    #[test]
    fn traces_are_deterministic_and_mode_independent() {
        for s in churn_registry() {
            let size = match s.kind() {
                ScenarioKind::Orientation => 24,
                _ => 5,
            };
            let a = s.run(size, 5, 7, RepairMode::Incremental, false);
            let b = s.run(size, 5, 7, RepairMode::Incremental, false);
            assert_eq!(
                a.fingerprint,
                b.fingerprint,
                "{} not deterministic",
                s.name()
            );
            let c = s.run(size, 5, 7, RepairMode::FullRecompute, false);
            assert_eq!(
                a.fingerprint,
                c.fingerprint,
                "{} diverges across modes",
                s.name()
            );
            assert_eq!(a.repair.rounds, c.repair.rounds);
            assert_eq!(a.repair.messages, c.repair.messages);
        }
    }
}
