//! The host engine: runs any [`Rule`] on the wake-based executor, applies
//! churn events, and audits the run with conservation + potential-ledger
//! accounting.
//!
//! The engine mirrors the orientation churn engine: an immutable-topology
//! [`ChurnSim`] hosts the node programs, token events perturb node state in
//! place and wake the neighborhood, and topology events rebuild the sim
//! carrying the load vector (and the retired work counters) over. The
//! per-round potential accounting required of every balancer lives here:
//! each granted transfer logs its exact Σ load² drop at the acceptor, the
//! host logs the potential delta of every token arrival/drop in a ledger,
//! and [`BalanceEngine::verify`] checks the books balance to the token —
//! `potential(loads) == ledger − Σ accounted drops` — alongside token
//! conservation, the gap ≤ 1 termination predicate, and cache exactness.

use crate::instance::{fingerprint_of, max_edge_gap_of, potential_of, total_of, BalanceInstance};
use crate::node::{BalanceInput, BalanceNode, Rule, PHASES};
use td_graph::{CsrGraph, GraphBuilder, NodeId};
use td_local::churn::{id_bits, ChurnError, ChurnEvent, ChurnSim, RepairMode, RepairStats};

/// A live balancing instance under churn: applies [`ChurnEvent`]s and
/// re-balances incrementally (or via the full-recompute fallback).
pub struct BalanceEngine {
    sim: ChurnSim<BalanceNode>,
    loads: Vec<u32>,
    rule: Rule,
    seed: u64,
    mode: RepairMode,
    max_rounds: u32,
    stamp_horizon: Option<u32>,
    /// Tokens currently in the system (maintained by the host).
    total: u64,
    /// The potential ledger: Σ load² at build time, adjusted by the exact
    /// potential delta of every host token event. The accounting invariant
    /// is `potential(loads) == pot_ledger − accounted_drop()` at all times.
    pot_ledger: u64,
    /// Counters of sims retired by topology rebuilds.
    retired_moves: u64,
    retired_drops: u64,
    perf_retired: td_local::ExecPerf,
}

impl BalanceEngine {
    /// Builds an engine over an instance (not necessarily balanced). Call
    /// [`BalanceEngine::stabilize`] to reach the first balanced state
    /// before applying events.
    pub fn new(inst: &BalanceInstance, rule: Rule, seed: u64, mode: RepairMode) -> Self {
        let sim = Self::build_sim(&inst.graph, &inst.load, rule, seed);
        BalanceEngine {
            sim,
            loads: inst.load.clone(),
            rule,
            seed,
            mode,
            max_rounds: 10_000_000,
            stamp_horizon: None,
            total: inst.total(),
            pot_ledger: inst.potential(),
            retired_moves: 0,
            retired_drops: 0,
            perf_retired: td_local::ExecPerf::default(),
        }
    }

    /// Caps the rounds of a single repair run.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Lowers the stamp-renormalization horizon (test hook; carried across
    /// topology rebuilds).
    pub fn with_stamp_horizon(mut self, horizon: u32) -> Self {
        self.stamp_horizon = Some(horizon);
        self.sim.set_stamp_horizon(horizon);
        self
    }

    /// Builds the sim with the protocol's round period declared: phase
    /// selection is `round % 3` and the role/matching schedule is periodic
    /// in `2 · bits` cycles, so the joint period is `3 · 2 · bits` rounds.
    fn build_sim(graph: &CsrGraph, loads: &[u32], rule: Rule, seed: u64) -> ChurnSim<BalanceNode> {
        let bits = id_bits(graph.num_nodes());
        let inputs: Vec<BalanceInput> = graph
            .nodes()
            .map(|v| BalanceInput {
                rule,
                seed,
                load: loads[v.idx()],
                nbr_load: graph
                    .neighbors(v)
                    .iter()
                    .map(|&u| loads[u as usize])
                    .collect(),
                announce: false,
                id_bits: bits,
            })
            .collect();
        let mut sim = ChurnSim::new(graph.clone(), &inputs);
        sim.set_round_period(PHASES * 2 * bits);
        sim
    }

    /// Which rule this engine runs.
    pub fn rule(&self) -> Rule {
        self.rule
    }

    /// The current instance graph.
    pub fn graph(&self) -> &CsrGraph {
        self.sim.graph()
    }

    /// The maintained load vector.
    pub fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// Total tokens moved by granted transfers over the engine's lifetime.
    pub fn moves(&self) -> u64 {
        self.retired_moves + self.sim.states().iter().map(|s| s.moves).sum::<u64>()
    }

    /// Σ load² potential drop the protocol has accounted for, lifetime.
    pub fn accounted_drop(&self) -> u64 {
        self.retired_drops + self.sim.states().iter().map(|s| s.pot_drop).sum::<u64>()
    }

    /// Σ load² of the maintained load vector.
    pub fn potential(&self) -> u64 {
        potential_of(&self.loads)
    }

    /// Max − min of the maintained load vector.
    pub fn discrepancy(&self) -> u32 {
        crate::instance::discrepancy_of(&self.loads)
    }

    /// FNV-1a fingerprint of the maintained load vector.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(&self.loads)
    }

    /// Lifetime executor work counters, including retired sims.
    pub fn exec_perf(&self) -> td_local::ExecPerf {
        let mut p = self.perf_retired;
        p.absorb(self.sim.exec_perf());
        p
    }

    /// Wakes the heavier endpoints of all gap ≥ 2 edges (or everyone, under
    /// [`RepairMode::FullRecompute`]) and runs to quiescence — used both to
    /// reach the first balanced state and as the repair step after events.
    pub fn stabilize(&mut self) -> RepairStats {
        let heavy: Vec<NodeId> = {
            let g = self.sim.graph();
            let mut dirty = Vec::new();
            for (_, u, v) in g.edge_list() {
                let (lu, lv) = (self.loads[u.idx()], self.loads[v.idx()]);
                if lu.abs_diff(lv) >= 2 {
                    dirty.push(if lu > lv { u } else { v });
                }
            }
            dirty
        };
        self.wake_dirty(&heavy);
        self.run_repair()
    }

    /// Applies one event and re-balances. Returns the repair cost.
    ///
    /// Token events (`TokenArrive`, `TokenDrop`) perturb one node in place.
    /// `EdgeInsert`/`EdgeDelete` rebuild the network carrying the loads
    /// over. `EdgeFlip` has no intrinsic meaning for node loads; it is
    /// honored as a *liveness poke* of an existing edge (wake both
    /// endpoints, change nothing), so orientation-flavored traces replay on
    /// every balancer. Assignment events are
    /// [`ChurnError::Unsupported`].
    pub fn apply(&mut self, event: &ChurnEvent) -> Result<RepairStats, ChurnError> {
        match *event {
            ChurnEvent::TokenArrive(v) => self.apply_token(v, true),
            ChurnEvent::TokenDrop(v) => self.apply_token(v, false),
            ChurnEvent::EdgeFlip { u, v } => self.apply_poke(u, v),
            ChurnEvent::EdgeInsert { u, v } => self.apply_insert(u, v),
            ChurnEvent::EdgeDelete { u, v } => self.apply_delete(u, v),
            _ => Err(ChurnError::Unsupported("balance")),
        }
    }

    fn apply_token(&mut self, v: NodeId, arrive: bool) -> Result<RepairStats, ChurnError> {
        if v.idx() >= self.loads.len() {
            return Err(ChurnError::NoSuchEntity(format!("node {v}")));
        }
        let l = self.loads[v.idx()];
        if arrive {
            // (l+1)² − l² = 2l + 1.
            self.pot_ledger += 2 * l as u64 + 1;
            self.total += 1;
            self.loads[v.idx()] = l + 1;
        } else {
            if l == 0 {
                return Err(ChurnError::InvalidEvent(format!(
                    "token drop at empty node {v}"
                )));
            }
            // l² − (l−1)² = 2l − 1.
            self.pot_ledger -= 2 * l as u64 - 1;
            self.total -= 1;
            self.loads[v.idx()] = l - 1;
        }
        let s = self.sim.state_mut(v);
        s.load = self.loads[v.idx()];
        s.announce = true;
        self.wake_dirty(&[v]);
        Ok(self.run_repair())
    }

    fn apply_poke(&mut self, u: NodeId, v: NodeId) -> Result<RepairStats, ChurnError> {
        if self.sim.graph().edge_between(u, v).is_none() {
            return Err(ChurnError::NoSuchEntity(format!("edge {{{u}, {v}}}")));
        }
        self.wake_dirty(&[u, v]);
        Ok(self.run_repair())
    }

    fn apply_insert(&mut self, u: NodeId, v: NodeId) -> Result<RepairStats, ChurnError> {
        let g = self.sim.graph();
        if u == v || u.idx() >= g.num_nodes() || v.idx() >= g.num_nodes() {
            return Err(ChurnError::NoSuchEntity(format!("endpoints {u}, {v}")));
        }
        if g.edge_between(u, v).is_some() {
            return Err(ChurnError::InvalidEvent(format!(
                "edge {{{u}, {v}}} already exists"
            )));
        }
        let n = g.num_nodes();
        let mut edges: Vec<(u32, u32)> = g.edge_list().map(|(_, a, b)| (a.0, b.0)).collect();
        edges.push((u.0, v.0));
        // The new edge may join two previously-separated load levels.
        self.rebuild(n, &edges, &[u, v]);
        Ok(self.run_repair())
    }

    fn apply_delete(&mut self, u: NodeId, v: NodeId) -> Result<RepairStats, ChurnError> {
        let g = self.sim.graph();
        let Some(del) = g.edge_between(u, v) else {
            return Err(ChurnError::NoSuchEntity(format!("edge {{{u}, {v}}}")));
        };
        let n = g.num_nodes();
        let edges: Vec<(u32, u32)> = g
            .edge_list()
            .filter(|&(e, _, _)| e != del)
            .map(|(_, a, b)| (a.0, b.0))
            .collect();
        // Removing an edge removes a gap constraint and never creates one
        // elsewhere (loads are untouched), so nothing can become unbalanced
        // — but wake the endpoints anyway so the incremental and
        // full-recompute twins stay round-aligned.
        self.rebuild(n, &edges, &[u, v]);
        Ok(self.run_repair())
    }

    /// Rebuilds the network after a shape change, carrying the load vector
    /// and the retired work counters over, then waking `dirty`.
    fn rebuild(&mut self, n: usize, edges: &[(u32, u32)], dirty: &[NodeId]) {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        for &(a, c) in edges {
            b.add_edge(NodeId(a), NodeId(c)).expect("simple edge list");
        }
        let graph = b.build().expect("valid rebuilt graph");
        self.retired_moves += self.sim.states().iter().map(|s| s.moves).sum::<u64>();
        self.retired_drops += self.sim.states().iter().map(|s| s.pot_drop).sum::<u64>();
        self.perf_retired.absorb(self.sim.exec_perf());
        self.sim = Self::build_sim(&graph, &self.loads, self.rule, self.seed);
        if let Some(h) = self.stamp_horizon {
            self.sim.set_stamp_horizon(h);
        }
        self.wake_dirty(dirty);
    }

    fn wake_dirty(&mut self, dirty: &[NodeId]) {
        // An empty dirty set wakes nobody in either mode, so the round
        // counters of an incremental engine and its full-recompute twin
        // stay aligned (the differential tests rely on this).
        if dirty.is_empty() {
            return;
        }
        match self.mode {
            RepairMode::Incremental => {
                for &v in dirty {
                    self.sim.wake(v);
                }
            }
            RepairMode::FullRecompute => self.sim.wake_all(),
        }
    }

    fn run_repair(&mut self) -> RepairStats {
        let stats = self.sim.run(self.max_rounds);
        assert!(stats.completed, "balancing hit the round cap");
        for (v, s) in self.sim.states().iter().enumerate() {
            self.loads[v] = s.load;
        }
        stats
    }

    /// The balancer's verifier: checks the four invariants quiescence must
    /// imply.
    ///
    /// 1. **balanced** — every edge has endpoint gap ≤ 1;
    /// 2. **conservation** — Σ loads equals the host's maintained total;
    /// 3. **potential accounting** — `potential(loads)` equals the ledger
    ///    minus the protocol's accounted drops, to the token;
    /// 4. **cache exactness** — every node's own and cached neighbor loads
    ///    match the true load vector.
    pub fn verify(&self) -> Result<(), String> {
        let g = self.sim.graph();
        let gap = max_edge_gap_of(g, &self.loads);
        if gap > 1 {
            return Err(format!("unbalanced: max edge gap {gap} > 1"));
        }
        let total = total_of(&self.loads);
        if total != self.total {
            return Err(format!(
                "conservation violated: Σ loads = {total}, expected {}",
                self.total
            ));
        }
        let pot = potential_of(&self.loads) as i128;
        let expect = self.pot_ledger as i128 - self.accounted_drop() as i128;
        if pot != expect {
            return Err(format!(
                "potential accounting violated: Σ load² = {pot}, ledger − drops = {expect}"
            ));
        }
        for (v, s) in self.sim.states().iter().enumerate() {
            if s.load != self.loads[v] {
                return Err(format!(
                    "node {v} state load {} != host load {}",
                    s.load, self.loads[v]
                ));
            }
            for (p, &u) in g.neighbors(NodeId::from(v)).iter().enumerate() {
                if s.nbr_load[p] != self.loads[u as usize] {
                    return Err(format!(
                        "node {v} cached load {} for neighbor {u}, true load {}",
                        s.nbr_load[p], self.loads[u as usize]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use td_graph::gen::classic::{cycle, path, star};

    const RULES: [Rule; 3] = [Rule::TokenDrop, Rule::Rotor, Rule::Matching];

    fn stabilized(graph: CsrGraph, seed: u64, rule: Rule) -> BalanceEngine {
        let inst = BalanceInstance::seeded(graph, seed);
        let mut eng = BalanceEngine::new(&inst, rule, seed, RepairMode::Incremental);
        eng.stabilize();
        eng
    }

    #[test]
    fn every_rule_balances_a_star_hotspot() {
        for rule in RULES {
            let mut load = vec![0u32; 9];
            load[0] = 40;
            let inst = BalanceInstance::new(star(8), load);
            let mut eng = BalanceEngine::new(&inst, rule, 5, RepairMode::Incremental);
            let stats = eng.stabilize();
            assert!(stats.completed);
            eng.verify()
                .unwrap_or_else(|e| panic!("{}: {e}", rule.name()));
            assert_eq!(eng.loads().iter().map(|&l| l as u64).sum::<u64>(), 40);
            // Edge gap ≤ 1 bounds the global discrepancy by the diameter
            // (2 on a star).
            assert!(eng.discrepancy() <= 2, "{}: star must flatten", rule.name());
        }
    }

    #[test]
    fn every_rule_stabilizes_seeded_instances() {
        for rule in RULES {
            for seed in [1, 2, 3] {
                let eng = stabilized(cycle(24), seed, rule);
                eng.verify()
                    .unwrap_or_else(|e| panic!("{}: {e}", rule.name()));
            }
        }
    }

    #[test]
    fn token_events_repair_and_keep_the_books() {
        for rule in RULES {
            let mut eng = stabilized(path(16), 11, rule);
            let mut rng = SmallRng::seed_from_u64(99);
            for i in 0..30 {
                let v = NodeId::from(rng.gen_range(0..16usize));
                let ev = if i % 3 == 0 && eng.loads()[v.idx()] > 0 {
                    ChurnEvent::TokenDrop(v)
                } else {
                    ChurnEvent::TokenArrive(v)
                };
                eng.apply(&ev).unwrap();
            }
            eng.verify()
                .unwrap_or_else(|e| panic!("{}: {e}", rule.name()));
        }
    }

    #[test]
    fn topology_events_rebuild_and_keep_the_books() {
        for rule in RULES {
            let mut eng = stabilized(path(12), 3, rule);
            let before = eng.loads().iter().map(|&l| l as u64).sum::<u64>();
            eng.apply(&ChurnEvent::EdgeInsert {
                u: NodeId(0),
                v: NodeId(11),
            })
            .unwrap();
            eng.apply(&ChurnEvent::EdgeDelete {
                u: NodeId(5),
                v: NodeId(6),
            })
            .unwrap();
            eng.apply(&ChurnEvent::EdgeFlip {
                u: NodeId(0),
                v: NodeId(1),
            })
            .unwrap();
            eng.verify()
                .unwrap_or_else(|e| panic!("{}: {e}", rule.name()));
            assert_eq!(eng.loads().iter().map(|&l| l as u64).sum::<u64>(), before);
            assert!(eng.moves() > 0 || eng.discrepancy() <= 1);
        }
    }

    #[test]
    fn incremental_matches_full_recompute_bit_for_bit() {
        for rule in RULES {
            let inst = BalanceInstance::seeded(cycle(20), 17);
            let mut inc = BalanceEngine::new(&inst, rule, 17, RepairMode::Incremental);
            let mut full = BalanceEngine::new(&inst, rule, 17, RepairMode::FullRecompute);
            let si = inc.stabilize();
            let sf = full.stabilize();
            assert_eq!(si.rounds, sf.rounds, "{}", rule.name());
            assert_eq!(inc.loads(), full.loads(), "{}", rule.name());
            let mut rng = SmallRng::seed_from_u64(4242);
            for _ in 0..12 {
                let v = NodeId::from(rng.gen_range(0..20usize));
                let ri = inc.apply(&ChurnEvent::TokenArrive(v)).unwrap();
                let rf = full.apply(&ChurnEvent::TokenArrive(v)).unwrap();
                assert_eq!(ri.rounds, rf.rounds, "{}", rule.name());
                assert_eq!(inc.loads(), full.loads(), "{}", rule.name());
                assert!(ri.node_steps <= rf.node_steps);
            }
            inc.verify().unwrap();
            full.verify().unwrap();
        }
    }

    /// A stabilization is a pure function of the instance, rule and seed:
    /// engines built alike agree on rounds, messages and final loads.
    #[test]
    fn executor_grid_is_bit_identical() {
        for rule in RULES {
            let inst = BalanceInstance::seeded(cycle(28), 23);
            let mut grid: Vec<BalanceEngine> = (0..3)
                .map(|_| BalanceEngine::new(&inst, rule, 23, RepairMode::Incremental))
                .collect();
            let base = grid[0].stabilize();
            let fp = grid[0].fingerprint();
            for eng in &mut grid[1..] {
                let s = eng.stabilize();
                assert_eq!(s.rounds, base.rounds, "{}", rule.name());
                assert_eq!(s.messages, base.messages, "{}", rule.name());
                assert_eq!(eng.fingerprint(), fp, "{}", rule.name());
                eng.verify().unwrap();
            }
        }
    }

    #[test]
    fn rejects_foreign_and_invalid_events() {
        let mut eng = stabilized(path(8), 1, Rule::TokenDrop);
        assert!(matches!(
            eng.apply(&ChurnEvent::CustomerJoin { servers: vec![] }),
            Err(ChurnError::Unsupported("balance"))
        ));
        assert!(matches!(
            eng.apply(&ChurnEvent::TokenArrive(NodeId(99))),
            Err(ChurnError::NoSuchEntity(_))
        ));
        assert!(matches!(
            eng.apply(&ChurnEvent::EdgeInsert {
                u: NodeId(0),
                v: NodeId(1)
            }),
            Err(ChurnError::InvalidEvent(_))
        ));
        // Drain node 7, then one more drop must be rejected.
        while eng.loads()[7] > 0 {
            eng.apply(&ChurnEvent::TokenDrop(NodeId(7))).unwrap();
        }
        assert!(matches!(
            eng.apply(&ChurnEvent::TokenDrop(NodeId(7))),
            Err(ChurnError::InvalidEvent(_))
        ));
        eng.verify().unwrap();
    }
}
