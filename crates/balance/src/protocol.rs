//! The common protocol trait the competing balancers sit behind.
//!
//! [`BalancingProtocol`] captures what the comparison harness needs from
//! any balancer: build an engine over an instance (**init**), run the
//! per-node step function over the message plane to quiescence and through
//! a churn script (**step/run**), and audit the result (**verify**,
//! including the per-round potential accounting the engine keeps). The
//! existing token-dropping dynamics implement it unchanged —
//! [`TokenDropBalancer`] is a zero-size wrapper over the same engine and
//! node program the stack already runs — and the rivals
//! ([`RotorRouterBalancer`], [`MatchingBalancer`]) differ only in their
//! [`Rule`].

use crate::engine::BalanceEngine;
use crate::instance::BalanceInstance;
use crate::node::Rule;
use td_local::churn::{ChurnEvent, RepairMode, RepairStats};

/// The measured outcome of one protocol run (stabilize + optional churn
/// script), as reported by `td compare`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalanceRun {
    /// Final load vector.
    pub loads: Vec<u32>,
    /// Rounds to convergence, summed over the stabilize and repair runs.
    pub rounds: u64,
    /// Messages sent, summed likewise.
    pub messages: u64,
    /// Node steps executed, summed likewise.
    pub node_steps: u64,
    /// Tokens moved by granted transfers.
    pub moves: u64,
    /// Churn events applied after the initial stabilization.
    pub events_applied: u32,
    /// Discrepancy (max − min load) of the initial instance.
    pub initial_discrepancy: u32,
    /// Discrepancy of the final load vector.
    pub discrepancy: u32,
    /// Largest endpoint gap over the final edges (≤ 1 iff balanced).
    pub max_gap: u32,
    /// FNV-1a fingerprint of the final load vector.
    pub fingerprint: u64,
}

/// A balancer the comparison harness can run: init, step over the message
/// plane, terminate, verify — with per-round potential accounting kept by
/// the shared engine.
pub trait BalancingProtocol: Sync {
    /// Stable protocol name (CLI flag value, report row label).
    fn name(&self) -> &'static str;

    /// The transfer rule the shared node program runs for this protocol.
    fn rule(&self) -> Rule;

    /// **Init hook**: builds the engine hosting this protocol's per-node
    /// step function on the wake-based executor.
    fn init(&self, inst: &BalanceInstance, seed: u64, mode: RepairMode) -> BalanceEngine {
        BalanceEngine::new(inst, self.rule(), seed, mode)
    }

    /// **Verification hook**: audits a quiesced engine — balanced, token
    /// conservation, potential accounting, cache exactness.
    fn verify(&self, engine: &BalanceEngine) -> Result<(), String> {
        engine.verify()
    }

    /// Runs the protocol to quiescence on `inst`, then applies `events`
    /// (each followed by incremental repair), then verifies. The default
    /// implementation is shared by all entrants; a run is a pure function
    /// of `(inst, seed, events)`.
    fn run(
        &self,
        inst: &BalanceInstance,
        seed: u64,
        events: &[ChurnEvent],
    ) -> Result<BalanceRun, String> {
        let initial_discrepancy = inst.discrepancy();
        let mut engine = self.init(inst, seed, RepairMode::Incremental);
        let mut stats = RepairStats::accumulator();
        stats.absorb(engine.stabilize());
        let mut events_applied = 0;
        for ev in events {
            let s = engine
                .apply(ev)
                .map_err(|e| format!("{}: event {ev:?}: {e}", self.name()))?;
            stats.absorb(s);
            events_applied += 1;
        }
        self.verify(&engine)
            .map_err(|e| format!("{} failed verification: {e}", self.name()))?;
        Ok(BalanceRun {
            loads: engine.loads().to_vec(),
            rounds: stats.rounds as u64,
            messages: stats.messages,
            node_steps: stats.node_steps,
            moves: engine.moves(),
            events_applied,
            initial_discrepancy,
            discrepancy: engine.discrepancy(),
            max_gap: crate::instance::max_edge_gap_of(engine.graph(), engine.loads()),
            fingerprint: engine.fingerprint(),
        })
    }
}

/// The paper's token dropping on node loads — the incumbent, implemented by
/// the existing propose/accept/commit stack unchanged.
pub struct TokenDropBalancer;

impl BalancingProtocol for TokenDropBalancer {
    fn name(&self) -> &'static str {
        Rule::TokenDrop.name()
    }
    fn rule(&self) -> Rule {
        Rule::TokenDrop
    }
}

/// Friedrich–Gairing–Sauerwald-style quasirandom rotor-router rival.
pub struct RotorRouterBalancer;

impl BalancingProtocol for RotorRouterBalancer {
    fn name(&self) -> &'static str {
        Rule::Rotor.name()
    }
    fn rule(&self) -> Rule {
        Rule::Rotor
    }
}

/// Berenbrink-style randomized matching-exchange rival (seeded, so runs
/// stay bit-reproducible).
pub struct MatchingBalancer;

impl BalancingProtocol for MatchingBalancer {
    fn name(&self) -> &'static str {
        Rule::Matching.name()
    }
    fn rule(&self) -> Rule {
        Rule::Matching
    }
}

/// Every registered balancer, incumbent first.
pub fn registry() -> [&'static dyn BalancingProtocol; 3] {
    [&TokenDropBalancer, &RotorRouterBalancer, &MatchingBalancer]
}

/// Looks a balancer up by its [`BalancingProtocol::name`].
pub fn find(name: &str) -> Option<&'static dyn BalancingProtocol> {
    registry().into_iter().find(|p| p.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_graph::gen::classic::cycle;
    use td_graph::NodeId;

    #[test]
    fn registry_names_resolve() {
        for p in registry() {
            assert_eq!(find(p.name()).map(|q| q.name()), Some(p.name()));
        }
        assert!(find("no-such-balancer").is_none());
    }

    #[test]
    fn run_is_executor_invariant_and_verified() {
        let inst = BalanceInstance::seeded(cycle(24), 31);
        let events = vec![
            ChurnEvent::TokenArrive(NodeId(3)),
            ChurnEvent::TokenArrive(NodeId(3)),
            ChurnEvent::TokenDrop(NodeId(9)),
        ];
        for p in registry() {
            let base = p.run(&inst, 31, &events).unwrap_or_else(|e| panic!("{e}"));
            assert!(base.max_gap <= 1, "{} left an unbalanced edge", p.name());
            assert_eq!(base.events_applied, 3);
            let again = p.run(&inst, 31, &events).unwrap();
            assert_eq!(again, base, "{} is not a pure function", p.name());
        }
    }

    #[test]
    fn rival_protocols_disagree_on_trajectories() {
        // Same instance, same seed: the entrants are genuinely different
        // dynamics, so at least one pair differs in moves or messages.
        let inst = BalanceInstance::seeded(cycle(32), 77);
        let runs: Vec<BalanceRun> = registry()
            .iter()
            .map(|p| p.run(&inst, 77, &[]).unwrap())
            .collect();
        assert!(
            runs.windows(2)
                .any(|w| w[0].messages != w[1].messages || w[0].moves != w[1].moves),
            "all protocols produced identical trajectories"
        );
    }
}
