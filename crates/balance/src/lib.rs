//! # td-balance — competing load balancers behind one protocol trait
//!
//! The paper's headline numbers (convergence rounds, message complexity,
//! final discrepancy) only mean something against measured rivals. This
//! crate states the common problem — a graph with integer token loads is
//! **balanced** when every edge has endpoint gap ≤ 1 — and puts three
//! entrants behind one [`BalancingProtocol`] trait:
//!
//! * [`TokenDropBalancer`] — the incumbent: the repo's token-dropping
//!   dynamics (deterministic steepest-descent unit transfers over the
//!   propose/accept/commit message plane), implemented by the existing
//!   stack unchanged;
//! * [`RotorRouterBalancer`] — Friedrich–Gairing–Sauerwald-style
//!   quasirandom rotor-router: each node cycles a rotor pointer through its
//!   ports, shedding one token to the next eligible neighbor;
//! * [`MatchingBalancer`] — Berenbrink-style randomized matching exchange:
//!   seeded pseudorandom partner choice, accepted transfers average the
//!   matched pair (`⌊gap/2⌋` tokens toward the lighter endpoint).
//!
//! All three run the same shared node program ([`BalanceNode`]) on the
//! wake-based churn executor, reuse the derandomized
//! [`td_local::churn::split_role`] role schedule (so every run is seeded
//! and bit-reproducible), carry exact per-transfer Σ load² potential
//! accounting, and
//! answer to the same verifier ([`BalanceEngine::verify`]): balanced,
//! token-conserving, potential books to the token, caches exact. The
//! `td compare` report runs the registry over the generator families and
//! recorded traces and emits `td-compare/v1` JSON.

#![warn(missing_docs)]

pub mod engine;
pub mod instance;
pub mod node;
pub mod protocol;

pub use engine::BalanceEngine;
pub use instance::{
    discrepancy_of, fingerprint_of, max_edge_gap_of, potential_of, total_of, BalanceInstance,
};
pub use node::{BalanceInput, BalanceMsg, BalanceNode, Rule};
pub use protocol::{
    find, registry, BalanceRun, BalancingProtocol, MatchingBalancer, RotorRouterBalancer,
    TokenDropBalancer,
};
