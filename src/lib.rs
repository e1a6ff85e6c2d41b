//! # token-dropping — distributed token dropping, stable orientations, and
//! semi-matchings
//!
//! A from-scratch Rust reproduction of
//! *"Efficient Load-Balancing through Distributed Token Dropping"*
//! (Brandt, Keller, Rybicki, Suomela, Uitto — SPAA 2021, arXiv:2005.07761).
//!
//! The workspace is organized bottom-up; this umbrella crate re-exports the
//! member crates under stable module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `td-graph` | CSR graphs, generators, BFS/girth/bipartition |
//! | [`local`] | `td-local` | the LOCAL-model simulator (dense and sparse one-shot loops, the churn plane) |
//! | [`core`] | `td-core` | the token dropping game, proposal algorithm (Thm 4.1), 3-level algorithm (Thm 4.7), matching reduction (Thm 4.6) |
//! | [`orient`] | `td-orient` | stable orientations in O(Δ⁴) (Thm 5.1), baselines, Section 6 lower-bound machinery |
//! | [`assign`] | `td-assign` | hypergraph token dropping (Thm 7.1), stable assignment (Thm 7.3), k-bounded relaxation (Thm 7.5), optimal semi-matchings |
//!
//! ## Quickstart
//!
//! ```
//! use token_dropping::prelude::*;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // A random graph, stably oriented in O(Δ⁴) LOCAL rounds.
//! let mut rng = SmallRng::seed_from_u64(1);
//! let g = token_dropping::graph::gen::random::gnm(50, 150, &mut rng);
//! let result = solve_stable_orientation(&g, PhaseConfig::default());
//! result.orientation.verify_stable(&g).unwrap();
//! assert!(result.phases as usize <= 2 * g.max_degree() + 2);
//! ```

pub use td_assign as assign;
pub use td_core as core;
pub use td_graph as graph;
pub use td_local as local;
pub use td_orient as orient;

/// The most common entry points, re-exported flat.
pub mod prelude {
    pub use td_assign::bounded::{solve_2_bounded, solve_k_bounded};
    pub use td_assign::phases::solve_stable_assignment;
    pub use td_assign::semi_matching::{approximation_ratio, optimal_semi_matching};
    pub use td_assign::{Assignment, AssignmentInstance};
    pub use td_core::{lockstep, proposal, three_level, TokenGame};
    pub use td_core::{verify_dynamics, verify_solution, MoveLog, Solution, Traversal};
    pub use td_graph::{CsrGraph, EdgeId, GraphBuilder, NodeId, Port};
    pub use td_local::{Protocol, SimOutcome, Simulator};
    pub use td_orient::{solve_stable_orientation, Orientation, PhaseConfig, PhaseResult};
}
