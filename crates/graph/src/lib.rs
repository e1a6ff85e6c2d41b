//! # td-graph — graph substrate for the token-dropping reproduction
//!
//! This crate provides the graph infrastructure used by every algorithm in the
//! workspace: a compact CSR (compressed sparse row) representation of simple
//! undirected graphs with *ports* and *mirror indices* (so that distributed
//! protocols can address "the k-th incident edge of v" and find the matching
//! slot at the other endpoint), a validating builder, deterministic random
//! generators for all workload families used in the paper's experiments, and
//! classic graph algorithms (BFS, connected components, girth, bipartitions).
//!
//! Everything is deterministic given an RNG seed; no global state.
//!
//! ## Quick example
//!
//! ```
//! use td_graph::{CsrGraph, NodeId};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.degree(NodeId(0)), 2);
//! assert_eq!(td_graph::algo::girth(&g), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod bipartite;
pub mod builder;
pub mod csr;
pub mod dot;
pub mod gen;
pub mod ids;
pub mod io;

pub use bipartite::Bipartition;
pub use builder::{BuildError, GraphBuilder};
pub use csr::CsrGraph;
pub use ids::{EdgeId, NodeId, Port};
