//! Validating builder that assembles [`CsrGraph`]s from edge lists.
//!
//! The builder enforces the simple-graph invariants (no self-loops, no
//! parallel edges) at insertion time and produces sorted adjacency plus the
//! mirror table in O(n + m log Δ).

use crate::csr::CsrGraph;
use crate::ids::NodeId;
use std::collections::HashSet;
use std::fmt;

/// Errors produced while building a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An edge `{v, v}` was inserted.
    SelfLoop(NodeId),
    /// The same undirected edge was inserted twice.
    DuplicateEdge(NodeId, NodeId),
    /// An endpoint is `>= n`.
    NodeOutOfRange(NodeId, usize),
    /// A pre-sorted adjacency row is not ascending (see
    /// [`CsrGraph::sorted_bipartite`]).
    UnsortedRow(NodeId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::SelfLoop(v) => write!(f, "self-loop at {v}"),
            BuildError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            BuildError::NodeOutOfRange(v, n) => {
                write!(f, "node {v} out of range for graph with {n} nodes")
            }
            BuildError::UnsortedRow(v) => write!(f, "adjacency row of {v} is not ascending"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`CsrGraph`].
///
/// ```
/// use td_graph::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1)).unwrap();
/// b.add_edge(NodeId(1), NodeId(2)).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
    seen: HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph over nodes `0..n` with no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Pre-allocates space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            seen: HashSet::with_capacity(m),
        }
    }

    /// Number of nodes the final graph will have.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True if the undirected edge `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = Self::key(u.0, v.0);
        self.seen.contains(&key)
    }

    #[inline]
    fn key(u: u32, v: u32) -> (u32, u32) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    /// Adds the undirected edge `{u, v}`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), BuildError> {
        if u == v {
            return Err(BuildError::SelfLoop(u));
        }
        if u.idx() >= self.n {
            return Err(BuildError::NodeOutOfRange(u, self.n));
        }
        if v.idx() >= self.n {
            return Err(BuildError::NodeOutOfRange(v, self.n));
        }
        let key = Self::key(u.0, v.0);
        if !self.seen.insert(key) {
            return Err(BuildError::DuplicateEdge(NodeId(key.0), NodeId(key.1)));
        }
        self.edges.push(key);
        Ok(())
    }

    /// Adds `{u, v}` unless it already exists; returns whether it was added.
    pub fn add_edge_if_absent(&mut self, u: NodeId, v: NodeId) -> Result<bool, BuildError> {
        if self.has_edge(u, v) {
            return Ok(false);
        }
        self.add_edge(u, v)?;
        Ok(true)
    }

    /// Finalizes into a [`CsrGraph`]. Consumes the builder.
    pub fn build(self) -> Result<CsrGraph, BuildError> {
        let n = self.n;
        let mut endpoints = self.edges;
        // Canonical edge order: sorted by (min, max) endpoint. This makes the
        // edge ids of a graph independent of insertion order, which keeps
        // generator output stable across refactors.
        endpoints.sort_unstable();
        let m = endpoints.len();

        // Degree counting pass.
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &endpoints {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        // Fill pass. Because `endpoints` is sorted and within each pair a < b,
        // scanning edges in order inserts neighbors in increasing order *for
        // the `a` side* but not necessarily for the `b` side, so we sort each
        // adjacency bucket afterwards, carrying edge ids along.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; 2 * m];
        let mut edge_ids = vec![0u32; 2 * m];
        for (e, &(a, b)) in endpoints.iter().enumerate() {
            let sa = cursor[a as usize] as usize;
            cursor[a as usize] += 1;
            neighbors[sa] = b;
            edge_ids[sa] = e as u32;
            let sb = cursor[b as usize] as usize;
            cursor[b as usize] += 1;
            neighbors[sb] = a;
            edge_ids[sb] = e as u32;
        }
        let mut perm: Vec<u32> = Vec::new();
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            perm.clear();
            perm.extend(0..(hi - lo) as u32);
            perm.sort_unstable_by_key(|&i| neighbors[lo + i as usize]);
            let tmp_n: Vec<u32> = perm.iter().map(|&i| neighbors[lo + i as usize]).collect();
            let tmp_e: Vec<u32> = perm.iter().map(|&i| edge_ids[lo + i as usize]).collect();
            neighbors[lo..hi].copy_from_slice(&tmp_n);
            edge_ids[lo..hi].copy_from_slice(&tmp_e);
        }

        // Mirror pass: for each edge, find its slot at both endpoints.
        let mut mirror = vec![0u32; 2 * m];
        let mut slot_of_edge_a = vec![u32::MAX; m];
        for (s, &e) in edge_ids.iter().enumerate() {
            let e = e as usize;
            if slot_of_edge_a[e] == u32::MAX {
                slot_of_edge_a[e] = s as u32;
            } else {
                let s0 = slot_of_edge_a[e] as usize;
                mirror[s0] = s as u32;
                mirror[s] = s0 as u32;
            }
        }

        let g = CsrGraph {
            offsets,
            neighbors,
            edge_ids,
            mirror,
            endpoints,
        };
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeId;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId(1), NodeId(1)),
            Err(BuildError::SelfLoop(NodeId(1)))
        );
    }

    #[test]
    fn rejects_duplicate_both_orders() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            b.add_edge(NodeId(1), NodeId(0)),
            Err(BuildError::DuplicateEdge(NodeId(0), NodeId(1)))
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(5)),
            Err(BuildError::NodeOutOfRange(NodeId(5), 2))
        );
    }

    #[test]
    fn add_if_absent() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge_if_absent(NodeId(0), NodeId(1)).unwrap());
        assert!(!b.add_edge_if_absent(NodeId(1), NodeId(0)).unwrap());
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn canonical_edge_ids_insertion_order_independent() {
        let g1 = CsrGraph::from_edges(4, &[(0, 1), (2, 3), (1, 2)]).unwrap();
        let g2 = CsrGraph::from_edges(4, &[(2, 3), (1, 2), (1, 0)]).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(g1.endpoints(EdgeId(0)), (NodeId(0), NodeId(1)));
        assert_eq!(g1.endpoints(EdgeId(1)), (NodeId(1), NodeId(2)));
        assert_eq!(g1.endpoints(EdgeId(2)), (NodeId(2), NodeId(3)));
    }

    #[test]
    fn large_random_validates() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 500;
        let mut b = GraphBuilder::new(n);
        for _ in 0..2000 {
            let u = NodeId(rng.gen_range(0..n as u32));
            let v = NodeId(rng.gen_range(0..n as u32));
            if u != v {
                let _ = b.add_edge_if_absent(u, v);
            }
        }
        let g = b.build().unwrap();
        g.validate().unwrap();
    }
}
