//! Validating builder that assembles [`CsrGraph`]s from edge lists.
//!
//! The builder enforces the simple-graph invariants (no self-loops, no
//! parallel edges) at insertion time, against a set of packed `u64` edge
//! keys. [`GraphBuilder::build`] then produces sorted adjacency, canonical
//! edge ids and the mirror table in O(n + m + Σ deg·log deg) time with a
//! constant number of allocations:
//!
//! 1. count degrees and prefix-sum them into row offsets;
//! 2. fill each row from the insertion-order edge list and sort it in
//!    place (the only sorting: rows, not the m endpoints);
//! 3. walk the nodes in ascending order. When the walk reaches `v`, every
//!    smaller neighbor of `v` has already claimed its slot in `v`'s row, so
//!    the rest of the sorted row holds exactly the neighbors `b > v`, in
//!    ascending order. Each gets the next edge id, which makes ids the rank
//!    of `(min, max)`, independent of insertion order. Its mirror is the
//!    next unclaimed slot of `b`'s row: `b`'s smaller neighbors arrive in
//!    ascending order too, so that slot holds `v`.

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
    seen: HashSet<u64>,
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
        self.seen.contains(&Self::key(u.0, v.0))
    }

    /// The set key of `{u, v}`: `min << 32 | max`. The set keeps std's
    /// keyed hasher, so edge lists read from files cannot force collisions.
    #[inline]
    fn key(u: u32, v: u32) -> u64 {
        u64::from(u.min(v)) << 32 | u64::from(u.max(v))
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
        let (a, b) = (u.0.min(v.0), u.0.max(v.0));
        if !self.seen.insert(Self::key(a, b)) {
            return Err(BuildError::DuplicateEdge(NodeId(a), NodeId(b)));
        }
        self.edges.push((a, b));
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
    ///
    /// Runs in O(n + m + Σ deg·log deg) with five allocations (see the
    /// module docs); the edge list's buffer is reused for the endpoints.
    pub fn build(self) -> Result<CsrGraph, BuildError> {
        let GraphBuilder {
            n,
            edges: mut endpoints,
            seen,
        } = self;
        // Freed first, so peak memory holds the CSR arrays and not the set.
        drop(seen);
        let m = endpoints.len();

        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &endpoints {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }

        // Rows in insertion order, then sorted in place.
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; 2 * m];
        for &(a, b) in &endpoints {
            neighbors[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        for v in 0..n {
            neighbors[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }

        // Canonical ids and mirrors. `cursor[v]` is the first slot of `v`'s
        // row that no smaller neighbor has claimed yet; by the time the walk
        // reaches `v`, it is the first neighbor above `v`.
        cursor.copy_from_slice(&offsets[..n]);
        let mut edge_ids = vec![0u32; 2 * m];
        let mut mirror = vec![0u32; 2 * m];
        endpoints.clear();
        for v in 0..n {
            for s in cursor[v] as usize..offsets[v + 1] as usize {
                let b = neighbors[s];
                let t = cursor[b as usize] as usize;
                cursor[b as usize] += 1;
                debug_assert_eq!(neighbors[t] as usize, v);
                let e = endpoints.len() as u32;
                edge_ids[s] = e;
                edge_ids[t] = e;
                mirror[s] = t as u32;
                mirror[t] = s as u32;
                endpoints.push((v as u32, b));
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
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The build before the linear pass, kept as the oracle of the
    /// property test below: a global endpoint sort, a per-row re-sort
    /// through temporaries, and a mirror pass over a slot-of-edge table.
    fn reference_build(b: GraphBuilder) -> CsrGraph {
        let n = b.n;
        let mut endpoints = b.edges;
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

        CsrGraph {
            offsets,
            neighbors,
            edge_ids,
            mirror,
            endpoints,
        }
    }

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

    /// An edge set over `0..n`: empty, a star at a random center, every
    /// pair kept with probability `density`, or complete. Shuffled, and
    /// each edge inserted with a random endpoint first.
    fn shaped_edges(shape: u8, n: usize, density: f64, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n32 = n as u32;
        let pairs = (0..n32).flat_map(|u| (u + 1..n32).map(move |v| (u, v)));
        let mut edges: Vec<(u32, u32)> = match shape {
            0 => Vec::new(),
            1 if n > 0 => {
                let c = rng.gen_range(0..n32);
                (0..n32).filter(|&v| v != c).map(|v| (c, v)).collect()
            }
            2 => pairs.filter(|_| rng.gen_bool(density)).collect(),
            _ => pairs.collect(),
        };
        edges.shuffle(&mut rng);
        for e in &mut edges {
            if rng.gen_bool(0.5) {
                *e = (e.1, e.0);
            }
        }
        edges
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The linear build equals the reference build field for field,
        /// whatever the insertion order, and validates. `isolated` extra
        /// nodes past the edges' range stay isolated.
        #[test]
        fn build_equals_the_reference_build(
            shape in 0u8..4,
            n in 0usize..40,
            isolated in 0usize..4,
            density in 0.0f64..1.0,
            seed in 0u64..1_000_000,
        ) {
            let mut b = GraphBuilder::new(n + isolated);
            for (u, v) in shaped_edges(shape, n, density, seed) {
                b.add_edge(NodeId(u), NodeId(v)).unwrap();
            }
            let expect = reference_build(b.clone());
            let g = b.build().unwrap();
            prop_assert!(g.validate().is_ok(), "{:?}", g.validate());
            prop_assert_eq!(&g.offsets, &expect.offsets);
            prop_assert_eq!(&g.neighbors, &expect.neighbors);
            prop_assert_eq!(&g.edge_ids, &expect.edge_ids);
            prop_assert_eq!(&g.mirror, &expect.mirror);
            prop_assert_eq!(&g.endpoints, &expect.endpoints);
        }
    }
}
