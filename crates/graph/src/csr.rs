//! Compressed-sparse-row storage for simple undirected graphs.
//!
//! The CSR layout keeps all adjacency data in three flat arrays, which is the
//! cache-friendly layout of choice for graph kernels. On top of the plain
//! neighbor lists we store, for every incident slot:
//!
//! * the [`EdgeId`] of the undirected edge occupying the slot, and
//! * the *mirror index*: the position of the reverse slot inside the CSR
//!   arrays, so `(v, port)` can be translated to `(u, port')` in O(1).
//!
//! Mirrors are what let the LOCAL-model simulator route messages between the
//! two endpoints of an edge without any hashing, and what lets protocol code
//! mark "this undirected edge is consumed" consistently from either side.

use crate::builder::{BuildError, GraphBuilder};
use crate::ids::{EdgeId, NodeId, Port};

/// A simple undirected graph in CSR form.
///
/// Invariants (all enforced by [`GraphBuilder`]):
/// * no self-loops, no parallel edges;
/// * adjacency lists are sorted by neighbor id;
/// * `offsets.len() == n + 1`, `neighbors.len() == 2 * m`;
/// * slot `i` holds neighbor `neighbors[i]`, undirected edge `edge_ids[i]`,
///   and `mirror[i]` is the slot of the same edge at the other endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    pub(crate) offsets: Vec<u32>,
    pub(crate) neighbors: Vec<u32>,
    pub(crate) edge_ids: Vec<u32>,
    pub(crate) mirror: Vec<u32>,
    /// Endpoints of each undirected edge, with `endpoints[e].0 < endpoints[e].1`.
    pub(crate) endpoints: Vec<(u32, u32)>,
}

impl CsrGraph {
    /// Builds a graph from an edge list over nodes `0..n`.
    ///
    /// Fails on self-loops, duplicate edges, or endpoints `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, BuildError> {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v))?;
        }
        b.build()
    }

    /// The bipartite graph whose left nodes `0..nl` are the rows of `rows`
    /// and whose right nodes `nl..nl + num_right` follow them: row `i`
    /// lists, strictly ascending, the right indices `s < num_right` that
    /// left node `i` is adjacent to (node `nl + s`).
    ///
    /// The result equals [`GraphBuilder`]'s build of the same edges field
    /// for field, but it is assembled in O(n + m) without hashing or
    /// sorting: canonical `(min, max)` edge order is row order, so left
    /// slot `e` carries edge `e`, and filling the right rows in left order
    /// keeps them sorted.
    ///
    /// Fails on an out-of-range index, a repeated index
    /// ([`BuildError::DuplicateEdge`]) or a descending row
    /// ([`BuildError::UnsortedRow`]).
    ///
    /// ```
    /// use td_graph::{CsrGraph, GraphBuilder, NodeId};
    /// let rows: [&[u32]; 2] = [&[0, 2], &[1, 2]];
    /// let g = CsrGraph::sorted_bipartite(3, rows).unwrap();
    /// let mut b = GraphBuilder::new(5);
    /// for (c, s) in [(0, 2), (0, 4), (1, 3), (1, 4)] {
    ///     b.add_edge(NodeId(c), NodeId(s)).unwrap();
    /// }
    /// assert_eq!(g, b.build().unwrap());
    /// ```
    pub fn sorted_bipartite<'a, I>(num_right: usize, rows: I) -> Result<Self, BuildError>
    where
        I: IntoIterator<Item = &'a [u32]>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let rows = rows.into_iter();
        let nl = rows.len();
        let n = nl + num_right;
        let mut m = 0usize;
        for (i, row) in rows.clone().enumerate() {
            check_row(i, nl, num_right, row)?;
            m += row.len();
        }
        // Left offsets are the prefix sums of the row lengths. Right degrees
        // are counted two entries ahead of their node, so that after the
        // prefix sum `offsets[nl + 1 + s]` is the first slot of right node
        // `s`: the fill pass uses it as `s`'s cursor, which leaves it at the
        // end of `s` = the start of `s + 1`, where it belongs.
        let mut offsets = vec![0u32; n + 2];
        for (i, row) in rows.clone().enumerate() {
            offsets[i + 1] = offsets[i] + row.len() as u32;
            for &s in row {
                offsets[nl + 2 + s as usize] += 1;
            }
        }
        offsets[nl + 1] = m as u32;
        for v in nl + 2..=n {
            offsets[v] += offsets[v - 1];
        }
        let mut g = CsrGraph {
            offsets: Vec::new(),
            neighbors: vec![0; 2 * m],
            edge_ids: vec![0; 2 * m],
            mirror: vec![0; 2 * m],
            endpoints: vec![(0, 0); m],
        };
        let mut e = 0usize;
        for (i, row) in rows.enumerate() {
            for &s in row {
                let right = (nl + s as usize) as u32;
                let cursor = &mut offsets[nl + 1 + s as usize];
                let t = *cursor as usize;
                *cursor += 1;
                g.neighbors[e] = right;
                g.edge_ids[e] = e as u32;
                g.mirror[e] = t as u32;
                g.neighbors[t] = i as u32;
                g.edge_ids[t] = e as u32;
                g.mirror[t] = e as u32;
                g.endpoints[e] = (i as u32, right);
                e += 1;
            }
        }
        offsets.truncate(n + 1);
        g.offsets = offsets;
        debug_assert!(g.validate().is_ok(), "{:?}", g.validate());
        Ok(g)
    }

    /// Appends left node `num_left` to a sorted bipartite graph with
    /// `num_left` left nodes (the layout of [`CsrGraph::sorted_bipartite`]),
    /// adjacent to the right indices `row` (strictly ascending), in place:
    /// the result equals `sorted_bipartite` of the old rows plus `row`.
    ///
    /// Every right node's id moves up by one, and its slots move up past
    /// the new left slots and the new edges of smaller right nodes; edge
    /// ids keep their values. That is `row.len() + 1` block moves and one
    /// sequential pass over the left slots, O(n + m) without hashing,
    /// sorting or scattered writes, and no allocation once the buffers
    /// have room. Fails, leaving `self` unchanged, as the constructor does
    /// on a bad row.
    pub fn push_left_node(&mut self, num_left: usize, row: &[u32]) -> Result<(), BuildError> {
        let nl = num_left;
        let n = self.num_nodes();
        assert!(nl <= n, "{nl} left nodes in a graph of {n}");
        let nr = n - nl;
        check_row(nl, nl + 1, nr, row)?;
        let (m, d) = (self.num_edges(), row.len());
        let (n2, m2) = (n + 1, m + d);
        self.neighbors.resize(2 * m2, 0);
        self.edge_ids.resize(2 * m2, 0);
        self.mirror.resize(2 * m2, 0);
        self.endpoints.resize(m2, (0, 0));
        // Right nodes after the k-th new edge's node and up to the next
        // form block k: their slots move up by d + k, and the new edge of
        // right node row[k] lands right after block k. Top block first, so
        // no slot is overwritten before it has moved.
        for k in (0..=d).rev() {
            let lo = if k == 0 {
                m
            } else {
                self.offsets[nl + row[k - 1] as usize + 1] as usize
            };
            let hi = if k == d {
                2 * m
            } else {
                self.offsets[nl + row[k] as usize + 1] as usize
            };
            let shift = d + k;
            self.neighbors.copy_within(lo..hi, lo + shift);
            self.edge_ids.copy_within(lo..hi, lo + shift);
            self.mirror.copy_within(lo..hi, lo + shift);
            if k < d {
                let t = hi + shift;
                self.neighbors[t] = nl as u32;
                self.edge_ids[t] = (m + k) as u32;
                self.mirror[t] = (m + k) as u32;
            }
        }
        // Right offsets: node nl + s becomes nl + 1 + s and starts d plus
        // the new edges of smaller right nodes later. Top down, so each
        // entry is read before its slot is rewritten.
        self.offsets.resize(n2 + 1, 0);
        self.offsets[n2] = (2 * m2) as u32;
        let mut below = d;
        for s in (0..nr).rev() {
            while below > 0 && row[below - 1] as usize > s {
                below -= 1;
            }
            // `below` now counts the row entries <= s.
            let smaller = below - usize::from(below > 0 && row[below - 1] as usize == s);
            self.offsets[nl + 1 + s] = self.offsets[nl + s] + (d + smaller) as u32;
        }
        // Old left slots: right ids up by one, mirrors follow their right
        // slot's move.
        for e in 0..m {
            let s = self.neighbors[e] as usize - nl;
            let smaller = row.partition_point(|&r| (r as usize) < s);
            self.neighbors[e] += 1;
            self.endpoints[e].1 += 1;
            self.mirror[e] += (d + smaller) as u32;
        }
        for (k, &s) in row.iter().enumerate() {
            let (e, right) = (m + k, (nl + 1) as u32 + s);
            self.neighbors[e] = right;
            self.edge_ids[e] = e as u32;
            self.mirror[e] = self.offsets[nl + 2 + s as usize] - 1;
            self.endpoints[e] = (nl as u32, right);
        }
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        Ok(())
    }

    /// Removes left node `i` from a sorted bipartite graph with `num_left`
    /// left nodes (the layout of [`CsrGraph::sorted_bipartite`]), in place:
    /// the result equals `sorted_bipartite` of the remaining rows. Later
    /// left nodes and every right node move down by one id, edge ids past
    /// `i`'s close the gap. Two sequential passes over the slots plus one
    /// mirror pass, O(n + m) without allocation.
    ///
    /// # Panics
    /// If `i >= num_left` or `num_left` exceeds the node count.
    pub fn remove_left_node(&mut self, num_left: usize, i: usize) {
        let nl = num_left;
        let n = self.num_nodes();
        assert!(i < nl && nl <= n, "left node {i} of {nl} in a graph of {n}");
        let nr = n - nl;
        let m = self.num_edges();
        let (e0, e1) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        let d = e1 - e0;
        let m2 = m - d;
        let renumber_left = |c: u32| c - u32::from(c as usize > i);
        // Left slots close the gap (forward, so every source is read before
        // it can be overwritten); right ids move down by one.
        for e2 in 0..m2 {
            let e = if e2 < e0 { e2 } else { e2 + d };
            let (c, right) = self.endpoints[e];
            self.neighbors[e2] = right - 1;
            self.edge_ids[e2] = e2 as u32;
            self.endpoints[e2] = (renumber_left(c), right - 1);
        }
        for j in i + 1..nl {
            self.offsets[j] = self.offsets[j + 1] - d as u32;
        }
        // Right slots move down past the removed left slots and the
        // removed edges before them, dropping `i`'s edges on the way.
        let mut removed = 0usize;
        for s in 0..nr {
            let (lo, hi) = (
                self.offsets[nl + s] as usize,
                self.offsets[nl + s + 1] as usize,
            );
            self.offsets[nl - 1 + s] = (lo - d - removed) as u32;
            for t in lo..hi {
                let e = self.edge_ids[t] as usize;
                if (e0..e1).contains(&e) {
                    removed += 1;
                    continue;
                }
                let t2 = t - d - removed;
                let e2 = (if e < e0 { e } else { e - d }) as u32;
                self.neighbors[t2] = renumber_left(self.neighbors[t]);
                self.edge_ids[t2] = e2;
                self.mirror[t2] = e2;
            }
        }
        self.offsets[n - 1] = (2 * m2) as u32;
        self.offsets.truncate(n);
        self.neighbors.truncate(2 * m2);
        self.edge_ids.truncate(2 * m2);
        self.mirror.truncate(2 * m2);
        self.endpoints.truncate(m2);
        for t in m2..2 * m2 {
            self.mirror[self.edge_ids[t] as usize] = t as u32;
        }
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
    }

    /// Number of nodes `n`.
    #[inline(always)]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of node `v`.
    #[inline(always)]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.idx() + 1] - self.offsets[v.idx()]) as usize
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(NodeId::from(v)))
            .max()
            .unwrap_or(0)
    }

    /// Histogram of degrees: `hist[d]` = number of nodes with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in 0..self.num_nodes() {
            hist[self.degree(NodeId::from(v))] += 1;
        }
        hist
    }

    /// The sorted neighbor list of `v`.
    #[inline(always)]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Iterator over neighbors of `v` as [`NodeId`]s.
    pub fn neighbor_ids(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(v).iter().map(|&u| NodeId(u))
    }

    /// The neighbor reached from `v` through local port `p`.
    #[inline(always)]
    pub fn neighbor_at(&self, v: NodeId, p: Port) -> NodeId {
        NodeId(self.neighbors[self.slot(v, p)])
    }

    /// The undirected edge incident to `v` at local port `p`.
    #[inline(always)]
    pub fn edge_at(&self, v: NodeId, p: Port) -> EdgeId {
        EdgeId(self.edge_ids[self.slot(v, p)])
    }

    /// Flat slot index of `(v, p)` into the CSR arrays.
    #[inline(always)]
    pub fn slot(&self, v: NodeId, p: Port) -> usize {
        debug_assert!(p.idx() < self.degree(v), "port {p} out of range at {v}");
        self.offsets[v.idx()] as usize + p.idx()
    }

    /// Given the flat slot of `(v, p)`, the flat slot of the same edge at the
    /// other endpoint. `mirror(mirror(s)) == s`.
    #[inline(always)]
    pub fn mirror_slot(&self, slot: usize) -> usize {
        self.mirror[slot] as usize
    }

    /// Translates `(v, p)` into the mirrored `(u, p')` pair at the other
    /// endpoint of the edge on port `p`.
    pub fn mirror(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        let s = self.slot(v, p);
        let ms = self.mirror_slot(s);
        let u = NodeId(self.neighbors[s]);
        let p2 = Port((ms - self.offsets[u.idx()] as usize) as u32);
        (u, p2)
    }

    /// Endpoints `(u, v)` of edge `e` with `u < v`.
    #[inline(always)]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (a, b) = self.endpoints[e.idx()];
        (NodeId(a), NodeId(b))
    }

    /// The endpoint of edge `e` that is not `v`.
    ///
    /// # Panics
    /// If `v` is not an endpoint of `e` (debug builds only).
    #[inline(always)]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints[e.idx()];
        debug_assert!(v.0 == a || v.0 == b, "{v} is not an endpoint of {e}");
        NodeId(a ^ b ^ v.0)
    }

    /// The local port of edge `e` at node `v`, found by binary search over the
    /// sorted adjacency list (O(log deg)).
    pub fn port_of(&self, v: NodeId, e: EdgeId) -> Option<Port> {
        let u = self.other_endpoint(e, v);
        let nbrs = self.neighbors(v);
        let i = nbrs.binary_search(&u.0).ok()?;
        // Simple graph: neighbor uniquely identifies the edge.
        debug_assert_eq!(self.edge_ids[self.offsets[v.idx()] as usize + i], e.0);
        Some(Port(i as u32))
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all edge ids `0..m`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges() as u32).map(EdgeId)
    }

    /// Iterator over `(EdgeId, u, v)` triples.
    pub fn edge_list(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (EdgeId(i as u32), NodeId(a), NodeId(b)))
    }

    /// True if `{u, v}` is an edge (O(log deg)).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (s, t) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(s).binary_search(&t.0).is_ok()
    }

    /// The id of the edge `{u, v}` if present (O(log deg)).
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let i = self.neighbors(u).binary_search(&v.0).ok()?;
        Some(EdgeId(self.edge_ids[self.offsets[u.idx()] as usize + i]))
    }

    /// Total number of directed slots (`2 m`); the size of per-slot arrays such
    /// as simulator mailboxes.
    #[inline(always)]
    pub fn num_slots(&self) -> usize {
        self.neighbors.len()
    }

    /// The CSR offset of node `v`'s first slot. Exposed for engines that index
    /// per-slot state directly.
    #[inline(always)]
    pub fn node_offset(&self, v: NodeId) -> usize {
        self.offsets[v.idx()] as usize
    }

    /// Checks all internal invariants; used by tests and the builder.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        let m = self.num_edges();
        if self.neighbors.len() != 2 * m
            || self.edge_ids.len() != 2 * m
            || self.mirror.len() != 2 * m
        {
            return Err("array length mismatch".into());
        }
        if *self.offsets.last().unwrap() as usize != 2 * m {
            return Err("offset tail mismatch".into());
        }
        for v in 0..n {
            let nbrs = self.neighbors(NodeId::from(v));
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of v{v} not strictly sorted"));
                }
            }
            for (p, &u) in nbrs.iter().enumerate() {
                if u as usize >= n {
                    return Err(format!("neighbor out of range at v{v}"));
                }
                let s = self.slot(NodeId::from(v), Port::from(p));
                let ms = self.mirror_slot(s);
                if self.mirror_slot(ms) != s {
                    return Err(format!("mirror not involutive at slot {s}"));
                }
                if self.neighbors[ms] != v as u32 {
                    return Err(format!("mirror slot {ms} does not point back to v{v}"));
                }
                if self.edge_ids[ms] != self.edge_ids[s] {
                    return Err(format!("edge id mismatch across mirror at slot {s}"));
                }
                let e = self.edge_ids[s] as usize;
                if e >= m {
                    return Err(format!("edge id out of range at slot {s}"));
                }
                let (a, b) = self.endpoints[e];
                let (x, y) = if (v as u32) < u {
                    (v as u32, u)
                } else {
                    (u, v as u32)
                };
                if (a, b) != (x, y) {
                    return Err(format!("endpoints of e{e} disagree with slot {s}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = k4();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.num_slots(), 12);
        assert_eq!(g.max_degree(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        g.validate().unwrap();
    }

    #[test]
    fn neighbors_sorted() {
        let g = CsrGraph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (3, 2)]).unwrap();
        assert_eq!(g.neighbors(NodeId(3)), &[0, 1, 2, 4]);
        g.validate().unwrap();
    }

    #[test]
    fn mirror_roundtrip() {
        let g = k4();
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let p = Port::from(p);
                let (u, q) = g.mirror(v, p);
                let (v2, p2) = g.mirror(u, q);
                assert_eq!((v2, p2), (v, p));
                assert_eq!(g.neighbor_at(v, p), u);
                assert_eq!(g.neighbor_at(u, q), v);
                assert_eq!(g.edge_at(v, p), g.edge_at(u, q));
            }
        }
    }

    #[test]
    fn endpoints_and_other() {
        let g = k4();
        for (e, u, v) in g.edge_list() {
            assert!(u < v);
            assert_eq!(g.other_endpoint(e, u), v);
            assert_eq!(g.other_endpoint(e, v), u);
            assert_eq!(g.port_of(u, e).map(|p| g.edge_at(u, p)), Some(e));
            assert_eq!(g.port_of(v, e).map(|p| g.edge_at(v, p)), Some(e));
        }
    }

    #[test]
    fn has_edge_and_edge_between() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(1), NodeId(1)));
        assert_eq!(g.edge_between(NodeId(2), NodeId(3)), Some(EdgeId(1)));
        assert_eq!(g.edge_between(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::from_edges(3, &[]).unwrap();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.degree_histogram(), vec![3]);
        g.validate().unwrap();
    }

    #[test]
    fn degree_histogram_star() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.degree_histogram(), vec![0, 3, 0, 1]);
    }
}

/// Checks one adjacency row of a sorted bipartite graph: left node `left`
/// of `nl`, right indices ascending and below `num_right`.
fn check_row(left: usize, nl: usize, num_right: usize, row: &[u32]) -> Result<(), BuildError> {
    for (k, &s) in row.iter().enumerate() {
        let right = NodeId((nl as u32).saturating_add(s));
        if s as usize >= num_right {
            return Err(BuildError::NodeOutOfRange(right, nl + num_right));
        }
        if k > 0 && row[k - 1] >= s {
            return Err(if row[k - 1] == s {
                BuildError::DuplicateEdge(NodeId::from(left), right)
            } else {
                BuildError::UnsortedRow(NodeId::from(left))
            });
        }
    }
    Ok(())
}

/// Property tests: the linear bipartite constructor, and the in-place left
/// node push and removal, are drop-ins for the builder on every sorted
/// bipartite edge list.
#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `nl` ascending rows over `0..nr`, each index kept with `density`.
    fn random_rows(nl: usize, nr: usize, density: f64, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..nl)
            .map(|_| (0..nr as u32).filter(|_| rng.gen_bool(density)).collect())
            .collect()
    }

    fn via_builder(nr: usize, rows: &[Vec<u32>]) -> CsrGraph {
        let nl = rows.len();
        let mut b = GraphBuilder::new(nl + nr);
        for (i, row) in rows.iter().enumerate() {
            for &s in row {
                b.add_edge(NodeId::from(i), NodeId::from(nl + s as usize))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sorted_bipartite_equals_builder(
            nl in 0usize..40,
            nr in 0usize..30,
            density in 0.0f64..0.6,
            seed in 0u64..1_000_000,
        ) {
            let rows = random_rows(nl, nr, density, seed);
            let expect = via_builder(nr, &rows);
            let fresh = CsrGraph::sorted_bipartite(nr, rows.iter().map(Vec::as_slice)).unwrap();
            prop_assert_eq!(&fresh, &expect);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Pushing a left node, or removing any left node, in place equals
        /// building the changed rows from scratch.
        #[test]
        fn push_and_remove_left_node_equal_a_fresh_build(
            nl in 0usize..30,
            nr in 0usize..20,
            density in 0.0f64..0.6,
            seed in 0u64..1_000_000,
            pick in 0usize..1000,
        ) {
            let mut rows = random_rows(nl + 1, nr, density, seed);
            let mut g = CsrGraph::sorted_bipartite(nr, rows[..nl].iter().map(Vec::as_slice)).unwrap();
            g.push_left_node(nl, &rows[nl]).unwrap();
            prop_assert_eq!(&g, &via_builder(nr, &rows));
            let i = pick % (nl + 1);
            g.remove_left_node(nl + 1, i);
            rows.remove(i);
            prop_assert_eq!(&g, &via_builder(nr, &rows));
        }
    }

    #[test]
    fn push_left_node_rejects_bad_rows_and_leaves_the_graph_unchanged() {
        let rows: [&[u32]; 2] = [&[0, 1], &[1]];
        let mut g = CsrGraph::sorted_bipartite(2, rows).unwrap();
        let before = g.clone();
        let cases: [(&[u32], BuildError); 3] = [
            (&[0, 2], BuildError::NodeOutOfRange(NodeId(5), 5)),
            (&[1, 1], BuildError::DuplicateEdge(NodeId(2), NodeId(4))),
            (&[1, 0], BuildError::UnsortedRow(NodeId(2))),
        ];
        for (bad, err) in cases {
            assert_eq!(g.push_left_node(2, bad), Err(err));
            assert_eq!(g, before);
        }
    }

    #[test]
    fn sorted_bipartite_rejects_bad_rows() {
        let cases: [(&[u32], BuildError); 3] = [
            (&[0, 2], BuildError::NodeOutOfRange(NodeId(4), 4)),
            (&[1, 1], BuildError::DuplicateEdge(NodeId(1), NodeId(3))),
            (&[1, 0], BuildError::UnsortedRow(NodeId(1))),
        ];
        for (bad, err) in cases {
            let rows: [&[u32]; 2] = [&[0], bad];
            assert_eq!(CsrGraph::sorted_bipartite(2, rows), Err(err));
        }
    }
}
