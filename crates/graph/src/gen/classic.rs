//! Deterministic classic graph families.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::ids::NodeId;

/// Path P_n on `n` nodes (`n - 1` edges). `path(0)` and `path(1)` are edgeless.
pub fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        b.add_edge(NodeId::from(i - 1), NodeId::from(i)).unwrap();
    }
    b.build().unwrap()
}

/// Cycle C_n on `n >= 3` nodes.
///
/// # Panics
/// If `n < 3`.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut b = GraphBuilder::with_capacity(n, n);
    for i in 0..n {
        b.add_edge(NodeId::from(i), NodeId::from((i + 1) % n))
            .unwrap();
    }
    b.build().unwrap()
}

/// Complete graph K_n.
pub fn complete(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId::from(i), NodeId::from(j)).unwrap();
        }
    }
    b.build().unwrap()
}

/// Star K_{1,k}: center node 0 joined to leaves `1..=k`.
pub fn star(k: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(k + 1, k);
    for i in 1..=k {
        b.add_edge(NodeId(0), NodeId::from(i)).unwrap();
    }
    b.build().unwrap()
}

/// Complete bipartite graph K_{a,b}; side A is `0..a`, side B is `a..a+b`.
pub fn complete_bipartite(a: usize, b_count: usize) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(a + b_count, a * b_count);
    for i in 0..a {
        for j in 0..b_count {
            b.add_edge(NodeId::from(i), NodeId::from(a + j)).unwrap();
        }
    }
    b.build().unwrap()
}

/// `rows × cols` grid graph; node `(r, c)` has id `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    let m = rows * cols.saturating_sub(1) + rows.saturating_sub(1) * cols;
    let mut b = GraphBuilder::with_capacity(n, m);
    for r in 0..rows {
        for c in 0..cols {
            let v = NodeId::from(r * cols + c);
            if c + 1 < cols {
                b.add_edge(v, NodeId::from(r * cols + c + 1)).unwrap();
            }
            if r + 1 < rows {
                b.add_edge(v, NodeId::from((r + 1) * cols + c)).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// `rows × cols` torus (grid with wraparound); requires `rows, cols >= 3` so
/// the result is a simple 4-regular graph.
///
/// # Panics
/// If `rows < 3` or `cols < 3`.
pub fn torus(rows: usize, cols: usize) -> CsrGraph {
    assert!(rows >= 3 && cols >= 3, "torus needs rows, cols >= 3");
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = NodeId::from(r * cols + c);
            b.add_edge(v, NodeId::from(r * cols + (c + 1) % cols))
                .unwrap();
            b.add_edge(v, NodeId::from(((r + 1) % rows) * cols + c))
                .unwrap();
        }
    }
    b.build().unwrap()
}

/// The `dim`-dimensional hypercube Q_dim: `2^dim` nodes, node `i` joined to
/// `i ^ (1 << b)` for every bit `b < dim`. `dim`-regular with `dim · 2^(dim-1)`
/// edges; `hypercube(0)` is a single node.
///
/// # Panics
/// If `dim > 24` (guards against accidental exponential blowups).
pub fn hypercube(dim: usize) -> CsrGraph {
    assert!(dim <= 24, "hypercube dimension {dim} is too large");
    let n = 1usize << dim;
    let mut b = GraphBuilder::with_capacity(n, dim * n / 2);
    for i in 0..n {
        for bit in 0..dim {
            let j = i ^ (1 << bit);
            if i < j {
                b.add_edge(NodeId::from(i), NodeId::from(j)).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// The Petersen graph: 3-regular, girth 5. A handy fixed high-girth regular
/// instance for tests.
pub fn petersen() -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(10, 15);
    for i in 0u32..5 {
        b.add_edge(NodeId(i), NodeId((i + 1) % 5)).unwrap();
        b.add_edge(NodeId(5 + i), NodeId(5 + (i + 2) % 5)).unwrap();
        b.add_edge(NodeId(i), NodeId(5 + i)).unwrap();
    }
    b.build().unwrap()
}

/// The Heawood graph: 3-regular, girth 6, 14 nodes. The smallest (3,6)-cage;
/// used as a fixed high-girth instance in lower-bound tests.
pub fn heawood() -> CsrGraph {
    // Standard construction: C14 plus chords i -> i+5 for even i.
    let mut b = GraphBuilder::with_capacity(14, 21);
    for i in 0u32..14 {
        b.add_edge(NodeId(i), NodeId((i + 1) % 14)).unwrap();
    }
    for i in (0u32..14).step_by(2) {
        b.add_edge(NodeId(i), NodeId((i + 5) % 14)).unwrap();
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(algo::girth(&g), None);
        assert_eq!(path(0).num_nodes(), 0);
        assert_eq!(path(1).num_edges(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert_eq!(algo::girth(&g), Some(6));
    }

    #[test]
    #[should_panic]
    fn cycle_too_small_panics() {
        let _ = cycle(2);
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.num_edges(), 10);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert_eq!(algo::girth(&g), Some(3));
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.degree(NodeId(0)), 7);
        assert_eq!(algo::girth(&g), None);
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_edges(), 12);
        let b = crate::bipartite::bipartition(&g).unwrap();
        assert!(b.verify(&g));
        assert_eq!(algo::girth(&g), Some(4));
    }

    #[test]
    fn grid_and_torus() {
        let g = grid(3, 4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // 17
        assert!(algo::is_connected(&g));
        let t = torus(4, 5);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        assert_eq!(t.num_edges(), 2 * 20);
    }

    #[test]
    fn hypercube_shape() {
        for dim in 0..=5usize {
            let g = hypercube(dim);
            assert_eq!(g.num_nodes(), 1 << dim);
            assert_eq!(g.num_edges(), dim << dim >> 1);
            assert!(g.nodes().all(|v| g.degree(v) == dim), "dim {dim}");
            g.validate().unwrap();
        }
        assert!(algo::is_connected(&hypercube(4)));
        assert_eq!(algo::girth(&hypercube(3)), Some(4));
        let b = crate::bipartite::bipartition(&hypercube(3)).unwrap();
        assert!(b.verify(&hypercube(3)));
    }

    #[test]
    fn named_cages() {
        let p = petersen();
        assert!(p.nodes().all(|v| p.degree(v) == 3));
        assert_eq!(algo::girth(&p), Some(5));
        let h = heawood();
        assert!(h.nodes().all(|v| h.degree(v) == 3));
        assert_eq!(algo::girth(&h), Some(6));
    }
}
