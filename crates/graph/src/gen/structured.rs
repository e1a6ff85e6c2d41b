//! Structured generators for the paper's lower-bound constructions and
//! token-dropping workloads: perfect d-ary trees (Section 6), high-girth
//! near-regular graphs (Theorem 6.3), and random layered graphs (Section 4).

use crate::algo::bfs_distances_capped;
use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::gen::Picks;
use crate::ids::NodeId;
use rand::Rng;

/// Number of nodes of a perfect `d`-ary tree of the given `depth`, where
/// *d-ary* follows the paper's definition: every non-leaf node has **degree**
/// `d` (so the root has `d` children and internal nodes have `d - 1`).
///
/// Returns `None` on overflow.
pub fn dary_tree_node_count(d: usize, depth: usize) -> Option<usize> {
    assert!(d >= 2, "d-ary tree needs d >= 2");
    let mut total: usize = 1;
    let mut layer: usize = 1;
    for level in 0..depth {
        let fanout = if level == 0 { d } else { d - 1 };
        layer = layer.checked_mul(fanout)?;
        total = total.checked_add(layer)?;
    }
    Some(total)
}

/// A perfect `d`-ary tree (paper Section 6): every non-leaf has degree `d`,
/// and all leaves are at distance `depth` from the root (node 0).
///
/// Returns the graph and the depth of every node.
///
/// # Panics
/// If `d < 2` or the tree would exceed `max_nodes`.
pub fn perfect_dary_tree(d: usize, depth: usize, max_nodes: usize) -> (CsrGraph, Vec<u32>) {
    let n = dary_tree_node_count(d, depth)
        .filter(|&n| n <= max_nodes)
        .unwrap_or_else(|| {
            panic!("perfect {d}-ary tree of depth {depth} exceeds max_nodes={max_nodes}")
        });
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    let mut node_depth = vec![0u32; n];
    let mut next_id: usize = 1;
    let mut frontier: Vec<usize> = vec![0];
    for level in 0..depth {
        let fanout = if level == 0 { d } else { d - 1 };
        let mut next_frontier = Vec::with_capacity(frontier.len() * fanout);
        for &parent in &frontier {
            for _ in 0..fanout {
                let child = next_id;
                next_id += 1;
                node_depth[child] = (level + 1) as u32;
                b.add_edge(NodeId::from(parent), NodeId::from(child))
                    .unwrap();
                next_frontier.push(child);
            }
        }
        frontier = next_frontier;
    }
    debug_assert_eq!(next_id, n);
    (b.build().unwrap(), node_depth)
}

/// Incrementally builds a `d`-regular graph on `n` nodes with girth `>= girth`
/// by only adding edges between nodes at distance `>= girth - 1`.
///
/// This is a randomized greedy with restarts; it succeeds with good
/// probability when `n` comfortably exceeds the Moore bound for `(d, girth)`.
/// Returns `None` if no `d`-regular graph was completed within
/// `max_restarts` restarts.
///
/// For the Theorem 6.3 experiments we need Δ-regular graphs whose girth
/// exceeds the probe radius; this generator provides them at laptop scale
/// (the paper's proof merely needs such graphs to *exist* for large `n`).
pub fn high_girth_regular(
    n: usize,
    d: usize,
    girth: usize,
    rng: &mut impl Rng,
    max_restarts: usize,
) -> Option<CsrGraph> {
    assert!(d >= 2 && girth >= 3);
    assert!((n * d).is_multiple_of(2), "n * d must be even");
    let cap = (girth - 2) as u32; // forbid endpoints at distance <= girth - 2

    'restart: for _ in 0..max_restarts {
        let mut b = GraphBuilder::with_capacity(n, n * d / 2);
        let mut deg = vec![0usize; n];
        let mut open: Vec<u32> = (0..n as u32).collect();
        let mut stale_rounds = 0usize;
        while !open.is_empty() {
            // Sample a pair of open nodes; prefer the fullest node first to
            // avoid stranding nearly-complete nodes.
            let limit = 40 * open.len() + 100;
            let mut added = false;
            for _ in 0..limit {
                let iu = rng.gen_range(0..open.len());
                let iv = rng.gen_range(0..open.len());
                if iu == iv {
                    continue;
                }
                let (u, v) = (open[iu], open[iv]);
                if b.has_edge(NodeId(u), NodeId(v)) {
                    continue;
                }
                // Distance check on the *current* partial graph.
                let g_partial = b.clone().build().ok()?;
                let dist = bfs_distances_capped(&g_partial, NodeId(u), cap);
                if dist[v as usize] != crate::algo::UNREACHED {
                    continue; // too close: would close a short cycle
                }
                b.add_edge(NodeId(u), NodeId(v)).unwrap();
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                open.retain(|&w| deg[w as usize] < d);
                added = true;
                break;
            }
            if !added {
                stale_rounds += 1;
                if stale_rounds > 2 {
                    continue 'restart;
                }
            } else {
                stale_rounds = 0;
            }
        }
        let g = b.build().ok()?;
        if g.nodes().all(|v| g.degree(v) == d) {
            debug_assert!(crate::algo::girth(&g).is_none_or(|c| c >= girth));
            return Some(g);
        }
    }
    None
}

/// A random layered graph for token-dropping games.
///
/// `widths[l]` is the number of nodes on level `l` (level 0 is the bottom).
/// Every node on level `l >= 1` is connected to `min(down_degree, widths[l-1])`
/// distinct uniformly random nodes on level `l - 1`. Node ids are assigned
/// level by level, bottom-up.
///
/// Returns the graph and the level of every node.
pub fn random_layered(
    widths: &[usize],
    down_degree: usize,
    rng: &mut impl Rng,
) -> (CsrGraph, Vec<u32>) {
    assert!(!widths.is_empty());
    assert!(down_degree >= 1);
    let n: usize = widths.iter().sum();
    let mut level = vec![0u32; n];
    let mut first_id_of_level = Vec::with_capacity(widths.len());
    let mut acc = 0usize;
    for (l, &w) in widths.iter().enumerate() {
        first_id_of_level.push(acc);
        for i in 0..w {
            level[acc + i] = l as u32;
        }
        acc += w;
    }
    let m = (1..widths.len())
        .map(|l| widths[l] * down_degree.min(widths[l - 1]))
        .sum();
    let mut b = GraphBuilder::with_capacity(n, m);
    let widest_below = widths[..widths.len() - 1].iter().max();
    let mut picks = Picks::new(widest_below.copied().unwrap_or(0));
    for l in 1..widths.len() {
        let below = widths[l - 1];
        let base_below = first_id_of_level[l - 1];
        let base = first_id_of_level[l];
        let want = down_degree.min(below);
        for i in 0..widths[l] {
            let v = NodeId::from(base + i);
            picks.clear();
            while picks.len() < want {
                picks.insert(rng.gen_range(0..below) as u32);
            }
            for &c in picks.as_slice() {
                b.add_edge(v, NodeId::from(base_below + c as usize))
                    .unwrap();
            }
        }
    }
    (b.build().unwrap(), level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dary_counts() {
        // d = 3: 1 + 3 + 6 + 12 ...
        assert_eq!(dary_tree_node_count(3, 0), Some(1));
        assert_eq!(dary_tree_node_count(3, 1), Some(4));
        assert_eq!(dary_tree_node_count(3, 2), Some(10));
        assert_eq!(dary_tree_node_count(3, 3), Some(22));
        // d = 2 is a path: 1 + 2 + 2 + ... hmm, d=2: root has 2 children,
        // internal nodes have 1 child each -> widths 1,2,2,2,...
        assert_eq!(dary_tree_node_count(2, 3), Some(7));
    }

    #[test]
    fn perfect_tree_structure() {
        let (g, depth) = perfect_dary_tree(3, 3, 10_000);
        assert_eq!(g.num_nodes(), 22);
        assert_eq!(g.num_edges(), 21);
        assert_eq!(algo::girth(&g), None);
        assert!(algo::is_connected(&g));
        // Every non-leaf has degree 3; leaves (depth 3) have degree 1.
        for v in g.nodes() {
            if depth[v.idx()] == 3 {
                assert_eq!(g.degree(v), 1, "leaf {v}");
            } else {
                assert_eq!(g.degree(v), 3, "internal {v}");
            }
        }
        // Depth via BFS agrees.
        let bfs = algo::bfs_distances(&g, NodeId(0));
        for v in g.nodes() {
            assert_eq!(bfs[v.idx()], depth[v.idx()]);
        }
    }

    #[test]
    fn perfect_tree_root_degree() {
        let (g, _) = perfect_dary_tree(4, 2, 10_000);
        assert_eq!(g.degree(NodeId(0)), 4);
        // 1 + 4 + 12
        assert_eq!(g.num_nodes(), 17);
    }

    #[test]
    #[should_panic]
    fn perfect_tree_size_guard() {
        let _ = perfect_dary_tree(5, 20, 1_000);
    }

    #[test]
    fn high_girth_regular_works() {
        let mut rng = SmallRng::seed_from_u64(20);
        let g = high_girth_regular(40, 3, 6, &mut rng, 60).expect("should build (3,6) graph");
        assert!(g.nodes().all(|v| g.degree(v) == 3));
        assert!(algo::girth(&g).unwrap() >= 6);
    }

    #[test]
    fn high_girth_regular_degree4() {
        let mut rng = SmallRng::seed_from_u64(21);
        let g = high_girth_regular(60, 4, 5, &mut rng, 60).expect("should build (4,5) graph");
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(algo::girth(&g).unwrap() >= 5);
    }

    #[test]
    fn layered_structure() {
        let mut rng = SmallRng::seed_from_u64(22);
        let widths = [5, 8, 8, 4];
        let (g, level) = random_layered(&widths, 2, &mut rng);
        assert_eq!(g.num_nodes(), 25);
        // Levels assigned bottom-up.
        assert_eq!(&level[0..5], &[0, 0, 0, 0, 0]);
        assert_eq!(level[5], 1);
        assert_eq!(level[24], 3);
        // Every edge joins adjacent levels.
        for (_, u, v) in g.edge_list() {
            let lu = level[u.idx()];
            let lv = level[v.idx()];
            assert_eq!(lu.abs_diff(lv), 1, "edge {u}-{v} levels {lu},{lv}");
        }
        // Every non-bottom node has down-degree exactly 2 (width below >= 2).
        for v in g.nodes() {
            let l = level[v.idx()];
            if l >= 1 {
                let down = g
                    .neighbor_ids(v)
                    .filter(|u| level[u.idx()] == l - 1)
                    .count();
                assert_eq!(down, 2);
            }
        }
    }

    #[test]
    fn layered_down_degree_clamped() {
        let mut rng = SmallRng::seed_from_u64(23);
        let (g, level) = random_layered(&[1, 6], 4, &mut rng);
        // Only one node below: every level-1 node has down-degree 1.
        for v in g.nodes() {
            if level[v.idx()] == 1 {
                assert_eq!(g.degree(v), 1);
            }
        }
        assert_eq!(g.degree(NodeId(0)), 6);
    }
}
