//! Randomized graph generators: Erdős–Rényi, random regular (configuration
//! model), and bipartite customer/server workloads.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::gen::Picks;
use crate::ids::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Erdős–Rényi G(n, m): exactly `m` distinct edges chosen uniformly.
///
/// # Panics
/// If `m` exceeds the number of possible edges `n(n-1)/2`.
pub fn gnm(n: usize, m: usize, rng: &mut impl Rng) -> CsrGraph {
    let max_m = n * n.saturating_sub(1) / 2;
    assert!(m <= max_m, "requested {m} edges but K_{n} has only {max_m}");
    let mut b = GraphBuilder::with_capacity(n, m);
    // Rejection sampling is fine for the densities we use (m << n^2). For
    // dense requests fall back to shuffling the full pair list.
    if m * 3 >= max_m && n >= 2 {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(max_m);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                pairs.push((i, j));
            }
        }
        pairs.shuffle(rng);
        for &(u, v) in pairs.iter().take(m) {
            b.add_edge(NodeId(u), NodeId(v)).unwrap();
        }
    } else {
        while b.num_edges() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let _ = b.add_edge_if_absent(NodeId(u), NodeId(v));
            }
        }
    }
    b.build().unwrap()
}

/// Erdős–Rényi G(n, p): every pair independently with probability `p`.
/// Uses geometric skipping so the cost is O(n + m) rather than O(n²).
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    if p <= 0.0 || n < 2 {
        return b.build().unwrap();
    }
    if p >= 1.0 {
        return super::classic::complete(n);
    }
    // Enumerate pairs (i, j), i < j, in lexicographic order with geometric
    // jumps: skip ~ Geom(p) pairs between successive edges.
    let log1p = (1.0 - p).ln();
    let total = (n * (n - 1) / 2) as u64;
    let mut pos: u64 = 0;
    loop {
        let r: f64 = rng.gen::<f64>();
        let skip = ((1.0 - r).ln() / log1p).floor() as u64;
        pos = pos.saturating_add(skip);
        if pos >= total {
            break;
        }
        let (i, j) = unrank_pair(pos, n as u64);
        b.add_edge(NodeId(i as u32), NodeId(j as u32)).unwrap();
        pos += 1;
        if pos >= total {
            break;
        }
    }
    b.build().unwrap()
}

/// Maps a rank in `0..n(n-1)/2` to the pair (i, j), i < j, in lexicographic
/// order.
fn unrank_pair(rank: u64, n: u64) -> (u64, u64) {
    // Row i starts at offset i*n - i*(i+1)/2 - i ... find i by scanning is
    // O(n) total across calls in the worst case; use the closed form instead.
    // Number of pairs with first coordinate < i: f(i) = i*(2n - i - 1)/2.
    // Solve f(i) <= rank < f(i+1) via the quadratic formula, then fix up.
    let fr = rank as f64;
    let nf = n as f64;
    let mut i = ((2.0 * nf - 1.0 - ((2.0 * nf - 1.0).powi(2) - 8.0 * fr).sqrt()) / 2.0) as u64;
    let f = |i: u64| i * (2 * n - i - 1) / 2;
    while i > 0 && f(i) > rank {
        i -= 1;
    }
    while f(i + 1) <= rank {
        i += 1;
    }
    let j = i + 1 + (rank - f(i));
    (i, j)
}

/// Random `d`-regular graph on `n` nodes via the configuration model with
/// whole-attempt rejection. Returns `None` if no simple pairing was found in
/// `max_attempts` tries (very unlikely for `d ≤ √n`).
///
/// # Panics
/// If `n * d` is odd or `d >= n`.
pub fn random_regular(
    n: usize,
    d: usize,
    rng: &mut impl Rng,
    max_attempts: usize,
) -> Option<CsrGraph> {
    assert!(d < n, "degree must be < n");
    assert!((n * d).is_multiple_of(2), "n * d must be even");
    if d == 0 {
        return Some(GraphBuilder::new(n).build().unwrap());
    }
    let mut stubs: Vec<u32> = Vec::with_capacity(n * d);
    for v in 0..n as u32 {
        for _ in 0..d {
            stubs.push(v);
        }
    }
    'attempt: for _ in 0..max_attempts {
        stubs.shuffle(rng);
        let mut b = GraphBuilder::with_capacity(n, n * d / 2);
        // Pair stubs sequentially; on a collision (self-loop or parallel
        // edge) retry with a random later stub a bounded number of times
        // (local repair beats whole-attempt rejection for denser d).
        let mut i = 0;
        while i + 1 < stubs.len() {
            let mut tries = 0;
            loop {
                let (u, v) = (NodeId(stubs[i]), NodeId(stubs[i + 1]));
                if u != v && !b.has_edge(u, v) {
                    b.add_edge(u, v).unwrap();
                    break;
                }
                tries += 1;
                if tries > 64 || i + 2 >= stubs.len() {
                    continue 'attempt;
                }
                let j = rng.gen_range(i + 2..stubs.len());
                stubs.swap(i + 1, j);
            }
            i += 2;
        }
        return Some(b.build().unwrap());
    }
    None
}

/// Watts–Strogatz small-world graph: a ring lattice on `n` nodes where every
/// node is joined to its `k / 2` nearest neighbors on each side, with every
/// lattice edge independently *rewired* with probability `p` (the original
/// endpoint keeps the edge; the far endpoint is resampled uniformly among
/// nodes that keep the graph simple). The edge count is exactly `n·k/2` for
/// every seed — rewiring moves edges, it never adds or removes them.
///
/// # Panics
/// If `k` is odd, `k >= n`, or `p` is not a probability.
pub fn small_world(n: usize, k: usize, p: f64, rng: &mut impl Rng) -> CsrGraph {
    assert!(
        k.is_multiple_of(2),
        "small-world lattice degree k must be even"
    );
    assert!(k < n, "lattice degree must be < n");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let key = |u: u32, v: u32| (u.min(v), u.max(v));
    // The current edge list, in deterministic (node, stride) lattice order;
    // a rewire replaces an entry in place. The set mirrors the list for
    // O(1) simplicity checks.
    let mut list: Vec<(u32, u32)> = Vec::with_capacity(n * k / 2);
    let mut edges: HashSet<(u32, u32)> = HashSet::with_capacity(n * k / 2);
    for i in 0..n as u32 {
        for s in 1..=(k / 2) as u32 {
            let e = key(i, (i + s) % n as u32);
            list.push(e);
            edges.insert(e);
        }
    }
    for (idx, slot) in list.iter_mut().enumerate() {
        if !rng.gen_bool(p) {
            continue;
        }
        // The origin endpoint of lattice edge `idx` keeps the edge.
        let i = (idx / (k / 2)) as u32;
        // Try a bounded number of uniform targets; keep the current edge if
        // the node is saturated (dense k on tiny n).
        for _ in 0..32 {
            let t = rng.gen_range(0..n as u32);
            let e = key(i, t);
            if t != i && !edges.contains(&e) {
                edges.remove(slot);
                edges.insert(e);
                *slot = e;
                break;
            }
        }
    }
    let mut b = GraphBuilder::with_capacity(n, list.len());
    for (u, v) in list {
        b.add_edge(NodeId(u), NodeId(v)).unwrap();
    }
    b.build().unwrap()
}

/// Barabási–Albert preferential attachment: a complete seed graph on
/// `m + 1` nodes, then each new node attaches to `m` distinct existing
/// nodes chosen proportionally to their current degree. The edge count is
/// exactly `m(m+1)/2 + (n - m - 1)·m` for every seed; early nodes become
/// high-degree hubs (power-law tail).
///
/// # Panics
/// If `m == 0` or `n < m + 1`.
pub fn preferential_attachment(n: usize, m: usize, rng: &mut impl Rng) -> CsrGraph {
    assert!(m >= 1, "attachment degree m must be >= 1");
    assert!(n > m, "need at least m + 1 nodes");
    let seed = m + 1;
    let mut b = GraphBuilder::with_capacity(n, m * seed / 2 + (n - seed) * m);
    // The classic "repeated endpoints" urn: sampling uniformly from the
    // flat endpoint list is sampling nodes proportionally to degree.
    let mut urn: Vec<u32> = Vec::with_capacity(2 * (m * seed / 2 + (n - seed) * m));
    for i in 0..seed {
        for j in (i + 1)..seed {
            b.add_edge(NodeId::from(i), NodeId::from(j)).unwrap();
            urn.push(i as u32);
            urn.push(j as u32);
        }
    }
    let mut picked: Vec<u32> = Vec::with_capacity(m);
    for v in seed..n {
        picked.clear();
        while picked.len() < m {
            let t = urn[rng.gen_range(0..urn.len())];
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            b.add_edge(NodeId::from(v), NodeId(t)).unwrap();
            urn.push(v as u32);
            urn.push(t);
        }
    }
    b.build().unwrap()
}

/// Inverse-transform sampler over Zipf rank weights `1 / (r + 1)^alpha`,
/// shared by [`skewed_bipartite`] and [`clustered_zipf_bipartite`]. One
/// `draw` consumes exactly one `f64` from the rng.
struct ZipfRanks {
    cum: Vec<f64>,
    total: f64,
}

impl ZipfRanks {
    fn new(n: usize, alpha: f64) -> Self {
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r as f64) + 1.0).powf(alpha);
            cum.push(acc);
        }
        ZipfRanks { cum, total: acc }
    }

    /// A rank in `0..n`, low ranks exponentially more likely.
    fn draw(&self, rng: &mut impl Rng) -> usize {
        let x: f64 = rng.gen::<f64>() * self.total;
        match self.cum.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(self.cum.len() - 1),
        }
    }
}

/// Clustered Zipf bipartite workload: customers come in `clusters` groups,
/// each anchored at its own "home" block of servers, and pick their
/// candidate servers at Zipf-distributed rank offsets from the home block
/// (exponent `alpha`). Models a fleet of cells whose traffic concentrates
/// on per-cell hot servers — the multi-hotspot generalization of
/// [`skewed_bipartite`]. Layout matches the other bipartite generators:
/// nodes `0..customers` are customers, the rest servers; customer `c`
/// belongs to cluster `c % clusters`.
///
/// # Panics
/// If `clusters == 0`, the degree range is empty/zero, or `servers == 0`
/// with customers present.
pub fn clustered_zipf_bipartite(
    customers: usize,
    servers: usize,
    clusters: usize,
    degree_range: std::ops::RangeInclusive<usize>,
    alpha: f64,
    rng: &mut impl Rng,
) -> CsrGraph {
    assert!(clusters >= 1, "need at least one cluster");
    assert!(servers > 0 || customers == 0, "customers need servers");
    let lo = *degree_range.start();
    let hi = *degree_range.end();
    assert!(
        lo <= hi && lo >= 1,
        "degree range must be non-empty and >= 1"
    );
    let n = customers + servers;
    let mut b = GraphBuilder::with_capacity(n, customers * hi.min(servers));
    if customers == 0 {
        return b.build().unwrap();
    }
    // Zipf rank weights shared by every cluster; a customer's draw is the
    // rank offset from its cluster's home block.
    let ranks = ZipfRanks::new(servers, alpha);
    let mut picks = Picks::new(servers);
    for c in 0..customers {
        let home = (c % clusters) * servers / clusters;
        let want = rng.gen_range(lo..=hi).min(servers);
        picks.clear();
        let mut guard = 0usize;
        while picks.len() < want {
            picks.insert(((home + ranks.draw(rng)) % servers) as u32);
            guard += 1;
            if guard > 64 * want + 1024 {
                for r in 0..servers {
                    if picks.len() >= want {
                        break;
                    }
                    picks.insert(((home + r) % servers) as u32);
                }
            }
        }
        for &s in picks.as_slice() {
            b.add_edge(NodeId::from(c), NodeId(customers as u32 + s))
                .unwrap();
        }
    }
    b.build().unwrap()
}

/// Random bipartite customer/server graph.
///
/// Nodes `0..customers` are customers, `customers..customers+servers` are
/// servers. Every customer independently picks a degree uniformly from
/// `degree_range` (clamped to the number of servers) and that many distinct
/// servers uniformly at random.
pub fn random_bipartite(
    customers: usize,
    servers: usize,
    degree_range: std::ops::RangeInclusive<usize>,
    rng: &mut impl Rng,
) -> CsrGraph {
    assert!(servers > 0 || customers == 0, "customers need servers");
    let n = customers + servers;
    let lo = *degree_range.start();
    let hi = *degree_range.end();
    assert!(
        lo <= hi && lo >= 1,
        "degree range must be non-empty and >= 1"
    );
    let mut b = GraphBuilder::with_capacity(n, customers * hi.min(servers));
    let mut picks = Picks::new(servers);
    for c in 0..customers {
        let want = rng.gen_range(lo..=hi).min(servers);
        picks.clear();
        while picks.len() < want {
            picks.insert(rng.gen_range(0..servers as u32));
        }
        for &s in picks.as_slice() {
            b.add_edge(NodeId::from(c), NodeId(customers as u32 + s))
                .unwrap();
        }
    }
    b.build().unwrap()
}

/// Skewed bipartite workload: like [`random_bipartite`] but servers are
/// chosen with Zipf-like popularity `weight(s) = 1 / (s + 1)^alpha`. This
/// models the "hot server" scenario from the paper's introduction where naive
/// assignment piles load on popular servers.
pub fn skewed_bipartite(
    customers: usize,
    servers: usize,
    degree_range: std::ops::RangeInclusive<usize>,
    alpha: f64,
    rng: &mut impl Rng,
) -> CsrGraph {
    assert!(servers > 0 || customers == 0);
    let n = customers + servers;
    let lo = *degree_range.start();
    let hi = *degree_range.end();
    assert!(lo <= hi && lo >= 1);
    let mut b = GraphBuilder::with_capacity(n, customers * hi.min(servers));
    let ranks = ZipfRanks::new(servers, alpha);
    let mut picks = Picks::new(servers);
    for c in 0..customers {
        let want = rng.gen_range(lo..=hi).min(servers);
        picks.clear();
        let mut guard = 0usize;
        while picks.len() < want {
            picks.insert(ranks.draw(rng) as u32);
            guard += 1;
            if guard > 64 * want + 1024 {
                // Extremely skewed + large degree: fill with the first free ids.
                for s in 0..servers as u32 {
                    if picks.len() >= want {
                        break;
                    }
                    picks.insert(s);
                }
            }
        }
        for &s in picks.as_slice() {
            b.add_edge(NodeId::from(c), NodeId(customers as u32 + s))
                .unwrap();
        }
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo, bipartite};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gnm(50, 100, &mut rng);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 100);
        g.validate().unwrap();
    }

    #[test]
    fn gnm_dense_path() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = gnm(10, 40, &mut rng); // 40 of 45 possible -> dense branch
        assert_eq!(g.num_edges(), 40);
        g.validate().unwrap();
    }

    #[test]
    fn gnm_deterministic_for_seed() {
        let g1 = gnm(30, 60, &mut SmallRng::seed_from_u64(7));
        let g2 = gnm(30, 60, &mut SmallRng::seed_from_u64(7));
        assert_eq!(g1, g2);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(gnp(20, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(gnp(6, 1.0, &mut rng).num_edges(), 15);
    }

    #[test]
    fn gnp_density_plausible() {
        let mut rng = SmallRng::seed_from_u64(4);
        let n = 200;
        let p = 0.05;
        let g = gnp(n, p, &mut rng);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let m = g.num_edges() as f64;
        assert!(
            (m - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "m = {m}, expected ≈ {expected}"
        );
        g.validate().unwrap();
    }

    #[test]
    fn unrank_pair_exhaustive() {
        let n = 7u64;
        let mut rank = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(unrank_pair(rank, n), (i, j));
                rank += 1;
            }
        }
    }

    #[test]
    fn random_regular_is_regular() {
        let mut rng = SmallRng::seed_from_u64(5);
        for &(n, d) in &[(10, 3), (20, 4), (16, 5), (30, 2)] {
            let g = random_regular(n, d, &mut rng, 200).expect("pairing found");
            assert!(g.nodes().all(|v| g.degree(v) == d), "n={n}, d={d}");
            g.validate().unwrap();
        }
    }

    #[test]
    fn random_regular_zero_degree() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = random_regular(5, 0, &mut rng, 10).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic]
    fn random_regular_odd_product_panics() {
        let mut rng = SmallRng::seed_from_u64(7);
        let _ = random_regular(5, 3, &mut rng, 10);
    }

    #[test]
    fn bipartite_structure() {
        let mut rng = SmallRng::seed_from_u64(8);
        let customers = 40;
        let servers = 10;
        let g = random_bipartite(customers, servers, 2..=2, &mut rng);
        assert_eq!(g.num_nodes(), 50);
        // Every customer has degree exactly 2.
        for c in 0..customers {
            assert_eq!(g.degree(NodeId::from(c)), 2);
        }
        // Graph is bipartite with customers on one side.
        let bp = bipartite::bipartition(&g).unwrap();
        assert!(bp.verify(&g));
        // Customers only link to servers.
        for c in 0..customers {
            for &s in g.neighbors(NodeId::from(c)) {
                assert!(s as usize >= customers);
            }
        }
    }

    #[test]
    fn bipartite_degree_range_respected() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = random_bipartite(100, 20, 1..=4, &mut rng);
        for c in 0..100usize {
            let d = g.degree(NodeId::from(c));
            assert!((1..=4).contains(&d));
        }
    }

    #[test]
    fn skewed_bipartite_prefers_low_ids() {
        let mut rng = SmallRng::seed_from_u64(10);
        let customers = 500;
        let servers = 50;
        let g = skewed_bipartite(customers, servers, 1..=1, 1.2, &mut rng);
        let deg0 = g.degree(NodeId(customers as u32));
        let deg_last = g.degree(NodeId((customers + servers - 1) as u32));
        assert!(
            deg0 > deg_last,
            "server 0 should be hotter: {deg0} vs {deg_last}"
        );
        g.validate().unwrap();
    }

    #[test]
    fn small_world_preserves_edge_count() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = small_world(40, 4, 0.2, &mut rng);
            assert_eq!(g.num_nodes(), 40);
            assert_eq!(g.num_edges(), 40 * 4 / 2, "seed {seed}");
            g.validate().unwrap();
        }
        // p = 0 is exactly the ring lattice: 4-regular, deterministic.
        let mut rng = SmallRng::seed_from_u64(1);
        let lattice = small_world(20, 4, 0.0, &mut rng);
        assert!(lattice.nodes().all(|v| lattice.degree(v) == 4));
        let again = small_world(20, 4, 0.0, &mut SmallRng::seed_from_u64(9));
        assert_eq!(lattice, again);
    }

    #[test]
    fn small_world_rewiring_changes_lattice() {
        let mut rng = SmallRng::seed_from_u64(3);
        let lattice = small_world(60, 4, 0.0, &mut SmallRng::seed_from_u64(0));
        let rewired = small_world(60, 4, 0.5, &mut rng);
        assert_ne!(lattice, rewired, "p = 0.5 should move some edges");
        assert_eq!(rewired.num_edges(), lattice.num_edges());
    }

    #[test]
    fn preferential_attachment_shape() {
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (n, m) = (50, 2);
            let g = preferential_attachment(n, m, &mut rng);
            assert_eq!(g.num_nodes(), n);
            assert_eq!(g.num_edges(), m * (m + 1) / 2 + (n - m - 1) * m);
            assert!(algo::is_connected(&g), "BA graphs are connected");
            g.validate().unwrap();
            // Every non-seed node has degree >= m; some hub exceeds it.
            assert!(g.nodes().all(|v| g.degree(v) >= m.min(2)));
            assert!(g.max_degree() > m, "seed {seed}: no hub formed");
        }
        // Degenerate cases: m = 1 trees on small n.
        let g = preferential_attachment(2, 1, &mut SmallRng::seed_from_u64(5));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn preferential_attachment_hubs_are_early_nodes() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = preferential_attachment(400, 2, &mut rng);
        let early: usize = (0..10).map(|v| g.degree(NodeId(v))).sum();
        let late: usize = (390..400).map(|v| g.degree(NodeId(v))).sum();
        assert!(early > 2 * late, "early {early} !>> late {late}");
    }

    #[test]
    fn clustered_zipf_bipartite_structure() {
        let mut rng = SmallRng::seed_from_u64(12);
        let (customers, servers, clusters) = (120, 24, 4);
        let g = clustered_zipf_bipartite(customers, servers, clusters, 1..=3, 1.2, &mut rng);
        assert_eq!(g.num_nodes(), customers + servers);
        let bp = bipartite::bipartition(&g).unwrap();
        assert!(bp.verify(&g));
        for c in 0..customers {
            let d = g.degree(NodeId::from(c));
            assert!((1..=3).contains(&d), "customer {c} degree {d}");
            for &s in g.neighbors(NodeId::from(c)) {
                assert!(s as usize >= customers, "customer edge to customer");
            }
        }
        // Each cluster's home server is hotter than the coldest server.
        let deg = |s: usize| g.degree(NodeId((customers + s) as u32));
        let home_total: usize = (0..clusters).map(|g_| deg(g_ * servers / clusters)).sum();
        let min_deg = (0..servers).map(deg).min().unwrap();
        assert!(
            home_total > clusters * min_deg,
            "homes {home_total} vs coldest {min_deg}"
        );
        g.validate().unwrap();
    }

    #[test]
    fn generated_graphs_connectable() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = gnm(64, 256, &mut rng);
        // Not necessarily connected, but components must partition nodes.
        let (comp, k) = algo::connected_components(&g);
        assert!(k >= 1);
        assert_eq!(comp.len(), 64);
    }
}
