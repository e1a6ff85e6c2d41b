//! The abstract load-balancing instance the competing balancers share.
//!
//! An instance is a connected-or-not undirected graph plus an integer token
//! count per node. A load vector is **balanced** when every edge has
//! endpoint gap ≤ 1 — the discrete smoothness the paper's stable
//! orientations provide for edge loads, stated here directly on node loads
//! so token dropping, rotor routing, and matching exchange all solve the
//! same problem and their reports are comparable.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use td_graph::CsrGraph;

/// A load-balancing problem instance: a graph plus per-node token counts.
#[derive(Clone, Debug)]
pub struct BalanceInstance {
    /// The communication graph.
    pub graph: CsrGraph,
    /// Tokens per node.
    pub load: Vec<u32>,
}

impl BalanceInstance {
    /// Builds an instance; `load` must have one entry per node.
    pub fn new(graph: CsrGraph, load: Vec<u32>) -> Self {
        assert_eq!(load.len(), graph.num_nodes(), "one load entry per node");
        BalanceInstance { graph, load }
    }

    /// Seeds a skewed load vector on `graph`: `3n` tokens placed by a
    /// min-of-two-choices draw (biasing low ids), plus a hotspot of
    /// `clamp(n/8, 4, 48)` extra tokens on one pseudorandom node. The skew
    /// guarantees a nontrivial initial discrepancy at every size without
    /// making convergence quadratic in `n`.
    pub fn seeded(graph: CsrGraph, seed: u64) -> Self {
        let n = graph.num_nodes();
        let mut load = vec![0u32; n];
        if n > 0 {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA1A_CE0A);
            for _ in 0..3 * n {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                load[a.min(b)] += 1;
            }
            let hot = rng.gen_range(0..n);
            load[hot] += (n as u32 / 8).clamp(4, 48);
        }
        BalanceInstance { graph, load }
    }

    /// Total tokens in the instance.
    pub fn total(&self) -> u64 {
        total_of(&self.load)
    }

    /// Σ load² potential of the instance.
    pub fn potential(&self) -> u64 {
        potential_of(&self.load)
    }

    /// Max load minus min load.
    pub fn discrepancy(&self) -> u32 {
        discrepancy_of(&self.load)
    }

    /// Largest |load(u) − load(v)| over the edges; the instance is balanced
    /// iff this is ≤ 1.
    pub fn max_edge_gap(&self) -> u32 {
        max_edge_gap_of(&self.graph, &self.load)
    }
}

/// Total tokens of a load vector.
pub fn total_of(load: &[u32]) -> u64 {
    load.iter().map(|&l| l as u64).sum()
}

/// Σ load² potential of a load vector.
pub fn potential_of(load: &[u32]) -> u64 {
    load.iter().map(|&l| l as u64 * l as u64).sum()
}

/// Global discrepancy (max − min) of a load vector; 0 when empty.
pub fn discrepancy_of(load: &[u32]) -> u32 {
    match (load.iter().max(), load.iter().min()) {
        (Some(&hi), Some(&lo)) => hi - lo,
        _ => 0,
    }
}

/// Largest endpoint gap over the edges of `graph` under `load`.
pub fn max_edge_gap_of(graph: &CsrGraph, load: &[u32]) -> u32 {
    let mut worst = 0;
    for e in 0..graph.num_edges() {
        let (u, v) = graph.endpoints(td_graph::EdgeId::from(e));
        let gap = load[u.idx()].abs_diff(load[v.idx()]);
        worst = worst.max(gap);
    }
    worst
}

/// FNV-1a fingerprint of a load vector — the bit-identity check of the
/// compare report.
pub fn fingerprint_of(load: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in load {
        h ^= l as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_graph::gen::classic::cycle;

    #[test]
    fn seeded_is_deterministic_and_skewed() {
        let a = BalanceInstance::seeded(cycle(32), 7);
        let b = BalanceInstance::seeded(cycle(32), 7);
        assert_eq!(a.load, b.load);
        let c = BalanceInstance::seeded(cycle(32), 8);
        assert_ne!(a.load, c.load);
        assert!(a.discrepancy() >= 2, "seeded instance must need balancing");
        assert_eq!(a.total(), 3 * 32 + 4);
    }

    #[test]
    fn measures_agree_on_flat_vectors() {
        let inst = BalanceInstance::new(cycle(5), vec![2; 5]);
        assert_eq!(inst.discrepancy(), 0);
        assert_eq!(inst.max_edge_gap(), 0);
        assert_eq!(inst.potential(), 5 * 4);
        assert_eq!(inst.total(), 10);
    }

    #[test]
    fn fingerprint_separates_vectors() {
        assert_ne!(fingerprint_of(&[1, 2, 3]), fingerprint_of(&[3, 2, 1]));
        assert_eq!(fingerprint_of(&[1, 2, 3]), fingerprint_of(&[1, 2, 3]));
    }

    #[test]
    fn empty_graph_instance_is_degenerate_but_valid() {
        let inst =
            BalanceInstance::seeded(td_graph::GraphBuilder::new(0).build().expect("empty"), 1);
        assert_eq!(inst.total(), 0);
        assert_eq!(inst.discrepancy(), 0);
    }
}
