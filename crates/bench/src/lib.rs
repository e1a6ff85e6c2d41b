//! Shared harness code for the reproduction experiments: the [`scenario`]
//! registry (named workloads behind one interface), the parametric
//! [`spec`] workload generator suite plus its differential [`fuzz`] plane,
//! the long-running [`serve`] daemon with its open-loop load generator,
//! workload builders with controlled (Δ, L, C, S) parameters, aligned
//! table printing, and growth-rate fitting for the shape checks in
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use td_assign::AssignmentInstance;
use td_core::TokenGame;
use td_graph::CsrGraph;

pub mod churn;
pub mod compare;
pub mod exp;
pub mod fuzz;
pub mod json;
pub mod perf;
pub mod plot;
pub mod scenario;
pub mod serve;
pub mod spec;
pub mod trace;

pub use churn::{ChurnReport, ChurnScenario};
pub use compare::{CompareConfig, CompareReport, CompareRow};
pub use exp::{ExpConfig, ExperimentDef, Manifest};
pub use perf::{PerfPoint, PerfReport, SweepConfig};
pub use scenario::{Scenario, ScenarioKind, ScenarioReport};
pub use serve::{ServeConfig, ServeReport};
pub use spec::{FamilyKind, WorkloadInstance, WorkloadSpec};
pub use trace::{Trace, TraceSource};

/// Workload builders with controlled parameters.
pub mod workloads {
    use super::*;

    /// A layered token dropping game with `levels + 1` levels, per-level
    /// width `4·delta` (enough room for contention), down-degree `delta`,
    /// and ~50% token density.
    pub fn layered_game(delta: usize, levels: usize, seed: u64) -> TokenGame {
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = 4 * delta.max(2);
        TokenGame::random(&vec![width; levels + 1], delta, 0.5, &mut rng)
    }

    /// A 3-level game (levels {0,1,2}) with down-degree `delta`.
    pub fn three_level_game(delta: usize, seed: u64) -> TokenGame {
        let mut rng = SmallRng::seed_from_u64(seed);
        let width = 3 * delta.max(2);
        TokenGame::random(&[width, width, width], delta, 0.6, &mut rng)
    }

    /// A random `d`-regular graph with `factor·d` nodes (rounded even).
    pub fn regular_graph(d: usize, factor: usize, seed: u64) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut n = (factor * d).max(d + 2);
        if n * d % 2 == 1 {
            n += 1;
        }
        td_graph::gen::random::random_regular(n, d, &mut rng, 500)
            .expect("configuration model converges")
    }

    /// A bipartite assignment instance with customer degree exactly `c` and
    /// expected server degree `s_avg` over `ns` servers.
    pub fn assignment_instance(c: usize, s_avg: usize, ns: usize, seed: u64) -> AssignmentInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nc = (s_avg * ns) / c.max(1);
        AssignmentInstance::random(nc.max(1), ns, c..=c, &mut rng)
    }

    /// A uniform random assignment instance: `nc` customers picking 1–3
    /// candidate servers uniformly over `ns` servers.
    pub fn uniform_assignment(nc: usize, ns: usize, seed: u64) -> AssignmentInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        AssignmentInstance::random(nc, ns, 1..=3, &mut rng)
    }

    /// A Zipf-skewed assignment instance (exponent `alpha`): popular servers
    /// attract most of the 1–3 candidate choices — the "hot server" workload
    /// of the load-balancing example, the server-farm scenario, and E8.
    pub fn skewed_assignment(nc: usize, ns: usize, alpha: f64, seed: u64) -> AssignmentInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        AssignmentInstance::skewed(nc, ns, 1..=3, alpha, &mut rng)
    }

    /// A bipartite graph for matching reductions: `nc` customers of degree
    /// up to `d` over `nc` servers.
    pub fn matching_graph(nc: usize, d: usize, seed: u64) -> CsrGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        td_graph::gen::random::random_bipartite(nc, nc, 1..=d, &mut rng)
    }

    /// The Section 1.1 "propagation chain" adversary: a path `v0 … v_{n-1}`
    /// with `k` extra leaves hanging off `v0`. Returns the graph and an
    /// initial orientation in which all path edges point toward lower ids
    /// and all leaf edges point into `v0` — so `v0` starts with load
    /// `k + 1`, and resolving the resulting unhappiness must cascade along
    /// the entire path, one flip at a time.
    pub fn cascade_path(n: usize, k: usize) -> (CsrGraph, td_orient::Orientation) {
        assert!(n >= 2);
        let mut b = td_graph::GraphBuilder::new(n + k);
        for i in 1..n {
            b.add_edge(td_graph::NodeId::from(i - 1), td_graph::NodeId::from(i))
                .unwrap();
        }
        for j in 0..k {
            b.add_edge(td_graph::NodeId(0), td_graph::NodeId::from(n + j))
                .unwrap();
        }
        let g = b.build().unwrap();
        let mut o = td_orient::Orientation::unoriented(&g);
        for (e, u, v) in g.edge_list() {
            let head = if v.idx() >= n {
                u // leaf edges point into the path end (v0)
            } else {
                u.min(v)
            };
            o.orient(&g, e, head);
        }
        (g, o)
    }
}

/// Minimal aligned-table printer for the `repro` binary.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Fits `y ≈ a · x^b` by least squares on (ln x, ln y) and returns the
/// exponent `b`. Points with `y == 0` are dropped. Returns 0.0 if fewer
/// than two usable points remain.
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> f64 {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|&(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

/// Mean of a slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Max of a slice.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_fit_recovers_exponent() {
        let xs: Vec<f64> = (1..=6).map(|x| x as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(2.0)).collect();
        let b = fit_power_law(&xs, &ys);
        assert!((b - 2.0).abs() < 1e-9, "b = {b}");
    }

    #[test]
    fn power_law_fit_handles_degenerate() {
        assert_eq!(fit_power_law(&[1.0], &[2.0]), 0.0);
        assert_eq!(fit_power_law(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(vec!["10".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains(" a  bbbb"));
        assert!(s.contains("10     2"));
    }

    #[test]
    fn workloads_have_requested_shape() {
        let g = workloads::regular_graph(4, 10, 1);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        let game = workloads::three_level_game(3, 2);
        assert_eq!(game.height(), 2);
        let inst = workloads::assignment_instance(3, 8, 10, 3);
        assert_eq!(inst.max_customer_degree(), 3);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(max(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
