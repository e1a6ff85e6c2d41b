//! Assignment problem instances: customers, servers, and their adjacency.

use rand::Rng;
use td_graph::CsrGraph;

/// A stable-assignment instance: `nc` customers, `ns` servers, and for each
/// customer the sorted list of servers it may use. Stored CSR-style.
///
/// The paper's parameters: `C` = maximum customer degree (hyperedge rank),
/// `S` = maximum server degree (how many customers may share a server).
#[derive(Clone, Debug)]
pub struct AssignmentInstance {
    cust_off: Vec<u32>,
    cust_srv: Vec<u32>,
    num_servers: usize,
}

impl AssignmentInstance {
    /// Builds an instance from per-customer server lists.
    ///
    /// # Panics
    /// If a customer has no adjacent server, repeats a server, or refers to
    /// a server `>= num_servers`.
    pub fn new(num_servers: usize, customers: &[Vec<u32>]) -> Self {
        let mut cust_off = Vec::with_capacity(customers.len() + 1);
        let mut cust_srv = Vec::new();
        cust_off.push(0u32);
        for (c, servers) in customers.iter().enumerate() {
            assert!(!servers.is_empty(), "customer {c} has no servers");
            let mut sorted = servers.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                assert!(w[0] != w[1], "customer {c} repeats server {}", w[0]);
            }
            assert!(
                (*sorted.last().unwrap() as usize) < num_servers,
                "customer {c} uses out-of-range server"
            );
            cust_srv.extend_from_slice(&sorted);
            cust_off.push(cust_srv.len() as u32);
        }
        AssignmentInstance {
            cust_off,
            cust_srv,
            num_servers,
        }
    }

    /// Checks that `g` is laid out the way
    /// [`AssignmentInstance::from_bipartite_graph`] reads it, with a
    /// diagnostic naming the first violation instead of a panic: there are
    /// at most `g.num_nodes()` customers (nodes `0..num_customers`), every
    /// customer has a server, and no edge joins two customers or two
    /// servers (nodes `num_customers..`).
    pub fn check_bipartite_layout(g: &CsrGraph, num_customers: usize) -> Result<(), String> {
        let n = g.num_nodes();
        if num_customers > n {
            return Err(format!(
                "{num_customers} customers, but the graph has only {n} nodes"
            ));
        }
        let nc = num_customers as u32;
        for v in g.nodes() {
            // A CSR row is sorted: its ends show which sides it reaches.
            let row = g.neighbors(v);
            let (customer, kind) = if v.0 < nc {
                (row.first(), "customers")
            } else {
                (row.last(), "servers")
            };
            match customer {
                None if v.0 < nc => return Err(format!("customer {} has no servers", v.0)),
                Some(&w) if (w < nc) == (v.0 < nc) => {
                    return Err(format!("edge {}-{w} joins two {kind}", v.0))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Interprets a bipartite [`CsrGraph`] whose nodes `0..nc` are customers
    /// and `nc..` are servers (the layout produced by
    /// [`td_graph::gen::random::random_bipartite`]). Input that may break
    /// the layout goes through
    /// [`AssignmentInstance::check_bipartite_layout`] first.
    ///
    /// A CSR row is strictly sorted, so each customer's row, shifted down
    /// by `nc`, is already the sorted server list [`AssignmentInstance::new`]
    /// would build: the rows are copied straight into the instance, which
    /// allocates twice whatever the size.
    ///
    /// # Panics
    /// If a customer has no adjacent server, or is adjacent to a customer.
    pub fn from_bipartite_graph(g: &CsrGraph, num_customers: usize) -> Self {
        let num_servers = g.num_nodes() - num_customers;
        let customers = (0..num_customers).map(td_graph::NodeId::from);
        let slots = customers.clone().map(|c| g.degree(c)).sum();
        let mut cust_off = Vec::with_capacity(num_customers + 1);
        let mut cust_srv = Vec::with_capacity(slots);
        cust_off.push(0u32);
        for c in customers {
            let row = g.neighbors(c);
            assert!(!row.is_empty(), "customer {} has no servers", c.idx());
            cust_srv.extend(row.iter().map(|&s| {
                assert!(s as usize >= num_customers, "edge within customer side");
                s - num_customers as u32
            }));
            cust_off.push(cust_srv.len() as u32);
        }
        AssignmentInstance {
            cust_off,
            cust_srv,
            num_servers,
        }
    }

    /// Random instance: each customer picks a degree in `degree_range` and
    /// that many distinct servers uniformly.
    pub fn random(
        num_customers: usize,
        num_servers: usize,
        degree_range: std::ops::RangeInclusive<usize>,
        rng: &mut impl Rng,
    ) -> Self {
        let g =
            td_graph::gen::random::random_bipartite(num_customers, num_servers, degree_range, rng);
        AssignmentInstance::from_bipartite_graph(&g, num_customers)
    }

    /// Skewed instance (Zipf-like server popularity `alpha`).
    pub fn skewed(
        num_customers: usize,
        num_servers: usize,
        degree_range: std::ops::RangeInclusive<usize>,
        alpha: f64,
        rng: &mut impl Rng,
    ) -> Self {
        let g = td_graph::gen::random::skewed_bipartite(
            num_customers,
            num_servers,
            degree_range,
            alpha,
            rng,
        );
        AssignmentInstance::from_bipartite_graph(&g, num_customers)
    }

    /// Number of customers.
    pub fn num_customers(&self) -> usize {
        self.cust_off.len() - 1
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Sorted servers adjacent to customer `c`.
    #[inline(always)]
    pub fn servers_of(&self, c: usize) -> &[u32] {
        &self.cust_srv[self.cust_off[c] as usize..self.cust_off[c + 1] as usize]
    }

    /// Degree (rank) of customer `c`.
    pub fn degree_of(&self, c: usize) -> usize {
        self.servers_of(c).len()
    }

    /// Maximum customer degree `C`.
    pub fn max_customer_degree(&self) -> usize {
        (0..self.num_customers())
            .map(|c| self.degree_of(c))
            .max()
            .unwrap_or(0)
    }

    /// Maximum server degree `S` (customers adjacent to one server).
    pub fn max_server_degree(&self) -> usize {
        let mut deg = vec![0usize; self.num_servers];
        for &s in &self.cust_srv {
            deg[s as usize] += 1;
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// True if customer `c` may use server `s`.
    pub fn can_use(&self, c: usize, s: u32) -> bool {
        self.servers_of(c).binary_search(&s).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn basic_construction() {
        let inst = AssignmentInstance::new(3, &[vec![0, 1], vec![2, 1], vec![0]]);
        assert_eq!(inst.num_customers(), 3);
        assert_eq!(inst.num_servers(), 3);
        assert_eq!(inst.servers_of(0), &[0, 1]);
        assert_eq!(inst.servers_of(1), &[1, 2]); // sorted
        assert_eq!(inst.degree_of(2), 1);
        assert_eq!(inst.max_customer_degree(), 2);
        assert_eq!(inst.max_server_degree(), 2); // servers 0 and 1 twice
        assert!(inst.can_use(0, 1));
        assert!(!inst.can_use(2, 1));
    }

    #[test]
    #[should_panic(expected = "no servers")]
    fn rejects_empty_customer() {
        let _ = AssignmentInstance::new(2, &[vec![]]);
    }

    #[test]
    #[should_panic(expected = "repeats server")]
    fn rejects_duplicate_server() {
        let _ = AssignmentInstance::new(2, &[vec![1, 1]]);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn rejects_out_of_range() {
        let _ = AssignmentInstance::new(2, &[vec![5]]);
    }

    /// A graph instance keeps the two checks [`AssignmentInstance::new`]
    /// makes on its input that a CSR row can fail.
    #[test]
    #[should_panic(expected = "customer 1 has no servers")]
    fn graph_rejects_a_customer_without_servers() {
        let g = CsrGraph::from_edges(4, &[(0, 2), (0, 3)]).unwrap();
        let _ = AssignmentInstance::from_bipartite_graph(&g, 2);
    }

    #[test]
    #[should_panic(expected = "edge within customer side")]
    fn graph_rejects_an_edge_between_customers() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let _ = AssignmentInstance::from_bipartite_graph(&g, 2);
    }

    /// The layout check names each violation the constructor panics on,
    /// and the server-side edge it would drop silently.
    #[test]
    fn layout_check_names_each_violation() {
        let check = |n, edges: &[(u32, u32)], nc| {
            let g = CsrGraph::from_edges(n, edges).unwrap();
            AssignmentInstance::check_bipartite_layout(&g, nc)
        };
        assert_eq!(check(4, &[(0, 2), (1, 3)], 2), Ok(()));
        assert_eq!(
            check(4, &[(0, 2), (1, 3)], 0),
            Err("edge 0-2 joins two servers".into())
        );
        let err = |n, edges: &[(u32, u32)], nc| check(n, edges, nc).unwrap_err();
        assert_eq!(
            err(3, &[(0, 1)], 4),
            "4 customers, but the graph has only 3 nodes"
        );
        assert_eq!(err(4, &[(0, 2), (0, 3)], 2), "customer 1 has no servers");
        assert_eq!(err(3, &[(0, 1), (1, 2)], 2), "edge 0-1 joins two customers");
        assert_eq!(err(3, &[(0, 1), (1, 2)], 1), "edge 1-2 joins two servers");
    }

    #[test]
    fn from_random_bipartite() {
        let mut rng = SmallRng::seed_from_u64(1);
        let inst = AssignmentInstance::random(50, 10, 2..=3, &mut rng);
        assert_eq!(inst.num_customers(), 50);
        assert_eq!(inst.num_servers(), 10);
        for c in 0..50 {
            let d = inst.degree_of(c);
            assert!((2..=3).contains(&d));
        }
        assert!(inst.max_server_degree() >= 1);
    }

    #[test]
    fn skewed_prefers_server_zero() {
        let mut rng = SmallRng::seed_from_u64(2);
        let inst = AssignmentInstance::skewed(300, 30, 1..=1, 1.2, &mut rng);
        let mut deg = vec![0usize; 30];
        for c in 0..300 {
            for &s in inst.servers_of(c) {
                deg[s as usize] += 1;
            }
        }
        assert!(deg[0] > deg[29]);
    }
}
