//! Deterministic graph generators for every workload family in the paper's
//! experiments.
//!
//! * [`classic`] — paths, cycles, cliques, stars, grids, tori, hypercubes,
//!   the Petersen graph; small named instances used in unit tests and
//!   figures.
//! * [`random`] — Erdős–Rényi G(n,m) and G(n,p), random d-regular graphs
//!   (configuration model), Watts–Strogatz small worlds, Barabási–Albert
//!   preferential attachment, and random / skewed / clustered-Zipf
//!   bipartite customer/server graphs.
//! * [`structured`] — perfect d-ary trees and high-girth (near-)regular
//!   graphs for the Section 6 lower-bound constructions, and random layered
//!   graphs for token-dropping games.
//!
//! All randomized generators take `&mut impl Rng`; callers seed a
//! `rand::rngs::SmallRng` for reproducibility.

pub mod classic;
pub mod random;
pub mod structured;

pub use classic::*;
pub use random::*;
pub use structured::*;

/// Distinct picks in draw order, for generators that draw a node's
/// neighbors at random until enough of them are distinct. One list and one
/// mark per candidate serve every node, so a draw costs O(1) and a node
/// allocates nothing. [`insert`](Picks::insert) behaves like
/// `HashSet::insert`: a repeated draw changes nothing.
pub(crate) struct Picks {
    list: Vec<u32>,
    taken: Vec<bool>,
}

impl Picks {
    /// Room for picks among `0..candidates`.
    pub(crate) fn new(candidates: usize) -> Self {
        Picks {
            list: Vec::new(),
            taken: vec![false; candidates],
        }
    }

    /// Forgets the previous node's picks.
    pub(crate) fn clear(&mut self) {
        for &c in &self.list {
            self.taken[c as usize] = false;
        }
        self.list.clear();
    }

    /// Picks `c` unless it is already picked.
    pub(crate) fn insert(&mut self, c: u32) {
        if !std::mem::replace(&mut self.taken[c as usize], true) {
            self.list.push(c);
        }
    }

    /// Number of distinct picks.
    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    /// The picks, in draw order.
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.list
    }
}
