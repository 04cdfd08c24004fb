//! Graph-structure perturbation `A' = A + ΔA`.
//!
//! Holds the generic machinery used both by the paper's privacy-aware
//! perturbation (heterophilic noisy edges, built in `ppfr-core`) and by the
//! differential-privacy baselines (random / Laplacian edge noise, built in
//! `ppfr-privacy`).

use crate::Graph;
use rand::seq::SliceRandom;
use rand::Rng;

/// A set of edges to add to a graph (the non-zero entries of `ΔA`).
#[derive(Debug, Clone, Default)]
pub struct EdgePerturbation {
    edges: Vec<(usize, usize)>,
}

impl EdgePerturbation {
    /// Empty perturbation (ΔA = 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a perturbation from an explicit edge list.
    pub fn from_edges(edges: Vec<(usize, usize)>) -> Self {
        Self { edges }
    }

    /// Adds a single edge to the perturbation.
    pub fn push(&mut self, u: usize, v: usize) {
        self.edges.push((u, v));
    }

    /// Number of perturbation edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the perturbation is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The perturbation edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Applies the perturbation, producing `A' = A + ΔA`.
    pub fn apply(&self, graph: &Graph) -> Graph {
        graph.with_extra_edges(&self.edges)
    }

    /// Randomly samples, for every node, `ratio * degree(v)` candidate
    /// partners from `candidates(v)` and records them as perturbation edges.
    /// This is the shared skeleton of the heterophilic-noise strategy
    /// (`|N(i)_Δ| = γ |N(i)|` of §VI-B2).
    pub fn per_node_sampled<R, F>(graph: &Graph, ratio: f64, rng: &mut R, candidates: F) -> Self
    where
        R: Rng + ?Sized,
        F: Fn(usize) -> Vec<usize>,
    {
        assert!(ratio >= 0.0, "perturbation ratio must be non-negative");
        let mut edges = Vec::new();
        for v in 0..graph.n_nodes() {
            let budget = (ratio * graph.degree(v) as f64).round() as usize;
            if budget == 0 {
                continue;
            }
            let mut pool = candidates(v);
            pool.shuffle(rng);
            for &u in pool.iter().take(budget) {
                if u != v && !graph.has_edge(u, v) {
                    edges.push((v, u));
                }
            }
        }
        Self { edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn apply_adds_edges_without_touching_original() {
        let g = path4();
        let mut p = EdgePerturbation::new();
        p.push(0, 3);
        let g2 = p.apply(&g);
        assert!(g2.has_edge(0, 3));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g2.n_edges(), g.n_edges() + 1);
    }

    #[test]
    fn empty_perturbation_is_identity() {
        let g = path4();
        let p = EdgePerturbation::new();
        assert!(p.is_empty());
        let g2 = p.apply(&g);
        assert_eq!(g2.n_edges(), g.n_edges());
    }

    #[test]
    fn per_node_sampling_respects_budget_and_avoids_existing_edges() {
        let g = path4();
        let mut rng = StdRng::seed_from_u64(11);
        let ratio = 1.0;
        let p = EdgePerturbation::per_node_sampled(&g, ratio, &mut rng, |v| {
            (0..4).filter(|&u| u != v).collect()
        });
        // Budget per node is its degree; every sampled edge must be new.
        for &(u, v) in p.edges() {
            assert!(!g.has_edge(u, v), "sampled an existing edge ({u},{v})");
            assert_ne!(u, v);
        }
        let max_budget: usize = (0..4).map(|v| g.degree(v)).sum();
        assert!(p.len() <= max_budget);
    }

    #[test]
    fn zero_ratio_produces_no_edges() {
        let g = path4();
        let mut rng = StdRng::seed_from_u64(1);
        let p = EdgePerturbation::per_node_sampled(&g, 0.0, &mut rng, |_| vec![0, 1, 2, 3]);
        assert!(p.is_empty());
    }
}
