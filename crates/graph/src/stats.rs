//! Homophily, sparsity and degree statistics of labelled graphs.

use crate::Graph;

/// Edge homophily: the fraction of edges whose endpoints share a label.
/// This is the statistic the paper quotes (0.81 for Cora, 0.74 Citeseer,
/// 0.80 Pubmed, 0.66 Enzymes, 0.62 Credit).
pub fn homophily(graph: &Graph, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), graph.n_nodes(), "one label per node required");
    let mut same = 0usize;
    let mut total = 0usize;
    for (u, v) in graph.edges() {
        total += 1;
        if labels[u] == labels[v] {
            same += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    same as f64 / total as f64
}

/// Average node degree `2|E| / |V|`.
pub fn average_degree(graph: &Graph) -> f64 {
    if graph.n_nodes() == 0 {
        return 0.0;
    }
    2.0 * graph.n_edges() as f64 / graph.n_nodes() as f64
}

/// Edge density `|E| / (n choose 2)` — the paper's sparsity assumption is
/// that this is much smaller than one.
// lint: allow(uncalled-pub) — ppfr_datasets' sbm tests check generated sparsity with it
pub fn edge_density(graph: &Graph) -> f64 {
    let n = graph.n_nodes();
    if n < 2 {
        return 0.0;
    }
    let possible = n * (n - 1) / 2;
    graph.n_edges() as f64 / possible as f64
}

/// Empirical intra-class (`p`) and inter-class (`q`) linking probabilities,
/// the quantities appearing in the sparsity ratio of Eq. (5).
// lint: allow(uncalled-pub) — Eq. 5 helper of tests/integration_tradeoff.rs and the
// sbm/shadow tests of ppfr_datasets
pub fn intra_inter_probabilities(graph: &Graph, labels: &[usize]) -> (f64, f64) {
    assert_eq!(labels.len(), graph.n_nodes());
    let n = graph.n_nodes();
    let mut intra_pairs = 0usize;
    let mut inter_pairs = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            if labels[u] == labels[v] {
                intra_pairs += 1;
            } else {
                inter_pairs += 1;
            }
        }
    }
    let mut intra_edges = 0usize;
    let mut inter_edges = 0usize;
    for (u, v) in graph.edges() {
        if labels[u] == labels[v] {
            intra_edges += 1;
        } else {
            inter_edges += 1;
        }
    }
    let p = if intra_pairs == 0 {
        0.0
    } else {
        intra_edges as f64 / intra_pairs as f64
    };
    let q = if inter_pairs == 0 {
        0.0
    } else {
        inter_edges as f64 / inter_pairs as f64
    };
    (p, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homophily_of_fully_homophilous_graph_is_one() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let labels = vec![0, 0, 1, 1];
        assert_eq!(homophily(&g, &labels), 1.0);
    }

    #[test]
    fn homophily_counts_mixed_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let labels = vec![0, 0, 1, 1];
        assert!((homophily(&g, &labels) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degree_and_density() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!((average_degree(&g) - 1.5).abs() < 1e-12);
        assert!((edge_density(&g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intra_inter_probabilities_on_two_blocks() {
        // Two blocks of two nodes each; both intra edges present, no inter.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let labels = vec![0, 0, 1, 1];
        let (p, q) = intra_inter_probabilities(&g, &labels);
        assert!((p - 1.0).abs() < 1e-12);
        assert_eq!(q, 0.0);
    }

    #[test]
    fn empty_graph_statistics_are_zero() {
        let g = Graph::empty(3);
        assert_eq!(homophily(&g, &[0, 1, 2]), 0.0);
        assert_eq!(average_degree(&g), 0.0);
        assert_eq!(edge_density(&g), 0.0);
    }
}
