//! The undirected [`Graph`] type and its normalised propagation operators.

use crate::SparseMatrix;
use std::collections::BTreeSet;

/// An undirected, unweighted graph `G = {V, E}` stored as a sorted
/// neighbour-list (CSR-like) structure.
///
/// Nodes are `0..n_nodes`.  Self-loops are not stored in the edge set; the
/// normalised operators add them explicitly (the `A + I` of GCN).
#[derive(Debug, Clone)]
pub struct Graph {
    n_nodes: usize,
    /// Sorted, deduplicated neighbour lists.
    adj: Vec<Vec<usize>>,
    n_edges: usize,
}

impl Graph {
    /// Builds a graph from an undirected edge list.  Duplicate edges and
    /// self-loops are ignored.
    pub fn from_edges(n_nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n_nodes];
        for &(u, v) in edges {
            assert!(u < n_nodes && v < n_nodes, "edge ({u},{v}) out of bounds");
            if u == v {
                continue;
            }
            sets[u].insert(v);
            sets[v].insert(u);
        }
        let adj: Vec<Vec<usize>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
        let n_edges = adj.iter().map(Vec::len).sum::<usize>() / 2;
        Self {
            n_nodes,
            adj,
            n_edges,
        }
    }

    /// Graph with no edges.
    pub fn empty(n_nodes: usize) -> Self {
        Self {
            n_nodes,
            adj: vec![Vec::new(); n_nodes],
            n_edges: 0,
        }
    }

    /// Number of nodes `|V|`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of undirected edges `|E|`.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Sorted neighbours of `v` (excluding `v` itself).
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Degree of `v` (number of neighbours, self-loop excluded).
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].binary_search(&v).is_ok()
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_nodes).flat_map(move |u| {
            self.adj[u]
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Symmetrically normalised adjacency with self loops:
    /// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` — the GCN propagation operator.
    pub fn normalized_adjacency(&self) -> SparseMatrix {
        let deg_tilde: Vec<f64> = (0..self.n_nodes)
            .map(|v| self.degree(v) as f64 + 1.0)
            .collect();
        let mut triplets = Vec::with_capacity(2 * self.n_edges + self.n_nodes);
        for u in 0..self.n_nodes {
            triplets.push((u, u, 1.0 / deg_tilde[u]));
            for &v in &self.adj[u] {
                triplets.push((u, v, 1.0 / (deg_tilde[u] * deg_tilde[v]).sqrt()));
            }
        }
        SparseMatrix::from_triplets(self.n_nodes, self.n_nodes, &triplets)
    }

    /// Row-normalised *mean aggregation* operator over neighbours only
    /// (no self loop), used by the GraphSAGE mean aggregator.  Isolated nodes
    /// get an all-zero row.
    pub fn mean_aggregation(&self) -> SparseMatrix {
        let mut triplets = Vec::with_capacity(2 * self.n_edges);
        for u in 0..self.n_nodes {
            let deg = self.degree(u);
            if deg == 0 {
                continue;
            }
            let inv = 1.0 / deg as f64;
            for &v in &self.adj[u] {
                triplets.push((u, v, inv));
            }
        }
        SparseMatrix::from_triplets(self.n_nodes, self.n_nodes, &triplets)
    }

    /// Directed edge list *including self loops*, as `(dst, src)` pairs grouped
    /// by destination — the layout GAT attention uses.
    pub fn attention_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(2 * self.n_edges + self.n_nodes);
        for u in 0..self.n_nodes {
            out.push((u, u));
            for &v in &self.adj[u] {
                out.push((u, v));
            }
        }
        out
    }

    /// Returns a new graph with every edge in `extra` added (self-loops and
    /// duplicates ignored).
    pub fn with_extra_edges(&self, extra: &[(usize, usize)]) -> Graph {
        let mut edges: Vec<(usize, usize)> = self.edges().collect();
        edges.extend_from_slice(extra);
        Graph::from_edges(self.n_nodes, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node path graph 0-1-2-3.
    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn builds_symmetric_adjacency() {
        let g = path4();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn duplicates_and_self_loops_are_ignored() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 2), (0, 1)]);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn normalized_adjacency_rows_of_regular_graph_sum_to_one() {
        // A triangle is 2-regular: D̃ = 3I, Â = (A+I)/3, rows sum to 1.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let a_hat = g.normalized_adjacency();
        for r in 0..3 {
            assert!((a_hat.row_sum(r) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_adjacency_is_symmetric() {
        let g = path4();
        let a_hat = g.normalized_adjacency().to_dense();
        for i in 0..4 {
            for j in 0..4 {
                assert!((a_hat[(i, j)] - a_hat[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mean_aggregation_skips_isolated_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let m = g.mean_aggregation();
        assert_eq!(m.row_sum(2), 0.0);
        assert!((m.row_sum(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attention_edges_include_self_loops() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let edges = g.attention_edges();
        assert!(edges.contains(&(0, 0)));
        assert!(edges.contains(&(1, 1)));
        assert!(edges.contains(&(0, 1)));
        assert!(edges.contains(&(1, 0)));
    }

    #[test]
    fn with_extra_edges_adds_new_edges_only() {
        let g = path4();
        let g2 = g.with_extra_edges(&[(0, 3), (0, 1), (2, 2)]);
        assert_eq!(g2.n_edges(), 4);
        assert!(g2.has_edge(0, 3));
    }
}
