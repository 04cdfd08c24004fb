//! Pre-computed per-graph operators shared by every model.
//!
//! The context holds the features as given: the backward passes read `Xᵀ`
//! through the transpose-free `matmul_at_b` kernels, so no transposed copy
//! is built.

use ppfr_graph::{Graph, SparseMatrix};
use ppfr_linalg::Matrix;

/// A graph plus its node features and the propagation operators the three
/// models need.  Built once per (graph, features) pair; rebuilt whenever the
/// graph structure is perturbed (edge DP, privacy-aware perturbations).
#[derive(Debug, Clone)]
pub struct GraphContext {
    /// The underlying graph.
    pub graph: Graph,
    /// Node features `X` (one row per node).  Treat as immutable: build a
    /// new context to change features.
    pub features: Matrix,
    /// Symmetrically normalised adjacency `Â = D̃^{-1/2}(A+I)D̃^{-1/2}` (GCN).
    pub a_hat: SparseMatrix,
    /// Row-normalised neighbour-mean operator (GraphSAGE).
    pub mean_agg: SparseMatrix,
    /// Directed attention edges `(dst, src)` including self loops, grouped by
    /// destination (GAT).
    pub att_edges: Vec<(usize, usize)>,
    /// `att_ptr[v]..att_ptr[v+1]` indexes the attention edges whose
    /// destination is `v`.
    pub att_ptr: Vec<usize>,
}

impl GraphContext {
    /// Builds the context, pre-computing every operator.
    pub fn new(graph: Graph, features: Matrix) -> Self {
        assert_eq!(graph.n_nodes(), features.rows(), "one feature row per node");
        let a_hat = graph.normalized_adjacency();
        let mean_agg = graph.mean_aggregation();
        let att_edges = graph.attention_edges();
        let mut att_ptr = Vec::with_capacity(graph.n_nodes() + 1);
        att_ptr.push(0);
        let mut cursor = 0usize;
        for v in 0..graph.n_nodes() {
            // attention_edges lists (v, v) then (v, each neighbour of v).
            cursor += 1 + graph.degree(v);
            att_ptr.push(cursor);
        }
        debug_assert_eq!(cursor, att_edges.len());
        Self {
            graph,
            features,
            a_hat,
            mean_agg,
            att_edges,
            att_ptr,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.graph.n_nodes()
    }

    /// Feature dimensionality.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// Returns a new context with the same features over a perturbed graph.
    pub fn with_graph(&self, graph: Graph) -> Self {
        Self::new(graph, self.features.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_pointers_cover_every_edge() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let x = Matrix::zeros(4, 3);
        let ctx = GraphContext::new(g, x);
        assert_eq!(*ctx.att_ptr.last().unwrap(), ctx.att_edges.len());
        for v in 0..4 {
            let span = &ctx.att_edges[ctx.att_ptr[v]..ctx.att_ptr[v + 1]];
            assert!(
                span.iter().all(|&(dst, _)| dst == v),
                "edges grouped by destination"
            );
            assert!(
                span.iter().any(|&(_, src)| src == v),
                "self loop present for node {v}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one feature row per node")]
    fn rejects_mismatched_feature_rows() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let x = Matrix::zeros(2, 3);
        let _ = GraphContext::new(g, x);
    }

    #[test]
    fn with_graph_keeps_features_and_updates_operators() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let x = Matrix::filled(3, 2, 1.0);
        let ctx = GraphContext::new(g, x);
        let g2 = ctx.graph.with_extra_edges(&[(1, 2)]);
        let ctx2 = ctx.with_graph(g2);
        assert_eq!(ctx2.features.as_slice(), ctx.features.as_slice());
        assert!(ctx2.graph.has_edge(1, 2));
        assert_ne!(ctx2.att_edges.len(), ctx.att_edges.len());
    }
}
