//! Pre-computed per-graph operators shared by every model.
//!
//! The context holds the node features `X` twice: dense, and as the CSR of
//! its non-zero entries, built once in [`GraphContext::new`].  The products
//! `X·W` and `Xᵀ·G` of every model go through
//! [`GraphContext::features_matmul_into`] and
//! [`GraphContext::features_t_matmul_into`], which read the CSR.  The
//! generated datasets' features are sparse and binary, so the CSR kernels
//! skip the zeros the dense kernels scan.  Both give bit-identical
//! results with a finite right-hand side: they add the same non-zero terms
//! in ascending index order.  When the right-hand side holds a NaN or `±∞`,
//! the product falls back to the dense kernel's IEEE-exact path, where
//! `0 × NaN` is NaN in every row.  GraphSAGE's neighbour mean `M·X` reads
//! the dense copy.  No transposed copy is built: `Xᵀ·G` runs on the
//! transpose-free kernels.

use ppfr_graph::{Graph, SparseMatrix};
use ppfr_linalg::Matrix;

/// A graph plus its node features and the propagation operators the three
/// models need.  Built once per (graph, features) pair; rebuilt whenever the
/// graph structure is perturbed (edge DP, privacy-aware perturbations).
#[derive(Debug, Clone)]
pub struct GraphContext {
    /// The underlying graph.
    pub graph: Graph,
    /// Node features `X` (one row per node), read only by the non-finite
    /// fallback and GraphSAGE's neighbour mean `M·X`.
    features: Matrix,
    /// The CSR of `features`, read by every other product with `X`.
    features_csr: SparseMatrix,
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
    /// Builds the context, pre-computing every operator and the CSR of the
    /// features.
    pub fn new(graph: Graph, features: Matrix) -> Self {
        let features_csr = SparseMatrix::from_dense(&features);
        Self::from_parts(graph, features, features_csr)
    }

    fn from_parts(graph: Graph, features: Matrix, features_csr: SparseMatrix) -> Self {
        let mut ctx = Self {
            graph: Graph::empty(0),
            features,
            features_csr,
            a_hat: SparseMatrix::zeros(0, 0),
            mean_agg: SparseMatrix::zeros(0, 0),
            att_edges: Vec::new(),
            att_ptr: Vec::new(),
        };
        ctx.install_graph(graph);
        ctx
    }

    /// Swaps `graph` and the operators derived from it into the context,
    /// keeping the features.  The one operator build of both a fresh context
    /// and [`SampledContext`](crate::SampledContext)'s per-epoch swap.
    pub(crate) fn install_graph(&mut self, graph: Graph) {
        assert_eq!(
            graph.n_nodes(),
            self.features.rows(),
            "one feature row per node"
        );
        self.a_hat = graph.normalized_adjacency();
        self.mean_agg = graph.mean_aggregation();
        self.att_edges = graph.attention_edges();
        self.att_ptr.clear();
        self.att_ptr.reserve(graph.n_nodes() + 1);
        self.att_ptr.push(0);
        let mut cursor = 0usize;
        for v in 0..graph.n_nodes() {
            // attention_edges lists (v, v) then (v, each neighbour of v).
            cursor += 1 + graph.degree(v);
            self.att_ptr.push(cursor);
        }
        debug_assert_eq!(cursor, self.att_edges.len());
        self.graph = graph;
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.graph.n_nodes()
    }

    /// Feature dimensionality.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// `X · w` into `out` (resized as needed).
    pub fn features_matmul_into(&self, w: &Matrix, out: &mut Matrix) {
        if w.has_non_finite() {
            self.features.matmul_into(w, out);
        } else {
            self.features_csr.matmul_dense_into(w, out);
        }
    }

    /// `Xᵀ · g` into `out` (resized as needed).
    pub fn features_t_matmul_into(&self, g: &Matrix, out: &mut Matrix) {
        if g.has_non_finite() {
            self.features.matmul_at_b_into(g, out);
        } else {
            self.features_csr.transpose_matmul_dense_into(g, out);
        }
    }

    /// `op · X` into `out` (resized as needed): GraphSAGE's neighbour mean
    /// of the features.
    pub(crate) fn propagate_features_into(&self, op: &SparseMatrix, out: &mut Matrix) {
        op.matmul_dense_into(&self.features, out);
    }

    /// Returns a new context with the same features over a perturbed graph.
    pub fn with_graph(&self, graph: Graph) -> Self {
        Self::from_parts(graph, self.features.clone(), self.features_csr.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampledContext;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Sparse features whose row 0 and column 0 are empty.
    fn sparse_features(n: usize, d: usize) -> Matrix {
        let mut x = Matrix::zeros(n, d);
        for i in 1..n {
            for k in 1..d {
                if (i * 7 + k * 3) % 5 == 0 {
                    x[(i, k)] = 1.0 + (i + k) as f64 / 8.0;
                }
            }
        }
        x
    }

    /// Both products with `X`, from one context.
    fn x_products(ctx: &GraphContext, w: &Matrix, g: &Matrix) -> (Matrix, Matrix) {
        let (mut xw, mut xtg) = (Matrix::default(), Matrix::default());
        ctx.features_matmul_into(w, &mut xw);
        ctx.features_t_matmul_into(g, &mut xtg);
        (xw, xtg)
    }

    #[test]
    fn rebuilt_contexts_give_the_products_of_a_fresh_one() {
        let (n, d, h) = (12, 6, 3);
        let base = Graph::from_edges(n, &(0..n).map(|i| (i, (i * 5 + 1) % n)).collect::<Vec<_>>());
        let x = sparse_features(n, d);
        let mut rng = StdRng::seed_from_u64(9);
        let w = Matrix::gaussian(d, h, 0.0, 1.0, &mut rng);
        let g = Matrix::gaussian(n, h, 0.0, 1.0, &mut rng);
        let want = x_products(&GraphContext::new(base.clone(), x.clone()), &w, &g);
        let same = |ctx: &GraphContext, what: &str| {
            let got = x_products(ctx, &w, &g);
            assert_eq!(got.0.as_slice(), want.0.as_slice(), "X·W after {what}");
            assert_eq!(got.1.as_slice(), want.1.as_slice(), "Xᵀ·G after {what}");
        };

        let perturbed = base.with_extra_edges(&[(0, 6), (3, 9)]);
        same(
            &GraphContext::new(base.clone(), x.clone()).with_graph(perturbed),
            "with_graph",
        );
        let mut sctx = SampledContext::new(base, x, 1);
        sctx.resample(3);
        same(sctx.ctx(), "SampledContext::resample");
        sctx.restore_full();
        same(sctx.ctx(), "SampledContext::restore_full");
    }
}
