//! Pre-computed per-graph operators shared by every model.
//!
//! A context holds GCN's `Â` and GraphSAGE's neighbour mean `M`, built from
//! the graph by [`GraphContext::new`], [`GraphContext::with_graph`] and each
//! epoch of [`SampledContext`](crate::SampledContext).  GAT reads the
//! graph's CSR rows directly, so no attention edge list is built.
//!
//! The context holds the node features `X` twice: dense, and as the CSR of
//! its non-zero entries, built once in [`GraphContext::new`].  The products
//! `X·W` and `Xᵀ·G` of every model go through
//! [`GraphContext::features_matmul_into`] and
//! [`GraphContext::features_t_matmul_into`], which read the CSR, and
//! GraphSAGE's neighbour mean `M·X` is built as CSR straight from the dense
//! `X`.  The generated datasets' features are sparse and binary, so the CSR
//! kernels skip the zeros the dense kernels scan.  Both give bit-identical
//! results with a finite right-hand side: they add the same non-zero terms
//! in ascending index order.  When the right-hand side holds a NaN or `±∞`,
//! the product falls back to the dense kernel's IEEE-exact path, where
//! `0 × NaN` is NaN in every row; one function makes that choice for `X`
//! and `M·X`.  No transposed copy is built: `Xᵀ·G` runs on the
//! transpose-free kernels.

use ppfr_graph::{Graph, SparseMatrix};
use ppfr_linalg::Matrix;
use std::borrow::Cow;

/// A graph plus its node features and the propagation operators the three
/// models need.  Built once per (graph, features) pair; rebuilt whenever the
/// graph structure is perturbed (edge DP, privacy-aware perturbations).
#[derive(Debug, Clone)]
pub struct GraphContext {
    /// The underlying graph.
    pub graph: Graph,
    /// Node features `X` (one row per node), read by the build of
    /// GraphSAGE's neighbour mean `M·X` and by the non-finite fallback.
    features: Matrix,
    /// The CSR of `features`, read by every other product with `X`.
    features_csr: SparseMatrix,
    /// Symmetrically normalised adjacency `Â = D̃^{-1/2}(A+I)D̃^{-1/2}` (GCN).
    pub a_hat: SparseMatrix,
    /// Row-normalised neighbour-mean operator (GraphSAGE).
    pub mean_agg: SparseMatrix,
}

impl GraphContext {
    /// Builds the context, pre-computing every operator and the CSR of the
    /// features.
    pub fn new(graph: Graph, features: Matrix) -> Self {
        let mut ctx = Self::without_graph(features);
        ctx.install_graph(graph);
        ctx
    }

    /// The features and their CSR over an empty graph with no operators:
    /// [`GraphContext::install_graph`] supplies those.
    pub(crate) fn without_graph(features: Matrix) -> Self {
        let features_csr = SparseMatrix::from_dense(&features);
        Self::from_parts(features, features_csr)
    }

    fn from_parts(features: Matrix, features_csr: SparseMatrix) -> Self {
        Self {
            graph: Graph::empty(0),
            features,
            features_csr,
            a_hat: SparseMatrix::zeros(0, 0),
            mean_agg: SparseMatrix::zeros(0, 0),
        }
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
        let dense = || Cow::Borrowed(&self.features);
        sparse_operand_product_into(&self.features_csr, dense, false, w, out);
    }

    /// `Xᵀ · g` into `out` (resized as needed).
    pub fn features_t_matmul_into(&self, g: &Matrix, out: &mut Matrix) {
        let dense = || Cow::Borrowed(&self.features);
        sparse_operand_product_into(&self.features_csr, dense, true, g, out);
    }

    /// `op · X` as CSR into `mx`: GraphSAGE's neighbour mean of the
    /// features, whose products run through
    /// [`GraphContext::neighbour_mean_matmul_into`] and
    /// [`GraphContext::neighbour_mean_t_matmul_into`].
    pub(crate) fn neighbour_mean_into(&self, op: &SparseMatrix, mx: &mut SparseMatrix) {
        op.matmul_dense_csr_into(&self.features, mx);
    }

    /// `(op · X) · w` into `out` (resized as needed), where `mx` is the CSR
    /// of `op · X` that [`GraphContext::neighbour_mean_into`] built.
    pub(crate) fn neighbour_mean_matmul_into(
        &self,
        op: &SparseMatrix,
        mx: &SparseMatrix,
        w: &Matrix,
        out: &mut Matrix,
    ) {
        let dense = || Cow::Owned(op.matmul_dense(&self.features));
        sparse_operand_product_into(mx, dense, false, w, out);
    }

    /// `(op · X)ᵀ · g` into `out` (resized as needed), where `mx` is the CSR
    /// of `op · X` that [`GraphContext::neighbour_mean_into`] built.
    pub(crate) fn neighbour_mean_t_matmul_into(
        &self,
        op: &SparseMatrix,
        mx: &SparseMatrix,
        g: &Matrix,
        out: &mut Matrix,
    ) {
        let dense = || Cow::Owned(op.matmul_dense(&self.features));
        sparse_operand_product_into(mx, dense, true, g, out);
    }

    /// Returns a new context with the same features over a perturbed graph.
    pub fn with_graph(&self, graph: Graph) -> Self {
        let mut ctx = Self::from_parts(self.features.clone(), self.features_csr.clone());
        ctx.install_graph(graph);
        ctx
    }
}

/// `A · b`, or `Aᵀ · b` when `transposed`, into `out` (resized as needed),
/// for a first-layer operand `A` (`X`, or GraphSAGE's `M·X`) held as the
/// CSR `a`: the one choice between the CSR kernels and the dense
/// kernels' IEEE-exact path.
///
/// A finite `b` takes the CSR kernel, which adds the dense zero-skip
/// kernel's non-zero terms in the same ascending order, so the bits are
/// equal.  A `b` holding a NaN or `±∞` takes the dense kernel on `dense()`,
/// the dense `A`, whose exact path makes `0 × NaN` NaN in every row;
/// `dense` runs only then.
fn sparse_operand_product_into<'a>(
    a: &SparseMatrix,
    dense: impl FnOnce() -> Cow<'a, Matrix>,
    transposed: bool,
    b: &Matrix,
    out: &mut Matrix,
) {
    match (b.has_non_finite(), transposed) {
        (false, false) => a.matmul_dense_into(b, out),
        (false, true) => a.transpose_matmul_dense_into(b, out),
        (true, false) => dense().matmul_into(b, out),
        (true, true) => dense().matmul_at_b_into(b, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert_ne!(ctx2.a_hat, ctx.a_hat);
        assert_ne!(ctx2.mean_agg, ctx.mean_agg);
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
        // SampledContext's path: the features alone, then one graph after
        // another installed.
        let mut rebuilt = GraphContext::without_graph(x);
        rebuilt.install_graph(crate::sample_subgraph(&base, 1, 3));
        same(&rebuilt, "installing a neighbour sample");
        rebuilt.install_graph(base);
        same(&rebuilt, "installing the full graph");
    }
}
