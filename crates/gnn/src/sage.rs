//! Two-layer GraphSAGE with mean aggregation (Hamilton et al., NeurIPS 2017).
//!
//! Layer: `h'_i = ReLU(W_self h_i + W_neigh · mean_{j∈N(i)} h_j)`.
//! The aggregation operator is either the full neighbour mean or, when
//! neighbour sampling is enabled (`sample_size`), a mean over a random subset
//! of at most `sample_size` neighbours — re-drawn by [`GnnModel::resample`].
//! Sampling matters for the paper's Table IV discussion: it dilutes the
//! effectiveness of edge-DP noise.

use crate::workspace::ensure_len;
use crate::{GnnModel, GraphContext, TrainWorkspace};
use ppfr_graph::SparseMatrix;
use ppfr_linalg::{relu_grad_into, relu_into, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Two-layer GraphSAGE with mean aggregation.
#[derive(Debug, Clone)]
pub struct GraphSage {
    w1_self: Matrix,
    w1_neigh: Matrix,
    w2_self: Matrix,
    w2_neigh: Matrix,
    in_dim: usize,
    hidden: usize,
    n_classes: usize,
    /// Maximum number of neighbours aggregated per node; `None` = all.
    pub sample_size: Option<usize>,
    /// Sampled aggregation operator (present only when sampling is active).
    sampled_agg: Option<SparseMatrix>,
}

impl GraphSage {
    /// Glorot-initialised GraphSAGE (full-neighbourhood aggregation).
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        hidden: usize,
        n_classes: usize,
        rng: &mut R,
    ) -> Self {
        Self {
            w1_self: Matrix::glorot(in_dim, hidden, rng),
            w1_neigh: Matrix::glorot(in_dim, hidden, rng),
            w2_self: Matrix::glorot(hidden, n_classes, rng),
            w2_neigh: Matrix::glorot(hidden, n_classes, rng),
            in_dim,
            hidden,
            n_classes,
            sample_size: None,
            sampled_agg: None,
        }
    }

    /// Enables neighbour sampling with the given fan-out.
    // lint: allow(uncalled-pub) — pins sampling GraphSAGE in ppfr_gnn's workspace_equivalence
    // and ppfr_influence's HVP tests until SampledContext replaces it
    pub fn with_sampling(mut self, sample_size: usize) -> Self {
        self.sample_size = Some(sample_size);
        self
    }

    fn aggregator<'a>(&'a self, ctx: &'a GraphContext) -> &'a SparseMatrix {
        self.sampled_agg.as_ref().unwrap_or(&ctx.mean_agg)
    }
}

impl GnnModel for GraphSage {
    fn forward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace) {
        // pre1 = X W1_self + (M X) W1_neigh ; h1 = ReLU(pre1) ;
        // logits = h1 W2_self + (M h1) W2_neigh
        let agg = self.aggregator(ctx);
        let b = &mut ws.sage;
        agg.matmul_dense_into(&ctx.features, &mut b.mx);
        ctx.features.matmul_into(&self.w1_self, &mut b.t_self);
        b.mx.matmul_into(&self.w1_neigh, &mut b.t_neigh);
        b.t_self.zip_into(&b.t_neigh, &mut b.pre1, |a, bb| a + bb);
        relu_into(&b.pre1, &mut b.h1);
        agg.matmul_dense_into(&b.h1, &mut b.mh1);
        b.h1.matmul_into(&self.w2_self, &mut b.o_self);
        b.mh1.matmul_into(&self.w2_neigh, &mut b.o_neigh);
        b.o_self
            .zip_into(&b.o_neigh, &mut ws.logits, |a, bb| a + bb);
    }

    fn backward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace) {
        // Reuses mx/pre1/h1/mh1 cached by forward_ws.
        let agg = self.aggregator(ctx);
        let b = &mut ws.sage;
        b.h1.matmul_at_b_into(&ws.d_logits, &mut b.d_w2_self);
        b.mh1.matmul_at_b_into(&ws.d_logits, &mut b.d_w2_neigh);
        ws.d_logits.matmul_a_bt_into(&self.w2_self, &mut b.d_h1_dir);
        ws.d_logits.matmul_a_bt_into(&self.w2_neigh, &mut b.d_mh1);
        agg.transpose_matmul_dense_into(&b.d_mh1, &mut b.d_h1_agg);
        b.d_h1_dir
            .zip_into(&b.d_h1_agg, &mut b.d_h1, |a, bb| a + bb);
        relu_grad_into(&b.pre1, &b.d_h1, &mut b.d_pre1);
        ctx.features.matmul_at_b_into(&b.d_pre1, &mut b.d_w1_self);
        b.mx.matmul_at_b_into(&b.d_pre1, &mut b.d_w1_neigh);

        let l1 = b.d_w1_self.as_slice().len();
        let l2 = b.d_w2_self.as_slice().len();
        ensure_len(&mut ws.grads, 2 * l1 + 2 * l2);
        ws.grads[..l1].copy_from_slice(b.d_w1_self.as_slice());
        ws.grads[l1..2 * l1].copy_from_slice(b.d_w1_neigh.as_slice());
        ws.grads[2 * l1..2 * l1 + l2].copy_from_slice(b.d_w2_self.as_slice());
        ws.grads[2 * l1 + l2..].copy_from_slice(b.d_w2_neigh.as_slice());
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.w1_self.as_slice().to_vec();
        p.extend_from_slice(self.w1_neigh.as_slice());
        p.extend_from_slice(self.w2_self.as_slice());
        p.extend_from_slice(self.w2_neigh.as_slice());
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.n_params(), "parameter length mismatch");
        let l1 = self.in_dim * self.hidden;
        let l2 = self.hidden * self.n_classes;
        let mut cursor = 0usize;
        for w in [&mut self.w1_self, &mut self.w1_neigh] {
            w.as_mut_slice()
                .copy_from_slice(&params[cursor..cursor + l1]);
            cursor += l1;
        }
        for w in [&mut self.w2_self, &mut self.w2_neigh] {
            w.as_mut_slice()
                .copy_from_slice(&params[cursor..cursor + l2]);
            cursor += l2;
        }
    }

    fn n_params(&self) -> usize {
        2 * self.in_dim * self.hidden + 2 * self.hidden * self.n_classes
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn resample(&mut self, ctx: &GraphContext, seed: u64) {
        let Some(k) = self.sample_size else {
            self.sampled_agg = None;
            return;
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let n = ctx.n_nodes();
        let mut triplets = Vec::new();
        for v in 0..n {
            let neighbors = ctx.graph.neighbors(v);
            if neighbors.is_empty() {
                continue;
            }
            let mut pool: Vec<usize> = neighbors.to_vec();
            pool.shuffle(&mut rng);
            let take = pool.len().min(k);
            let inv = 1.0 / take as f64;
            for &u in pool.iter().take(take) {
                triplets.push((v, u, inv));
            }
        }
        self.sampled_agg = Some(SparseMatrix::from_triplets(n, n, &triplets));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::workspace_grad;
    use ppfr_graph::Graph;
    use ppfr_nn::{central_difference, max_relative_error};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_ctx() -> GraphContext {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 3)]);
        let mut rng = StdRng::seed_from_u64(23);
        let x = Matrix::gaussian(6, 4, 0.0, 1.0, &mut rng);
        GraphContext::new(g, x)
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let sage = GraphSage::new(4, 5, 3, &mut rng);
        let z = sage.forward(&ctx);
        assert_eq!(z.shape(), (6, 3));
        assert!(!z.has_non_finite());
    }

    #[test]
    fn backward_matches_finite_difference() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let sage = GraphSage::new(4, 3, 2, &mut rng);
        let coeff = Matrix::gaussian(6, 2, 0.0, 1.0, &mut rng);
        let analytic = workspace_grad(&sage, &ctx, &coeff);
        let f = |p: &[f64]| {
            let mut m = sage.clone();
            m.set_params(p);
            m.forward(&ctx).zip_with(&coeff, |a, b| a * b).sum()
        };
        let numeric = central_difference(f, &sage.params(), 1e-5);
        let err = max_relative_error(&analytic, &numeric, 1e-6);
        assert!(
            err < 1e-4,
            "GraphSAGE gradient check failed: max relative error {err}"
        );
    }

    #[test]
    fn sampling_limits_fanout_and_is_resampled() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sage = GraphSage::new(4, 3, 2, &mut rng).with_sampling(1);
        sage.resample(&ctx, 100);
        let agg = sage
            .sampled_agg
            .as_ref()
            .expect("sampled operator must exist");
        for v in 0..ctx.n_nodes() {
            let nnz = agg.row(v).count();
            assert!(
                nnz <= 1,
                "node {v} aggregates {nnz} neighbours with fan-out 1"
            );
        }
        // A different seed may select different neighbours.
        let before = agg.clone();
        sage.resample(&ctx, 101);
        let after = sage.sampled_agg.as_ref().unwrap();
        // With fan-out 1 on nodes of degree >= 2 this is almost surely different;
        // if identical the test is still meaningful via the fan-out assertion above.
        let _ = before != *after;
    }

    #[test]
    fn full_aggregation_used_when_sampling_disabled() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let mut sage = GraphSage::new(4, 3, 2, &mut rng);
        sage.resample(&ctx, 7);
        assert!(sage.sampled_agg.is_none());
        let z1 = sage.forward(&ctx);
        sage.resample(&ctx, 8);
        let z2 = sage.forward(&ctx);
        assert_eq!(
            z1.as_slice(),
            z2.as_slice(),
            "deterministic without sampling"
        );
    }
}
