//! Two-layer graph convolutional network (Kipf & Welling, ICLR 2017).
//!
//! Forward pass: `Z = Â · ReLU(Â X W₁) · W₂` with the symmetric normalisation
//! `Â = D̃^{-1/2}(A+I)D̃^{-1/2}` from the paper's preliminaries.

use crate::workspace::ensure_len;
use crate::{GnnModel, GraphContext, TrainWorkspace};
use ppfr_linalg::{relu_grad_into, relu_into, Matrix};
use rand::Rng;

/// Two-layer GCN with hidden width `hidden`.
#[derive(Debug, Clone)]
pub struct Gcn {
    w1: Matrix,
    w2: Matrix,
    in_dim: usize,
    hidden: usize,
    n_classes: usize,
}

impl Gcn {
    /// Glorot-initialised GCN.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        hidden: usize,
        n_classes: usize,
        rng: &mut R,
    ) -> Self {
        Self {
            w1: Matrix::glorot(in_dim, hidden, rng),
            w2: Matrix::glorot(hidden, n_classes, rng),
            in_dim,
            hidden,
            n_classes,
        }
    }
}

impl GnnModel for Gcn {
    fn forward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace) {
        // pre1 = Â X W1 ; h1 = ReLU(pre1) ; logits = Â h1 W2
        let b = &mut ws.gcn;
        ctx.features.matmul_into(&self.w1, &mut b.xw1);
        ctx.a_hat.matmul_dense_into(&b.xw1, &mut b.pre1);
        relu_into(&b.pre1, &mut b.h1);
        b.h1.matmul_into(&self.w2, &mut b.h1w2);
        ctx.a_hat.matmul_dense_into(&b.h1w2, &mut ws.logits);
    }

    fn backward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace) {
        // Reuses pre1/h1 cached by forward_ws.
        let b = &mut ws.gcn;
        // logits = Â (h1 W2): Â is symmetric, so d(h1 W2) = Â d_logits.
        ctx.a_hat.matmul_dense_into(&ws.d_logits, &mut b.d_h1w2);
        b.h1.matmul_at_b_into(&b.d_h1w2, &mut b.d_w2);
        b.d_h1w2.matmul_a_bt_into(&self.w2, &mut b.d_h1);
        relu_grad_into(&b.pre1, &b.d_h1, &mut b.d_pre1);
        // pre1 = Â (X W1): d(X W1) = Â d_pre1.
        ctx.a_hat.matmul_dense_into(&b.d_pre1, &mut b.d_xw1);
        ctx.features.matmul_at_b_into(&b.d_xw1, &mut b.d_w1);
        let (n1, n2) = (b.d_w1.as_slice().len(), b.d_w2.as_slice().len());
        ensure_len(&mut ws.grads, n1 + n2);
        ws.grads[..n1].copy_from_slice(b.d_w1.as_slice());
        ws.grads[n1..].copy_from_slice(b.d_w2.as_slice());
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.w1.as_slice().to_vec();
        p.extend_from_slice(self.w2.as_slice());
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.n_params(), "parameter length mismatch");
        let split = self.in_dim * self.hidden;
        self.w1.as_mut_slice().copy_from_slice(&params[..split]);
        self.w2.as_mut_slice().copy_from_slice(&params[split..]);
    }

    fn n_params(&self) -> usize {
        self.in_dim * self.hidden + self.hidden * self.n_classes
    }

    fn n_classes(&self) -> usize {
        self.n_classes
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
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Matrix::gaussian(6, 4, 0.0, 1.0, &mut rng);
        GraphContext::new(g, x)
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let gcn = Gcn::new(4, 5, 3, &mut rng);
        let z = gcn.forward(&ctx);
        assert_eq!(z.shape(), (6, 3));
        assert!(!z.has_non_finite());
    }

    #[test]
    fn backward_matches_finite_difference() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let gcn = Gcn::new(4, 5, 3, &mut rng);
        // Scalar objective: f(θ) = sum(C ⊙ logits) for a fixed coefficient matrix C.
        let coeff = Matrix::gaussian(6, 3, 0.0, 1.0, &mut rng);
        let analytic = workspace_grad(&gcn, &ctx, &coeff);
        let f = |p: &[f64]| {
            let mut m = gcn.clone();
            m.set_params(p);
            let z = m.forward(&ctx);
            z.hadamard(&coeff).sum()
        };
        let numeric = central_difference(f, &gcn.params(), 1e-5);
        let err = max_relative_error(&analytic, &numeric, 1e-6);
        assert!(
            err < 1e-4,
            "gradient check failed: max relative error {err}"
        );
    }

    #[test]
    fn isolated_node_keeps_its_own_signal() {
        // Node 2 is isolated: its logits depend only on its own features
        // (through the self loop of Â), so changing node 0's features must
        // not change node 2's output.
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]]);
        let mut rng = StdRng::seed_from_u64(4);
        let gcn = Gcn::new(2, 3, 2, &mut rng);
        let z1 = gcn.forward(&GraphContext::new(g.clone(), x.clone()));
        x[(0, 0)] = 9.0;
        let z2 = gcn.forward(&GraphContext::new(g, x));
        for c in 0..2 {
            assert!((z1[(2, c)] - z2[(2, c)]).abs() < 1e-12);
        }
        assert!(
            (z1[(0, 0)] - z2[(0, 0)]).abs() > 1e-9,
            "node 0 must react to its own features"
        );
    }

    #[test]
    fn param_roundtrip_preserves_forward() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let gcn = Gcn::new(4, 5, 3, &mut rng);
        let mut clone = gcn.clone();
        clone.set_params(&gcn.params());
        let a = gcn.forward(&ctx);
        let b = clone.forward(&ctx);
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
