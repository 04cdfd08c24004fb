//! Two-layer single-head graph attention network (Veličković et al. 2018).
//!
//! Attention over the closed neighbourhood (self loop included):
//! `e_{ij} = LeakyReLU(a_srcᵀ W h_i + a_dstᵀ W h_j)`,
//! `α_{ij} = softmax_j(e_{ij})`, `h'_i = Σ_j α_{ij} W h_j`.

use crate::workspace::{ensure_len, GatLayerBufs};
use crate::{GnnModel, GraphContext, TrainWorkspace};
use ppfr_linalg::{leaky_relu, leaky_relu_grad, par_fill, relu_grad_into, relu_into, Matrix};
use rand::Rng;

const LEAKY_SLOPE: f64 = 0.2;

/// One single-head attention layer.
#[derive(Debug, Clone)]
struct GatLayer {
    w: Matrix,
    a_src: Vec<f64>,
    a_dst: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
}

impl GatLayer {
    fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let a = Matrix::glorot(2, out_dim, rng);
        Self {
            w: Matrix::glorot(in_dim, out_dim, rng),
            a_src: a.row(0).to_vec(),
            a_dst: a.row(1).to_vec(),
            in_dim,
            out_dim,
        }
    }

    fn n_params(&self) -> usize {
        self.in_dim * self.out_dim + 2 * self.out_dim
    }

    /// Attention forward pass of the layer on the projected input
    /// `b.h = x W`, which the caller computes: every other intermediate lands
    /// in `b`, fully overwritten.
    fn forward_ws(&self, ctx: &GraphContext, b: &mut GatLayerBufs) {
        let n = ctx.n_nodes();
        // s_i = h_i · a_src, t_j = h_j · a_dst: independent per node.
        ensure_len(&mut b.s, n);
        ensure_len(&mut b.t, n);
        par_fill(&mut b.s, |i| dot(b.h.row(i), &self.a_src));
        par_fill(&mut b.t, |j| dot(b.h.row(j), &self.a_dst));
        let m = ctx.att_edges.len();
        ensure_len(&mut b.pre, m);
        for (e, &(dst, src)) in ctx.att_edges.iter().enumerate() {
            b.pre[e] = b.s[dst] + b.t[src];
        }
        // Softmax of LeakyReLU(pre) within each destination group.
        ensure_len(&mut b.alpha, m);
        for v in 0..n {
            let range = ctx.att_ptr[v]..ctx.att_ptr[v + 1];
            let max = b.pre[range.clone()]
                .iter()
                .map(|&p| leaky_relu(p, LEAKY_SLOPE))
                // lint: allow(par-float-reduction) — serial per-destination
                // post-pass after the par_fill projections; forward_ws is
                // pinned by gnn/tests/workspace_equivalence.rs
                .fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for e in range.clone() {
                let a = (leaky_relu(b.pre[e], LEAKY_SLOPE) - max).exp();
                b.alpha[e] = a;
                sum += a;
            }
            for e in range {
                b.alpha[e] /= sum;
            }
        }
        // out_i = Σ_j α_ij h_j
        b.out.resize_to(n, self.out_dim);
        b.out.as_mut_slice().fill(0.0);
        for (e, &(dst, src)) in ctx.att_edges.iter().enumerate() {
            let a = b.alpha[e];
            for (o, &hv) in b.out.row_mut(dst).iter_mut().zip(b.h.row(src).iter()) {
                *o += a * hv;
            }
        }
    }

    /// Attention backward pass of the layer, reusing the activations that
    /// [`GatLayer::forward_ws`] cached in `b`.  Leaves the gradients w.r.t.
    /// `h` and the attention vectors in `b.d_h` / `b.d_a_src` / `b.d_a_dst`;
    /// the caller turns `b.d_h` into the gradients w.r.t. `W` and the layer
    /// input.
    fn backward_ws(&self, ctx: &GraphContext, b: &mut GatLayerBufs, d_out: &Matrix) {
        let n = ctx.n_nodes();
        let m = ctx.att_edges.len();
        b.d_h.resize_to(n, self.out_dim);
        b.d_h.as_mut_slice().fill(0.0);
        ensure_len(&mut b.d_alpha, m);
        // dα_e = d_out[dst] · h[src]; accumulate dH[src] += α_e d_out[dst].
        for (e, &(dst, src)) in ctx.att_edges.iter().enumerate() {
            b.d_alpha[e] = dot(d_out.row(dst), b.h.row(src));
            let a = b.alpha[e];
            for (t_v, &d_v) in b.d_h.row_mut(src).iter_mut().zip(d_out.row(dst).iter()) {
                *t_v += a * d_v;
            }
        }
        // Softmax backward within each destination group, then LeakyReLU.
        ensure_len(&mut b.d_s, n);
        ensure_len(&mut b.d_t, n);
        b.d_s.fill(0.0);
        b.d_t.fill(0.0);
        for v in 0..n {
            let range = ctx.att_ptr[v]..ctx.att_ptr[v + 1];
            let inner: f64 = range.clone().map(|e| b.alpha[e] * b.d_alpha[e]).sum();
            for e in range {
                let d_e = b.alpha[e] * (b.d_alpha[e] - inner);
                let d_pre = d_e * leaky_relu_grad(b.pre[e], LEAKY_SLOPE);
                let (dst, src) = ctx.att_edges[e];
                b.d_s[dst] += d_pre;
                b.d_t[src] += d_pre;
            }
        }
        // s_i = h_i · a_src, t_j = h_j · a_dst.
        ensure_len(&mut b.d_a_src, self.out_dim);
        ensure_len(&mut b.d_a_dst, self.out_dim);
        b.d_a_src.fill(0.0);
        b.d_a_dst.fill(0.0);
        for i in 0..n {
            let h_row = b.h.row(i);
            let (ds_i, dt_i) = (b.d_s[i], b.d_t[i]);
            for ((da_s, da_t), &hv) in b
                .d_a_src
                .iter_mut()
                .zip(b.d_a_dst.iter_mut())
                .zip(h_row.iter())
            {
                *da_s += ds_i * hv;
                *da_t += dt_i * hv;
            }
            for (c, r) in b.d_h.row_mut(i).iter_mut().enumerate() {
                *r += ds_i * self.a_src[c] + dt_i * self.a_dst[c];
            }
        }
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Two-layer single-head GAT: attention layer → ReLU → attention layer.
#[derive(Debug, Clone)]
pub struct Gat {
    layer1: GatLayer,
    layer2: GatLayer,
    n_classes: usize,
}

impl Gat {
    /// Glorot-initialised GAT with hidden width `hidden`.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        hidden: usize,
        n_classes: usize,
        rng: &mut R,
    ) -> Self {
        Self {
            layer1: GatLayer::new(in_dim, hidden, rng),
            layer2: GatLayer::new(hidden, n_classes, rng),
            n_classes,
        }
    }
}

impl GnnModel for Gat {
    fn forward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace) {
        let g = &mut ws.gat;
        ctx.features_matmul_into(&self.layer1.w, &mut g.l1.h);
        self.layer1.forward_ws(ctx, &mut g.l1);
        relu_into(&g.l1.out, &mut g.h1);
        g.h1.matmul_into(&self.layer2.w, &mut g.l2.h);
        self.layer2.forward_ws(ctx, &mut g.l2);
        ws.logits.copy_from(&g.l2.out);
    }

    fn backward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace) {
        // Reuses both layer caches (h/pre/alpha/out) from forward_ws.  The
        // first layer's input gradient is never consumed.
        let g = &mut ws.gat;
        self.layer2.backward_ws(ctx, &mut g.l2, &ws.d_logits);
        g.h1.matmul_at_b_into(&g.l2.d_h, &mut g.l2.d_w);
        g.l2.d_h.matmul_a_bt_into(&self.layer2.w, &mut g.l2.d_x);
        relu_grad_into(&g.l1.out, &g.l2.d_x, &mut g.d_pre1);
        self.layer1.backward_ws(ctx, &mut g.l1, &g.d_pre1);
        ctx.features_t_matmul_into(&g.l1.d_h, &mut g.l1.d_w);

        // Flatten in parameter order: W₁, a₁ˢʳᶜ, a₁ᵈˢᵗ, W₂, a₂ˢʳᶜ, a₂ᵈˢᵗ.
        ensure_len(&mut ws.grads, self.n_params());
        let mut cursor = 0usize;
        for (d_w, d_a_src, d_a_dst) in [
            (&g.l1.d_w, &g.l1.d_a_src, &g.l1.d_a_dst),
            (&g.l2.d_w, &g.l2.d_a_src, &g.l2.d_a_dst),
        ] {
            let w_len = d_w.as_slice().len();
            ws.grads[cursor..cursor + w_len].copy_from_slice(d_w.as_slice());
            cursor += w_len;
            ws.grads[cursor..cursor + d_a_src.len()].copy_from_slice(d_a_src);
            cursor += d_a_src.len();
            ws.grads[cursor..cursor + d_a_dst.len()].copy_from_slice(d_a_dst);
            cursor += d_a_dst.len();
        }
        debug_assert_eq!(cursor, ws.grads.len());
    }

    fn params(&self) -> Vec<f64> {
        let mut p = self.layer1.w.as_slice().to_vec();
        p.extend_from_slice(&self.layer1.a_src);
        p.extend_from_slice(&self.layer1.a_dst);
        p.extend_from_slice(self.layer2.w.as_slice());
        p.extend_from_slice(&self.layer2.a_src);
        p.extend_from_slice(&self.layer2.a_dst);
        p
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.n_params(), "parameter length mismatch");
        let mut cursor = 0usize;
        for layer in [&mut self.layer1, &mut self.layer2] {
            let w_len = layer.in_dim * layer.out_dim;
            layer
                .w
                .as_mut_slice()
                .copy_from_slice(&params[cursor..cursor + w_len]);
            cursor += w_len;
            layer
                .a_src
                .copy_from_slice(&params[cursor..cursor + layer.out_dim]);
            cursor += layer.out_dim;
            layer
                .a_dst
                .copy_from_slice(&params[cursor..cursor + layer.out_dim]);
            cursor += layer.out_dim;
        }
        debug_assert_eq!(cursor, params.len());
    }

    fn n_params(&self) -> usize {
        self.layer1.n_params() + self.layer2.n_params()
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
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (2, 5)]);
        let mut rng = StdRng::seed_from_u64(13);
        let x = Matrix::gaussian(6, 4, 0.0, 1.0, &mut rng);
        GraphContext::new(g, x)
    }

    #[test]
    fn forward_shape_and_finiteness() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let gat = Gat::new(4, 5, 3, &mut rng);
        let z = gat.forward(&ctx);
        assert_eq!(z.shape(), (6, 3));
        assert!(!z.has_non_finite());
    }

    #[test]
    fn attention_weights_sum_to_one_per_node() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let gat = Gat::new(4, 5, 3, &mut rng);
        let mut ws = TrainWorkspace::new();
        gat.forward_ws(&ctx, &mut ws);
        for v in 0..ctx.n_nodes() {
            let sum: f64 = (ctx.att_ptr[v]..ctx.att_ptr[v + 1])
                .map(|e| ws.gat.l1.alpha[e])
                .sum();
            assert!(
                (sum - 1.0).abs() < 1e-12,
                "attention of node {v} sums to {sum}"
            );
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let gat = Gat::new(4, 3, 2, &mut rng);
        let coeff = Matrix::gaussian(6, 2, 0.0, 1.0, &mut rng);
        let analytic = workspace_grad(&gat, &ctx, &coeff);
        let f = |p: &[f64]| {
            let mut m = gat.clone();
            m.set_params(p);
            m.forward(&ctx).zip_with(&coeff, |a, b| a * b).sum()
        };
        let numeric = central_difference(f, &gat.params(), 1e-5);
        let err = max_relative_error(&analytic, &numeric, 1e-5);
        assert!(
            err < 1e-3,
            "GAT gradient check failed: max relative error {err}"
        );
    }

    #[test]
    fn param_roundtrip_preserves_forward() {
        let ctx = tiny_ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let gat = Gat::new(4, 5, 3, &mut rng);
        let mut clone = gat.clone();
        clone.set_params(&gat.params());
        assert_eq!(gat.forward(&ctx).as_slice(), clone.forward(&ctx).as_slice());
    }
}
