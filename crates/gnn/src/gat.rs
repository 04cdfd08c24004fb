//! Two-layer single-head graph attention network (Veličković et al. 2018).
//!
//! Attention over the closed neighbourhood (self loop included):
//! `e_{ij} = LeakyReLU(a_srcᵀ W h_i + a_dstᵀ W h_j)`,
//! `α_{ij} = softmax_j(e_{ij})`, `h'_i = Σ_j α_{ij} W h_j`.
//!
//! Both layer passes walk each node's attention group straight off the
//! graph's CSR rows: the node itself, then its neighbours in ascending
//! order.  No edge list is built; the per-edge caches (`pre`, `alpha`,
//! `d_alpha`) hold the groups in node order.

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
        let (n, graph) = (ctx.n_nodes(), &ctx.graph);
        // s_i = h_i · a_src, t_j = h_j · a_dst: independent per node.
        ensure_len(&mut b.s, n);
        ensure_len(&mut b.t, n);
        par_fill(&mut b.s, |i| dot(b.h.row(i), &self.a_src));
        par_fill(&mut b.t, |j| dot(b.h.row(j), &self.a_dst));
        ensure_len(&mut b.pre, n + 2 * graph.n_edges());
        ensure_len(&mut b.alpha, b.pre.len());
        b.out.resize_to(n, self.out_dim);
        b.out.as_mut_slice().fill(0.0);
        let mut start = 0;
        for v in 0..n {
            let neighbors = graph.neighbors(v);
            let end = start + 1 + neighbors.len();
            let (pre, alpha) = (&mut b.pre[start..end], &mut b.alpha[start..end]);
            // The group's pre-activations, and the largest LeakyReLU of them.
            pre[0] = b.s[v] + b.t[v];
            let mut max = f64::NEG_INFINITY.max(leaky_relu(pre[0], LEAKY_SLOPE));
            for (p, &u) in pre[1..].iter_mut().zip(neighbors) {
                *p = b.s[v] + b.t[u];
                max = max.max(leaky_relu(*p, LEAKY_SLOPE));
            }
            // Softmax of LeakyReLU(pre) within the group, normalised while
            // out_v = Σ_j α_vj h_j accumulates.
            let mut sum = 0.0;
            for (a, &p) in alpha.iter_mut().zip(pre.iter()) {
                *a = (leaky_relu(p, LEAKY_SLOPE) - max).exp();
                // lint: allow(par-float-reduction) — serial per-destination
                // post-pass after the par_fill projections; forward_ws is
                // pinned by gnn/tests/workspace_equivalence.rs
                sum += *a;
            }
            let out = b.out.row_mut(v);
            alpha[0] /= sum;
            axpy(out, alpha[0], b.h.row(v));
            for (a, &u) in alpha[1..].iter_mut().zip(neighbors) {
                *a /= sum;
                axpy(out, *a, b.h.row(u));
            }
            start = end;
        }
    }

    /// Attention backward pass of the layer, reusing the activations that
    /// [`GatLayer::forward_ws`] cached in `b`, group by group in the same
    /// order.  Leaves the gradients w.r.t. `h` and the attention vectors in
    /// `b.d_h` / `b.d_a_src` / `b.d_a_dst`; the caller turns `b.d_h` into
    /// the gradients w.r.t. `W` and the layer input.
    fn backward_ws(&self, ctx: &GraphContext, b: &mut GatLayerBufs, d_out: &Matrix) {
        let (n, graph) = (ctx.n_nodes(), &ctx.graph);
        b.d_h.resize_to(n, self.out_dim);
        b.d_h.as_mut_slice().fill(0.0);
        ensure_len(&mut b.d_alpha, b.alpha.len());
        ensure_len(&mut b.d_s, n);
        ensure_len(&mut b.d_t, n);
        b.d_t.fill(0.0);
        let mut start = 0;
        for v in 0..n {
            let neighbors = graph.neighbors(v);
            let end = start + 1 + neighbors.len();
            let (pre, alpha) = (&b.pre[start..end], &b.alpha[start..end]);
            let d_alpha = &mut b.d_alpha[start..end];
            // dα_e = d_out[v] · h[src]; accumulate dH[src] += α_e d_out[v].
            let d_out_v = d_out.row(v);
            d_alpha[0] = dot(d_out_v, b.h.row(v));
            axpy(b.d_h.row_mut(v), alpha[0], d_out_v);
            for ((d_a, &a), &u) in d_alpha[1..].iter_mut().zip(&alpha[1..]).zip(neighbors) {
                *d_a = dot(d_out_v, b.h.row(u));
                axpy(b.d_h.row_mut(u), a, d_out_v);
            }
            // Softmax backward within the group, then LeakyReLU; only this
            // group reaches d_s[v].
            let inner: f64 = alpha.iter().zip(d_alpha.iter()).map(|(a, d)| a * d).sum();
            let d_pre =
                |a: f64, d_a: f64, p: f64| a * (d_a - inner) * leaky_relu_grad(p, LEAKY_SLOPE);
            let d_self = d_pre(alpha[0], d_alpha[0], pre[0]);
            let mut d_s = 0.0;
            d_s += d_self;
            b.d_t[v] += d_self;
            let rest = alpha[1..].iter().zip(&d_alpha[1..]).zip(&pre[1..]);
            for (((&a, &d_a), &p), &u) in rest.zip(neighbors) {
                let d = d_pre(a, d_a, p);
                d_s += d;
                b.d_t[u] += d;
            }
            b.d_s[v] = d_s;
            start = end;
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

/// `y += a · x`, entry by entry.
#[inline]
fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
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
    use crate::{AnyModel, ModelKind};
    use ppfr_datasets::{cora, generate, DatasetSpec};
    use ppfr_graph::Graph;
    use ppfr_linalg::parallel::with_forced_threads;
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
        let mut start = 0;
        for v in 0..ctx.n_nodes() {
            let end = start + 1 + ctx.graph.degree(v);
            let sum: f64 = ws.gat.l1.alpha[start..end].iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-12,
                "attention of node {v} sums to {sum}"
            );
            start = end;
        }
        assert_eq!(start, ws.gat.l1.alpha.len(), "one group per node");
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

    /// One layer's forward pass as it ran over an explicit attention edge
    /// list: `(dst, src)` pairs grouped by destination, the node itself and
    /// then its neighbours in ascending order, `ptr[v]..ptr[v + 1]` the
    /// group of `v`.
    fn edge_list_forward(
        l: &GatLayer,
        edges: &[(usize, usize)],
        ptr: &[usize],
        b: &mut GatLayerBufs,
    ) {
        let n = ptr.len() - 1;
        let s: Vec<f64> = (0..n).map(|i| dot(b.h.row(i), &l.a_src)).collect();
        let t: Vec<f64> = (0..n).map(|j| dot(b.h.row(j), &l.a_dst)).collect();
        b.pre = edges.iter().map(|&(dst, src)| s[dst] + t[src]).collect();
        b.alpha = b.pre.iter().map(|&p| leaky_relu(p, LEAKY_SLOPE)).collect();
        for v in 0..n {
            let group = &mut b.alpha[ptr[v]..ptr[v + 1]];
            let max = group.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for a in group.iter_mut() {
                *a = (*a - max).exp();
                sum += *a;
            }
            group.iter_mut().for_each(|a| *a /= sum);
        }
        b.out = Matrix::zeros(n, l.out_dim);
        for (&(dst, src), &a) in edges.iter().zip(&b.alpha) {
            for (o, &x) in b.out.row_mut(dst).iter_mut().zip(b.h.row(src)) {
                *o += a * x;
            }
        }
    }

    /// The backward pass matching [`edge_list_forward`].
    fn edge_list_backward(
        l: &GatLayer,
        edges: &[(usize, usize)],
        ptr: &[usize],
        b: &mut GatLayerBufs,
        d_out: &Matrix,
    ) {
        let n = ptr.len() - 1;
        b.d_h = Matrix::zeros(n, l.out_dim);
        b.d_alpha = vec![0.0; edges.len()];
        for (e, &(dst, src)) in edges.iter().enumerate() {
            b.d_alpha[e] = dot(d_out.row(dst), b.h.row(src));
            for (g, &d) in b.d_h.row_mut(src).iter_mut().zip(d_out.row(dst)) {
                *g += b.alpha[e] * d;
            }
        }
        let (mut d_s, mut d_t) = (vec![0.0; n], vec![0.0; n]);
        for v in 0..n {
            let inner: f64 = (ptr[v]..ptr[v + 1])
                .map(|e| b.alpha[e] * b.d_alpha[e])
                .sum();
            for e in ptr[v]..ptr[v + 1] {
                let d_e = b.alpha[e] * (b.d_alpha[e] - inner);
                let d_pre = d_e * leaky_relu_grad(b.pre[e], LEAKY_SLOPE);
                d_s[edges[e].0] += d_pre;
                d_t[edges[e].1] += d_pre;
            }
        }
        (b.d_a_src, b.d_a_dst) = (vec![0.0; l.out_dim], vec![0.0; l.out_dim]);
        for i in 0..n {
            for (c, &hv) in b.h.row(i).iter().enumerate() {
                b.d_a_src[c] += d_s[i] * hv;
                b.d_a_dst[c] += d_t[i] * hv;
            }
            for (c, r) in b.d_h.row_mut(i).iter_mut().enumerate() {
                *r += d_s[i] * l.a_src[c] + d_t[i] * l.a_dst[c];
            }
        }
    }

    /// The logits and the flat gradient of `sum(d_logits ⊙ logits)` from
    /// both layers' passes over the explicit edge list of `ctx.graph`.
    fn edge_list_passes(gat: &Gat, ctx: &GraphContext, d_logits: &Matrix) -> (Matrix, Vec<f64>) {
        let (mut edges, mut ptr) = (Vec::new(), vec![0]);
        for v in 0..ctx.n_nodes() {
            edges.push((v, v));
            edges.extend(ctx.graph.neighbors(v).iter().map(|&u| (v, u)));
            ptr.push(edges.len());
        }
        let (l1, l2) = (&gat.layer1, &gat.layer2);
        let (mut b1, mut b2, mut h1): (GatLayerBufs, GatLayerBufs, Matrix) = Default::default();
        ctx.features_matmul_into(&l1.w, &mut b1.h);
        edge_list_forward(l1, &edges, &ptr, &mut b1);
        relu_into(&b1.out, &mut h1);
        b2.h = h1.matmul(&l2.w);
        edge_list_forward(l2, &edges, &ptr, &mut b2);
        edge_list_backward(l2, &edges, &ptr, &mut b2, d_logits);
        let (mut d_pre1, mut d_w1) = Default::default();
        relu_grad_into(&b1.out, &b2.d_h.matmul_a_bt(&l2.w), &mut d_pre1);
        edge_list_backward(l1, &edges, &ptr, &mut b1, &d_pre1);
        ctx.features_t_matmul_into(&b1.d_h, &mut d_w1);
        let d_w2 = h1.matmul_at_b(&b2.d_h);
        let grads = [
            d_w1.as_slice(),
            &b1.d_a_src,
            &b1.d_a_dst,
            d_w2.as_slice(),
            &b2.d_a_src,
            &b2.d_a_dst,
        ]
        .concat();
        (b2.out, grads)
    }

    #[test]
    fn attention_passes_equal_the_edge_list_oracle() {
        // A hub of degree 5, a triangle, a pendant path and isolated nodes
        // 7 and 9; the Cora smoke analogue (`scaled_spec(cora(), Smoke)`);
        // and a neighbour sample of it.
        let mut rng = StdRng::seed_from_u64(41);
        let hub_edges: Vec<_> = (1..6)
            .map(|u| (0, u))
            .chain([(5, 6), (1, 2), (6, 8)])
            .collect();
        let hub = Graph::from_edges(10, &hub_edges);
        let spec = DatasetSpec {
            n_nodes: 350,
            n_val: 75,
            n_test: 125,
            ..cora()
        };
        let ds = generate(&spec, 7);
        let cases = [
            GraphContext::new(hub, Matrix::gaussian(10, 6, 0.0, 1.0, &mut rng)),
            GraphContext::new(ds.graph.clone(), ds.features.clone()),
            GraphContext::new(crate::sample_subgraph(&ds.graph, 3, 5), ds.features),
        ];
        // One workspace across graphs, thread counts and, in between, the
        // other architectures on the next graph's shape.
        let mut ws = TrainWorkspace::new();
        for (case, ctx) in cases.iter().enumerate() {
            let other_ctx = &cases[(case + 1) % cases.len()];
            let gat = Gat::new(ctx.feat_dim(), 8, 3, &mut rng);
            let d_logits = Matrix::gaussian(ctx.n_nodes(), 3, 0.0, 1.0, &mut rng);
            let (logits, grads) = edge_list_passes(&gat, ctx, &d_logits);
            for (threads, other) in [
                (1, ModelKind::Gcn),
                (2, ModelKind::GraphSage),
                (4, ModelKind::Gcn),
            ] {
                let other = AnyModel::new(other, other_ctx.feat_dim(), 5, 2, 9);
                other.forward_ws(other_ctx, &mut ws);
                ws.d_logits.copy_from(&ws.logits);
                other.backward_ws(other_ctx, &mut ws);
                with_forced_threads(threads, || {
                    gat.forward_ws(ctx, &mut ws);
                    ws.d_logits.copy_from(&d_logits);
                    gat.backward_ws(ctx, &mut ws);
                });
                assert_eq!(
                    ws.logits.as_slice(),
                    logits.as_slice(),
                    "case {case}, {threads} threads"
                );
                assert_eq!(ws.grads, grads, "case {case}, {threads} threads");
            }
        }
    }
}
