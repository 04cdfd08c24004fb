//! The object-safe [`GnnModel`] trait and the [`AnyModel`] dispatcher.
//!
//! Each model implements exactly one forward and one backward pass, the
//! workspace pair [`GnnModel::forward_ws`] / [`GnnModel::backward_ws`];
//! everything else — training, evaluation, perturbation, the influence
//! gradients and Hessian-vector products — runs through it.

use crate::{Gat, Gcn, GraphContext, GraphSage, TrainWorkspace};
use ppfr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A graph neural network with hand-derived gradients.
///
/// The contract is deliberately small so that the training loop, the
/// influence-function machinery and the PPFR pipeline can stay model
/// agnostic (the paper's method is "plug-and-play" across GCN/GAT/SAGE):
///
/// * [`forward_ws`](GnnModel::forward_ws) maps a [`GraphContext`] to logits
///   through a reusable [`TrainWorkspace`], caching every activation;
/// * [`backward_ws`](GnnModel::backward_ws) maps an upstream gradient w.r.t.
///   the logits to a flat gradient w.r.t. the parameters, reusing those
///   cached activations;
/// * [`forward`](GnnModel::forward) is the one-shot convenience for
///   evaluation: `forward_ws` on a fresh workspace;
/// * parameters are exposed as a flat `Vec<f64>` so optimisers, Hessian-vector
///   products and conjugate-gradient solvers can treat every model uniformly.
pub trait GnnModel {
    /// Forward pass through a reusable [`TrainWorkspace`]: the logits land in
    /// `ws.logits` (one row per node) and every intermediate activation is
    /// cached in the workspace for the matching
    /// [`backward_ws`](GnnModel::backward_ws).
    fn forward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace);

    /// Backward pass through the workspace: reads the upstream logit gradient
    /// from `ws.d_logits` and leaves the gradient of
    /// `sum(d_logits ⊙ logits(θ))` w.r.t. the flat parameters in `ws.grads`.
    ///
    /// Contract: must be preceded by [`forward_ws`](GnnModel::forward_ws)
    /// with the same parameters, context and stochastic structure — the
    /// backward pass reuses the cached forward activations instead of
    /// recomputing them.  It reads `d_logits` and the forward caches, leaves
    /// `logits`, `probs` and every forward cache untouched, and fully
    /// overwrites its own gradient buffers and `ws.grads`, so one forward
    /// can serve many backwards: the influence tail runs a single forward,
    /// then one backward per training node with a different `d_logits` each
    /// time.
    fn backward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace);

    /// Logits of every node, computed by
    /// [`forward_ws`](GnnModel::forward_ws) on a fresh workspace.
    fn forward(&self, ctx: &GraphContext) -> Matrix {
        let mut ws = TrainWorkspace::new();
        self.forward_ws(ctx, &mut ws);
        ws.logits
    }

    /// Flattened copy of all parameters.
    fn params(&self) -> Vec<f64>;

    /// Overwrites all parameters from a flat slice.
    fn set_params(&mut self, params: &[f64]);

    /// Number of parameters.
    fn n_params(&self) -> usize;

    /// Number of output classes.
    fn n_classes(&self) -> usize;

    /// Re-draws any stochastic structure (e.g. GraphSAGE neighbour sampling).
    /// Deterministic models ignore this.
    fn resample(&mut self, _ctx: &GraphContext, _seed: u64) {}
}

/// Which architecture to instantiate — used by experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelKind {
    /// Graph convolutional network (Kipf & Welling 2017).
    Gcn,
    /// Graph attention network, single head (Veličković et al. 2018).
    Gat,
    /// GraphSAGE with mean aggregation (Hamilton et al. 2017).
    GraphSage,
}

impl ModelKind {
    /// All three architectures, in the order the paper's tables list them.
    pub const ALL: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Gat, ModelKind::GraphSage];

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "GCN",
            ModelKind::Gat => "GAT",
            ModelKind::GraphSage => "GraphSage",
        }
    }
}

/// Enum dispatcher over the three concrete models, so pipelines can hold a
/// single value regardless of architecture.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// GCN variant.
    Gcn(Gcn),
    /// GAT variant.
    Gat(Gat),
    /// GraphSAGE variant.
    GraphSage(GraphSage),
}

impl AnyModel {
    /// Builds a freshly initialised model of the requested kind.
    ///
    /// `hidden` is the hidden-layer width (the paper uses 16).
    pub fn new(kind: ModelKind, in_dim: usize, hidden: usize, n_classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            ModelKind::Gcn => AnyModel::Gcn(Gcn::new(in_dim, hidden, n_classes, &mut rng)),
            ModelKind::Gat => AnyModel::Gat(Gat::new(in_dim, hidden, n_classes, &mut rng)),
            ModelKind::GraphSage => {
                AnyModel::GraphSage(GraphSage::new(in_dim, hidden, n_classes, &mut rng))
            }
        }
    }

    /// The architecture of this model.
    pub fn kind(&self) -> ModelKind {
        match self {
            AnyModel::Gcn(_) => ModelKind::Gcn,
            AnyModel::Gat(_) => ModelKind::Gat,
            AnyModel::GraphSage(_) => ModelKind::GraphSage,
        }
    }

    fn inner(&self) -> &dyn GnnModel {
        match self {
            AnyModel::Gcn(m) => m,
            AnyModel::Gat(m) => m,
            AnyModel::GraphSage(m) => m,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn GnnModel {
        match self {
            AnyModel::Gcn(m) => m,
            AnyModel::Gat(m) => m,
            AnyModel::GraphSage(m) => m,
        }
    }
}

impl GnnModel for AnyModel {
    fn forward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace) {
        self.inner().forward_ws(ctx, ws);
    }

    fn backward_ws(&self, ctx: &GraphContext, ws: &mut TrainWorkspace) {
        self.inner().backward_ws(ctx, ws);
    }

    fn params(&self) -> Vec<f64> {
        self.inner().params()
    }

    fn set_params(&mut self, params: &[f64]) {
        self.inner_mut().set_params(params);
    }

    fn n_params(&self) -> usize {
        self.inner().n_params()
    }

    fn n_classes(&self) -> usize {
        self.inner().n_classes()
    }

    fn resample(&mut self, ctx: &GraphContext, seed: u64) {
        self.inner_mut().resample(ctx, seed);
    }
}

/// Flat gradient of `sum(d_logits ⊙ logits)` through a fresh workspace: the
/// analytic side of the per-model finite-difference checks.
#[cfg(test)]
pub(crate) fn workspace_grad(
    model: &dyn GnnModel,
    ctx: &GraphContext,
    d_logits: &Matrix,
) -> Vec<f64> {
    let mut ws = TrainWorkspace::new();
    model.forward_ws(ctx, &mut ws);
    ws.d_logits = d_logits.clone();
    model.backward_ws(ctx, &mut ws);
    ws.grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_graph::Graph;

    fn tiny_ctx() -> GraphContext {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, 0.2],
            vec![1.0, 1.0, 0.0],
            vec![0.3, 0.0, 1.0],
            vec![0.0, 0.5, 0.5],
        ]);
        GraphContext::new(g, x)
    }

    #[test]
    fn any_model_roundtrips_parameters_for_every_kind() {
        let ctx = tiny_ctx();
        for kind in ModelKind::ALL {
            let mut model = AnyModel::new(kind, 3, 4, 2, 42);
            let p = model.params();
            assert_eq!(p.len(), model.n_params(), "{}", kind.name());
            let doubled: Vec<f64> = p.iter().map(|v| v * 2.0).collect();
            model.set_params(&doubled);
            assert_eq!(model.params(), doubled);
            let logits = model.forward(&ctx);
            assert_eq!(logits.shape(), (5, 2));
            assert!(!logits.has_non_finite());
        }
    }

    /// The first-layer product `X·W₁`, and the first-layer gradient `Xᵀ·G`
    /// with its input `G`, as each model leaves them in the workspace.
    fn first_layer(kind: ModelKind, ws: &TrainWorkspace) -> [&Matrix; 3] {
        match kind {
            ModelKind::Gcn => [&ws.gcn.xw1, &ws.gcn.d_xw1, &ws.gcn.d_w1],
            ModelKind::Gat => [&ws.gat.l1.h, &ws.gat.l1.d_h, &ws.gat.l1.d_w],
            ModelKind::GraphSage => [&ws.sage.t_self, &ws.sage.d_pre1, &ws.sage.d_w1_self],
        }
    }

    /// Equal bits, or NaN on both sides.
    fn assert_same_values(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{what}: entry {i} is {a}, the dense kernel gives {b}"
            );
        }
    }

    #[test]
    fn non_finite_operands_take_the_dense_exact_path() {
        // Feature 0 is zero on every node, so only the dense exact path
        // turns a NaN in W₁'s row 0, or in G, into NaN (`0 × NaN`).
        let (n, d, h, c) = (8, 5, 4, 3);
        let g = Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>());
        let mut x = Matrix::zeros(n, d);
        for i in 0..n {
            for k in 1..d {
                if (i + 2 * k) % 3 != 0 {
                    x[(i, k)] = if (i + k) % 2 == 0 { 1.0 } else { -0.5 };
                }
            }
        }
        let ctx = GraphContext::new(g, x.clone());
        for kind in ModelKind::ALL {
            let fresh = || {
                let mut model = AnyModel::new(kind, d, h, c, 3);
                if let AnyModel::GraphSage(sage) = &mut model {
                    sage.sample_size = Some(1);
                }
                model.resample(&ctx, 5);
                model
            };
            let name = kind.name();

            // W₁ leads every model's parameters, row-major d × h.
            let mut model = fresh();
            let mut p = model.params();
            p[0] = f64::NAN;
            model.set_params(&p);
            let mut ws = TrainWorkspace::new();
            model.forward_ws(&ctx, &mut ws);
            let want = x.matmul(&Matrix::from_vec(d, h, p[..d * h].to_vec()));
            assert!(want.col(0).iter().all(|v| v.is_nan()), "{name}");
            assert_same_values(first_layer(kind, &ws)[0], &want, &format!("{name} X·W₁"));

            let model = fresh();
            model.forward_ws(&ctx, &mut ws);
            ws.d_logits = Matrix::zeros(n, c);
            ws.d_logits.row_mut(2).fill(f64::NAN);
            model.backward_ws(&ctx, &mut ws);
            let [_, g, d_w1] = first_layer(kind, &ws);
            let want = x.matmul_at_b(g);
            assert!(want.row(0).iter().any(|v| v.is_nan()), "{name}");
            assert_same_values(d_w1, &want, &format!("{name} Xᵀ·G"));

            let AnyModel::GraphSage(sage) = &model else {
                continue;
            };
            // GraphSAGE's neighbour branch: column 0 of `M·X` is zero too.
            let mx = sage.aggregator(&ctx).matmul_dense(&x);
            let want = mx.matmul_at_b(&ws.sage.d_pre1);
            assert!(want.row(0).iter().any(|v| v.is_nan()));
            assert_same_values(&ws.sage.d_w1_neigh, &want, "(M·X)ᵀ·d_pre1");

            // W₁ⁿᵉⁱᵍʰ follows W₁ˢᵉˡᶠ in the parameters.
            let mut model = fresh();
            let mut p = model.params();
            p[d * h] = f64::NAN;
            model.set_params(&p);
            model.forward_ws(&ctx, &mut ws);
            let want = mx.matmul(&Matrix::from_vec(d, h, p[d * h..2 * d * h].to_vec()));
            assert!(want.col(0).iter().all(|v| v.is_nan()));
            assert_same_values(&ws.sage.t_neigh, &want, "(M·X)·W₁ⁿᵉⁱᵍʰ");
        }
    }

    #[test]
    fn model_kind_names_match_paper_tables() {
        assert_eq!(ModelKind::Gcn.name(), "GCN");
        assert_eq!(ModelKind::Gat.name(), "GAT");
        assert_eq!(ModelKind::GraphSage.name(), "GraphSage");
    }

    #[test]
    fn same_seed_gives_same_initialisation() {
        let a = AnyModel::new(ModelKind::Gcn, 3, 4, 2, 7);
        let b = AnyModel::new(ModelKind::Gcn, 3, 4, 2, 7);
        assert_eq!(a.params(), b.params());
        let c = AnyModel::new(ModelKind::Gcn, 3, 4, 2, 8);
        assert_ne!(a.params(), c.params());
    }
}
