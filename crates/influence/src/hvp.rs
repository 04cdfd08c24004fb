//! Hessian-vector products and the damped conjugate-gradient solver.
//!
//! There is one HVP implementation, [`hessian_vector_product_with`], which
//! runs its two finite-difference gradients through a persistent
//! [`HvpScratch`]; a one-off product is a call on a fresh scratch.

use crate::training_loss_grad_ws;
use ppfr_gnn::{AnyModel, GnnModel, GraphContext, TrainWorkspace};
use ppfr_linalg::par_join;

/// One finite-difference side of a Hessian-vector product: a model clone, a
/// shifted parameter buffer and the training workspace the gradient
/// evaluation runs through.
#[derive(Debug, Clone)]
struct SideScratch {
    model: AnyModel,
    shifted: Vec<f64>,
    ws: TrainWorkspace,
}

/// Persistent scratch state for repeated Hessian-vector products at a fixed
/// base point `θ*`: two model/workspace pairs (one per finite-difference
/// side) reused across every conjugate-gradient iteration, so a product
/// clones no model and allocates no gradient buffer.
///
/// The base parameters are captured at construction; rebuild the scratch if
/// the model's parameters change.
#[derive(Debug, Clone)]
pub struct HvpScratch {
    theta: Vec<f64>,
    plus: SideScratch,
    minus: SideScratch,
}

impl HvpScratch {
    /// Captures the model's current parameters as the HVP base point and
    /// clones the model once per finite-difference side.
    pub fn new(model: &AnyModel) -> Self {
        let theta = model.params();
        let side = || SideScratch {
            model: model.clone(),
            shifted: theta.clone(),
            ws: TrainWorkspace::new(),
        };
        Self {
            plus: side(),
            minus: side(),
            theta,
        }
    }

    /// Re-captures the base point from `model`, keeping the training
    /// workspaces warm.  Call this instead of [`HvpScratch::new`] when
    /// reusing a scratch after the model changed — e.g. interleaving
    /// fine-tuning steps with influence estimation.  The side models are
    /// re-cloned wholesale so *all* model state follows, not just the
    /// parameters (a sampling-enabled GraphSAGE carries its current sampled
    /// aggregation operator, which `set_params` alone would leave stale).
    pub fn reset(&mut self, model: &AnyModel) {
        self.theta.clear();
        self.theta.extend(model.params());
        for side in [&mut self.plus, &mut self.minus] {
            side.model = model.clone();
            side.shifted.resize(self.theta.len(), 0.0);
        }
    }
}

/// Hessian-vector product `(H + damping·I) v` where `H` is the Hessian of the
/// *mean* training loss at the scratch's base point.
///
/// Computed with central finite differences of the analytic gradient:
/// `H v ≈ (∇L(θ + εv) − ∇L(θ − εv)) / 2ε` with `ε` scaled by `1/‖v‖` so the
/// perturbation stays small regardless of the direction's magnitude.  The
/// two gradient evaluations run concurrently, each through its side of the
/// persistent [`HvpScratch`], so a conjugate-gradient solve allocates only
/// its result vectors.
///
/// Each call records one `influence_hvp` span, so that span's count under
/// `influence_cg` is the number of CG iterations run.
pub fn hessian_vector_product_with(
    scratch: &mut HvpScratch,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    v: &[f64],
    fd_step: f64,
    damping: f64,
) -> Vec<f64> {
    let _span = ppfr_telemetry::span!("influence_hvp");
    let n_train = train_ids.len().max(1) as f64;
    // lint: allow(par-float-reduction) — the `.sum` norm runs serially before
    // par_join; the two gradient sides are independent, pinned bit-identical
    // by this crate's forced-thread tests
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm <= f64::EPSILON {
        return vec![0.0; v.len()];
    }
    let eps = fd_step / norm;
    let HvpScratch { theta, plus, minus } = scratch;

    let grad_side = |side: &mut SideScratch, direction: f64| {
        side.shifted.copy_from_slice(theta);
        for (p, &vi) in side.shifted.iter_mut().zip(v) {
            *p += direction * eps * vi;
        }
        side.model.set_params(&side.shifted);
        training_loss_grad_ws(&side.model, ctx, labels, train_ids, &mut side.ws);
    };
    par_join(|| grad_side(plus, 1.0), || grad_side(minus, -1.0));

    plus.ws
        .grads
        .iter()
        .zip(minus.ws.grads.iter())
        .zip(v.iter())
        .map(|((&gp, &gm), &vi)| (gp - gm) / (2.0 * eps * n_train) + damping * vi)
        .collect()
}

/// Solves `A x = b` with conjugate gradient, where `A` is given implicitly by
/// the closure `apply` (assumed symmetric positive definite — guaranteed here
/// by the damping term).  Returns the approximate solution.
pub fn conjugate_gradient(
    mut apply: impl FnMut(&[f64]) -> Vec<f64>,
    b: &[f64],
    max_iters: usize,
    tol: f64,
) -> Vec<f64> {
    let _span = ppfr_telemetry::span!("influence_cg");
    let n = b.len();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rs_old: f64 = r.iter().map(|v| v * v).sum();
    if rs_old.sqrt() < tol {
        return x;
    }
    for _ in 0..max_iters {
        // Cooperative deadline: an exhausted ambient budget truncates the
        // solve at the current (finite, partially converged) iterate.
        if !ppfr_resilience::checkpoint(1) {
            break;
        }
        let ap = apply(&p);
        let p_ap: f64 = p.iter().zip(&ap).map(|(&a, &b)| a * b).sum();
        if p_ap.abs() <= f64::EPSILON {
            break;
        }
        let alpha = rs_old / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        if rs_new.sqrt() < tol {
            break;
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::{generate, two_block_synthetic};
    use ppfr_gnn::ModelKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn conjugate_gradient_solves_a_small_spd_system() {
        // A = [[4,1],[1,3]], b = [1,2]  →  x = [1/11, 7/11].
        let a = [[4.0, 1.0], [1.0, 3.0]];
        let apply = |v: &[f64]| {
            vec![
                a[0][0] * v[0] + a[0][1] * v[1],
                a[1][0] * v[0] + a[1][1] * v[1],
            ]
        };
        let x = conjugate_gradient(apply, &[1.0, 2.0], 50, 1e-12);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-9);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-9);
    }

    /// One HVP through a fresh scratch: the reference the reuse tests compare
    /// a warm scratch against.
    fn fresh_hvp(
        model: &AnyModel,
        ctx: &GraphContext,
        labels: &[usize],
        train_ids: &[usize],
        v: &[f64],
        damping: f64,
    ) -> Vec<f64> {
        let mut scratch = HvpScratch::new(model);
        hessian_vector_product_with(&mut scratch, ctx, labels, train_ids, v, 1e-4, damping)
    }

    #[test]
    fn hvp_is_linear_and_symmetric() {
        let ds = generate(&two_block_synthetic(), 11);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 4, ds.n_classes, 2);
        let labels = &ds.labels;
        let train = &ds.splits.train;
        let mut rng = StdRng::seed_from_u64(9);
        let dim = model.n_params();
        let u: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut scratch = HvpScratch::new(&model);
        let mut hvp = |x: &[f64]| {
            hessian_vector_product_with(&mut scratch, &ctx, labels, train, x, 1e-4, 0.0)
        };
        // Symmetry of the Hessian: uᵀ(Hv) == vᵀ(Hu) (up to FD noise).
        let hu = hvp(&u);
        let hv = hvp(&v);
        let left: f64 = u.iter().zip(&hv).map(|(&a, &b)| a * b).sum();
        let right: f64 = v.iter().zip(&hu).map(|(&a, &b)| a * b).sum();
        assert!(
            (left - right).abs() < 1e-3 * left.abs().max(right.abs()).max(1e-3),
            "Hessian symmetry violated: {left} vs {right}"
        );
        // Approximate homogeneity: H(2u) ≈ 2 H(u).
        let two_u: Vec<f64> = u.iter().map(|x| 2.0 * x).collect();
        let h2u = hvp(&two_u);
        for (a, b) in h2u.iter().zip(hu.iter()) {
            assert!(
                (a - 2.0 * b).abs() < 1e-3 * b.abs().max(1e-3),
                "homogeneity violated: {a} vs {}",
                2.0 * b
            );
        }
    }

    #[test]
    fn damping_adds_identity_times_vector() {
        let ds = generate(&two_block_synthetic(), 12);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 4, ds.n_classes, 3);
        let dim = model.n_params();
        let v = vec![1.0; dim];
        let no_damp = fresh_hvp(&model, &ctx, &ds.labels, &ds.splits.train, &v, 0.0);
        let damped = fresh_hvp(&model, &ctx, &ds.labels, &ds.splits.train, &v, 0.5);
        for (a, b) in damped.iter().zip(no_damp.iter()) {
            assert!(
                (a - b - 0.5).abs() < 1e-6,
                "damping must add exactly 0.5·v: {a} vs {b}"
            );
        }
    }

    #[test]
    fn hvp_is_identical_across_thread_counts() {
        // Every architecture, a fresh scratch per thread count.
        let ds = generate(&two_block_synthetic(), 14);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        for kind in ModelKind::ALL {
            let model = AnyModel::new(kind, ctx.feat_dim(), 4, ds.n_classes, 6);
            let mut rng = StdRng::seed_from_u64(15);
            let v: Vec<f64> = (0..model.n_params())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let hvp_at = |threads: usize| {
                ppfr_linalg::parallel::with_forced_threads(threads, || {
                    fresh_hvp(&model, &ctx, &ds.labels, &ds.splits.train, &v, 0.1)
                })
            };
            let single = hvp_at(1);
            for threads in [2, 4] {
                assert_eq!(
                    hvp_at(threads),
                    single,
                    "{} HVP differs at {threads} threads",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn scratch_hvp_is_bit_identical_to_oracle_and_reusable() {
        // The oracle is a fresh scratch per product: a scratch reused across
        // products (as in a CG solve) and reset() onto a moved base point
        // must reproduce it exactly.
        let ds = generate(&two_block_synthetic(), 14);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        for kind in ModelKind::ALL {
            let model = AnyModel::new(kind, ctx.feat_dim(), 4, ds.n_classes, 6);
            let mut rng = StdRng::seed_from_u64(21);
            let mut scratch = HvpScratch::new(&model);
            for round in 0..3 {
                let v: Vec<f64> = (0..model.n_params())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                let oracle = fresh_hvp(&model, &ctx, &ds.labels, &ds.splits.train, &v, 0.1);
                let reused = hessian_vector_product_with(
                    &mut scratch,
                    &ctx,
                    &ds.labels,
                    &ds.splits.train,
                    &v,
                    1e-4,
                    0.1,
                );
                assert_eq!(reused, oracle, "round {round} diverges for {:?}", kind);
            }
            // reset() re-captures a changed base point without rebuilding.
            let mut moved = model.clone();
            let bumped: Vec<f64> = model.params().iter().map(|p| p + 0.01).collect();
            moved.set_params(&bumped);
            scratch.reset(&moved);
            let v = vec![0.5; model.n_params()];
            let oracle = fresh_hvp(&moved, &ctx, &ds.labels, &ds.splits.train, &v, 0.1);
            let reused = hessian_vector_product_with(
                &mut scratch,
                &ctx,
                &ds.labels,
                &ds.splits.train,
                &v,
                1e-4,
                0.1,
            );
            assert_eq!(reused, oracle, "post-reset HVP diverges for {:?}", kind);
        }
    }

    #[test]
    fn reset_carries_non_parameter_state_of_a_sampling_graphsage() {
        use ppfr_gnn::GraphSage;
        let ds = generate(&two_block_synthetic(), 14);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = AnyModel::GraphSage(
            GraphSage::new(ctx.feat_dim(), 4, ds.n_classes, &mut rng).with_sampling(2),
        );
        model.resample(&ctx, 40);
        let mut scratch = HvpScratch::new(&model);
        // Change *non-parameter* state (the sampled aggregation operator):
        // reset() must pick it up, not just the parameter vector.
        model.resample(&ctx, 41);
        scratch.reset(&model);
        let v = vec![0.3; model.n_params()];
        let oracle = fresh_hvp(&model, &ctx, &ds.labels, &ds.splits.train, &v, 0.1);
        let reused = hessian_vector_product_with(
            &mut scratch,
            &ctx,
            &ds.labels,
            &ds.splits.train,
            &v,
            1e-4,
            0.1,
        );
        assert_eq!(reused, oracle, "reset missed the resampled aggregator");
    }

    #[test]
    fn scratch_hvp_is_identical_across_thread_counts() {
        // One warm scratch reused across the thread counts.
        let ds = generate(&two_block_synthetic(), 14);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 4, ds.n_classes, 6);
        let mut rng = StdRng::seed_from_u64(15);
        let v: Vec<f64> = (0..model.n_params())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let mut scratch = HvpScratch::new(&model);
        let mut hvp_at = |threads: usize| {
            ppfr_linalg::parallel::with_forced_threads(threads, || {
                hessian_vector_product_with(
                    &mut scratch,
                    &ctx,
                    &ds.labels,
                    &ds.splits.train,
                    &v,
                    1e-4,
                    0.1,
                )
            })
        };
        let single = hvp_at(1);
        for threads in [2, 4] {
            assert_eq!(hvp_at(threads), single, "differs at {threads} threads");
        }
    }

    #[test]
    fn zero_vector_maps_to_zero() {
        let ds = generate(&two_block_synthetic(), 13);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 4, ds.n_classes, 4);
        let v = vec![0.0; model.n_params()];
        let out = fresh_hvp(&model, &ctx, &ds.labels, &ds.splits.train, &v, 1.0);
        assert!(out.iter().all(|&x| x == 0.0));
    }
}
