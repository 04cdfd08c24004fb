//! The influence engine: per-node influences on utility, bias and risk.

use crate::{
    bias_grad_wrt_params, conjugate_gradient, hessian_vector_product_with, node_loss_grad,
    risk_grad_wrt_params, training_loss_grad, HvpScratch,
};
use ppfr_gnn::{AnyModel, GraphContext};
use ppfr_graph::SparseMatrix;
use ppfr_linalg::par_rows;
use ppfr_privacy::PairSample;

/// Hyper-parameters of the influence computation.
#[derive(Debug, Clone)]
pub struct InfluenceConfig {
    /// Damping λ added to the Hessian (`H + λI`) to keep CG well-conditioned.
    pub damping: f64,
    /// Maximum conjugate-gradient iterations per solve.
    pub cg_iters: usize,
    /// CG residual tolerance.
    pub cg_tol: f64,
    /// Finite-difference step for Hessian-vector products.
    pub fd_step: f64,
}

impl Default for InfluenceConfig {
    fn default() -> Self {
        Self {
            damping: 0.01,
            cg_iters: 30,
            cg_tol: 1e-6,
            fd_step: 1e-4,
        }
    }
}

/// Influence of every labelled training node on the three interested
/// functions, aligned with `train_ids`.
#[derive(Debug, Clone)]
pub struct InfluenceSet {
    /// `I_futil(w_v)` — effect of leaving node `v` out on the training loss.
    pub util: Vec<f64>,
    /// `I_fbias(w_v)` — effect on the InFoRM bias.
    pub bias: Vec<f64>,
    /// `I_frisk(w_v)` — effect on the edge-privacy risk.
    pub risk: Vec<f64>,
}

/// Influence of each training node on an arbitrary interested function whose
/// parameter gradient is `grad_f`:
/// `I_f(w_v) = −∇_θ f(θ*)ᵀ (H + λI)⁻¹ ∇_θ L(v)`.
///
/// Uses the adjoint trick: one CG solve for `s_f = (H+λI)⁻¹ ∇_θ f`, then a dot
/// product with every per-node loss gradient (computed in parallel).
///
/// The CG solve runs its Hessian-vector products through one persistent
/// [`HvpScratch`], so the iterations share two model clones and their
/// gradient workspaces instead of reallocating them.
pub fn influence_on(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    grad_f: &[f64],
    cfg: &InfluenceConfig,
) -> Vec<f64> {
    let _span = ppfr_telemetry::span!("influence");
    let mut scratch = HvpScratch::new(model);
    let apply = |v: &[f64]| {
        hessian_vector_product_with(
            &mut scratch,
            ctx,
            labels,
            train_ids,
            v,
            cfg.fd_step,
            cfg.damping,
        )
    };
    let s_f = conjugate_gradient(apply, grad_f, cfg.cg_iters, cfg.cg_tol);
    influence_from_s_f(model, ctx, labels, train_ids, &s_f)
}

/// The adjoint-trick tail shared by the exact CG solve ([`influence_on`]) and
/// the stochastic LiSSA estimator ([`crate::lissa_influence_on`]): given the
/// solved adjoint `s_f = (H+λI)⁻¹ ∇_θ f`, returns
/// `I_f(w_v) = −s_f · ∇_θ L(v)` for every training node (computed in
/// parallel, collected in index order).
pub fn influence_from_s_f(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    s_f: &[f64],
) -> Vec<f64> {
    par_rows(train_ids.len(), |i| {
        let g_v = node_loss_grad(model, ctx, labels, train_ids[i]);
        -s_f.iter()
            .zip(g_v.iter())
            .map(|(&a, &b)| a * b)
            // lint: allow(par-float-reduction) — row-local dot product, each
            // row independent and collected in index order; pinned by the
            // forced-thread bit-identity test in this module
            .sum::<f64>()
    })
}

/// Computes [`InfluenceSet`] for the model at its current (vanilla-trained)
/// parameters: influences on utility (Eq. 11), bias and risk (Eq. 12).
pub fn compute_influences(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    l_s: &SparseMatrix,
    sample: &PairSample,
    cfg: &InfluenceConfig,
) -> InfluenceSet {
    let grad_util = training_loss_grad(model, ctx, labels, train_ids);
    let grad_bias = bias_grad_wrt_params(model, ctx, l_s);
    let grad_risk = risk_grad_wrt_params(model, ctx, sample);
    InfluenceSet {
        util: influence_on(model, ctx, labels, train_ids, &grad_util, cfg),
        bias: influence_on(model, ctx, labels, train_ids, &grad_bias, cfg),
        risk: influence_on(model, ctx, labels, train_ids, &grad_risk, cfg),
    }
}

/// [`compute_influences`] with the stochastic LiSSA estimator in place of the
/// exact CG solve — the degraded rung of the resilience ladder (and the
/// opt-in fast path when `lissa_depth` is configured).  Shares the gradient
/// and adjoint-tail code with the exact path, so only the inverse-Hessian
/// solve differs; callers must flag results as approximate (the runner
/// records a [`ppfr_resilience::DegradationEvent`] per downgrade).
pub fn compute_influences_lissa(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    l_s: &SparseMatrix,
    sample: &PairSample,
    cfg: &crate::LissaConfig,
) -> InfluenceSet {
    let grad_util = training_loss_grad(model, ctx, labels, train_ids);
    let grad_bias = bias_grad_wrt_params(model, ctx, l_s);
    let grad_risk = risk_grad_wrt_params(model, ctx, sample);
    InfluenceSet {
        util: crate::lissa_influence_on(model, ctx, labels, train_ids, &grad_util, cfg),
        bias: crate::lissa_influence_on(model, ctx, labels, train_ids, &grad_bias, cfg),
        risk: crate::lissa_influence_on(model, ctx, labels, train_ids, &grad_risk, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::{generate, two_block_synthetic};
    use ppfr_fairness::bias;
    use ppfr_gnn::{train, GnnModel, ModelKind, TrainConfig};
    use ppfr_graph::{jaccard_similarity, similarity_laplacian};
    use ppfr_linalg::{pearson, row_softmax};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Setup {
        model: AnyModel,
        ctx: GraphContext,
        labels: Vec<usize>,
        train_ids: Vec<usize>,
        l_s: SparseMatrix,
        sample: PairSample,
    }

    fn trained_setup() -> Setup {
        let ds = generate(&two_block_synthetic(), 7);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let mut model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 6, ds.n_classes, 5);
        let weights = vec![1.0; ds.splits.train.len()];
        let cfg = TrainConfig {
            epochs: 80,
            lr: 0.02,
            weight_decay: 5e-4,
            seed: 1,
        };
        train(
            &mut model,
            &ctx,
            &ds.labels,
            &ds.splits.train,
            &weights,
            None,
            &cfg,
        );
        let s = jaccard_similarity(&ds.graph);
        let l_s = similarity_laplacian(&s);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = PairSample::balanced(&ds.graph, &mut rng);
        Setup {
            model,
            ctx,
            labels: ds.labels,
            train_ids: ds.splits.train,
            l_s,
            sample,
        }
    }

    #[test]
    fn influences_are_finite_and_aligned_with_training_nodes() {
        let s = trained_setup();
        let cfg = InfluenceConfig {
            cg_iters: 15,
            ..Default::default()
        };
        let inf = compute_influences(
            &s.model,
            &s.ctx,
            &s.labels,
            &s.train_ids,
            &s.l_s,
            &s.sample,
            &cfg,
        );
        for (name, values) in [
            ("util", &inf.util),
            ("bias", &inf.bias),
            ("risk", &inf.risk),
        ] {
            assert_eq!(values.len(), s.train_ids.len(), "{name} length");
            assert!(
                values.iter().all(|v| v.is_finite()),
                "{name} contains non-finite values"
            );
            assert!(
                values.iter().any(|&v| v != 0.0),
                "{name} is identically zero"
            );
        }
        // Pearson correlation of bias/risk influences must be a valid value in [-1, 1].
        let r = pearson(&inf.bias, &inf.risk);
        assert!((-1.0..=1.0).contains(&r), "correlation out of range: {r}");
    }

    #[test]
    fn influence_on_is_bit_identical_across_thread_counts() {
        let s = trained_setup();
        let cfg = InfluenceConfig {
            cg_iters: 6,
            ..Default::default()
        };
        let grad_bias = bias_grad_wrt_params(&s.model, &s.ctx, &s.l_s);
        let baseline = ppfr_linalg::parallel::with_forced_threads(1, || {
            influence_on(&s.model, &s.ctx, &s.labels, &s.train_ids, &grad_bias, &cfg)
        });
        for threads in [2, 8] {
            let parallel = ppfr_linalg::parallel::with_forced_threads(threads, || {
                influence_on(&s.model, &s.ctx, &s.labels, &s.train_ids, &grad_bias, &cfg)
            });
            assert_eq!(
                parallel, baseline,
                "influence_on differs at {threads} threads"
            );
        }
    }

    #[test]
    fn influence_from_s_f_is_bit_identical_across_thread_counts() {
        let s = trained_setup();
        let s_f: Vec<f64> = (0..s.model.n_params())
            .map(|i| ((i as f64) * 0.13).sin())
            .collect();
        let baseline = ppfr_linalg::parallel::with_forced_threads(1, || {
            influence_from_s_f(&s.model, &s.ctx, &s.labels, &s.train_ids, &s_f)
        });
        for threads in [2, 4] {
            let parallel = ppfr_linalg::parallel::with_forced_threads(threads, || {
                influence_from_s_f(&s.model, &s.ctx, &s.labels, &s.train_ids, &s_f)
            });
            assert_eq!(
                parallel, baseline,
                "influence_from_s_f differs at {threads} threads"
            );
        }
    }

    #[test]
    fn bias_influence_predicts_the_effect_of_leaving_a_node_out() {
        // Retrain without the most bias-increasing node and check that the
        // realised bias change has the sign the influence function predicts.
        // (This is the first-order approximation of Eq. (8); we only check the
        // direction on the extreme node, which is what the QCLP exploits.)
        let s = trained_setup();
        let cfg = InfluenceConfig {
            cg_iters: 20,
            ..Default::default()
        };
        let grad_bias = bias_grad_wrt_params(&s.model, &s.ctx, &s.l_s);
        let inf_bias = influence_on(&s.model, &s.ctx, &s.labels, &s.train_ids, &grad_bias, &cfg);

        // Most harmful node: leaving it out should *reduce* bias the most,
        // i.e. its influence value is the minimum (most negative).
        let (harmful_idx, _) = inf_bias
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let (helpful_idx, _) = inf_bias
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();

        let baseline_bias = {
            let probs = row_softmax(&s.model.forward(&s.ctx));
            bias(&probs, &s.l_s)
        };

        let retrain_without = |skip: usize| -> f64 {
            let kept: Vec<usize> = s
                .train_ids
                .iter()
                .copied()
                .filter(|&v| v != s.train_ids[skip])
                .collect();
            let weights = vec![1.0; kept.len()];
            let mut model = AnyModel::new(ModelKind::Gcn, s.ctx.feat_dim(), 6, 2, 5);
            let cfg = TrainConfig {
                epochs: 80,
                lr: 0.02,
                weight_decay: 5e-4,
                seed: 1,
            };
            train(&mut model, &s.ctx, &s.labels, &kept, &weights, None, &cfg);
            let probs = row_softmax(&model.forward(&s.ctx));
            bias(&probs, &s.l_s)
        };

        let bias_without_harmful = retrain_without(harmful_idx);
        let bias_without_helpful = retrain_without(helpful_idx);
        // Removing the node flagged as most bias-increasing should leave the
        // model at most as biased as removing the node flagged as most
        // bias-decreasing.
        assert!(
            bias_without_harmful <= bias_without_helpful + 0.05 * baseline_bias.abs().max(1e-6),
            "influence ranking inverted: without-harmful {bias_without_harmful} vs without-helpful {bias_without_helpful} (baseline {baseline_bias})"
        );
    }
}
