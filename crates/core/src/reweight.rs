//! Fairness-aware re-weighting (FR): influence functions + QCLP (Eq. 13).

use crate::PpfrConfig;
use ppfr_gnn::{AnyModel, GraphContext};
use ppfr_graph::SparseMatrix;
use ppfr_influence::{
    bias_grad_wrt_params, compute_influences, compute_influences_lissa, training_loss_grad,
    LissaConfig,
};
use ppfr_qclp::{solve, QclpProblem, SolverOptions};

/// LiSSA truncation depth of the budget-degraded influence estimator: deep
/// enough for a usable bias/utility ranking on the audit graphs, shallow
/// enough that its fixed cost is acceptable after the cell budget has run
/// out.
const DEGRADED_LISSA_DEPTH: usize = 8;

/// Outcome of the fairness-aware re-weighting step.
#[derive(Debug, Clone)]
pub struct ReweightOutcome {
    /// Optimal QCLP weights `w_v ∈ [−1, 1]`, aligned with the training nodes.
    pub weights: Vec<f64>,
    /// Fine-tuning loss weights `1 + w_v` ready for [`ppfr_gnn::train`].
    pub loss_weights: Vec<f64>,
    /// `I_fbias(w_v)`, the QCLP's objective coefficients, aligned with the
    /// training nodes.
    pub bias_influence: Vec<f64>,
    /// QCLP objective value (predicted first-order bias change).
    pub predicted_bias_change: f64,
}

/// Computes the fairness-aware loss weights for fine-tuning a vanilla-trained
/// model (§VI-B1):
///
/// 1. influence of every labelled node on utility and bias (Eqs. 11–12),
///    the only two influences the QCLP reads;
/// 2. QCLP of Eq. (13) solved by projected gradient descent;
/// 3. weights returned both raw (`w_v`) and as loss multipliers (`1 + w_v`).
pub fn fairness_weights(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    l_s: &SparseMatrix,
    cfg: &PpfrConfig,
) -> ReweightOutcome {
    let _span = ppfr_telemetry::span!("reweight");
    let grads = {
        let _span = ppfr_telemetry::span!("influence_grads");
        [
            training_loss_grad(model, ctx, labels, train_ids),
            bias_grad_wrt_params(model, ctx, l_s),
        ]
    };
    let grads = grads.each_ref().map(Vec::as_slice);
    // Estimator ladder: configured LiSSA (opt-in) > budget-degraded
    // shallow LiSSA > exact dense CG (the paper's protocol).  The degraded
    // rung only engages when the ambient cell budget is already exhausted —
    // an exact solve would be truncated mid-CG anyway, so a shallow LiSSA
    // estimate is the better use of the remaining work; the downgrade is
    // recorded as a DegradationEvent so reports always flag approximation.
    let [util, bias] = if cfg.lissa_depth > 0 {
        let lissa = LissaConfig::from_influence(&cfg.influence_config(), cfg.lissa_depth);
        compute_influences_lissa(model, ctx, labels, train_ids, grads, &lissa)
    } else if ppfr_resilience::budget_exhausted() {
        ppfr_resilience::note_degradation("influence", "cg", "lissa");
        let degraded = LissaConfig::from_influence(&cfg.influence_config(), DEGRADED_LISSA_DEPTH);
        // Run the fallback under a fresh unlimited budget: the exhausted
        // ambient budget would otherwise truncate the shallow estimator at
        // depth 0 via its own checkpoints.  Its cost is a small fixed
        // constant, which is the point of degrading in the first place.
        ppfr_resilience::with_budget(&ppfr_resilience::Budget::unlimited(), || {
            compute_influences_lissa(model, ctx, labels, train_ids, grads, &degraded)
        })
    } else {
        compute_influences(
            model,
            ctx,
            labels,
            train_ids,
            grads,
            &cfg.influence_config(),
        )
    };
    let problem = QclpProblem {
        bias_influence: bias,
        util_influence: util,
        alpha: cfg.qclp_alpha,
        beta: cfg.qclp_beta,
    };
    let solution = {
        let _span = ppfr_telemetry::span!("qclp");
        solve(&problem, &SolverOptions::default())
    };
    let loss_weights: Vec<f64> = solution.weights.iter().map(|w| 1.0 + w).collect();
    ReweightOutcome {
        weights: solution.weights,
        loss_weights,
        bias_influence: problem.bias_influence,
        predicted_bias_change: solution.objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::{generate, two_block_synthetic};
    use ppfr_gnn::{train, ModelKind};
    use ppfr_graph::{jaccard_similarity, similarity_laplacian};

    #[test]
    fn weights_are_bounded_feasible_and_predict_bias_reduction() {
        let ds = generate(&two_block_synthetic(), 31);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let mut model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 8, ds.n_classes, 3);
        let cfg = PpfrConfig::smoke();
        let uniform = vec![1.0; ds.splits.train.len()];
        train(
            &mut model,
            &ctx,
            &ds.labels,
            &ds.splits.train,
            &uniform,
            None,
            &cfg.vanilla_train_config(),
        );
        let s = jaccard_similarity(&ds.graph);
        let l_s = similarity_laplacian(&s);

        let outcome = fairness_weights(&model, &ctx, &ds.labels, &ds.splits.train, &l_s, &cfg);
        assert_eq!(outcome.weights.len(), ds.splits.train.len());
        assert!(outcome
            .weights
            .iter()
            .all(|w| (-1.0 - 1e-6..=1.0 + 1e-6).contains(w)));
        assert!(outcome
            .loss_weights
            .iter()
            .zip(&outcome.weights)
            .all(|(&lw, &w)| (lw - (1.0 + w)).abs() < 1e-12));
        // The QCLP objective is the predicted first-order bias change; it must
        // not be positive (the zero vector is feasible with value 0).
        assert!(
            outcome.predicted_bias_change <= 1e-9,
            "predicted change {}",
            outcome.predicted_bias_change
        );
        // The weights must not be all zero (otherwise FR is a no-op).
        assert!(outcome.weights.iter().any(|&w| w.abs() > 1e-6));
        // The ℓ₂ budget of Eq. (13) holds.
        let norm_sq: f64 = outcome.weights.iter().map(|w| w * w).sum();
        assert!(norm_sq <= cfg.qclp_alpha * ds.splits.train.len() as f64 + 1e-6);
    }
}
