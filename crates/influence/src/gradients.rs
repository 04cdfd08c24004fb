//! Parameter-space gradients of the interested functions (utility, bias, risk).
//!
//! Every gradient runs the model's workspace path once: `forward_ws`, the
//! loss or the softmax and its backward, then `backward_ws`, which reuses the
//! cached forward activations.

use crate::risk_grad::sq_risk_gradient_wrt_probs;
use ppfr_fairness::bias_gradient_wrt_probs;
use ppfr_gnn::{GnnModel, GraphContext, TrainWorkspace};
use ppfr_graph::SparseMatrix;
use ppfr_linalg::{row_softmax_backward_into, row_softmax_into, Matrix};
use ppfr_nn::weighted_cross_entropy_into;
use ppfr_privacy::PairSample;

/// Gradient of the *total* (unit-weight) training loss w.r.t. the parameters,
/// i.e. `∇_θ Σ_{v ∈ V_l} L(ŷ_v, y_v; θ)` — the utility function of Eq. (11).
pub fn training_loss_grad(
    model: &dyn GnnModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
) -> Vec<f64> {
    let mut ws = TrainWorkspace::new();
    training_loss_grad_ws(model, ctx, labels, train_ids, &mut ws);
    ws.grads
}

/// [`training_loss_grad`] through a caller-owned [`TrainWorkspace`]: the
/// gradient lands in `ws.grads` and no intermediate is allocated once the
/// workspace is warm, which is what lets the conjugate-gradient solver call
/// it once per Hessian-vector product without churning the allocator.
pub fn training_loss_grad_ws(
    model: &dyn GnnModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    ws: &mut TrainWorkspace,
) {
    model.forward_ws(ctx, ws);
    ws.ensure_unit_weights(train_ids.len());
    weighted_cross_entropy_into(
        &ws.logits,
        labels,
        train_ids,
        &ws.unit_weights,
        &mut ws.probs,
        &mut ws.d_logits,
    );
    // weighted_cross_entropy_into divides by |V_l|; rescale to the paper's
    // sum form.
    let n = train_ids.len() as f64;
    ws.d_logits.map_inplace(|v| v * n);
    model.backward_ws(ctx, ws);
}

/// Gradient of the single-node loss `L(ŷ_v, y_v; θ)` w.r.t. the parameters.
pub fn node_loss_grad(
    model: &dyn GnnModel,
    ctx: &GraphContext,
    labels: &[usize],
    node: usize,
) -> Vec<f64> {
    let mut ws = TrainWorkspace::new();
    model.forward_ws(ctx, &mut ws);
    weighted_cross_entropy_into(
        &ws.logits,
        labels,
        &[node],
        &[1.0],
        &mut ws.probs,
        &mut ws.d_logits,
    );
    model.backward_ws(ctx, &mut ws);
    ws.grads
}

/// Gradient of the InFoRM bias `f_bias(θ) = Tr(Pᵀ L_S P)/n` w.r.t. the
/// parameters, back-propagated through the softmax.
pub fn bias_grad_wrt_params(
    model: &dyn GnnModel,
    ctx: &GraphContext,
    l_s: &SparseMatrix,
) -> Vec<f64> {
    grad_through_softmax(model, ctx, |probs| bias_gradient_wrt_probs(probs, l_s))
}

/// Gradient of the normalised privacy-risk function
/// `f_risk(θ) = 2‖d̄₀ − d̄₁‖/(var(d₀)+var(d₁))` w.r.t. the parameters.
pub fn risk_grad_wrt_params(
    model: &dyn GnnModel,
    ctx: &GraphContext,
    sample: &PairSample,
) -> Vec<f64> {
    grad_through_softmax(model, ctx, |probs| {
        sq_risk_gradient_wrt_probs(probs, sample)
    })
}

/// Parameter gradient of a function of the softmax probabilities, given the
/// map from the probabilities to its gradient w.r.t. them.
fn grad_through_softmax(
    model: &dyn GnnModel,
    ctx: &GraphContext,
    d_probs_of: impl FnOnce(&Matrix) -> Matrix,
) -> Vec<f64> {
    let mut ws = TrainWorkspace::new();
    model.forward_ws(ctx, &mut ws);
    row_softmax_into(&ws.logits, &mut ws.probs);
    let d_probs = d_probs_of(&ws.probs);
    row_softmax_backward_into(&ws.probs, &d_probs, &mut ws.d_logits);
    model.backward_ws(ctx, &mut ws);
    ws.grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::{generate, two_block_synthetic};
    use ppfr_gnn::{AnyModel, ModelKind};
    use ppfr_graph::{jaccard_similarity, similarity_laplacian};
    use ppfr_linalg::row_softmax;
    use ppfr_nn::central_difference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        AnyModel,
        GraphContext,
        Vec<usize>,
        Vec<usize>,
        SparseMatrix,
        PairSample,
    ) {
        let ds = generate(&two_block_synthetic(), 3);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 6, ds.n_classes, 5);
        let s = jaccard_similarity(&ds.graph);
        let l = similarity_laplacian(&s);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = PairSample::balanced(&ds.graph, &mut rng);
        (
            model,
            ctx,
            ds.labels.clone(),
            ds.splits.train.clone(),
            l,
            sample,
        )
    }

    #[test]
    fn training_loss_grad_matches_sum_of_node_grads() {
        let (model, ctx, labels, train_ids, _, _) = setup();
        let total = training_loss_grad(&model, &ctx, &labels, &train_ids);
        let mut summed = vec![0.0; model.n_params()];
        for &v in &train_ids {
            let g = node_loss_grad(&model, &ctx, &labels, v);
            for (s, gi) in summed.iter_mut().zip(g) {
                *s += gi;
            }
        }
        for (a, b) in total.iter().zip(summed.iter()) {
            assert!((a - b).abs() < 1e-9, "sum decomposition failed: {a} vs {b}");
        }
    }

    #[test]
    fn bias_grad_matches_finite_difference() {
        let (model, ctx, _, _, l, _) = setup();
        let analytic = bias_grad_wrt_params(&model, &ctx, &l);
        let f = |p: &[f64]| {
            let mut m = model.clone();
            m.set_params(p);
            let probs = row_softmax(&m.forward(&ctx));
            ppfr_fairness::bias(&probs, &l)
        };
        // Spot-check a subset of coordinates to keep the test fast.
        let params = model.params();
        let numeric = central_difference(f, &params, 1e-5);
        let mut checked = 0;
        for i in (0..params.len()).step_by(params.len() / 25 + 1) {
            assert!(
                (numeric[i] - analytic[i]).abs() < 1e-5 * numeric[i].abs().max(1.0),
                "param {i}: numeric {} vs analytic {}",
                numeric[i],
                analytic[i]
            );
            checked += 1;
        }
        assert!(checked >= 10);
    }

    #[test]
    fn risk_grad_is_finite_and_nonzero_after_training_signal() {
        let (model, ctx, _, _, _, sample) = setup();
        let grad = risk_grad_wrt_params(&model, &ctx, &sample);
        assert_eq!(grad.len(), model.n_params());
        assert!(grad.iter().all(|g| g.is_finite()));
        assert!(
            grad.iter().any(|&g| g.abs() > 0.0),
            "risk gradient should not be identically zero"
        );
    }
}
