//! Weighted, optionally fairness-regularised GNN training.
//!
//! This single loop covers every training mode in the paper:
//! * vanilla training — all-one weights, no regulariser (Eq. 6);
//! * the Reg baseline — vanilla weights plus the InFoRM bias term in the loss;
//! * PPFR / DPFR fine-tuning — `(1 + w_v)` weights from the QCLP on a
//!   (possibly perturbed) graph (Eq. 7).

use crate::{GnnModel, GraphContext, TrainWorkspace};
use ppfr_graph::SparseMatrix;
use ppfr_linalg::{row_softmax_backward_into, Matrix};
use ppfr_nn::{accuracy, weighted_cross_entropy_into, Adam, Optimizer};

/// Individual-fairness regulariser configuration: the similarity Laplacian
/// `L_S` and the weight λ of `Tr(Pᵀ L_S P)` in the loss.
#[derive(Debug, Clone)]
pub struct FairnessReg {
    /// Laplacian of the Jaccard similarity matrix.
    pub laplacian: SparseMatrix,
    /// Regularisation strength λ.
    pub lambda: f64,
}

impl FairnessReg {
    /// Bias value `Tr(Pᵀ L_S P) / n` of the given probabilities.
    pub fn bias(&self, probs: &Matrix) -> f64 {
        let lp = self.laplacian.matmul_dense(probs);
        let mut tr = 0.0;
        for r in 0..probs.rows() {
            tr += probs.row_dot(r, &lp, r);
        }
        tr / probs.rows() as f64
    }

    /// Gradient of `λ · Tr(Pᵀ L_S P) / n` w.r.t. the probabilities, written
    /// into a caller-owned buffer.
    pub fn grad_wrt_probs_into(&self, probs: &Matrix, out: &mut Matrix) {
        // L_S is symmetric, so d/dP Tr(Pᵀ L P) = 2 L P.
        self.laplacian.matmul_dense_into(probs, out);
        let s = 2.0 * self.lambda / probs.rows() as f64;
        out.map_inplace(|v| v * s);
    }
}

/// Hyper-parameters of one training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs (full-batch gradient steps).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Seed for any stochastic structure (GraphSAGE sampling).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            lr: 0.01,
            weight_decay: 5e-4,
            seed: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Cross-entropy component of the loss per epoch.
    pub loss_history: Vec<f64>,
    /// Final training accuracy.
    pub train_accuracy: f64,
    /// Final bias value (only when a fairness regulariser was supplied).
    pub final_bias: Option<f64>,
}

/// Trains `model` in place and returns a [`TrainReport`].
///
/// * `train_ids` — the labelled nodes `V_l`;
/// * `weights` — the per-node loss weights (all ones for vanilla training,
///   `1 + w_v` for PPFR fine-tuning);
/// * `fairness` — optional InFoRM regulariser (the Reg baseline).
///
/// Every epoch runs through a [`TrainWorkspace`] of preallocated buffers
/// (zero heap allocations per epoch after warm-up, unless neighbour
/// resampling is active) and the backward pass reuses the cached forward
/// activations.  The result is bit-identical across worker-thread counts,
/// pinned by `crates/gnn/tests/workspace_equivalence.rs`.
pub fn train(
    model: &mut dyn GnnModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    weights: &[f64],
    fairness: Option<&FairnessReg>,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut ws = TrainWorkspace::new();
    train_with_workspace(
        model, ctx, labels, train_ids, weights, fairness, cfg, &mut ws,
    )
}

/// [`train`] reusing a caller-owned [`TrainWorkspace`], so repeated training
/// runs over same-shaped problems (multi-seed scenario matrices, fine-tuning
/// sweeps, HVP gradient evaluations) skip even the warm-up allocations.
#[allow(clippy::too_many_arguments)]
pub fn train_with_workspace(
    model: &mut dyn GnnModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    weights: &[f64],
    fairness: Option<&FairnessReg>,
    cfg: &TrainConfig,
    ws: &mut TrainWorkspace,
) -> TrainReport {
    assert_eq!(
        train_ids.len(),
        weights.len(),
        "one weight per training node"
    );
    let _span = ppfr_telemetry::span!("train");
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut params = model.params();
    let mut loss_history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        // Cooperative deadline: under an exhausted ambient budget the model
        // keeps whatever it has learned so far instead of panicking mid-run.
        if !ppfr_resilience::checkpoint(1) {
            break;
        }
        let _epoch_span = ppfr_telemetry::span!("train_epoch");
        model.resample(ctx, cfg.seed.wrapping_add(epoch as u64));
        model.forward_ws(ctx, ws);
        let loss = weighted_cross_entropy_into(
            &ws.logits,
            labels,
            train_ids,
            weights,
            &mut ws.probs,
            &mut ws.d_logits,
        );
        if let Some(reg) = fairness {
            reg.grad_wrt_probs_into(&ws.probs, &mut ws.d_probs);
            row_softmax_backward_into(&ws.probs, &ws.d_probs, &mut ws.d_reg);
            ws.d_logits.add_inplace(&ws.d_reg);
        }
        model.backward_ws(ctx, ws);
        opt.step(&mut params, &ws.grads);
        model.set_params(&params);
        loss_history.push(loss);
    }
    // Final report through the warm workspace too.
    model.forward_ws(ctx, ws);
    let train_accuracy = accuracy(&ws.logits, labels, train_ids);
    let final_bias = fairness.map(|reg| {
        ppfr_linalg::row_softmax_into(&ws.logits, &mut ws.probs);
        reg.bias(&ws.probs)
    });
    TrainReport {
        loss_history,
        train_accuracy,
        final_bias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyModel, ModelKind};
    use ppfr_datasets::{generate, two_block_synthetic};
    use ppfr_graph::{jaccard_similarity, similarity_laplacian};
    use ppfr_nn::accuracy;

    fn setup() -> (GraphContext, Vec<usize>, Vec<usize>, Vec<usize>) {
        let ds = generate(&two_block_synthetic(), 7);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        (
            ctx,
            ds.labels.clone(),
            ds.splits.train.clone(),
            ds.splits.test.clone(),
        )
    }

    #[test]
    fn training_reduces_loss_and_fits_train_set() {
        let (ctx, labels, train_ids, test_ids) = setup();
        for kind in ModelKind::ALL {
            let mut model = AnyModel::new(kind, ctx.feat_dim(), 8, 2, 1);
            let weights = vec![1.0; train_ids.len()];
            let cfg = TrainConfig {
                epochs: 120,
                lr: 0.02,
                weight_decay: 5e-4,
                seed: 3,
            };
            let report = train(&mut model, &ctx, &labels, &train_ids, &weights, None, &cfg);
            let first = report.loss_history.first().copied().unwrap();
            let last = report.loss_history.last().copied().unwrap();
            assert!(
                last < first * 0.7,
                "{}: loss did not drop ({first} -> {last})",
                kind.name()
            );
            assert!(
                report.train_accuracy > 0.8,
                "{}: train accuracy {}",
                kind.name(),
                report.train_accuracy
            );
            let logits = model.forward(&ctx);
            let test_acc = accuracy(&logits, &labels, &test_ids);
            assert!(test_acc > 0.7, "{}: test accuracy {test_acc}", kind.name());
        }
    }

    #[test]
    fn fairness_regularisation_reduces_bias() {
        let (ctx, labels, train_ids, _) = setup();
        let s = jaccard_similarity(&ctx.graph);
        let l = similarity_laplacian(&s);
        let weights = vec![1.0; train_ids.len()];
        let cfg = TrainConfig {
            epochs: 150,
            lr: 0.02,
            weight_decay: 5e-4,
            seed: 5,
        };

        let mut vanilla = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 8, 2, 11);
        train(
            &mut vanilla,
            &ctx,
            &labels,
            &train_ids,
            &weights,
            None,
            &cfg,
        );
        let reg_cfg = FairnessReg {
            laplacian: l.clone(),
            lambda: 2.0,
        };
        let vanilla_probs = ppfr_linalg::row_softmax(&vanilla.forward(&ctx));
        let vanilla_bias = reg_cfg.bias(&vanilla_probs);

        let mut fair = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 8, 2, 11);
        let report = train(
            &mut fair,
            &ctx,
            &labels,
            &train_ids,
            &weights,
            Some(&reg_cfg),
            &cfg,
        );
        let fair_bias = report.final_bias.expect("bias reported when regularised");

        assert!(
            fair_bias < vanilla_bias,
            "fairness regularisation must reduce bias: {fair_bias} vs vanilla {vanilla_bias}"
        );
    }

    #[test]
    fn reweighting_changes_the_learned_model() {
        let (ctx, labels, train_ids, _) = setup();
        let cfg = TrainConfig {
            epochs: 60,
            lr: 0.02,
            weight_decay: 5e-4,
            seed: 2,
        };
        let uniform = vec![1.0; train_ids.len()];
        let mut skewed = vec![0.2; train_ids.len()];
        for w in skewed.iter_mut().take(train_ids.len() / 2) {
            *w = 2.0;
        }
        let mut a = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 8, 2, 9);
        let mut b = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 8, 2, 9);
        train(&mut a, &ctx, &labels, &train_ids, &uniform, None, &cfg);
        train(&mut b, &ctx, &labels, &train_ids, &skewed, None, &cfg);
        assert_ne!(
            a.params(),
            b.params(),
            "different loss weights must lead to different parameters"
        );
    }

    #[test]
    #[should_panic(expected = "one weight per training node")]
    fn mismatched_weight_length_panics() {
        let (ctx, labels, train_ids, _) = setup();
        let mut model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 4, 2, 0);
        let cfg = TrainConfig::default();
        train(&mut model, &ctx, &labels, &train_ids, &[1.0], None, &cfg);
    }
}
