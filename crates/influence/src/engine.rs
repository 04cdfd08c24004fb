//! The influence engine: the influence of every training node on the
//! interested functions a caller asks for.
//!
//! Every estimator ends in one adjoint-trick tail,
//! [`influences_from_adjoints`]: a single forward pass at `θ*`, then one
//! backward pass per training node whose parameter gradient is dotted with
//! every solved adjoint.  [`compute_influences`] and
//! [`compute_influences_lissa`] take the interested functions' parameter
//! gradients, run one solve per gradient and then the tail once;
//! [`influence_from_s_f`] is the tail's one-adjoint case.

use crate::lissa::lissa_adjoint;
use crate::{conjugate_gradient, hessian_vector_product_with, HvpScratch, LissaConfig};
use ppfr_gnn::{AnyModel, GnnModel, GraphContext, TrainWorkspace};
use ppfr_linalg::{par_rows, row_softmax_into, Matrix};
use ppfr_nn::cross_entropy_node_into;

/// Training nodes per task of [`influences_from_adjoints`]: each block clones
/// the forward-filled workspace once, then runs one backward pass per node.
/// A constant, never derived from the thread count; per-node results do not
/// depend on the blocking either way.
const TAIL_BLOCK: usize = 16;

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

/// The adjoint `s_f = (H + λI)⁻¹ ∇_θ f` by damped conjugate gradient.
///
/// The Hessian-vector products run through one persistent [`HvpScratch`], so
/// the iterations share two model clones and their gradient workspaces
/// instead of reallocating them.
fn cg_adjoint(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    grad_f: &[f64],
    cfg: &InfluenceConfig,
) -> Vec<f64> {
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
    conjugate_gradient(apply, grad_f, cfg.cg_iters, cfg.cg_tol)
}

/// The one-adjoint case of the shared tail (`influences_from_adjoints`):
/// given the solved adjoint `s_f = (H+λI)⁻¹ ∇_θ f`, returns
/// `I_f(w_v) = −s_f · ∇_θ L(v)` for every training node, in `train_ids`
/// order.  It runs one forward pass and one backward pass per node; callers
/// with several adjoints should use [`compute_influences`], which shares
/// those passes among them.
pub fn influence_from_s_f(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    s_f: &[f64],
) -> Vec<f64> {
    let [influence] = influences_from_adjoints(model, ctx, labels, train_ids, [s_f]);
    influence
}

/// The adjoint-trick tail shared by the exact CG solve and the stochastic
/// LiSSA estimator: given solved adjoints `s_f = (H+λI)⁻¹ ∇_θ f`, returns
/// `I_f(w_v) = −s_f · ∇_θ L(v)` for every adjoint and every training node,
/// each vector in `train_ids` order.
///
/// One `forward_ws` at `θ*` and one softmax serve every node.  Blocks of
/// [`TAIL_BLOCK`] training nodes run in parallel; each clones the
/// forward-filled workspace once, and per node writes row `v` of the
/// otherwise-zero `d_logits` (the unit-weight cross-entropy of `v` alone),
/// runs `backward_ws`, which leaves the forward caches untouched, dots the
/// gradient with every adjoint and zeroes the row again.  Each per-node
/// gradient is therefore bit-identical to a fresh forward and backward over
/// the loss of `[v]`, whatever the blocking or thread count.
pub(crate) fn influences_from_adjoints<const K: usize>(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    adjoints: [&[f64]; K],
) -> [Vec<f64>; K] {
    let _span = ppfr_telemetry::span!("influence_tail");
    let mut forward = TrainWorkspace::new();
    model.forward_ws(ctx, &mut forward);
    let (rows, cols) = forward.logits.shape();
    assert_eq!(rows, labels.len(), "one label per node");
    row_softmax_into(&forward.logits, &mut forward.probs);
    forward.d_logits = Matrix::zeros(rows, cols);
    let blocks: Vec<&[usize]> = train_ids.chunks(TAIL_BLOCK).collect();
    let per_block = par_rows(blocks.len(), |b| {
        let mut ws = forward.clone();
        blocks[b]
            .iter()
            .map(|&v| {
                cross_entropy_node_into(&ws.probs, v, labels[v], 1.0, 1.0, &mut ws.d_logits);
                model.backward_ws(ctx, &mut ws);
                ws.d_logits.row_mut(v).fill(0.0);
                adjoints.map(|s_f| {
                    -s_f.iter()
                        .zip(ws.grads.iter())
                        .map(|(&a, &b)| a * b)
                        // lint: allow(par-float-reduction) — node-local dot
                        // product, serial within its block and collected in
                        // index order; pinned by the forced-thread tests in
                        // this module
                        .sum::<f64>()
                })
            })
            .collect::<Vec<[f64; K]>>()
    });
    let mut out: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(train_ids.len()));
    for node in per_block.iter().flatten() {
        for (values, &value) in out.iter_mut().zip(node) {
            values.push(value);
        }
    }
    out
}

/// The influence of every training node on each interested function whose
/// parameter gradient is in `grads`:
/// `I_f(w_v) = −∇_θ f(θ*)ᵀ (H + λI)⁻¹ ∇_θ L(v)` (Eqs. 11–12), one vector per
/// gradient, each in `train_ids` order.
///
/// One CG solve per gradient, then one shared tail for all the adjoints, so
/// each per-node gradient is computed once.  Every solve has its own
/// [`HvpScratch`] and the tail dots each adjoint separately, so an influence
/// is bit-identical whichever other gradients are passed with it.
pub fn compute_influences<const K: usize>(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    grads: [&[f64]; K],
    cfg: &InfluenceConfig,
) -> [Vec<f64>; K] {
    let _span = ppfr_telemetry::span!("influence");
    let adjoints = grads.map(|grad_f| cg_adjoint(model, ctx, labels, train_ids, grad_f, cfg));
    influences_from_adjoints(
        model,
        ctx,
        labels,
        train_ids,
        adjoints.each_ref().map(Vec::as_slice),
    )
}

/// [`compute_influences`] with the stochastic LiSSA estimator in place of the
/// exact CG solve — the degraded rung of the resilience ladder (and the
/// opt-in fast path when `lissa_depth` is configured).  Only the
/// inverse-Hessian solve differs, and each chain's batches depend only on
/// the seed, the chain and the iteration; callers must flag results as
/// approximate (the runner records a [`ppfr_resilience::DegradationEvent`]
/// per downgrade).
pub fn compute_influences_lissa<const K: usize>(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    grads: [&[f64]; K],
    cfg: &LissaConfig,
) -> [Vec<f64>; K] {
    let _span = ppfr_telemetry::span!("influence");
    let adjoints = grads.map(|grad_f| lissa_adjoint(model, ctx, labels, train_ids, grad_f, cfg));
    influences_from_adjoints(
        model,
        ctx,
        labels,
        train_ids,
        adjoints.each_ref().map(Vec::as_slice),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradients::node_loss_grad;
    use crate::{bias_grad_wrt_params, risk_grad_wrt_params, training_loss_grad};
    use ppfr_datasets::{generate, two_block_synthetic};
    use ppfr_fairness::bias;
    use ppfr_gnn::{train, ModelKind, TrainConfig};
    use ppfr_graph::{jaccard_similarity, similarity_laplacian, SparseMatrix};
    use ppfr_linalg::parallel::with_forced_threads;
    use ppfr_linalg::{pearson, row_softmax};
    use ppfr_privacy::PairSample;
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

    /// The parameter gradients of utility, bias and risk at `model`'s
    /// parameters.
    fn utility_bias_risk_grads(model: &AnyModel, s: &Setup) -> [Vec<f64>; 3] {
        [
            training_loss_grad(model, &s.ctx, &s.labels, &s.train_ids),
            bias_grad_wrt_params(model, &s.ctx, &s.l_s),
            risk_grad_wrt_params(model, &s.ctx, &s.sample),
        ]
    }

    #[test]
    fn influences_are_finite_and_aligned_with_training_nodes() {
        let s = trained_setup();
        let cfg = InfluenceConfig {
            cg_iters: 15,
            ..Default::default()
        };
        let grads = utility_bias_risk_grads(&s.model, &s);
        let [util, bias, risk] = compute_influences(
            &s.model,
            &s.ctx,
            &s.labels,
            &s.train_ids,
            grads.each_ref().map(Vec::as_slice),
            &cfg,
        );
        for (name, values) in [("util", &util), ("bias", &bias), ("risk", &risk)] {
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
        let r = pearson(&bias, &risk);
        assert!((-1.0..=1.0).contains(&r), "correlation out of range: {r}");
    }

    #[test]
    fn compute_influences_is_bit_identical_across_thread_counts() {
        let s = trained_setup();
        let cfg = InfluenceConfig {
            cg_iters: 6,
            ..Default::default()
        };
        let grad_bias = bias_grad_wrt_params(&s.model, &s.ctx, &s.l_s);
        let run = || {
            compute_influences(
                &s.model,
                &s.ctx,
                &s.labels,
                &s.train_ids,
                [&grad_bias],
                &cfg,
            )
        };
        let baseline = with_forced_threads(1, run);
        for threads in [2, 8] {
            assert_eq!(
                with_forced_threads(threads, run),
                baseline,
                "compute_influences differs at {threads} threads"
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
        let [inf_bias] = compute_influences(
            &s.model,
            &s.ctx,
            &s.labels,
            &s.train_ids,
            [&grad_bias],
            &cfg,
        );

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

    /// One untrained model per architecture on `ctx`; GraphSAGE samples its
    /// neighbours as the pipeline does (`sample_size = Some(10)`, resampled).
    fn every_kind(ctx: &GraphContext, n_classes: usize) -> Vec<AnyModel> {
        ModelKind::ALL
            .iter()
            .map(|&kind| {
                let mut model = AnyModel::new(kind, ctx.feat_dim(), 6, n_classes, 5);
                if let AnyModel::GraphSage(sage) = &mut model {
                    sage.sample_size = Some(10);
                }
                model.resample(ctx, 3);
                model
            })
            .collect()
    }

    fn bits(values: &[Vec<f64>]) -> Vec<Vec<u64>> {
        values
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn shared_tail_equals_per_node_loss_gradients_bit_for_bit() {
        // The oracle is the tail this one replaced: a fresh forward and
        // backward per node, `−s · ∇_θ L(v)` for each adjoint.
        let s = trained_setup();
        for model in every_kind(&s.ctx, s.model.n_classes()) {
            let n = model.n_params();
            let adjoints: [Vec<f64>; 3] = std::array::from_fn(|k| {
                (0..n)
                    .map(|i| ((i * (k + 2)) as f64 * 0.37).sin())
                    .collect()
            });
            for len in [0, 1, TAIL_BLOCK, TAIL_BLOCK + 1] {
                let ids = &s.train_ids[..len];
                let grads: Vec<Vec<f64>> = ids
                    .iter()
                    .map(|&v| node_loss_grad(&model, &s.ctx, &s.labels, v))
                    .collect();
                let oracle = adjoints.each_ref().map(|s_f| {
                    grads
                        .iter()
                        .map(|g_v| {
                            -s_f.iter()
                                .zip(g_v.iter())
                                .map(|(&a, &b)| a * b)
                                .sum::<f64>()
                        })
                        .collect::<Vec<f64>>()
                });
                for threads in [1, 2, 4] {
                    let tail = with_forced_threads(threads, || {
                        influences_from_adjoints(
                            &model,
                            &s.ctx,
                            &s.labels,
                            ids,
                            adjoints.each_ref().map(Vec::as_slice),
                        )
                    });
                    assert_eq!(
                        bits(&tail),
                        bits(&oracle),
                        "{:?}, {len} nodes, {threads} threads",
                        model.kind()
                    );
                }
            }
        }
    }

    // Each solve has its own scratch, LiSSA's batches depend only on
    // (seed, chain, iteration) and the tail dots each adjoint on its own, so
    // an influence does not depend on which others are asked with it: a
    // K-gradient call equals K separate K = 1 calls, bit for bit.

    #[test]
    fn compute_influences_equals_three_single_adjoint_calls() {
        let s = trained_setup();
        let cfg = InfluenceConfig {
            cg_iters: 4,
            ..Default::default()
        };
        for model in every_kind(&s.ctx, s.model.n_classes()) {
            let (ctx, labels, ids) = (&s.ctx, &s.labels, &s.train_ids);
            let grads = utility_bias_risk_grads(&model, &s);
            let grads = grads.each_ref().map(Vec::as_slice);
            let shared = compute_influences(&model, ctx, labels, ids, grads, &cfg);
            let single = grads.map(|g| compute_influences(&model, ctx, labels, ids, [g], &cfg));
            assert_eq!(
                bits(&shared),
                bits(single.as_flattened()),
                "{:?}",
                model.kind()
            );
        }
    }

    #[test]
    fn compute_influences_lissa_equals_three_single_adjoint_calls() {
        let s = trained_setup();
        let cfg = LissaConfig {
            depth: 3,
            batch: 8,
            samples: 2,
            seed: 9,
            ..Default::default()
        };
        for model in every_kind(&s.ctx, s.model.n_classes()) {
            let (ctx, labels, ids) = (&s.ctx, &s.labels, &s.train_ids);
            let grads = utility_bias_risk_grads(&model, &s);
            let grads = grads.each_ref().map(Vec::as_slice);
            let shared = compute_influences_lissa(&model, ctx, labels, ids, grads, &cfg);
            let single =
                grads.map(|g| compute_influences_lissa(&model, ctx, labels, ids, [g], &cfg));
            assert_eq!(
                bits(&shared),
                bits(single.as_flattened()),
                "{:?}",
                model.kind()
            );
        }
    }
}
