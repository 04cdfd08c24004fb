//! Pins the stochastic LiSSA estimator against the exact dense-CG engine at
//! small `n`: full-batch LiSSA must agree with CG within the documented
//! tolerance (relative ℓ2 error ≤ 5e-2) and preserve the top-k influence
//! ranking, across seeds, damping and depth; mini-batch LiSSA must stay
//! strongly rank-correlated; and the estimator must be bit-identical across
//! forced thread counts.

use ppfr_datasets::{generate, two_block_synthetic};
use ppfr_gnn::{train, AnyModel, GraphContext, ModelKind, TrainConfig};
use ppfr_graph::{jaccard_similarity, similarity_laplacian};
use ppfr_influence::{
    bias_grad_wrt_params, compute_influences, compute_influences_lissa, pearson, InfluenceConfig,
    LissaConfig,
};
use proptest::prelude::*;
use std::sync::OnceLock;

struct Setup {
    model: AnyModel,
    ctx: GraphContext,
    labels: Vec<usize>,
    train_ids: Vec<usize>,
    grad_bias: Vec<f64>,
}

/// One trained model shared by every proptest case (training dominates the
/// cost; the estimators are what varies).
fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
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
        let l_s = similarity_laplacian(&jaccard_similarity(&ds.graph));
        let grad_bias = bias_grad_wrt_params(&model, &ctx, &l_s);
        Setup {
            model,
            ctx,
            labels: ds.labels,
            train_ids: ds.splits.train,
            grad_bias,
        }
    })
}

fn exact_influences(s: &Setup, damping: f64) -> Vec<f64> {
    let cfg = InfluenceConfig {
        damping,
        cg_iters: 60,
        cg_tol: 1e-10,
        fd_step: 1e-4,
    };
    let [exact] = compute_influences(
        &s.model,
        &s.ctx,
        &s.labels,
        &s.train_ids,
        [&s.grad_bias],
        &cfg,
    );
    exact
}

fn lissa_influences(s: &Setup, cfg: &LissaConfig) -> Vec<f64> {
    let [approx] = compute_influences_lissa(
        &s.model,
        &s.ctx,
        &s.labels,
        &s.train_ids,
        [&s.grad_bias],
        cfg,
    );
    approx
}

fn relative_l2_error(got: &[f64], want: &[f64]) -> f64 {
    let num: f64 = got
        .iter()
        .zip(want)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let den: f64 = want.iter().map(|&b| b * b).sum::<f64>().sqrt();
    num / den.max(1e-12)
}

/// Indices of the `k` largest values, in descending order.
fn top_k(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].partial_cmp(&values[a]).expect("finite scores"));
    idx.truncate(k);
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn full_batch_lissa_matches_cg_within_tolerance_and_preserves_topk(
        damping in 0.6f64..1.5,
        depth in 150usize..250,
        seed in 0u64..u64::MAX,
    ) {
        let s = setup();
        let exact = exact_influences(s, damping);
        let lissa_cfg = LissaConfig {
            damping,
            fd_step: 1e-4,
            depth,
            scale: 0.0,
            batch: 0,
            samples: 1,
            seed,
        };
        let approx = lissa_influences(s, &lissa_cfg);
        prop_assert!(approx.iter().all(|v| v.is_finite()), "non-finite LiSSA scores");
        let err = relative_l2_error(&approx, &exact);
        prop_assert!(
            err <= 5e-2,
            "LiSSA deviates from CG beyond the documented tolerance: rel l2 {err} \
             (damping {damping}, depth {depth})"
        );
        // Identical top-k rankings, both for the most bias-increasing and the
        // most bias-decreasing training nodes.
        prop_assert_eq!(top_k(&approx, 3), top_k(&exact, 3), "top-3 ranking diverges");
        let neg_approx: Vec<f64> = approx.iter().map(|v| -v).collect();
        let neg_exact: Vec<f64> = exact.iter().map(|v| -v).collect();
        prop_assert_eq!(
            top_k(&neg_approx, 3),
            top_k(&neg_exact, 3),
            "bottom-3 ranking diverges"
        );
    }
}

#[test]
fn mini_batch_lissa_stays_rank_correlated_with_the_exact_engine() {
    let s = setup();
    let damping = 1.0;
    let exact = exact_influences(s, damping);
    let lissa_cfg = LissaConfig {
        damping,
        fd_step: 1e-4,
        depth: 200,
        scale: 0.0,
        batch: s.train_ids.len().div_ceil(2),
        samples: 4,
        seed: 17,
    };
    let approx = lissa_influences(s, &lissa_cfg);
    assert!(approx.iter().all(|v| v.is_finite()));
    let r = pearson(&approx, &exact);
    assert!(
        r > 0.8,
        "mini-batch LiSSA lost the influence signal: pearson {r}"
    );
}

#[test]
fn lissa_is_deterministic_and_bit_identical_across_thread_counts() {
    let s = setup();
    let lissa_cfg = LissaConfig {
        damping: 1.0,
        fd_step: 1e-4,
        depth: 40,
        scale: 0.0,
        batch: 5,
        samples: 2,
        seed: 23,
    };
    let run = || lissa_influences(s, &lissa_cfg);
    let baseline = ppfr_linalg::parallel::with_forced_threads(1, run);
    assert_eq!(baseline, run(), "LiSSA must be deterministic run-to-run");
    let parallel = ppfr_linalg::parallel::with_forced_threads(4, run);
    assert_eq!(parallel, baseline, "LiSSA differs at 4 threads");
}
