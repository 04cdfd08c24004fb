//! Pins the determinism of the workspace path, the one forward/backward
//! implementation of every model: forward and backward passes and full
//! `train()` runs are **bit-identical** across forced worker-thread counts
//! for every architecture, with and without neighbour sampling and the
//! fairness regulariser — and workspace reuse across runs leaks no state.
//! Gradient correctness itself is checked against finite differences in the
//! model modules.

use ppfr_datasets::{generate, two_block_synthetic};
use ppfr_gnn::{
    train, train_sampled, AnyModel, FairnessReg, GnnModel, GraphContext, GraphSage, ModelKind,
    SampledContext, TrainConfig, TrainWorkspace,
};
use ppfr_graph::{jaccard_similarity, similarity_laplacian};
use ppfr_linalg::parallel::with_forced_threads;
use ppfr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> (GraphContext, Vec<usize>, Vec<usize>) {
    let ds = generate(&two_block_synthetic(), 7);
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    (ctx, ds.labels.clone(), ds.splits.train.clone())
}

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 25,
        lr: 0.02,
        weight_decay: 5e-4,
        seed: 3,
    }
}

/// Trains `make()` at 1 and at 4 forced worker threads and asserts equal
/// parameters, loss history and final bias.
fn assert_train_is_thread_count_invariant(
    what: &str,
    make: impl Fn() -> AnyModel,
    fairness: Option<&FairnessReg>,
) {
    let (ctx, labels, train_ids) = setup();
    let weights = vec![1.0; train_ids.len()];
    let run = |threads| {
        let mut model = make();
        let report = with_forced_threads(threads, || {
            train(
                &mut model,
                &ctx,
                &labels,
                &train_ids,
                &weights,
                fairness,
                &cfg(),
            )
        });
        (model.params(), report)
    };
    let (params_1, report_1) = run(1);
    let (params_4, report_4) = run(4);
    assert_eq!(params_4, params_1, "{what} parameters differ at 4 threads");
    assert_eq!(
        report_4.loss_history, report_1.loss_history,
        "{what} loss history differs at 4 threads"
    );
    assert_eq!(
        report_4.final_bias.map(f64::to_bits),
        report_1.final_bias.map(f64::to_bits),
        "{what} final bias differs at 4 threads"
    );
}

#[test]
fn forward_ws_and_backward_ws_are_thread_count_invariant() {
    let (ctx, _, _) = setup();
    for kind in ModelKind::ALL {
        let model = AnyModel::new(kind, ctx.feat_dim(), 8, 2, 11);
        // An arbitrary dense upstream gradient.
        let d_logits = Matrix::from_vec(
            ctx.n_nodes(),
            2,
            (0..ctx.n_nodes() * 2)
                .map(|i| ((i as f64) * 0.37).sin() * 1e-2)
                .collect(),
        );
        let pass = |ws: &mut TrainWorkspace| {
            model.forward_ws(&ctx, ws);
            ws.d_logits.copy_from(&d_logits);
            model.backward_ws(&ctx, ws);
        };
        let mut reference = TrainWorkspace::new();
        with_forced_threads(1, || pass(&mut reference));
        // One warm workspace across thread counts: reuse must not leak either.
        let mut ws = TrainWorkspace::new();
        for threads in [1, 4] {
            with_forced_threads(threads, || pass(&mut ws));
            assert_eq!(
                ws.logits.as_slice(),
                reference.logits.as_slice(),
                "{} forward differs at {threads} threads",
                kind.name()
            );
            assert_eq!(
                ws.grads,
                reference.grads,
                "{} backward differs at {threads} threads",
                kind.name()
            );
        }
        assert_eq!(
            model.forward(&ctx).as_slice(),
            reference.logits.as_slice(),
            "{} one-shot forward differs from forward_ws",
            kind.name()
        );
    }
}

#[test]
fn full_train_is_bit_identical_across_thread_counts() {
    let (ctx, _, _) = setup();
    for kind in ModelKind::ALL {
        assert_train_is_thread_count_invariant(
            kind.name(),
            || AnyModel::new(kind, ctx.feat_dim(), 8, 2, 5),
            None,
        );
    }
}

#[test]
fn sampling_enabled_graphsage_train_is_thread_count_invariant() {
    // The production pipeline trains GraphSAGE with neighbour sampling, so
    // the per-epoch resample() path (sampled_agg rebuilt every epoch) is
    // pinned too, not just the full-neighbourhood aggregator.
    let (ctx, _, _) = setup();
    assert_train_is_thread_count_invariant(
        "sampled GraphSAGE",
        || {
            let mut sage = GraphSage::new(ctx.feat_dim(), 8, 2, &mut StdRng::seed_from_u64(17));
            sage.sample_size = Some(2);
            AnyModel::GraphSage(sage)
        },
        None,
    );
}

#[test]
fn fairness_regularised_train_is_thread_count_invariant() {
    let (ctx, _, _) = setup();
    let s = jaccard_similarity(&ctx.graph);
    let reg = FairnessReg {
        laplacian: similarity_laplacian(&s),
        lambda: 2.0,
    };
    for kind in ModelKind::ALL {
        assert_train_is_thread_count_invariant(
            &format!("{} regularised", kind.name()),
            || AnyModel::new(kind, ctx.feat_dim(), 8, 2, 9),
            Some(&reg),
        );
    }
}

#[test]
fn workspace_reuse_across_runs_and_architectures_leaks_no_state() {
    // `train_sampled` is the entry point that takes a caller's workspace; at
    // full fan-out it trains on the full graph every epoch.
    let ds = generate(&two_block_synthetic(), 7);
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    let (labels, train_ids) = (&ds.labels, &ds.splits.train);
    let weights = vec![1.0; train_ids.len()];
    let fanout = (0..ds.n_nodes())
        .map(|v| ds.graph.degree(v))
        .max()
        .unwrap_or(1);
    let mut sctx = SampledContext::new(ds.graph.clone(), ds.features.clone(), fanout);
    let mut ws = TrainWorkspace::new();
    // Same workspace reused across all three architectures and twice per
    // architecture: every run must equal a fresh-workspace run.
    for kind in ModelKind::ALL {
        let mut fresh_model = AnyModel::new(kind, ctx.feat_dim(), 8, 2, 13);
        let fresh = train(
            &mut fresh_model,
            &ctx,
            labels,
            train_ids,
            &weights,
            None,
            &cfg(),
        );
        for run in 0..2 {
            let mut model = AnyModel::new(kind, ctx.feat_dim(), 8, 2, 13);
            let report = train_sampled(
                &mut model,
                &mut sctx,
                labels,
                train_ids,
                &weights,
                None,
                &cfg(),
                &mut ws,
            );
            assert_eq!(
                model.params(),
                fresh_model.params(),
                "{} run {run} with a warm workspace diverges",
                kind.name()
            );
            assert_eq!(report.loss_history, fresh.loss_history);
        }
    }
}
