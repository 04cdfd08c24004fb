//! Micro-benchmarks of the hot kernels: GCN/GAT/GraphSAGE forward+backward,
//! Jaccard similarity, link-stealing AUC, Hessian-vector products and the
//! QCLP solver.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ppfr_core::attack_sample;
use ppfr_core::PpfrConfig;
use ppfr_datasets::{cora, generate, two_block_synthetic};
use ppfr_gnn::{AnyModel, GnnModel, GraphContext, ModelKind, TrainWorkspace};
use ppfr_graph::jaccard_similarity;
use ppfr_influence::{hessian_vector_product_with, HvpScratch};
use ppfr_linalg::{row_softmax, Matrix};
use ppfr_privacy::average_attack_auc;
use ppfr_qclp::{solve, QclpProblem, SolverOptions};
use std::time::Duration;

fn bench_model_passes(c: &mut Criterion) {
    let ds = generate(&cora(), 7);
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    let mut group = c.benchmark_group("gnn_forward_backward");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for kind in ModelKind::ALL {
        let model = AnyModel::new(kind, ctx.feat_dim(), 16, ds.n_classes, 1);
        let mut ws = TrainWorkspace::new();
        group.bench_function(format!("forward_{}", kind.name()), |b| {
            b.iter(|| model.forward_ws(&ctx, &mut ws))
        });
        // The backward pass reuses the activations of the last forward.
        model.forward_ws(&ctx, &mut ws);
        ws.d_logits = Matrix::filled(ds.n_nodes(), ds.n_classes, 1e-3);
        group.bench_function(format!("backward_{}", kind.name()), |b| {
            b.iter(|| model.backward_ws(&ctx, &mut ws))
        });
    }
    group.finish();
}

fn bench_graph_kernels(c: &mut Criterion) {
    let ds = generate(&cora(), 7);
    let mut group = c.benchmark_group("graph_kernels");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("jaccard_similarity_cora", |b| {
        b.iter(|| jaccard_similarity(&ds.graph))
    });
    let a_hat = ds.graph.normalized_adjacency();
    group.bench_function("spmm_cora", |b| b.iter(|| a_hat.matmul_dense(&ds.features)));
    group.finish();
}

fn bench_attack(c: &mut Criterion) {
    let ds = generate(&cora(), 7);
    let cfg = PpfrConfig::smoke();
    let sample = attack_sample(&ds, &cfg);
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 16, ds.n_classes, 1);
    let probs = row_softmax(&model.forward(&ctx));
    let mut group = c.benchmark_group("link_stealing_attack");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("average_auc_8_distances_cora", |b| {
        b.iter(|| average_attack_auc(&probs, &sample))
    });
    group.finish();
}

fn bench_influence_and_qclp(c: &mut Criterion) {
    let ds = generate(&two_block_synthetic(), 7);
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 8, ds.n_classes, 1);
    let v = vec![0.01; model.n_params()];
    let mut scratch = HvpScratch::new(&model);
    let mut group = c.benchmark_group("influence_and_qclp");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("hessian_vector_product", |b| {
        b.iter(|| {
            hessian_vector_product_with(
                &mut scratch,
                &ctx,
                &ds.labels,
                &ds.splits.train,
                &v,
                1e-4,
                0.01,
            )
        })
    });
    let n = 200;
    let problem = QclpProblem {
        bias_influence: (0..n)
            .map(|i| ((i * 31 % 17) as f64 - 8.0) / 10.0)
            .collect(),
        util_influence: (0..n)
            .map(|i| ((i * 13 % 23) as f64 - 11.0) / 10.0)
            .collect(),
        alpha: 0.9,
        beta: 0.1,
    };
    group.bench_function("qclp_solve_200_vars", |b| {
        b.iter_batched(
            || problem.clone(),
            |p| solve(&p, &SolverOptions::default()),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_model_passes,
    bench_graph_kernels,
    bench_attack,
    bench_influence_and_qclp
);
criterion_main!(kernels);
