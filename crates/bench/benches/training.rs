//! End-to-end training benchmark of the zero-allocation `TrainWorkspace`
//! path, per architecture: the per-epoch forward+backward building block
//! and a 5-epoch training run on a warm workspace.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ppfr_datasets::{cora, generate};
use ppfr_gnn::{
    train_with_workspace, AnyModel, GnnModel, GraphContext, ModelKind, TrainConfig, TrainWorkspace,
};
use ppfr_linalg::Matrix;
use std::time::Duration;

fn bench_epoch_passes(c: &mut Criterion) {
    let ds = generate(&cora(), 7);
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    let mut group = c.benchmark_group("epoch_forward_backward");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for kind in ModelKind::ALL {
        let model = AnyModel::new(kind, ctx.feat_dim(), 16, ds.n_classes, 1);
        let d_logits = Matrix::filled(ds.n_nodes(), ds.n_classes, 1e-3);
        let mut ws = TrainWorkspace::new();
        group.bench_function(format!("workspace_{}", kind.name()), |b| {
            b.iter(|| {
                model.forward_ws(&ctx, &mut ws);
                ws.d_logits.copy_from(&d_logits);
                model.backward_ws(&ctx, &mut ws);
            })
        });
    }
    group.finish();
}

fn bench_full_training(c: &mut Criterion) {
    let ds = generate(&cora(), 7);
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    let weights = vec![1.0; ds.splits.train.len()];
    let cfg = TrainConfig {
        epochs: 5,
        lr: 0.01,
        weight_decay: 5e-4,
        seed: 1,
    };
    let mut group = c.benchmark_group("train_5_epochs");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for kind in ModelKind::ALL {
        let mut ws = TrainWorkspace::new();
        group.bench_function(format!("workspace_{}", kind.name()), |b| {
            b.iter_batched(
                || AnyModel::new(kind, ctx.feat_dim(), 16, ds.n_classes, 1),
                |mut model| {
                    train_with_workspace(
                        &mut model,
                        &ctx,
                        &ds.labels,
                        &ds.splits.train,
                        &weights,
                        None,
                        &cfg,
                        &mut ws,
                    )
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(training, bench_epoch_passes, bench_full_training);
criterion_main!(training);
