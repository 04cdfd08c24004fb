//! Benchmarks of the link-stealing attack evaluation path: the single-pass
//! multi-metric kernel plus `O(m log m)` rank AUC behind `AttackEvaluator`,
//! and the rank AUC on its own.  The seed's per-metric, quadratic-AUC path
//! it replaced is timed against it in `BENCH_kernels.json` at commit
//! `d431821`; the quadratic AUC lives on as the test oracle
//! `auc_from_distances_quadratic`.

use criterion::{criterion_group, criterion_main, Criterion};
use ppfr_core::{attack_evaluator, PpfrConfig};
use ppfr_datasets::{generate, two_block_synthetic, DatasetSpec};
use ppfr_linalg::{row_softmax, Matrix};
use ppfr_privacy::auc_from_distances;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn setup() -> (Matrix, ppfr_privacy::AttackEvaluator) {
    let spec = DatasetSpec {
        n_nodes: 600,
        ..two_block_synthetic()
    };
    let ds = generate(&spec, 7);
    let cfg = PpfrConfig::smoke();
    let mut rng = StdRng::seed_from_u64(17);
    let probs = row_softmax(&Matrix::gaussian(
        ds.n_nodes(),
        ds.n_classes,
        0.0,
        1.0,
        &mut rng,
    ));
    let evaluator = attack_evaluator(&ds, &cfg);
    (probs, evaluator)
}

fn bench_attack_paths(c: &mut Criterion) {
    let (probs, mut evaluator) = setup();
    let mut group = c.benchmark_group("attack_evaluation_path");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("evaluator_single_pass_rank", |b| {
        b.iter(|| evaluator.evaluate(&probs).average_auc)
    });
    group.finish();
}

fn bench_auc_scaling(c: &mut Criterion) {
    // Rank AUC alone on synthetic distance samples.
    let m = 2000;
    let pos: Vec<f64> = (0..m)
        .map(|i| ((i * 7919) % 104729) as f64 / 104729.0)
        .collect();
    let neg: Vec<f64> = (0..m)
        .map(|i| 0.2 + ((i * 6101) % 104729) as f64 / 104729.0)
        .collect();
    let mut group = c.benchmark_group("auc_from_distances");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("rank_2000x2000", |b| {
        b.iter(|| auc_from_distances(&pos, &neg))
    });
    group.finish();
}

criterion_group!(attack, bench_attack_paths, bench_auc_scaling);
criterion_main!(attack);
