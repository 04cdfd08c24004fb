//! End-to-end benchmarks, one group per figure of the paper, at smoke scale.

use criterion::{criterion_group, criterion_main, Criterion};
use ppfr_core::experiments::{fig6_ablation_seeded, scaled_spec};
use ppfr_core::{attack_sample, predictions, run_method, ExperimentScale, Method, PpfrConfig};
use ppfr_datasets::{cora, generate};
use ppfr_gnn::ModelKind;
use ppfr_privacy::auc_per_distance;
use std::time::Duration;

fn bench_fig4(c: &mut Criterion) {
    // Fig. 4 kernel: the eight-distance attack sweep against one model.
    let spec = scaled_spec(cora(), ExperimentScale::Smoke);
    let cfg = PpfrConfig::smoke();
    let dataset = generate(&spec, 7);
    let reg = run_method(&dataset, ModelKind::Gcn, Method::Reg, &cfg);
    let probs = predictions(&reg, &cfg);
    let sample = attack_sample(&dataset, &cfg);
    let mut group = c.benchmark_group("fig4_attack_auc");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("auc_per_distance_reg_gcn", |b| {
        b.iter(|| auc_per_distance(&probs, &sample))
    });
    group.finish();
}

fn bench_fig5_and_fig7(c: &mut Criterion) {
    // Figs. 5 & 7 kernels: the accuracy-cost extraction over a prepared
    // (small) Table IV plus the expensive cell they depend on (GAT PPFR).
    let spec = scaled_spec(cora(), ExperimentScale::Smoke);
    let cfg = PpfrConfig::smoke();
    let dataset = generate(&spec, 7);
    let mut group = c.benchmark_group("fig5_fig7_accuracy_cost");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("gat_ppfr_cell", |b| {
        b.iter(|| run_method(&dataset, ModelKind::Gat, Method::Ppfr, &cfg))
    });
    group.bench_function("sage_ppfr_cell", |b| {
        b.iter(|| run_method(&dataset, ModelKind::GraphSage, Method::Ppfr, &cfg))
    });
    group.finish();
}

fn bench_fig6(c: &mut Criterion) {
    // Fig. 6 kernel: the whole three-panel ablation at smoke scale.
    let mut group = c.benchmark_group("fig6_ablation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("three_panel_ablation_smoke", |b| {
        b.iter(|| fig6_ablation_seeded(ExperimentScale::Smoke, 7))
    });
    group.finish();
}

criterion_group!(figures, bench_fig4, bench_fig5_and_fig7, bench_fig6);
criterion_main!(figures);
