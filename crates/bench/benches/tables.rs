//! End-to-end benchmarks, one group per table of the paper, at smoke scale
//! (the full-scale numbers are produced by the `exp_table*` binaries).

use criterion::{criterion_group, criterion_main, Criterion};
use ppfr_core::experiments::scaled_spec;
use ppfr_core::{attack_sample, run_method, ExperimentScale, Method, PpfrConfig};
use ppfr_datasets::{cora, enzymes, generate};
use ppfr_gnn::ModelKind;
use ppfr_graph::{jaccard_similarity, similarity_laplacian};
use ppfr_influence::{bias_grad_wrt_params, compute_influences, pearson, risk_grad_wrt_params};
use std::time::Duration;

fn bench_table2(c: &mut Criterion) {
    // Table II kernel: influence of every training node on bias and risk plus
    // their correlation, for one (dataset, model) cell at smoke scale.
    let spec = scaled_spec(cora(), ExperimentScale::Smoke);
    let cfg = PpfrConfig::smoke();
    let dataset = generate(&spec, 7);
    let vanilla = run_method(&dataset, ModelKind::Gcn, Method::Vanilla, &cfg);
    let l_s = similarity_laplacian(&jaccard_similarity(&dataset.graph));
    let sample = attack_sample(&dataset, &cfg);
    let mut group = c.benchmark_group("table2_correlation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("influences_and_pearson_cora_gcn", |b| {
        b.iter(|| {
            let (model, ctx) = (&vanilla.model, &vanilla.deploy_ctx);
            let [bias, risk] = compute_influences(
                model,
                ctx,
                &dataset.labels,
                &dataset.splits.train,
                [
                    &bias_grad_wrt_params(model, ctx, &l_s),
                    &risk_grad_wrt_params(model, ctx, &sample),
                ],
                &cfg.influence_config(),
            );
            pearson(&bias, &risk)
        })
    });
    group.finish();
}

fn bench_table3(c: &mut Criterion) {
    // Table III kernel: vanilla vs fairness-regularised training of a GCN.
    let spec = scaled_spec(cora(), ExperimentScale::Smoke);
    let cfg = PpfrConfig::smoke();
    let dataset = generate(&spec, 7);
    let mut group = c.benchmark_group("table3_reg_tradeoff");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("train_vanilla_gcn", |b| {
        b.iter(|| run_method(&dataset, ModelKind::Gcn, Method::Vanilla, &cfg))
    });
    group.bench_function("train_reg_gcn", |b| {
        b.iter(|| run_method(&dataset, ModelKind::Gcn, Method::Reg, &cfg))
    });
    group.finish();
}

fn bench_table4(c: &mut Criterion) {
    // Table IV kernel: one full PPFR cell (vanilla train + influence + QCLP +
    // PP + fine-tune) and one DPReg cell for comparison.
    let spec = scaled_spec(cora(), ExperimentScale::Smoke);
    let cfg = PpfrConfig::smoke();
    let dataset = generate(&spec, 7);
    let mut group = c.benchmark_group("table4_methods");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("ppfr_cell_cora_gcn", |b| {
        b.iter(|| run_method(&dataset, ModelKind::Gcn, Method::Ppfr, &cfg))
    });
    group.bench_function("dpreg_cell_cora_gcn", |b| {
        b.iter(|| run_method(&dataset, ModelKind::Gcn, Method::DpReg, &cfg))
    });
    group.finish();
}

fn bench_table5(c: &mut Criterion) {
    // Table V kernel: the PPFR cell on a weak-homophily dataset.
    let spec = scaled_spec(enzymes(), ExperimentScale::Smoke);
    let cfg = PpfrConfig::smoke();
    let dataset = generate(&spec, 7);
    let mut group = c.benchmark_group("table5_weak_homophily");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("ppfr_cell_enzymes_gcn", |b| {
        b.iter(|| run_method(&dataset, ModelKind::Gcn, Method::Ppfr, &cfg))
    });
    group.finish();
}

criterion_group!(
    tables,
    bench_table2,
    bench_table3,
    bench_table4,
    bench_table5
);
criterion_main!(tables);
