//! Design-choice ablation benchmarks: heterophilic PP noise vs edge-DP noise
//! of the same magnitude, and the QCLP re-weighting vs a naive top-k
//! node-deletion scheme.

use criterion::{criterion_group, criterion_main, Criterion};
use ppfr_core::{attack_sample, fairness_weights, heterophilic_perturbation, predictions};
use ppfr_core::{run_method, Method, PpfrConfig};
use ppfr_datasets::{generate, two_block_synthetic};
use ppfr_gnn::{train, GraphContext, ModelKind};
use ppfr_graph::{jaccard_similarity, similarity_laplacian};
use ppfr_privacy::{average_attack_auc, edge_rand};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// PP vs DP: apply the same number of noisy edges via the heterophilic
/// strategy and via randomised response, fine-tune and compare the attack AUC.
fn bench_pp_vs_dp(c: &mut Criterion) {
    let dataset = generate(&two_block_synthetic(), 7);
    let cfg = PpfrConfig::smoke();
    let vanilla = run_method(&dataset, ModelKind::Gcn, Method::Vanilla, &cfg);
    let base_ctx = GraphContext::new(dataset.graph.clone(), dataset.features.clone());
    let sample = attack_sample(&dataset, &cfg);

    let finetune_and_attack = |graph: ppfr_graph::Graph| -> f64 {
        let ctx = base_ctx.with_graph(graph);
        let mut model = vanilla.model.clone();
        let w = vec![1.0; dataset.splits.train.len()];
        train(
            &mut model,
            &ctx,
            &dataset.labels,
            &dataset.splits.train,
            &w,
            None,
            &cfg.finetune_train_config(),
        );
        let outcome = ppfr_core::TrainedOutcome {
            model,
            deploy_ctx: ctx,
            method: Method::Ppfr,
            model_kind: ModelKind::Gcn,
            similarity_laplacian: vanilla.similarity_laplacian.clone(),
            fairness_loss_weights: None,
        };
        average_attack_auc(&predictions(&outcome, &cfg), &sample)
    };

    let mut group = c.benchmark_group("pp_vs_dp_noise");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("heterophilic_pp_finetune_attack", |b| {
        b.iter(|| {
            let delta = heterophilic_perturbation(&vanilla.model, &base_ctx, 1.0, cfg.seed);
            finetune_and_attack(delta.apply(&base_ctx.graph))
        })
    });
    group.bench_function("edge_rand_dp_finetune_attack", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            finetune_and_attack(edge_rand(&dataset.graph, cfg.dp_epsilon, &mut rng))
        })
    });
    group.finish();
}

/// QCLP re-weighting vs a plain top-k hard deletion of the most harmful nodes.
fn bench_qclp_vs_topk(c: &mut Criterion) {
    let dataset = generate(&two_block_synthetic(), 7);
    let cfg = PpfrConfig::smoke();
    let vanilla = run_method(&dataset, ModelKind::Gcn, Method::Vanilla, &cfg);
    let base_ctx = GraphContext::new(dataset.graph.clone(), dataset.features.clone());
    let l_s = similarity_laplacian(&jaccard_similarity(&dataset.graph));

    let mut group = c.benchmark_group("qclp_vs_topk_reweighting");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("qclp_soft_reweighting", |b| {
        b.iter(|| {
            fairness_weights(
                &vanilla.model,
                &base_ctx,
                &dataset.labels,
                &dataset.splits.train,
                &l_s,
                &cfg,
            )
        })
    });
    group.bench_function("topk_hard_deletion", |b| {
        b.iter(|| {
            // Naive alternative: compute the same influences but zero out the
            // k most bias-increasing nodes instead of solving the QCLP.
            let fr = fairness_weights(
                &vanilla.model,
                &base_ctx,
                &dataset.labels,
                &dataset.splits.train,
                &l_s,
                &cfg,
            );
            let mut order: Vec<usize> = (0..fr.bias_influence.len()).collect();
            order.sort_by(|&a, &b| {
                fr.bias_influence[a]
                    .partial_cmp(&fr.bias_influence[b])
                    .unwrap()
            });
            let k = order.len() / 5;
            let mut weights = vec![1.0; order.len()];
            for &idx in order.iter().take(k) {
                weights[idx] = 0.0;
            }
            weights
        })
    });
    group.finish();
}

criterion_group!(ablations, bench_pp_vs_dp, bench_qclp_vs_topk);
criterion_main!(ablations);
