//! Privacy-aware perturbation (PP): heterophilic noise edges (§VI-B2).

use ppfr_gnn::{AnyModel, GnnModel, GraphContext};
use ppfr_graph::EdgePerturbation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds the privacy-aware perturbation `ΔA`: for every node `v_i`, sample
/// `γ · |N(i)|` unconnected partners whose *predicted* label (from the
/// vanilla-trained GNN) differs from `v_i`'s predicted label, and add those
/// heterophilic edges.
///
/// The strategy follows the two insights of §VI-B2: heterophilic edges shrink
/// `d₀` (unconnected pairs become closer in prediction space) and shrink the
/// class-mean separation `‖μ₁ − μ₀‖` of Eq. (20), both of which restrict the
/// privacy risk raised by the fairness fine-tuning.
pub fn heterophilic_perturbation(
    model: &AnyModel,
    ctx: &GraphContext,
    ratio: f64,
    seed: u64,
) -> EdgePerturbation {
    let logits = model.forward(ctx);
    let predicted = logits.row_argmax();
    let n = ctx.n_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    EdgePerturbation::per_node_sampled(&ctx.graph, ratio, &mut rng, |v| {
        let own = predicted[v];
        (0..n)
            .filter(|&u| u != v && predicted[u] != own && !ctx.graph.has_edge(u, v))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::{generate, two_block_synthetic};
    use ppfr_gnn::{train, ModelKind, TrainConfig};
    use ppfr_graph::homophily;

    fn trained() -> (AnyModel, GraphContext, Vec<usize>) {
        let ds = generate(&two_block_synthetic(), 41);
        let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
        let mut model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 8, ds.n_classes, 3);
        let w = vec![1.0; ds.splits.train.len()];
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
            &w,
            None,
            &cfg,
        );
        (model, ctx, ds.labels.clone())
    }

    #[test]
    fn perturbation_adds_only_new_heterophilic_edges() {
        let (model, ctx, _) = trained();
        let logits = model.forward(&ctx);
        let predicted = logits.row_argmax();
        let delta = heterophilic_perturbation(&model, &ctx, 1.0, 9);
        assert!(!delta.is_empty(), "with γ=1 some edges must be added");
        for &(u, v) in delta.edges() {
            assert!(!ctx.graph.has_edge(u, v), "({u},{v}) already existed");
            assert_ne!(
                predicted[u], predicted[v],
                "({u},{v}) is not heterophilic w.r.t. predictions"
            );
        }
    }

    #[test]
    fn perturbation_budget_scales_with_gamma() {
        let (model, ctx, _) = trained();
        let small = heterophilic_perturbation(&model, &ctx, 0.3, 9);
        let large = heterophilic_perturbation(&model, &ctx, 1.5, 9);
        assert!(
            large.len() > small.len(),
            "γ=1.5 ({}) must add more edges than γ=0.3 ({})",
            large.len(),
            small.len()
        );
    }

    #[test]
    fn perturbed_graph_has_lower_homophily() {
        let (model, ctx, labels) = trained();
        let before = homophily(&ctx.graph, &labels);
        let after_graph = heterophilic_perturbation(&model, &ctx, 1.0, 9).apply(&ctx.graph);
        let after = homophily(&after_graph, &labels);
        assert!(
            after < before,
            "heterophilic noise must reduce homophily: before {before}, after {after}"
        );
        assert!(after_graph.n_edges() > ctx.graph.n_edges());
    }

    #[test]
    fn zero_ratio_is_a_noop() {
        let (model, ctx, _) = trained();
        let delta = heterophilic_perturbation(&model, &ctx, 0.0, 9);
        assert!(delta.is_empty());
    }
}
