//! The training pipelines: vanilla training, the paper's baselines and PPFR.

use crate::{fairness_weights, heterophilic_perturbation, PpfrConfig, ReweightOutcome};
use ppfr_datasets::Dataset;
use ppfr_gnn::{train, AnyModel, FairnessReg, GraphContext, ModelKind};
use ppfr_graph::{jaccard_similarity, similarity_laplacian, Graph, SparseMatrix};
use ppfr_privacy::{edge_rand, lap_graph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The training strategies compared in Tables IV and V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Plain training on the original graph (the `w/o` reference of Eq. 22).
    Vanilla,
    /// Vanilla training plus the InFoRM fairness regulariser (Reg).
    Reg,
    /// ε-edge-DP perturbed graph plus the fairness regulariser, trained from
    /// scratch (DPReg).
    DpReg,
    /// Vanilla training, then fine-tuning with fairness-aware re-weighting on
    /// an ε-edge-DP perturbed graph (DPFR).
    DpFr,
    /// The paper's method: vanilla training, then fine-tuning with
    /// fairness-aware re-weighting on the heterophilic privacy-aware
    /// perturbation (PPFR).
    Ppfr,
}

impl Method {
    /// The four non-reference methods, in the order of Table IV.
    pub const COMPARED: [Method; 4] = [Method::Reg, Method::DpReg, Method::DpFr, Method::Ppfr];

    /// All five strategies: the vanilla reference followed by the compared
    /// methods, in the order the scenario runner reports them.
    pub const ALL: [Method; 5] = [
        Method::Vanilla,
        Method::Reg,
        Method::DpReg,
        Method::DpFr,
        Method::Ppfr,
    ];

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Method::Vanilla => "Vanilla",
            Method::Reg => "Reg",
            Method::DpReg => "DPReg",
            Method::DpFr => "DPFR",
            Method::Ppfr => "PPFR",
        }
    }
}

/// A trained model together with the graph context it is deployed on and the
/// artefacts needed for evaluation.
#[derive(Debug, Clone)]
pub struct TrainedOutcome {
    /// The trained model.
    pub model: AnyModel,
    /// The graph context the model is deployed (and evaluated) on — the
    /// perturbed graph for DP/PP methods, the original graph otherwise.
    pub deploy_ctx: GraphContext,
    /// Which method produced this model.
    pub method: Method,
    /// Which architecture was trained.
    pub model_kind: ModelKind,
    /// Laplacian of the Jaccard similarity of the *original* graph, used by
    /// every fairness evaluation so methods are compared on the same notion
    /// of similarity.
    pub similarity_laplacian: SparseMatrix,
    /// Fine-tuning loss weights (`1 + w_v`), when the method used FR.
    pub fairness_loss_weights: Option<Vec<f64>>,
}

/// Chooses the edge-DP mechanism the paper uses per dataset: EdgeRand on the
/// smaller graphs (Cora, Citeseer), LapGraph on larger ones (Pubmed) where it
/// is the more efficient mechanism.
fn dp_perturb(dataset: &Dataset, epsilon: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
    if dataset.graph.n_nodes() >= 2500 {
        lap_graph(&dataset.graph, epsilon, &mut rng)
    } else {
        edge_rand(&dataset.graph, epsilon, &mut rng)
    }
}

fn build_model(
    kind: ModelKind,
    ctx: &GraphContext,
    dataset: &Dataset,
    cfg: &PpfrConfig,
) -> AnyModel {
    let mut model = AnyModel::new(
        kind,
        ctx.feat_dim(),
        cfg.hidden,
        dataset.n_classes,
        cfg.seed,
    );
    // GraphSAGE uses neighbour sampling, mirroring the paper's observation
    // that sampling dilutes edge-DP noise (Table IV discussion).
    if let AnyModel::GraphSage(sage) = &mut model {
        sage.sample_size = Some(10);
    }
    model
}

/// Runs one training strategy end to end and returns the trained outcome.
pub fn run_method(
    dataset: &Dataset,
    kind: ModelKind,
    method: Method,
    cfg: &PpfrConfig,
) -> TrainedOutcome {
    run_method_from_vanilla(dataset, kind, method, cfg, None, &mut None)
}

/// The fairness-aware re-weighting of the vanilla model, shared through
/// `slot` between the FR cells of one `(dataset, model, seed)`: the first
/// cell computes and stores it, a later one clones it.  The slot is read or
/// filled only under [`ppfr_resilience::budget_unbounded`]; a bounded or
/// cancelled budget makes the solve spend or degrade this cell's allowance,
/// so such a cell computes its own and leaves the slot alone.
fn reweight_once(
    slot: &mut Option<ReweightOutcome>,
    compute: impl FnOnce() -> ReweightOutcome,
) -> ReweightOutcome {
    if !ppfr_resilience::budget_unbounded() {
        return compute();
    }
    slot.get_or_insert_with(compute).clone()
}

/// [`run_method`] with an optional pre-trained vanilla checkpoint and a
/// re-weighting slot shared by the FR methods.
///
/// The strategies that begin with plain vanilla training (`Vanilla`, `DPFR`,
/// `PPFR`) reuse the checkpoint's model instead of re-running the vanilla
/// phase, and every strategy reuses its similarity Laplacian.  Vanilla
/// training is deterministic in `(dataset, kind, cfg)` and each later phase
/// draws from its own freshly seeded RNG stream, so the result is
/// bit-identical to [`run_method`] — the scenario runner's artifact cache
/// relies on this to stop the five methods from re-paying setup.
///
/// `DPFR` and `PPFR` re-weight the same vanilla model on the same graph
/// (influence functions + the QCLP of Eq. 13), so the first of them to run
/// stores its [`ReweightOutcome`] in `reweight` and the other reuses it,
/// bit-identically.  Pass a fresh `&mut None` to compute it in place; the
/// slot must only ever see one `(dataset, kind, cfg)` and its checkpoint.
///
/// # Panics
/// Panics when the checkpoint is not a `Vanilla` outcome of the same
/// architecture.
pub fn run_method_from_vanilla(
    dataset: &Dataset,
    kind: ModelKind,
    method: Method,
    cfg: &PpfrConfig,
    vanilla: Option<&TrainedOutcome>,
    reweight: &mut Option<ReweightOutcome>,
) -> TrainedOutcome {
    let _span = ppfr_telemetry::span!("run_method");
    if let Some(checkpoint) = vanilla {
        assert_eq!(
            checkpoint.method,
            Method::Vanilla,
            "checkpoint must be a Vanilla outcome"
        );
        assert_eq!(
            checkpoint.model_kind, kind,
            "checkpoint architecture mismatch"
        );
    }
    let base_ctx = GraphContext::new(dataset.graph.clone(), dataset.features.clone());
    let l_s = match vanilla {
        Some(checkpoint) => checkpoint.similarity_laplacian.clone(),
        None => similarity_laplacian(&jaccard_similarity(&dataset.graph)),
    };
    let labels = &dataset.labels;
    let train_ids = &dataset.splits.train;
    let uniform = vec![1.0; train_ids.len()];
    let reg = || FairnessReg {
        laplacian: l_s.clone(),
        lambda: cfg.fairness_lambda,
    };

    // The trained vanilla model: taken from the checkpoint when one is given,
    // trained from scratch otherwise.
    let vanilla_model = || match vanilla {
        Some(checkpoint) => checkpoint.model.clone(),
        None => {
            let mut model = build_model(kind, &base_ctx, dataset, cfg);
            train(
                &mut model,
                &base_ctx,
                labels,
                train_ids,
                &uniform,
                None,
                &cfg.vanilla_train_config(),
            );
            model
        }
    };

    let (model, deploy_ctx, fairness_loss_weights) = match method {
        Method::Vanilla => (vanilla_model(), base_ctx.clone(), None),
        Method::Reg => {
            let mut model = build_model(kind, &base_ctx, dataset, cfg);
            train(
                &mut model,
                &base_ctx,
                labels,
                train_ids,
                &uniform,
                Some(&reg()),
                &cfg.vanilla_train_config(),
            );
            (model, base_ctx.clone(), None)
        }
        Method::DpReg => {
            let mut model = build_model(kind, &base_ctx, dataset, cfg);
            let dp_graph = dp_perturb(dataset, cfg.dp_epsilon, cfg.seed);
            let dp_ctx = base_ctx.with_graph(dp_graph);
            train(
                &mut model,
                &dp_ctx,
                labels,
                train_ids,
                &uniform,
                Some(&reg()),
                &cfg.vanilla_train_config(),
            );
            (model, dp_ctx, None)
        }
        // DPFR and PPFR differ only in the graph they fine-tune and deploy
        // on: ε-edge-DP noise, or the heterophilic perturbation of the
        // vanilla model.
        Method::DpFr | Method::Ppfr => {
            let mut model = vanilla_model();
            let fr = reweight_once(reweight, || {
                fairness_weights(&model, &base_ctx, labels, train_ids, &l_s, cfg)
            });
            let graph = if method == Method::DpFr {
                dp_perturb(dataset, cfg.dp_epsilon, cfg.seed)
            } else {
                let delta = heterophilic_perturbation(
                    &model,
                    &base_ctx,
                    cfg.perturb_ratio,
                    cfg.seed ^ 0x7f4a_7c15,
                );
                delta.apply(&base_ctx.graph)
            };
            let ctx = base_ctx.with_graph(graph);
            train(
                &mut model,
                &ctx,
                labels,
                train_ids,
                &fr.loss_weights,
                None,
                &cfg.finetune_train_config(),
            );
            (model, ctx, Some(fr.loss_weights))
        }
    };

    TrainedOutcome {
        model,
        deploy_ctx,
        method,
        model_kind: kind,
        similarity_laplacian: l_s,
        fairness_loss_weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::{generate, two_block_synthetic};

    fn tiny_dataset() -> Dataset {
        generate(&two_block_synthetic(), 51)
    }

    #[test]
    fn every_method_produces_a_deployable_model() {
        let ds = tiny_dataset();
        let cfg = PpfrConfig {
            vanilla_epochs: 40,
            influence_cg_iters: 8,
            ..PpfrConfig::smoke()
        };
        for method in [
            Method::Vanilla,
            Method::Reg,
            Method::DpReg,
            Method::DpFr,
            Method::Ppfr,
        ] {
            let outcome = run_method(&ds, ModelKind::Gcn, method, &cfg);
            assert_eq!(outcome.method, method);
            let logits = ppfr_gnn::GnnModel::forward(&outcome.model, &outcome.deploy_ctx);
            assert_eq!(logits.rows(), ds.n_nodes());
            assert!(
                !logits.has_non_finite(),
                "{} produced non-finite logits",
                method.name()
            );
        }
    }

    #[test]
    fn ppfr_deploys_on_a_perturbed_graph_and_carries_weights() {
        let ds = tiny_dataset();
        let cfg = PpfrConfig {
            vanilla_epochs: 40,
            influence_cg_iters: 8,
            ..PpfrConfig::smoke()
        };
        let outcome = run_method(&ds, ModelKind::Gcn, Method::Ppfr, &cfg);
        assert!(
            outcome.deploy_ctx.graph.n_edges() > ds.graph.n_edges(),
            "PP must add edges"
        );
        let weights = outcome.fairness_loss_weights.expect("PPFR uses FR weights");
        assert_eq!(weights.len(), ds.splits.train.len());
        assert!(
            weights.iter().all(|&w| (0.0..=2.0).contains(&w)),
            "loss weights are 1 + w with w in [-1,1]"
        );
    }

    #[test]
    fn vanilla_and_reg_deploy_on_the_original_graph() {
        let ds = tiny_dataset();
        let cfg = PpfrConfig {
            vanilla_epochs: 30,
            ..PpfrConfig::smoke()
        };
        for method in [Method::Vanilla, Method::Reg] {
            let outcome = run_method(&ds, ModelKind::Gcn, method, &cfg);
            assert_eq!(outcome.deploy_ctx.graph.n_edges(), ds.graph.n_edges());
            assert!(outcome.fairness_loss_weights.is_none());
        }
    }

    #[test]
    fn checkpoint_reuse_is_bit_identical_to_from_scratch() {
        let ds = tiny_dataset();
        let cfg = PpfrConfig {
            vanilla_epochs: 30,
            influence_cg_iters: 6,
            ..PpfrConfig::smoke()
        };
        let vanilla = run_method(&ds, ModelKind::Gcn, Method::Vanilla, &cfg);
        for method in [Method::Vanilla, Method::Reg, Method::DpFr, Method::Ppfr] {
            let scratch = run_method(&ds, ModelKind::Gcn, method, &cfg);
            let reused = run_method_from_vanilla(
                &ds,
                ModelKind::Gcn,
                method,
                &cfg,
                Some(&vanilla),
                &mut None,
            );
            let a = ppfr_gnn::GnnModel::forward(&scratch.model, &scratch.deploy_ctx);
            let b = ppfr_gnn::GnnModel::forward(&reused.model, &reused.deploy_ctx);
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "{} diverges when reusing the vanilla checkpoint",
                method.name()
            );
            assert_eq!(
                scratch.deploy_ctx.graph.n_edges(),
                reused.deploy_ctx.graph.n_edges()
            );
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint must be a Vanilla outcome")]
    fn checkpoint_must_be_vanilla() {
        let ds = tiny_dataset();
        let cfg = PpfrConfig {
            vanilla_epochs: 10,
            influence_cg_iters: 4,
            ..PpfrConfig::smoke()
        };
        let reg = run_method(&ds, ModelKind::Gcn, Method::Reg, &cfg);
        let _ = run_method_from_vanilla(
            &ds,
            ModelKind::Gcn,
            Method::Ppfr,
            &cfg,
            Some(&reg),
            &mut None,
        );
    }

    #[test]
    fn method_names_match_the_paper() {
        assert_eq!(Method::Vanilla.name(), "Vanilla");
        assert_eq!(Method::Reg.name(), "Reg");
        assert_eq!(Method::DpReg.name(), "DPReg");
        assert_eq!(Method::DpFr.name(), "DPFR");
        assert_eq!(Method::Ppfr.name(), "PPFR");
        assert_eq!(Method::COMPARED.len(), 4);
    }
}
