//! Driver for Fig. 6 — the ablation of the PP ratio and the FR fine-tuning
//! epochs (Cora, GAT in the paper; the dataset/model are parameters here so
//! the smoke scale can use a smaller pair).

use super::common::{scaled_spec, DatasetArtifacts};
use crate::{fairness_weights, heterophilic_perturbation, predictions};
use crate::{ExperimentScale, Method, PpfrConfig, TrainedOutcome};
use ppfr_attacks::ThreatAuditor;
use ppfr_datasets::{cora, two_block_synthetic, Dataset};
use ppfr_fairness::bias;
use ppfr_gnn::{train, GraphContext, ModelKind};
use ppfr_nn::accuracy;
use serde::{Deserialize, Serialize};

/// One point of an ablation curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// The swept parameter value (fine-tuning epochs or perturbation ratio).
    pub x: f64,
    /// Test accuracy.
    pub accuracy: f64,
    /// InFoRM bias.
    pub bias: f64,
    /// Link-stealing risk (mean attack AUC).
    pub risk_auc: f64,
    /// Worst-case supervised threat-model attack AUC.
    pub worst_risk_auc: f64,
}

/// One panel of Fig. 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationCurve {
    /// Panel title ("FR only", "PP sweep + fixed FR", "fixed PP + FR sweep").
    pub title: String,
    /// Name of the swept parameter.
    pub x_label: String,
    /// The curve.
    pub points: Vec<AblationPoint>,
}

/// Full Fig. 6 result: the three panels plus the vanilla reference levels
/// (the dashed lines in the paper's figure).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Vanilla accuracy / bias / risk (the dashed reference lines).
    pub vanilla: AblationPoint,
    /// Left panel: FR only (zero perturbation), sweeping fine-tuning epochs.
    pub fr_only: AblationCurve,
    /// Middle panel: fixed FR epochs, sweeping the perturbation ratio γ.
    pub pp_sweep: AblationCurve,
    /// Right panel: fixed perturbation ratio, sweeping fine-tuning epochs.
    pub pp_fixed_fr_sweep: AblationCurve,
}

impl Fig6Result {
    /// Plain-text rendering of the three panels.
    pub fn to_table_string(&self) -> String {
        let mut out = String::from("Fig. 6: PPFR ablation (accuracy / bias / risk)\n");
        out.push_str(&format!(
            "vanilla reference: acc {:.4}  bias {:.4}  risk {:.4}  worst {:.4}\n",
            self.vanilla.accuracy,
            self.vanilla.bias,
            self.vanilla.risk_auc,
            self.vanilla.worst_risk_auc
        ));
        for curve in [&self.fr_only, &self.pp_sweep, &self.pp_fixed_fr_sweep] {
            out.push_str(&format!("\n[{}] (x = {})\n", curve.title, curve.x_label));
            out.push_str("x        acc      bias     risk     worst\n");
            for p in &curve.points {
                out.push_str(&format!(
                    "{:<8.2} {:.4}  {:.4}  {:.4}  {:.4}\n",
                    p.x, p.accuracy, p.bias, p.risk_auc, p.worst_risk_auc
                ));
            }
        }
        out
    }
}

struct AblationContext {
    dataset: Dataset,
    base_ctx: GraphContext,
    vanilla: TrainedOutcome,
    loss_weights: Vec<f64>,
    cfg: PpfrConfig,
}

fn evaluate_point(
    ab: &AblationContext,
    auditor: &mut ThreatAuditor,
    outcome: &TrainedOutcome,
    x: f64,
) -> AblationPoint {
    let probs = predictions(outcome, &ab.cfg);
    let grid = auditor.audit(&probs);
    AblationPoint {
        x,
        accuracy: accuracy(&probs, &ab.dataset.labels, &ab.dataset.splits.test),
        bias: bias(&probs, &outcome.similarity_laplacian),
        risk_auc: grid.unsupervised.average_auc,
        worst_risk_auc: grid.worst_case_auc,
    }
}

fn finetuned_outcome(ab: &AblationContext, gamma: f64, finetune_epochs: usize) -> TrainedOutcome {
    let mut model = ab.vanilla.model.clone();
    let deploy_ctx = if gamma > 0.0 {
        let delta =
            heterophilic_perturbation(&model, &ab.base_ctx, gamma, ab.cfg.seed ^ 0x7f4a_7c15);
        ab.base_ctx.with_graph(delta.apply(&ab.base_ctx.graph))
    } else {
        ab.base_ctx.clone()
    };
    if finetune_epochs > 0 {
        let mut cfg = ab.cfg.finetune_train_config();
        cfg.epochs = finetune_epochs;
        train(
            &mut model,
            &deploy_ctx,
            &ab.dataset.labels,
            &ab.dataset.splits.train,
            &ab.loss_weights,
            None,
            &cfg,
        );
    }
    TrainedOutcome {
        model,
        deploy_ctx,
        method: Method::Ppfr,
        model_kind: ab.vanilla.model_kind,
        similarity_laplacian: ab.vanilla.similarity_laplacian.clone(),
        fairness_loss_weights: Some(ab.loss_weights.clone()),
    }
}

/// Regenerates the three ablation panels of Fig. 6 for one run seed.
///
/// * Full scale uses Cora + GAT (as in the paper).
/// * Smoke scale uses the small two-block synthetic graph + GCN so smoke
///   runs finish in seconds.
///
/// Like the runner's scenarios, the seed drives both dataset generation and
/// the pipeline RNG streams, so the multi-seed view (`ppfr_runner`'s
/// `fig6_multi`) aggregates repetitions that differ in graph *and*
/// initialisation.
pub fn fig6_ablation_seeded(scale: ExperimentScale, data_seed: u64) -> Fig6Result {
    let (spec, kind) = match scale {
        ExperimentScale::Full => (scaled_spec(cora(), scale), ModelKind::Gat),
        ExperimentScale::Smoke => (two_block_synthetic(), ModelKind::Gcn),
    };
    let cfg = PpfrConfig {
        seed: data_seed,
        ..scale.config()
    };
    // Shared artifacts: the generated dataset, the vanilla checkpoint and
    // one auditor for the whole figure — every ablation point is attacked
    // on the same cached pair sample and shadow dataset.
    let mut artifacts = DatasetArtifacts::build(&spec, data_seed, &cfg);
    let (vanilla_outcome, vanilla_run) = artifacts.vanilla(kind, &cfg);
    let vanilla = vanilla_outcome.clone();
    let vanilla_point = AblationPoint {
        x: 0.0,
        accuracy: vanilla_run.evaluation.accuracy,
        bias: vanilla_run.evaluation.bias,
        risk_auc: vanilla_run.evaluation.risk_auc,
        worst_risk_auc: vanilla_run.evaluation.worst_risk_auc,
    };
    let dataset = artifacts.dataset.clone();
    let base_ctx = GraphContext::new(dataset.graph.clone(), dataset.features.clone());

    // Fairness-aware re-weighting computed once from the vanilla model,
    // against the similarity Laplacian its checkpoint already carries.
    let fr = fairness_weights(
        &vanilla.model,
        &base_ctx,
        &dataset.labels,
        &dataset.splits.train,
        &vanilla.similarity_laplacian,
        &cfg,
    );

    let ab = AblationContext {
        dataset,
        base_ctx,
        vanilla,
        loss_weights: fr.loss_weights,
        cfg: cfg.clone(),
    };
    let auditor = artifacts.auditor_mut();
    let max_epochs = cfg.finetune_epochs().max(4);
    let epoch_grid: Vec<usize> = (0..=4).map(|i| i * max_epochs / 4).collect();
    let gamma_grid = [0.0, 0.5, 1.0, 1.5, 2.0];
    let fixed_gamma = cfg.perturb_ratio;
    let fixed_epochs = max_epochs;

    let fr_only = AblationCurve {
        title: "Only FR (zero edge perturbations)".to_string(),
        x_label: "# fine-tuning epochs".to_string(),
        points: epoch_grid
            .iter()
            .map(|&e| {
                let outcome = finetuned_outcome(&ab, 0.0, e);
                evaluate_point(&ab, auditor, &outcome, e as f64)
            })
            .collect(),
    };
    let pp_sweep = AblationCurve {
        title: "PP + fixed FR".to_string(),
        x_label: "ratio of edge perturbations γ".to_string(),
        points: gamma_grid
            .iter()
            .map(|&g| {
                let outcome = finetuned_outcome(&ab, g, fixed_epochs);
                evaluate_point(&ab, auditor, &outcome, g)
            })
            .collect(),
    };
    let pp_fixed_fr_sweep = AblationCurve {
        title: "Fixed PP + FR".to_string(),
        x_label: "# fine-tuning epochs".to_string(),
        points: epoch_grid
            .iter()
            .map(|&e| {
                let outcome = finetuned_outcome(&ab, fixed_gamma, e);
                evaluate_point(&ab, auditor, &outcome, e as f64)
            })
            .collect(),
    };

    Fig6Result {
        vanilla: vanilla_point,
        fr_only,
        pp_sweep,
        pp_fixed_fr_sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ablation_produces_all_panels_with_monotone_x() {
        let result = fig6_ablation_seeded(ExperimentScale::Smoke, 7);
        for curve in [&result.fr_only, &result.pp_sweep, &result.pp_fixed_fr_sweep] {
            assert!(
                curve.points.len() >= 4,
                "{} has too few points",
                curve.title
            );
            for w in curve.points.windows(2) {
                assert!(w[1].x >= w[0].x, "{}: x values must be sorted", curve.title);
            }
            for p in &curve.points {
                assert!((0.0..=1.0).contains(&p.accuracy));
                assert!((0.0..=1.0).contains(&p.risk_auc));
                assert!(p.bias.is_finite() && p.bias >= 0.0);
            }
        }
        // The first point of the FR-only panel (zero fine-tuning) must match
        // the vanilla reference exactly: it is the same model.
        let first = &result.fr_only.points[0];
        assert!((first.accuracy - result.vanilla.accuracy).abs() < 1e-9);
        assert!((first.bias - result.vanilla.bias).abs() < 1e-9);
        let text = result.to_table_string();
        assert!(text.contains("Only FR") && text.contains("Fixed PP"));
    }
}
