//! Evaluation harness: accuracy, bias, privacy risk and the Δ metric (Eq. 22).
//!
//! Privacy risk is reported twice: the paper's headline number (mean
//! unsupervised attack AUC over the eight posterior distances) and the
//! worst case over the supervised threat-model grid of `ppfr_attacks`
//! (shadow-model / partial-knowledge adversaries), so defences are judged
//! against the strongest adversary, not only the weakest.

use crate::{PpfrConfig, TrainedOutcome};
use ppfr_attacks::{AttackTrainConfig, ThreatAuditor};
use ppfr_datasets::Dataset;
use ppfr_fairness::bias;
use ppfr_gnn::GnnModel;
use ppfr_linalg::{row_softmax, Matrix};
use ppfr_privacy::PairSample;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Trustworthiness evaluation of one trained model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Evaluation {
    /// Test-set accuracy.
    pub accuracy: f64,
    /// InFoRM bias `Tr(Pᵀ L_S P)/n` w.r.t. the *original* graph's similarity.
    pub bias: f64,
    /// Link-stealing risk: mean attack AUC over the eight distances.
    pub risk_auc: f64,
    /// `f_risk` of Definition 2 (euclidean distance gap).
    pub risk_gap: f64,
    /// Attack AUC per distance metric (the Fig. 4 series).
    pub auc_per_distance: Vec<(String, f64)>,
    /// Worst-case attack AUC over the supervised threat-model grid (and the
    /// per-distance unsupervised thresholds available to every adversary).
    pub worst_risk_auc: f64,
    /// Supervised attack AUC per threat model, in registry order.
    pub auc_per_threat: Vec<(String, f64)>,
}

/// Relative changes of a method against the vanilla reference (Eq. 22).
/// `d_*` fields are fractional changes (multiply by 100 for the paper's %).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MethodDeltas {
    /// Relative accuracy change `Δacc`.
    pub d_acc: f64,
    /// Relative bias change `Δbias` (negative = fairer).
    pub d_bias: f64,
    /// Relative risk change `Δrisk` (negative = more private).
    pub d_risk: f64,
    /// Combined metric `Δ = Δbias · Δrisk / |Δacc|`.
    pub delta: f64,
}

/// Predictions (softmax probabilities) of a trained outcome on its deployment
/// graph.  GraphSAGE re-draws its sampling operator on the deployment graph
/// with the configured seed so evaluation is deterministic.
pub fn predictions(outcome: &TrainedOutcome, cfg: &PpfrConfig) -> Matrix {
    let mut model = outcome.model.clone();
    model.resample(&outcome.deploy_ctx, cfg.seed ^ 0x00c0_ffee);
    row_softmax(&model.forward(&outcome.deploy_ctx))
}

/// The attack's balanced pair sample over the *original* (confidential)
/// edges, deterministic in the configuration seed so every method is attacked
/// on exactly the same pairs.
pub fn attack_sample(dataset: &Dataset, cfg: &PpfrConfig) -> PairSample {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xa77a_c4e1);
    PairSample::balanced(&dataset.graph, &mut rng)
}

/// The full threat auditor over [`attack_sample`]'s pairs: the unsupervised
/// evaluator plus the supervised threat-model grid of `ppfr_attacks`
/// (shadow dataset, feature knowledge, partial edge disclosure).  Build it
/// **once per (dataset, config)** and pass it to [`evaluate_with`] for every
/// method: the pair sample, the distance buffers, the shadow dataset and its
/// cached feature tables are all reused; posteriors are the only thing
/// recomputed per method.
pub fn threat_auditor(dataset: &Dataset, cfg: &PpfrConfig) -> ThreatAuditor {
    ThreatAuditor::for_dataset(
        dataset,
        attack_sample(dataset, cfg),
        AttackTrainConfig::default(),
        cfg.seed ^ 0x51ab,
    )
}

/// Evaluates a trained outcome: accuracy on the test split, InFoRM bias
/// against the original similarity, and link-stealing risk against the
/// original edges (both the mean-distance AUC and the worst-case supervised
/// threat-model AUC).
pub fn evaluate(outcome: &TrainedOutcome, dataset: &Dataset, cfg: &PpfrConfig) -> Evaluation {
    let mut auditor = threat_auditor(dataset, cfg);
    evaluate_with(outcome, dataset, cfg, &mut auditor)
}

/// [`evaluate`] against a shared [`ThreatAuditor`] — the cheap path when
/// several methods are scored on the same dataset and configuration.
pub fn evaluate_with(
    outcome: &TrainedOutcome,
    dataset: &Dataset,
    cfg: &PpfrConfig,
    auditor: &mut ThreatAuditor,
) -> Evaluation {
    let _span = ppfr_telemetry::span!("evaluate");
    let probs = {
        let _predict = ppfr_telemetry::span!("predict");
        predictions(outcome, cfg)
    };
    let accuracy = ppfr_nn::accuracy(&probs, &dataset.labels, &dataset.splits.test);
    let bias_value = {
        let _bias = ppfr_telemetry::span!("bias");
        bias(&probs, &outcome.similarity_laplacian)
    };
    let grid = auditor.audit(&probs);
    Evaluation {
        accuracy,
        bias: bias_value,
        risk_auc: grid.unsupervised.average_auc,
        risk_gap: grid.unsupervised.risk_gap,
        auc_per_distance: grid
            .unsupervised
            .auc_per_distance
            .iter()
            .map(|&(kind, auc)| (kind.name().to_string(), auc))
            .collect(),
        worst_risk_auc: grid.worst_case_auc,
        auc_per_threat: grid.auc_per_threat(),
    }
}

/// Relative change `(ours − reference) / reference`, guarding against a zero
/// reference.
fn relative_change(reference: f64, ours: f64) -> f64 {
    if reference.abs() <= 1e-12 {
        return 0.0;
    }
    (ours - reference) / reference
}

/// Computes the Δ metrics of Eq. (22) for a method against the vanilla
/// reference.
pub fn deltas(reference: &Evaluation, ours: &Evaluation) -> MethodDeltas {
    let d_acc = relative_change(reference.accuracy, ours.accuracy);
    let d_bias = relative_change(reference.bias, ours.bias);
    let d_risk = relative_change(reference.risk_auc, ours.risk_auc);
    let denom = d_acc.abs().max(1e-6);
    MethodDeltas {
        d_acc,
        d_bias,
        d_risk,
        delta: d_bias * d_risk / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_method, Method};
    use ppfr_datasets::{generate, two_block_synthetic};
    use ppfr_gnn::ModelKind;

    #[test]
    fn evaluation_fields_are_in_range() {
        let ds = generate(&two_block_synthetic(), 61);
        let cfg = PpfrConfig {
            vanilla_epochs: 60,
            ..PpfrConfig::smoke()
        };
        let outcome = run_method(&ds, ModelKind::Gcn, Method::Vanilla, &cfg);
        let eval = evaluate(&outcome, &ds, &cfg);
        assert!((0.0..=1.0).contains(&eval.accuracy));
        assert!(eval.bias >= 0.0);
        assert!((0.0..=1.0).contains(&eval.risk_auc));
        assert!(eval.risk_gap >= 0.0);
        assert_eq!(eval.auc_per_distance.len(), 8);
        assert_eq!(eval.auc_per_threat.len(), 4, "full threat grid");
        assert!((0.0..=1.0).contains(&eval.worst_risk_auc));
        let best_distance = eval
            .auc_per_distance
            .iter()
            .map(|&(_, a)| a)
            .fold(0.5, f64::max);
        assert!(
            eval.worst_risk_auc >= best_distance,
            "worst case {} cannot be below the best unsupervised distance {best_distance}",
            eval.worst_risk_auc
        );
        assert!(
            eval.accuracy > 0.7,
            "vanilla GCN should classify the easy synthetic graph, got {}",
            eval.accuracy
        );
        assert!(
            eval.risk_auc > 0.5,
            "a trained model leaks some edges, got AUC {}",
            eval.risk_auc
        );
    }

    #[test]
    fn deltas_match_hand_computation_and_sign_convention() {
        let reference = Evaluation {
            accuracy: 0.8,
            bias: 0.10,
            risk_auc: 0.90,
            risk_gap: 0.5,
            auc_per_distance: vec![],
            worst_risk_auc: 0.0,
            auc_per_threat: vec![],
        };
        let ours = Evaluation {
            accuracy: 0.76,
            bias: 0.05,
            risk_auc: 0.88,
            risk_gap: 0.4,
            auc_per_distance: vec![],
            worst_risk_auc: 0.0,
            auc_per_threat: vec![],
        };
        let d = deltas(&reference, &ours);
        assert!((d.d_acc + 0.05).abs() < 1e-12);
        assert!((d.d_bias + 0.5).abs() < 1e-12);
        assert!((d.d_risk + 0.0222222).abs() < 1e-6);
        // bias ↓ and risk ↓ together give a positive Δ.
        assert!(d.delta > 0.0);
        // bias ↓ but risk ↑ gives a negative Δ.
        let worse_risk = Evaluation {
            risk_auc: 0.95,
            ..ours
        };
        assert!(deltas(&reference, &worse_risk).delta < 0.0);
    }

    #[test]
    fn zero_reference_values_do_not_divide_by_zero() {
        let reference = Evaluation {
            accuracy: 0.0,
            bias: 0.0,
            risk_auc: 0.0,
            risk_gap: 0.0,
            auc_per_distance: vec![],
            worst_risk_auc: 0.0,
            auc_per_threat: vec![],
        };
        let ours = reference.clone();
        let d = deltas(&reference, &ours);
        assert!(d.d_acc == 0.0 && d.d_bias == 0.0 && d.d_risk == 0.0);
        assert!(d.delta.is_finite());
    }

    #[test]
    fn evaluation_serialises_for_experiment_reports() {
        let eval = Evaluation {
            accuracy: 0.85,
            bias: 0.07,
            risk_auc: 0.91,
            risk_gap: 0.4,
            auc_per_distance: vec![("cosine".into(), 0.9)],
            worst_risk_auc: 0.93,
            auc_per_threat: vec![("posteriors+shadow".into(), 0.93)],
        };
        let json = serde_json::to_string(&eval).expect("serialise");
        let back: Evaluation = serde_json::from_str(&json).expect("deserialise");
        assert!((back.accuracy - eval.accuracy).abs() < 1e-12);
        assert_eq!(back.auc_per_distance.len(), 1);
        assert!((back.worst_risk_auc - 0.93).abs() < 1e-12);
        assert_eq!(back.auc_per_threat.len(), 1);
    }
}
