//! [`ThreatAuditor`]: one object per (dataset, config) that audits arbitrary
//! many posterior matrices against the whole threat-model grid.
//!
//! It owns the unsupervised [`AttackEvaluator`] (pair sample + distance
//! buffers, exactly the object `ppfr_core` already built once per dataset),
//! the target node features, and a cached [`ShadowBundle`].  One
//! [`ThreatAuditor::audit`] call:
//!
//! 1. runs the unsupervised 8-distance evaluation (filling the shared
//!    [`DistanceTable`](ppfr_privacy::DistanceTable) once);
//! 2. extracts the target pair-feature tables (with and without the feature
//!    channels) from that table — batched, parallel over pair chunks;
//! 3. for every registry entry, trains the supervised attack on the shadow
//!    pairs (shadow settings) or on a disclosed half of the target pairs
//!    (partial-knowledge settings) and scores the held-out target pairs with
//!    the rank AUC.
//!
//! Everything is deterministic in the seeds and independent of the worker
//! thread count.

use crate::classifier::{AttackTrainConfig, TrainedAttack};
use crate::features::PairFeatureTable;
use crate::shadow::ShadowBundle;
use crate::threat::{ThreatGridReport, ThreatModelRegistry, ThreatOutcome};
use ppfr_datasets::Dataset;
use ppfr_linalg::Matrix;
use ppfr_privacy::{AttackEvaluator, PairSample};

/// Deterministic even/odd halves of a pair table, split separately inside
/// positives and negatives so both halves keep the sample's ratio.
fn half_split(n_pos: usize, n_pairs: usize) -> (Vec<usize>, Vec<usize>) {
    let mut train = Vec::with_capacity(n_pairs / 2 + 1);
    let mut eval = Vec::with_capacity(n_pairs / 2 + 1);
    for i in 0..n_pairs {
        let within = if i < n_pos { i } else { i - n_pos };
        if within % 2 == 0 {
            train.push(i);
        } else {
            eval.push(i);
        }
    }
    (train, eval)
}

/// Supervised link-stealing auditor with a fixed target pair sample, target
/// features, shadow bundle and threat-model registry.
#[derive(Debug, Clone)]
pub struct ThreatAuditor {
    evaluator: AttackEvaluator,
    features: Matrix,
    shadow: ShadowBundle,
    registry: ThreatModelRegistry,
    /// Shadow-trained attacks per registry index: they depend only on the
    /// (fixed) shadow table and the entry's config, never on the audited
    /// posteriors, so they are fitted once and reused across audits.
    shadow_attacks: Vec<Option<TrainedAttack>>,
}

impl ThreatAuditor {
    /// Wraps pre-built parts.  `features` are the target's node features
    /// (the feature-aware threat models' extra knowledge).
    pub fn new(
        evaluator: AttackEvaluator,
        features: Matrix,
        shadow: ShadowBundle,
        registry: ThreatModelRegistry,
    ) -> Self {
        Self {
            evaluator,
            features,
            shadow,
            registry,
            shadow_attacks: Vec::new(),
        }
    }

    /// Builds the auditor for a target dataset: the given pair `sample` over
    /// the target's confidential edges, the standard four-setting registry
    /// from `base`, and a shadow of the dataset drawn with `shadow_seed`.
    pub fn for_dataset(
        dataset: &Dataset,
        sample: PairSample,
        base: AttackTrainConfig,
        shadow_seed: u64,
    ) -> Self {
        let shadow = ShadowBundle::new(dataset, 1.0, shadow_seed);
        Self::new(
            AttackEvaluator::new(sample),
            dataset.features.clone(),
            shadow,
            ThreatModelRegistry::standard(base),
        )
    }

    /// The underlying unsupervised evaluator (e.g. for the clustering attack
    /// or direct distance access).
    pub fn evaluator(&self) -> &AttackEvaluator {
        &self.evaluator
    }

    /// The target pair sample every audit scores against.
    pub fn sample(&self) -> &PairSample {
        self.evaluator.sample()
    }

    /// The threat-model registry driving the grid.
    pub fn registry(&self) -> &ThreatModelRegistry {
        &self.registry
    }

    /// Registers extra threat settings before auditing.  Invalidates the
    /// cached shadow-trained attacks, since entries (and their configs) may
    /// change under the caller.
    pub fn registry_mut(&mut self) -> &mut ThreatModelRegistry {
        self.shadow_attacks.clear();
        &mut self.registry
    }

    /// Audits one posterior matrix against the unsupervised baseline and the
    /// full supervised threat-model grid.
    pub fn audit(&mut self, probs: &Matrix) -> ThreatGridReport {
        let _span = ppfr_telemetry::span!("attack_grid");
        // One distance pass feeds both the unsupervised report and the
        // supervised feature extraction.
        let unsupervised = self.evaluator.evaluate(probs);
        let sample = self.evaluator.sample();
        let n_pos = sample.positives.len();
        let n_pairs = sample.positives.len() + sample.negatives.len();
        let target_plain =
            PairFeatureTable::from_distances(self.evaluator.table(), sample, probs, None, true);
        let target_feat = PairFeatureTable::from_distances(
            self.evaluator.table(),
            sample,
            probs,
            Some(&self.features),
            true,
        );
        let (half_train, half_eval) = half_split(n_pos, n_pairs);
        let all: Vec<usize> = (0..n_pairs).collect();

        // The entries are cloned so the shadow cache can be borrowed mutably
        // inside the loop; configs are a handful of scalars.
        let entries: Vec<_> = self.registry.iter().cloned().collect();
        self.shadow_attacks.resize(entries.len(), None);
        let mut outcomes = Vec::with_capacity(entries.len());
        for (index, (model, cfg)) in entries.into_iter().enumerate() {
            let target_table = if model.node_features {
                &target_feat
            } else {
                &target_plain
            };
            // Holds a per-audit partial-knowledge fit for the borrow below.
            let partial: Option<TrainedAttack>;
            let (attack, eval_indices): (&TrainedAttack, &[usize]) = if model.shadow_dataset {
                // Train on every shadow pair (the cap thins it) — once per
                // registry entry, since neither the shadow table nor the
                // config depends on the audited posteriors — and score every
                // target pair.
                if self.shadow_attacks[index].is_none() {
                    let shadow_table = self.shadow.table(model.node_features);
                    let shadow_all: Vec<usize> = (0..shadow_table.n_pairs()).collect();
                    self.shadow_attacks[index] =
                        Some(TrainedAttack::fit(shadow_table, &shadow_all, &cfg));
                }
                (
                    self.shadow_attacks[index].as_ref().expect("just fitted"),
                    &all[..],
                )
            } else {
                // Partial knowledge: half the target pairs are disclosed for
                // training, the other half is attacked.  These genuinely
                // depend on the audited posteriors, so they refit per audit.
                partial = Some(TrainedAttack::fit(target_table, &half_train, &cfg));
                (partial.as_ref().expect("just fitted"), &half_eval[..])
            };
            let (pos_idx, neg_idx): (Vec<usize>, Vec<usize>) =
                eval_indices.iter().partition(|&&i| i < n_pos);
            let auc = attack.evaluate(target_table, &pos_idx, &neg_idx);
            outcomes.push(ThreatOutcome {
                name: model.name().to_string(),
                model,
                auc,
                train_auc: attack.train_auc,
                scorer: attack.scorer_name(),
                n_train: attack.n_train,
                n_eval: eval_indices.len(),
            });
        }
        // Posteriors are known to every adversary, so the unsupervised
        // per-distance thresholds are always available: the worst case is the
        // max over supervised outcomes *and* those baselines.
        let worst_case_auc = outcomes
            .iter()
            .map(|o| o.auc)
            .chain(unsupervised.auc_per_distance.iter().map(|&(_, auc)| auc))
            .fold(0.5, f64::max);
        ThreatGridReport {
            unsupervised,
            outcomes,
            worst_case_auc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::sparse_sbm_dataset;
    use ppfr_linalg::row_softmax;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block_posteriors(labels: &[usize], n_classes: usize, confidence: f64) -> Matrix {
        let mut logits = Matrix::zeros(labels.len(), n_classes);
        for (v, &l) in labels.iter().enumerate() {
            logits[(v, l)] = confidence + (v % 13) as f64 * 0.01;
        }
        row_softmax(&logits)
    }

    fn auditor_for(dataset: &Dataset, seed: u64) -> ThreatAuditor {
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = PairSample::balanced(&dataset.graph, &mut rng);
        ThreatAuditor::for_dataset(dataset, sample, AttackTrainConfig::default(), seed ^ 0x51ab)
    }

    #[test]
    fn audit_runs_the_full_grid_and_reports_worst_case() {
        let ds = sparse_sbm_dataset(500, 2, 7.0, 1.0, 16, 3);
        let mut auditor = auditor_for(&ds, 5);
        let probs = block_posteriors(&ds.labels, 2, 2.5);
        let report = auditor.audit(&probs);
        assert_eq!(report.outcomes.len(), 4);
        for o in &report.outcomes {
            assert!((0.0..=1.0).contains(&o.auc), "{}: AUC {}", o.name, o.auc);
            assert!(o.n_train > 0 && o.n_eval > 0);
        }
        let max = report
            .outcomes
            .iter()
            .map(|o| o.auc)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(
            report.worst_case_auc,
            max.max(report.best_unsupervised_auc()).max(0.5)
        );
        // Block posteriors leak: the worst case clears chance comfortably.
        assert!(report.worst_case_auc > 0.6, "{}", report.worst_case_auc);
        assert_eq!(report.auc_per_threat().len(), 4);
    }

    #[test]
    fn uniform_posteriors_stay_near_chance_for_every_adversary() {
        let ds = sparse_sbm_dataset(400, 2, 6.0, 1.5, 16, 4);
        let mut auditor = auditor_for(&ds, 6);
        let uniform = Matrix::filled(ds.n_nodes(), 2, 0.5);
        let report = auditor.audit(&uniform);
        for o in &report.outcomes {
            // Feature-aware adversaries retain a little signal from the
            // feature channels alone; posterior-only ones are blind.
            let cap = if o.model.node_features { 0.75 } else { 0.56 };
            assert!(
                o.auc < cap,
                "{}: uniform posteriors should cap the attack at {cap}, got {}",
                o.name,
                o.auc
            );
        }
    }

    #[test]
    fn half_split_is_disjoint_ratio_preserving_and_deterministic() {
        let (train, eval) = half_split(10, 25);
        assert_eq!(train.len() + eval.len(), 25);
        let overlap: Vec<_> = train.iter().filter(|i| eval.contains(i)).collect();
        assert!(overlap.is_empty());
        let train_pos = train.iter().filter(|&&i| i < 10).count();
        let eval_pos = eval.iter().filter(|&&i| i < 10).count();
        assert_eq!(train_pos, 5);
        assert_eq!(eval_pos, 5);
        assert_eq!(half_split(10, 25), (train, eval));
    }
}
