//! The threat-model registry: which knowledge the adversary holds.
//!
//! The paper's privacy measurement assumes the weakest black-box adversary
//! (target posteriors only, unsupervised thresholding).  Stronger LSA-style
//! adversaries (He et al., USENIX Security'21; Surma et al.) additionally
//! hold node features and/or a shadow dataset and train a supervised attack.
//! The registry enumerates these knowledge settings along the two optional
//! axes — target posteriors are always known — and carries per-setting
//! training hyper-parameters, so the audit grid is one loop over entries.

use crate::classifier::AttackTrainConfig;
use ppfr_privacy::AttackReport;

/// One adversary-knowledge setting.  Target posteriors are always known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreatModel {
    /// The adversary also knows every node's input feature vector.
    pub node_features: bool,
    /// The adversary holds a shadow dataset (a look-alike graph with known
    /// edges) to train on; without one it must supervise on a disclosed half
    /// of the target pairs and is scored on the held-out half.
    pub shadow_dataset: bool,
}

impl ThreatModel {
    /// The four standard settings of the grid, weakest knowledge first.
    pub const ALL: [ThreatModel; 4] = [
        ThreatModel {
            node_features: false,
            shadow_dataset: false,
        },
        ThreatModel {
            node_features: true,
            shadow_dataset: false,
        },
        ThreatModel {
            node_features: false,
            shadow_dataset: true,
        },
        ThreatModel {
            node_features: true,
            shadow_dataset: true,
        },
    ];

    /// Stable name used in reports and experiment output.
    pub fn name(self) -> &'static str {
        match (self.node_features, self.shadow_dataset) {
            (false, false) => "posteriors",
            (true, false) => "posteriors+features",
            (false, true) => "posteriors+shadow",
            (true, true) => "posteriors+features+shadow",
        }
    }
}

/// Registry of adversary settings, each with its training configuration.
#[derive(Debug, Clone)]
pub struct ThreatModelRegistry {
    entries: Vec<(ThreatModel, AttackTrainConfig)>,
}

impl ThreatModelRegistry {
    /// The standard four-setting grid; every entry shares `base` except for a
    /// per-entry seed offset, so classifier initialisations are independent.
    pub fn standard(base: AttackTrainConfig) -> Self {
        let entries = ThreatModel::ALL
            .iter()
            .enumerate()
            .map(|(i, &model)| {
                let cfg = AttackTrainConfig {
                    seed: base.seed.wrapping_add(i as u64),
                    ..base.clone()
                };
                (model, cfg)
            })
            .collect();
        Self { entries }
    }

    /// Number of registered settings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no setting is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the registered settings.
    pub fn iter(&self) -> impl Iterator<Item = &(ThreatModel, AttackTrainConfig)> {
        self.entries.iter()
    }

    /// Keeps only the settings whose threat model satisfies `keep` — the
    /// scenario runner uses this to audit against a named subset of the
    /// grid.  (Reaching the registry through
    /// [`ThreatAuditor::registry_mut`](crate::ThreatAuditor::registry_mut)
    /// invalidates the auditor's position-indexed shadow-attack cache, so
    /// subsetting is safe at any time.)
    pub fn retain(&mut self, mut keep: impl FnMut(&ThreatModel) -> bool) {
        self.entries.retain(|(model, _)| keep(model));
    }
}

/// Outcome of one threat model's supervised attack against one posterior
/// matrix.
#[derive(Debug, Clone)]
pub struct ThreatOutcome {
    /// Registry name of the setting.
    pub name: String,
    /// The adversary-knowledge setting.
    pub model: ThreatModel,
    /// Attack AUC on the eval pairs.
    pub auc: f64,
    /// AUC the adversary measured on its own training data.
    pub train_auc: f64,
    /// Scorer the adversary deployed (classifier or a single channel).
    pub scorer: String,
    /// Training pairs used.
    pub n_train: usize,
    /// Eval pairs scored.
    pub n_eval: usize,
}

/// The full audit of one posterior matrix: the unsupervised baseline plus
/// every registered supervised threat model.
#[derive(Debug, Clone)]
pub struct ThreatGridReport {
    /// The unsupervised 8-distance evaluation (the paper's baseline attack).
    pub unsupervised: AttackReport,
    /// One outcome per registry entry, in registry order.
    pub outcomes: Vec<ThreatOutcome>,
    /// Worst-case attack AUC over the whole grid: the maximum of every
    /// supervised outcome *and* every unsupervised per-distance threshold —
    /// target posteriors are known in every setting, so the unsupervised
    /// attacks are available to every adversary and bound the grid from
    /// below.
    pub worst_case_auc: f64,
}

impl ThreatGridReport {
    /// `(name, AUC)` pairs for serialisation into `Evaluation`.
    pub fn auc_per_threat(&self) -> Vec<(String, f64)> {
        self.outcomes
            .iter()
            .map(|o| (o.name.clone(), o.auc))
            .collect()
    }

    /// Best unsupervised single-distance AUC — the strongest attack the
    /// weakest adversary could mount.
    // lint: allow(uncalled-pub) — read by ppfr_attacks' shadow_transfer and large_sbm_grid tests
    pub fn best_unsupervised_auc(&self) -> f64 {
        self.unsupervised
            .auc_per_distance
            .iter()
            .map(|&(_, auc)| auc)
            .fold(0.5, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_the_four_knowledge_settings() {
        let reg = ThreatModelRegistry::standard(AttackTrainConfig::default());
        assert_eq!(reg.len(), 4);
        assert!(!reg.is_empty());
        let names: Vec<&str> = reg.iter().map(|(m, _)| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "posteriors",
                "posteriors+features",
                "posteriors+shadow",
                "posteriors+features+shadow"
            ]
        );
        // Per-entry seeds differ so initialisations are independent.
        let seeds: std::collections::HashSet<u64> = reg.iter().map(|(_, c)| c.seed).collect();
        assert_eq!(seeds.len(), 4);
    }
}
