//! Shared helpers for the experiment drivers.
//!
//! The heart of this module is [`DatasetArtifacts`]: one bundle per
//! `(dataset spec, data seed, config)` holding everything the five methods
//! share — the generated graph, the [`ThreatAuditor`] (pair sample, distance
//! buffers, shadow bundle) and, per architecture, the trained vanilla
//! checkpoint and the fairness-aware re-weighting DPFR and PPFR derive
//! from it.  The multi-seed scenario runner in `ppfr_runner` funnels
//! its per-cell work through [`DatasetArtifacts::cell`] instead of
//! hand-rolling the dataset × model × method loop, and the Fig. 6 ablation
//! shares one bundle's vanilla checkpoint and auditor across its sweeps.

use crate::{
    deltas, evaluate_with, run_method, run_method_from_vanilla, threat_auditor, Evaluation,
    ExperimentScale, Method, MethodDeltas, PpfrConfig, ReweightOutcome, TrainedOutcome,
};
use ppfr_attacks::ThreatAuditor;
use ppfr_datasets::{citeseer, cora, credit, enzymes, generate, pubmed, Dataset, DatasetSpec};
use ppfr_gnn::ModelKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scales a dataset spec for the requested experiment scale: the smoke
/// variant shrinks node counts and splits proportionally so every experiment
/// runs in seconds.  It caps `train_per_class` so the labelled nodes leave
/// room for the whole validation and test splits, which the Planetoid split
/// draws from the nodes left over.
pub fn scaled_spec(mut spec: DatasetSpec, scale: ExperimentScale) -> DatasetSpec {
    let scaled_nodes = scale.scale_nodes(spec.n_nodes);
    if scaled_nodes != spec.n_nodes {
        let ratio = scaled_nodes as f64 / spec.n_nodes as f64;
        spec.n_val = ((spec.n_val as f64 * ratio).round() as usize).max(20);
        spec.n_test = ((spec.n_test as f64 * ratio).round() as usize).max(40);
        spec.n_nodes = scaled_nodes;
        let unlabelled = spec.n_val + spec.n_test;
        let room_per_class = scaled_nodes.saturating_sub(unlabelled) / spec.n_classes;
        spec.train_per_class = spec.train_per_class.min(room_per_class);
    }
    spec
}

/// The three high-homophily datasets of Tables II–IV (Cora, Citeseer, Pubmed).
pub fn high_homophily_specs(scale: ExperimentScale) -> Vec<DatasetSpec> {
    vec![
        scaled_spec(cora(), scale),
        scaled_spec(citeseer(), scale),
        scaled_spec(pubmed(), scale),
    ]
}

/// The two weak-homophily datasets of Table V (Enzymes, Credit).
pub fn weak_homophily_specs(scale: ExperimentScale) -> Vec<DatasetSpec> {
    vec![scaled_spec(enzymes(), scale), scaled_spec(credit(), scale)]
}

/// One trained-and-evaluated method, cached so several tables/figures can be
/// derived from a single set of runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRun {
    /// Dataset name.
    pub dataset: String,
    /// Model architecture name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// Evaluation of the trained model.
    pub evaluation: Evaluation,
}

/// One evaluated `(dataset, model, method)` cell together with its vanilla
/// reference for the same `(dataset, model)` — everything Tables III–V and
/// Figs. 4–7 need per entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodCell {
    /// The method's run.
    pub run: MethodRun,
    /// The vanilla reference run (same dataset, model and seed).
    pub vanilla: MethodRun,
}

impl MethodCell {
    /// The Δ metrics of Eq. (22) of this cell against its vanilla reference.
    pub fn deltas(&self) -> MethodDeltas {
        deltas(&self.vanilla.evaluation, &self.run.evaluation)
    }
}

/// One architecture's share of a [`DatasetArtifacts`] bundle.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// The trained vanilla model.
    outcome: TrainedOutcome,
    /// Its evaluated run, every cell's reference.
    run: MethodRun,
    /// The FR re-weighting of `outcome`, filled by the first DPFR or PPFR
    /// cell that runs under an unbounded budget.
    reweight: Option<ReweightOutcome>,
}

/// Shared per-`(dataset spec, data seed, config)` artifacts: the generated
/// dataset, the threat auditor (pair sample + distance buffers + shadow
/// bundle + lazily fitted shadow attacks) and, per architecture, the trained
/// vanilla checkpoint and the FR re-weighting derived from it.  Build once,
/// then run as many `(model, method)` cells as needed — only the
/// method-specific training is re-paid per cell.
#[derive(Debug, Clone)]
pub struct DatasetArtifacts {
    /// The generated dataset every run in this group shares.
    pub dataset: Dataset,
    auditor: ThreatAuditor,
    // Keyed lookups only today, but BTreeMap keeps any future iteration
    // deterministic — this cache sits on the path to serialized reports.
    vanilla: BTreeMap<ModelKind, Checkpoint>,
}

impl DatasetArtifacts {
    /// Generates the dataset and builds the shared threat auditor.
    pub fn build(spec: &DatasetSpec, data_seed: u64, cfg: &PpfrConfig) -> Self {
        let dataset = generate(spec, data_seed);
        let auditor = threat_auditor(&dataset, cfg);
        Self {
            dataset,
            auditor,
            vanilla: BTreeMap::new(),
        }
    }

    /// The shared threat auditor (e.g. to subset its registry before the
    /// first audit).
    pub fn auditor_mut(&mut self) -> &mut ThreatAuditor {
        &mut self.auditor
    }

    /// FNV-1a digest of the *immutable* part of the bundle — the generated
    /// dataset (features, labels, edges, split sizes).  The auditor, the
    /// vanilla checkpoints and their re-weightings legitimately mutate as
    /// cells run, but the dataset must never change once built; the
    /// runner's artifact cache stores this digest at build time and
    /// revalidates on every hit so a corrupted bundle is detected and
    /// rebuilt instead of silently skewing every downstream metric.
    pub fn content_checksum(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.dataset.graph.n_nodes() as u64);
        for (u, v) in self.dataset.graph.edges() {
            eat(u as u64);
            eat(v as u64);
        }
        for &x in self.dataset.features.as_slice() {
            eat(x.to_bits());
        }
        for &l in &self.dataset.labels {
            eat(l as u64);
        }
        eat(self.dataset.n_classes as u64);
        eat(self.dataset.splits.train.len() as u64);
        eat(self.dataset.splits.val.len() as u64);
        eat(self.dataset.splits.test.len() as u64);
        h
    }

    /// Trains and audits the vanilla checkpoint for `kind` unless it is
    /// already cached.
    fn ensure_vanilla(&mut self, kind: ModelKind, cfg: &PpfrConfig) {
        if self.vanilla.contains_key(&kind) {
            return;
        }
        let outcome = run_method(&self.dataset, kind, Method::Vanilla, cfg);
        let evaluation = evaluate_with(&outcome, &self.dataset, cfg, &mut self.auditor);
        let run = MethodRun {
            dataset: self.dataset.name.to_string(),
            model: kind.name().to_string(),
            method: Method::Vanilla.name().to_string(),
            evaluation,
        };
        self.vanilla.insert(
            kind,
            Checkpoint {
                outcome,
                run,
                reweight: None,
            },
        );
    }

    /// The trained vanilla checkpoint and its evaluated run for `kind`,
    /// training and auditing it on first use.
    pub fn vanilla(&mut self, kind: ModelKind, cfg: &PpfrConfig) -> (&TrainedOutcome, &MethodRun) {
        self.ensure_vanilla(kind, cfg);
        let checkpoint = &self.vanilla[&kind];
        (&checkpoint.outcome, &checkpoint.run)
    }

    /// Trains one `(model, method)` cell from the cached vanilla checkpoint
    /// and the architecture's shared re-weighting slot (see
    /// [`run_method_from_vanilla`]).
    fn train_cell(&mut self, kind: ModelKind, method: Method, cfg: &PpfrConfig) -> TrainedOutcome {
        self.ensure_vanilla(kind, cfg);
        let checkpoint = self.vanilla.get_mut(&kind).expect("just ensured");
        run_method_from_vanilla(
            &self.dataset,
            kind,
            method,
            cfg,
            Some(&checkpoint.outcome),
            &mut checkpoint.reweight,
        )
    }

    /// Runs one `(model, method)` cell against the cached artifacts: the
    /// vanilla checkpoint seeds the fine-tuning methods, which share one
    /// re-weighting (see [`run_method_from_vanilla`]), and the shared
    /// auditor scores every method on the same pairs.
    pub fn cell(&mut self, kind: ModelKind, method: Method, cfg: &PpfrConfig) -> MethodCell {
        let vanilla_run = self.vanilla(kind, cfg).1.clone();
        if method == Method::Vanilla {
            return MethodCell {
                run: vanilla_run.clone(),
                vanilla: vanilla_run,
            };
        }
        let outcome = self.train_cell(kind, method, cfg);
        let evaluation = evaluate_with(&outcome, &self.dataset, cfg, &mut self.auditor);
        MethodCell {
            run: MethodRun {
                dataset: self.dataset.name.to_string(),
                model: kind.name().to_string(),
                method: method.name().to_string(),
                evaluation,
            },
            vanilla: vanilla_run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scaling_shrinks_every_preset() {
        for spec in high_homophily_specs(ExperimentScale::Smoke)
            .into_iter()
            .chain(weak_homophily_specs(ExperimentScale::Smoke))
        {
            let full = match spec.name {
                "cora" => cora(),
                "citeseer" => citeseer(),
                "pubmed" => pubmed(),
                "enzymes" => enzymes(),
                "credit" => credit(),
                other => panic!("unexpected preset {other}"),
            };
            assert!(spec.n_nodes < full.n_nodes, "{} not scaled", spec.name);
            assert!(spec.n_val >= 20 && spec.n_test >= 40);
        }
    }

    #[test]
    fn smoke_presets_fill_their_validation_and_test_splits() {
        for spec in high_homophily_specs(ExperimentScale::Smoke)
            .into_iter()
            .chain(weak_homophily_specs(ExperimentScale::Smoke))
        {
            let ds = generate(&spec, 7);
            assert_eq!(ds.splits.val.len(), spec.n_val, "{} validation", spec.name);
            assert_eq!(ds.splits.test.len(), spec.n_test, "{} test", spec.name);
        }
    }

    #[test]
    fn full_scaling_is_identity() {
        let spec = scaled_spec(cora(), ExperimentScale::Full);
        assert_eq!(spec.n_nodes, cora().n_nodes);
        assert_eq!(spec.n_test, cora().n_test);
    }

    #[test]
    fn artifacts_cache_the_vanilla_checkpoint_across_cells() {
        let spec = ppfr_datasets::two_block_synthetic();
        let cfg = PpfrConfig {
            vanilla_epochs: 20,
            influence_cg_iters: 4,
            ..PpfrConfig::smoke()
        };
        let mut artifacts = DatasetArtifacts::build(&spec, 7, &cfg);
        assert_eq!(artifacts.vanilla.len(), 0);
        let vanilla_cell = artifacts.cell(ModelKind::Gcn, Method::Vanilla, &cfg);
        assert_eq!(artifacts.vanilla.len(), 1);
        let reg_cell = artifacts.cell(ModelKind::Gcn, Method::Reg, &cfg);
        // Still one checkpoint: Reg reused the cached vanilla reference.
        assert_eq!(artifacts.vanilla.len(), 1);
        assert_eq!(vanilla_cell.run.method, "Vanilla");
        assert_eq!(reg_cell.run.method, "Reg");
        // The vanilla reference is identical in both cells.
        assert_eq!(
            vanilla_cell.run.evaluation.accuracy,
            reg_cell.vanilla.evaluation.accuracy
        );
        assert_eq!(
            vanilla_cell.run.evaluation.risk_auc,
            reg_cell.vanilla.evaluation.risk_auc
        );
        // A vanilla cell is its own reference, so its deltas vanish.
        let d = vanilla_cell.deltas();
        assert_eq!(d.d_acc, 0.0);
        assert_eq!(d.d_bias, 0.0);
        assert_eq!(d.d_risk, 0.0);
    }

    #[test]
    fn fr_cells_share_one_reweighting_bit_identical_to_from_scratch() {
        let spec = ppfr_datasets::two_block_synthetic();
        let cfg = PpfrConfig {
            vanilla_epochs: 20,
            influence_cg_iters: 4,
            ..PpfrConfig::smoke()
        };
        let kind = ModelKind::Gcn;
        let dataset = DatasetArtifacts::build(&spec, 7, &cfg).dataset;
        let scratch = |method| run_method(&dataset, kind, method, &cfg);
        let assert_matches_scratch = |outcome: &TrainedOutcome| {
            let reference = scratch(outcome.method);
            assert!(outcome.fairness_loss_weights.is_some());
            assert_eq!(
                outcome.fairness_loss_weights,
                reference.fairness_loss_weights,
                "{} loss weights",
                outcome.method.name()
            );
            let logits = ppfr_gnn::GnnModel::forward(&outcome.model, &outcome.deploy_ctx);
            let want = ppfr_gnn::GnnModel::forward(&reference.model, &reference.deploy_ctx);
            assert_eq!(
                logits.as_slice(),
                want.as_slice(),
                "{} logits",
                outcome.method.name()
            );
        };
        for order in [[Method::DpFr, Method::Ppfr], [Method::Ppfr, Method::DpFr]] {
            let mut artifacts = DatasetArtifacts::build(&spec, 7, &cfg);
            for method in order {
                let outcome = artifacts.train_cell(kind, method, &cfg);
                let stored = artifacts.vanilla[&kind].reweight.as_ref();
                assert_eq!(
                    stored.map(|fr| &fr.loss_weights),
                    outcome.fairness_loss_weights.as_ref(),
                    "the first FR cell fills the slot, the second reads it"
                );
                assert_matches_scratch(&outcome);
            }
        }
        // A bounded budget neither fills nor reads the slot, even one too
        // large to stop any loop.
        let mut artifacts = DatasetArtifacts::build(&spec, 7, &cfg);
        let bounded = ppfr_resilience::Budget::units(1 << 40);
        let outcome = ppfr_resilience::with_budget(&bounded, || {
            artifacts.train_cell(kind, Method::DpFr, &cfg)
        });
        assert!(artifacts.vanilla[&kind].reweight.is_none());
        assert_matches_scratch(&outcome);
    }
}
