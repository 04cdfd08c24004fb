//! Scenario specifications: what to run, over which seeds, with which knobs.
//!
//! A [`ScenarioSpec`] is the declarative description of one experiment
//! matrix — datasets × models × methods × seeds plus the perturbation knobs
//! and an optional threat-model subset.  [`ScenarioSpec::groups`] expands it
//! into the per-`(dataset, seed)` run groups the executor parallelises over,
//! and the [`ScenarioRegistry`] names the stock scenarios the `exp_*`
//! binaries and the golden regression suite share.

use ppfr_core::{ExperimentScale, Method, PpfrConfig};
use ppfr_datasets::{two_block_synthetic, DatasetSpec};
use ppfr_gnn::ModelKind;

/// Default seed list of the multi-seed reports (3 repetitions, as in the
/// paper's "averaged over repeated runs" protocol).
pub const DEFAULT_SEEDS: [u64; 3] = [7, 17, 27];

/// One experiment matrix: every `(dataset, model, method, seed)` combination
/// is one run; runs sharing a `(dataset, seed)` cell share artifacts.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (reported in the aggregated output).
    pub name: String,
    /// Dataset axis.
    pub datasets: Vec<DatasetSpec>,
    /// Architecture axis.
    pub models: Vec<ModelKind>,
    /// Method axis (include [`Method::Vanilla`] to report the reference).
    pub methods: Vec<Method>,
    /// Seed axis: each seed drives both dataset generation and the pipeline
    /// RNG streams, so repetitions differ in graph *and* initialisation.
    pub seeds: Vec<u64>,
    /// Base pipeline configuration (epochs, perturbation knobs, DP budget);
    /// its `seed` field is overridden per run by the seed axis.
    pub config: PpfrConfig,
    /// When set, audit only the named threat models (see
    /// [`ppfr_core::ThreatModel::name`]); `None` audits the full grid.
    pub threat_models: Option<Vec<String>>,
    /// Optional per-cell work budget, in cooperative checkpoint units
    /// (training epochs, CG/LiSSA iterations).  `None` runs the exact
    /// protocol unbounded; `Some(n)` makes every cell deadline-aware — on
    /// exhaustion the pipelines degrade gracefully (truncated training,
    /// shallow LiSSA) and every downgrade is recorded in the report's
    /// `degraded` section.
    pub cell_budget: Option<u64>,
    /// Total attempts per cell (first try included, ≥ 1): a transient cell
    /// failure is retried deterministically before the cell is quarantined
    /// into the report's `failed_cells` section.
    pub max_cell_attempts: u32,
}

/// One `(dataset, seed)` cell of the expanded matrix — the unit of artifact
/// sharing and of parallel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunGroup {
    /// Index into [`ScenarioSpec::datasets`].
    pub dataset_index: usize,
    /// The run seed.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A scenario over `datasets` with the default axes: GCN, all five
    /// methods, [`DEFAULT_SEEDS`], full threat grid.
    pub fn new(name: impl Into<String>, datasets: Vec<DatasetSpec>, config: PpfrConfig) -> Self {
        Self {
            name: name.into(),
            datasets,
            models: vec![ModelKind::Gcn],
            methods: Method::ALL.to_vec(),
            seeds: DEFAULT_SEEDS.to_vec(),
            config,
            threat_models: None,
            cell_budget: None,
            max_cell_attempts: 2,
        }
    }

    /// Sets the per-cell work budget (cooperative checkpoint units).
    pub fn with_cell_budget(mut self, units: u64) -> Self {
        self.cell_budget = Some(units);
        self
    }

    /// Sets the total attempts per cell (first try included).
    pub fn with_max_cell_attempts(mut self, attempts: u32) -> Self {
        self.max_cell_attempts = attempts;
        self
    }

    /// Sets the architecture axis.
    pub fn with_models(mut self, models: &[ModelKind]) -> Self {
        self.models = models.to_vec();
        self
    }

    /// Sets the method axis.
    pub fn with_methods(mut self, methods: &[Method]) -> Self {
        self.methods = methods.to_vec();
        self
    }

    /// Sets the seed axis.
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the heterophilic-perturbation ratio γ knob; [`ScenarioSpec::validate`]
    /// rejects a value that is not finite and non-negative.
    pub fn with_perturb_ratio(mut self, gamma: f64) -> Self {
        self.config.perturb_ratio = gamma;
        self
    }

    /// Sets the edge-DP budget ε knob; [`ScenarioSpec::validate`] rejects a
    /// value that is not finite and positive.
    pub fn with_dp_epsilon(mut self, epsilon: f64) -> Self {
        self.config.dp_epsilon = epsilon;
        self
    }

    /// Restricts the audit to the named threat models.
    pub fn with_threat_models(mut self, names: &[&str]) -> Self {
        self.threat_models = Some(names.iter().map(|n| n.to_string()).collect());
        self
    }

    /// The pipeline configuration of one run: the base config with its RNG
    /// seed replaced by the run seed.
    pub fn config_for_seed(&self, seed: u64) -> PpfrConfig {
        PpfrConfig {
            seed,
            ..self.config.clone()
        }
    }

    /// Expands the `(dataset, seed)` axes into run groups, datasets-major so
    /// the report orders like the paper's tables.
    pub fn groups(&self) -> Vec<RunGroup> {
        let mut groups = Vec::with_capacity(self.datasets.len() * self.seeds.len());
        for dataset_index in 0..self.datasets.len() {
            for &seed in &self.seeds {
                groups.push(RunGroup {
                    dataset_index,
                    seed,
                });
            }
        }
        groups
    }

    /// Total number of runs in the expanded matrix.
    pub fn n_runs(&self) -> usize {
        self.datasets.len() * self.models.len() * self.methods.len() * self.seeds.len()
    }

    /// Rejects empty axes and a repeated seed, dataset name, model or
    /// method — duplicates would make two runs indistinguishable in the
    /// aggregation (cells are keyed by the dataset, model and method name
    /// strings), silently doubling `n` —
    /// as well as a zero attempt count, a negative or non-finite QCLP budget
    /// (`qclp_alpha`, `qclp_beta`), which the solver would reject in every
    /// re-weighting cell, a negative or non-finite `perturb_ratio`, which
    /// would panic every PPFR cell, or `influence_damping`, which can leave
    /// that QCLP with non-finite influences, and a DP budget `dp_epsilon`
    /// that is not finite and positive, which would fail every DPReg and DPFR
    /// cell.
    pub fn validate(&self) -> Result<(), String> {
        if self.datasets.is_empty()
            || self.models.is_empty()
            || self.methods.is_empty()
            || self.seeds.is_empty()
        {
            return Err(format!("scenario '{}' has an empty axis", self.name));
        }
        let axes: [(&str, Vec<String>); 4] = [
            ("seed", self.seeds.iter().map(u64::to_string).collect()),
            (
                "dataset",
                self.datasets.iter().map(|d| d.name.to_string()).collect(),
            ),
            (
                "model",
                self.models.iter().map(|m| m.name().to_string()).collect(),
            ),
            (
                "method",
                self.methods.iter().map(|m| m.name().to_string()).collect(),
            ),
        ];
        for (axis, values) in axes {
            let mut seen = std::collections::HashSet::new();
            if let Some(repeated) = values.iter().find(|v| !seen.insert(*v)) {
                return Err(format!(
                    "scenario '{}' repeats {axis} '{repeated}'",
                    self.name
                ));
            }
        }
        if self.max_cell_attempts == 0 {
            return Err(format!(
                "scenario '{}' allows zero cell attempts",
                self.name
            ));
        }
        let c = &self.config;
        for (what, knob, value) in [
            ("QCLP budget", "qclp_alpha", c.qclp_alpha),
            ("QCLP budget", "qclp_beta", c.qclp_beta),
            ("perturbation ratio", "perturb_ratio", c.perturb_ratio),
            ("Hessian damping", "influence_damping", c.influence_damping),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "scenario '{}' has {what} {knob} = {value}; it must be finite and \
                     non-negative",
                    self.name
                ));
            }
        }
        let epsilon = self.config.dp_epsilon;
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(format!(
                "scenario '{}' has DP budget dp_epsilon = {epsilon}; it must be finite and \
                 positive",
                self.name
            ));
        }
        Ok(())
    }
}

/// The weak-homophily twin of [`two_block_synthetic`], used by the stock
/// small scenarios so the matrix spans both homophily regimes the paper
/// contrasts (Tables IV vs V).
pub fn two_block_weak() -> DatasetSpec {
    DatasetSpec {
        name: "two-block-weak",
        target_homophily: 0.62,
        feature_signal: 0.35,
        ..two_block_synthetic()
    }
}

/// The cheap configuration the small stock scenarios run with: smoke epochs
/// shortened further so a full 2 × 5 × 2 matrix stays test-sized.
fn small_config() -> PpfrConfig {
    PpfrConfig {
        vanilla_epochs: 40,
        influence_cg_iters: 8,
        ..PpfrConfig::smoke()
    }
}

impl ScenarioSpec {
    /// The golden-regression scenario: 2 small SBM datasets × GCN × all five
    /// methods × 2 fixed seeds.  `tests/golden/golden_small.json` pins its
    /// aggregated metrics.
    pub fn golden_small() -> Self {
        ScenarioSpec::new(
            "golden-small",
            vec![two_block_synthetic(), two_block_weak()],
            small_config(),
        )
        .with_seeds(&[7, 11])
    }

    /// The benchmark scenario recorded in `BENCH_kernels.json`: the
    /// acceptance-floor 2 datasets × 5 methods × 3 seeds matrix.
    pub fn bench_small() -> Self {
        ScenarioSpec::new(
            "bench-small",
            vec![two_block_synthetic(), two_block_weak()],
            small_config(),
        )
    }
}

/// Named stock scenarios shared by the `exp_*` binaries, benches and tests.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRegistry;

impl ScenarioRegistry {
    /// Names accepted by [`ScenarioRegistry::get`].
    pub const NAMES: [&'static str; 4] = [
        "golden-small",
        "bench-small",
        "tables-high-homophily",
        "tables-weak-homophily",
    ];

    /// Builds a named scenario at the requested experiment scale (the small
    /// stock scenarios ignore the scale — they are already small).
    pub fn get(name: &str, scale: ExperimentScale) -> Option<ScenarioSpec> {
        match name {
            "golden-small" => Some(ScenarioSpec::golden_small()),
            "bench-small" => Some(ScenarioSpec::bench_small()),
            "tables-high-homophily" => Some(
                ScenarioSpec::new(
                    "tables-high-homophily",
                    ppfr_core::experiments::high_homophily_specs(scale),
                    scale.config(),
                )
                .with_models(&ModelKind::ALL),
            ),
            "tables-weak-homophily" => Some(ScenarioSpec::new(
                "tables-weak-homophily",
                ppfr_core::experiments::weak_homophily_specs(scale),
                scale.config(),
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_counts_match_the_axes() {
        let spec = ScenarioSpec::bench_small();
        assert_eq!(spec.datasets.len(), 2);
        assert_eq!(spec.methods.len(), 5);
        assert_eq!(spec.seeds.len(), 3);
        assert_eq!(spec.groups().len(), 6);
        assert_eq!(spec.n_runs(), 30);
        spec.validate().expect("stock scenario is valid");
    }

    #[test]
    fn groups_are_datasets_major_and_seed_ordered() {
        let spec = ScenarioSpec::golden_small();
        let groups = spec.groups();
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].dataset_index, 0);
        assert_eq!(groups[0].seed, 7);
        assert_eq!(groups[1].seed, 11);
        assert_eq!(groups[2].dataset_index, 1);
    }

    #[test]
    fn validation_rejects_duplicate_seeds_datasets_and_empty_axes() {
        let dup = ScenarioSpec::golden_small().with_seeds(&[3, 3]);
        assert!(dup.validate().is_err());
        let empty = ScenarioSpec::golden_small().with_methods(&[]);
        assert!(empty.validate().is_err());
        let mut twice = ScenarioSpec::golden_small();
        twice.datasets = vec![two_block_synthetic(), two_block_synthetic()];
        assert!(twice.validate().is_err(), "duplicate dataset names");
        let no_attempts = ScenarioSpec::golden_small().with_max_cell_attempts(0);
        assert!(no_attempts.validate().is_err(), "zero cell attempts");
    }

    #[test]
    fn resilience_knobs_default_to_the_exact_protocol() {
        let spec = ScenarioSpec::golden_small();
        assert_eq!(spec.cell_budget, None, "budget must be opt-in");
        assert_eq!(spec.max_cell_attempts, 2);
        let bounded = ScenarioSpec::golden_small()
            .with_cell_budget(500)
            .with_max_cell_attempts(3);
        assert_eq!(bounded.cell_budget, Some(500));
        assert_eq!(bounded.max_cell_attempts, 3);
        bounded.validate().expect("bounded spec is valid");
    }

    #[test]
    fn registry_resolves_every_advertised_name() {
        for name in ScenarioRegistry::NAMES {
            let spec = ScenarioRegistry::get(name, ExperimentScale::Smoke)
                .unwrap_or_else(|| panic!("{name} not resolvable"));
            spec.validate().expect("stock scenarios validate");
        }
        assert!(ScenarioRegistry::get("nope", ExperimentScale::Smoke).is_none());
    }

    #[test]
    fn knob_builders_reach_the_per_seed_config() {
        let spec = ScenarioSpec::golden_small()
            .with_perturb_ratio(1.5)
            .with_dp_epsilon(2.0);
        let cfg = spec.config_for_seed(99);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.perturb_ratio, 1.5);
        assert_eq!(cfg.dp_epsilon, 2.0);
    }
}
