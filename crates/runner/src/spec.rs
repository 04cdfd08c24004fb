//! Scenario specifications: what to run, over which seeds, with which knobs.
//!
//! A [`ScenarioSpec`] is the declarative description of one experiment
//! matrix — datasets × models × methods × seeds plus the perturbation knobs
//! and an optional threat-model subset.  [`ScenarioSpec::groups`] expands it
//! into the per-`(dataset, seed)` run groups the executor parallelises over,
//! and the [`ScenarioRegistry`] names the stock scenarios the `exp_*`
//! binaries and the golden regression suite share.

use ppfr_core::{ExperimentScale, Method, PpfrConfig, ThreatModel};
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
    /// as well as a dataset whose `n_classes` is zero or above its `n_nodes`,
    /// or whose `feature_signal` or `feature_noise` lies outside [0, 1]
    /// (each panics the generator in every cell of that dataset), a dataset
    /// whose `target_homophily` lies outside [0, 1], whose `avg_degree` is
    /// negative or non-finite, or whose `degree_skew` is non-finite (each
    /// silently generates a graph with no edges, no intra- or no
    /// inter-class edges, or every edge), a dataset with no training label
    /// per class, no test node, splits that need more than `n_nodes` nodes
    /// or no feature column, and a config with `hidden = 0` (each trains on
    /// nothing, scores on nothing or fits a constant model, and reports
    /// numbers for that degenerate experiment), a zero
    /// attempt count, a negative or non-finite `lr`,
    /// `weight_decay` or `fairness_lambda` (a non-finite one makes the
    /// logits of every cell, or of every Reg/DPReg cell, NaN and panics
    /// it), a negative or non-finite QCLP budget
    /// (`qclp_alpha`, `qclp_beta`), which the solver would reject in every
    /// re-weighting cell, a negative or non-finite `perturb_ratio`, which
    /// would panic every PPFR cell, or `influence_damping`, which can leave
    /// that QCLP with non-finite influences, a negative or non-finite
    /// `finetune_fraction` (∞ panics every DPFR and PPFR fine-tune, NaN or a
    /// negative value silently fine-tunes one epoch), a DP budget `dp_epsilon`
    /// that is not finite and positive, which would fail every DPReg and DPFR
    /// cell, and an empty or unknown `threat_models` entry, which would
    /// silently audit a smaller grid.
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
        for d in &self.datasets {
            if d.n_classes == 0 || d.n_classes > d.n_nodes {
                return Err(format!(
                    "scenario '{}' dataset '{}' has n_classes = {}; it must be between 1 and \
                     n_nodes = {}",
                    self.name, d.name, d.n_classes, d.n_nodes
                ));
            }
            if !(d.avg_degree.is_finite() && d.avg_degree >= 0.0) {
                return Err(format!(
                    "scenario '{}' dataset '{}' has avg_degree = {}; it must be finite and \
                     non-negative",
                    self.name, d.name, d.avg_degree
                ));
            }
            if !d.degree_skew.is_finite() {
                return Err(format!(
                    "scenario '{}' dataset '{}' has degree_skew = {}; it must be finite",
                    self.name, d.name, d.degree_skew
                ));
            }
            for (field, value) in [
                ("train_per_class", d.train_per_class),
                ("n_test", d.n_test),
                ("feat_dim", d.feat_dim),
            ] {
                if value == 0 {
                    return Err(format!(
                        "scenario '{}' dataset '{}' has {field} = 0; it must be positive",
                        self.name, d.name
                    ));
                }
            }
            let needed = d
                .n_classes
                .saturating_mul(d.train_per_class)
                .saturating_add(d.n_val)
                .saturating_add(d.n_test);
            if needed > d.n_nodes {
                return Err(format!(
                    "scenario '{}' dataset '{}' has n_classes · train_per_class + n_val + \
                     n_test = {needed}; it must be at most n_nodes = {}",
                    self.name, d.name, d.n_nodes
                ));
            }
            for (field, p) in [
                ("target_homophily", d.target_homophily),
                ("feature_signal", d.feature_signal),
                ("feature_noise", d.feature_noise),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!(
                        "scenario '{}' dataset '{}' has {field} = {p}; it must lie in [0, 1]",
                        self.name, d.name
                    ));
                }
            }
        }
        if self.max_cell_attempts == 0 {
            return Err(format!(
                "scenario '{}' allows zero cell attempts",
                self.name
            ));
        }
        let c = &self.config;
        if c.hidden == 0 {
            return Err(format!(
                "scenario '{}' has hidden width hidden = 0; it must be positive",
                self.name
            ));
        }
        for (what, knob, value) in [
            ("learning rate", "lr", c.lr),
            ("weight decay", "weight_decay", c.weight_decay),
            ("fairness strength", "fairness_lambda", c.fairness_lambda),
            ("QCLP budget", "qclp_alpha", c.qclp_alpha),
            ("QCLP budget", "qclp_beta", c.qclp_beta),
            ("perturbation ratio", "perturb_ratio", c.perturb_ratio),
            ("Hessian damping", "influence_damping", c.influence_damping),
            (
                "fine-tuning fraction",
                "finetune_fraction",
                c.finetune_fraction,
            ),
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
        if let Some(names) = &self.threat_models {
            if names.is_empty() {
                return Err(format!(
                    "scenario '{}' has an empty threat_models list",
                    self.name
                ));
            }
            if let Some(unknown) = names
                .iter()
                .find(|n| !ThreatModel::ALL.iter().any(|t| t.name() == n.as_str()))
            {
                return Err(format!(
                    "scenario '{}' names unknown threat model '{unknown}'",
                    self.name
                ));
            }
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

/// Named stock scenarios shared by the `exp_*` binaries and tests.
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
        let mut no_attempts = ScenarioSpec::golden_small();
        no_attempts.max_cell_attempts = 0;
        assert!(no_attempts.validate().is_err(), "zero cell attempts");
    }

    #[test]
    fn resilience_knobs_default_to_the_exact_protocol() {
        let spec = ScenarioSpec::golden_small();
        assert_eq!(spec.cell_budget, None, "budget must be opt-in");
        assert_eq!(spec.max_cell_attempts, 2);
        let mut bounded = ScenarioSpec::golden_small().with_cell_budget(500);
        bounded.max_cell_attempts = 3;
        assert_eq!(bounded.cell_budget, Some(500));
        assert_eq!(bounded.max_cell_attempts, 3);
        bounded.validate().expect("bounded spec is valid");
    }

    #[test]
    fn registry_resolves_every_advertised_name() {
        for scale in [ExperimentScale::Smoke, ExperimentScale::Full] {
            for name in ScenarioRegistry::NAMES {
                let spec = ScenarioRegistry::get(name, scale)
                    .unwrap_or_else(|| panic!("{name} not resolvable"));
                if let Err(err) = spec.validate() {
                    panic!("stock scenario {name} at {scale:?} is invalid: {err}");
                }
            }
        }
        assert!(ScenarioRegistry::get("nope", ExperimentScale::Smoke).is_none());
    }

    #[test]
    fn knob_builders_reach_the_per_seed_config() {
        let mut spec = ScenarioSpec::golden_small();
        spec.config.perturb_ratio = 1.5;
        spec.config.dp_epsilon = 2.0;
        let cfg = spec.config_for_seed(99);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.perturb_ratio, 1.5);
        assert_eq!(cfg.dp_epsilon, 2.0);
    }
}
