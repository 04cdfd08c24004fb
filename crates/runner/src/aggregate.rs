//! Aggregation of per-seed runs into `mean ± std` summaries.
//!
//! Runs are canonicalised (sorted by dataset, model, method, seed) before
//! any statistic is computed, so the aggregate is bit-identical no matter in
//! which order the parallel executor finished the runs.  Statistics are
//! NaN-free by construction: a single seed reports `std = 0`, and min/max
//! are plain folds over finite metric values.

use ppfr_core::{Evaluation, MethodDeltas};
use serde::{Deserialize, Serialize};

/// `mean ± std` (plus the range) of one metric over the seed axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n−1` denominator); `0` for a single run.
    pub std: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Number of runs aggregated.
    pub n: usize,
}

impl MetricStats {
    /// Aggregates a non-empty slice of metric values.
    ///
    /// # Panics
    /// Panics on an empty slice — an aggregated metric always has ≥ 1 run.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot aggregate zero runs");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            let ss = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>();
            (ss / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            mean,
            std,
            min,
            max,
            n,
        }
    }

    /// `mean ± std` rendering at the given precision.
    pub fn pm(&self, precision: usize) -> String {
        format!("{:.p$}±{:.p$}", self.mean, self.std, p = precision)
    }

    /// This statistic with every field scaled by `factor` (e.g. ×100 to
    /// render a fraction as a percentage).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            mean: self.mean * factor,
            std: self.std * factor,
            min: self.min * factor,
            max: self.max * factor,
            n: self.n,
        }
    }
}

/// One executed `(dataset, model, method, seed)` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeedRun {
    /// Dataset name.
    pub dataset: String,
    /// Model architecture name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// The run seed (dataset generation + pipeline RNG streams).
    pub seed: u64,
    /// Full evaluation of the trained model.
    pub evaluation: Evaluation,
    /// Δ metrics against the same-seed vanilla reference (all zero for the
    /// vanilla rows themselves).
    pub deltas: MethodDeltas,
}

impl SeedRun {
    /// The named metrics this run contributes to the aggregation: the five
    /// scalar evaluation metrics, the four Δ metrics of Eq. (22), and the
    /// per-distance / per-threat attack AUCs.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let e = &self.evaluation;
        let d = &self.deltas;
        let mut out = vec![
            ("acc".to_string(), e.accuracy),
            ("bias".to_string(), e.bias),
            ("risk_auc".to_string(), e.risk_auc),
            ("risk_gap".to_string(), e.risk_gap),
            ("worst_risk_auc".to_string(), e.worst_risk_auc),
            ("d_acc_pct".to_string(), d.d_acc * 100.0),
            ("d_bias_pct".to_string(), d.d_bias * 100.0),
            ("d_risk_pct".to_string(), d.d_risk * 100.0),
            ("delta".to_string(), d.delta),
        ];
        for (name, auc) in &e.auc_per_distance {
            out.push((format!("auc_dist:{name}"), *auc));
        }
        for (name, auc) in &e.auc_per_threat {
            out.push((format!("auc_threat:{name}"), *auc));
        }
        out
    }

    fn cell_key(&self) -> (&str, &str, &str) {
        (&self.dataset, &self.model, &self.method)
    }
}

/// One `(dataset, model, method, seed)` cell that failed permanently — every
/// retry attempt exhausted or its whole group panicked.  Failed cells are
/// quarantined out of `runs` (their seeds simply do not contribute to the
/// `mean ± std` statistics) and reported here instead of aborting the
/// scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailedCell {
    /// Dataset name.
    pub dataset: String,
    /// Model architecture name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// The run seed.
    pub seed: u64,
    /// Human-readable error (panic message, injected fault, …).
    pub error: String,
    /// Attempts consumed before the cell was quarantined.
    pub attempts: u32,
}

/// One recorded graceful degradation: a `(dataset, model, method, seed)`
/// cell that completed, but on a downgraded estimator (e.g. exact CG →
/// shallow LiSSA) because its work budget ran out.  Degraded cells still
/// contribute to the statistics — this section is what flags that their
/// metrics deviate from the paper's exact protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradedCell {
    /// Dataset name.
    pub dataset: String,
    /// Model architecture name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// The run seed.
    pub seed: u64,
    /// Where the downgrade happened (e.g. `influence`).
    pub site: String,
    /// The exact estimator that was abandoned.
    pub from: String,
    /// The degraded estimator that ran instead.
    pub to: String,
}

/// `mean ± std` of one metric of one `(dataset, model, method)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Dataset name.
    pub dataset: String,
    /// Model architecture name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// Metric name (see [`SeedRun::metrics`]).
    pub metric: String,
    /// The aggregated statistic.
    pub stats: MetricStats,
}

/// The aggregated result of one scenario execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed axis, ascending.
    pub seeds: Vec<u64>,
    /// Every run, sorted by `(dataset, model, method, seed)`.
    pub runs: Vec<SeedRun>,
    /// Every `mean ± std` row, sorted by `(dataset, model, method, metric)`.
    pub summaries: Vec<RunSummary>,
    /// Cells quarantined after exhausting their retry attempts, sorted by
    /// `(dataset, model, method, seed)`; empty on a clean run.
    pub failed_cells: Vec<FailedCell>,
    /// Cells that completed on a degraded estimator, sorted by
    /// `(dataset, model, method, seed, site)`; empty on an unbounded run.
    pub degraded: Vec<DegradedCell>,
}

/// Canonicalises and aggregates the executor's runs into a report.
pub fn aggregate(scenario: &str, seeds: &[u64], mut runs: Vec<SeedRun>) -> MatrixReport {
    runs.sort_by(|a, b| (a.cell_key(), a.seed).cmp(&(b.cell_key(), b.seed)));
    let mut summaries = Vec::new();
    let mut start = 0;
    while start < runs.len() {
        let end = runs[start..]
            .iter()
            .position(|r| r.cell_key() != runs[start].cell_key())
            .map_or(runs.len(), |p| start + p);
        let cell = &runs[start..end];
        // Metric names are identical across a cell's seeds; take them from
        // the first run and gather each metric's values in seed order.
        let names: Vec<String> = cell[0].metrics().into_iter().map(|(n, _)| n).collect();
        let per_run: Vec<Vec<(String, f64)>> = cell.iter().map(SeedRun::metrics).collect();
        for (i, name) in names.iter().enumerate() {
            let values: Vec<f64> = per_run
                .iter()
                .map(|metrics| {
                    debug_assert_eq!(&metrics[i].0, name, "metric sets differ within a cell");
                    metrics[i].1
                })
                .collect();
            summaries.push(RunSummary {
                dataset: cell[0].dataset.clone(),
                model: cell[0].model.clone(),
                method: cell[0].method.clone(),
                metric: name.clone(),
                stats: MetricStats::from_values(&values),
            });
        }
        start = end;
    }
    summaries.sort_by(|a, b| {
        (&a.dataset, &a.model, &a.method, &a.metric)
            .cmp(&(&b.dataset, &b.model, &b.method, &b.metric))
    });
    let mut sorted_seeds = seeds.to_vec();
    sorted_seeds.sort_unstable();
    MatrixReport {
        scenario: scenario.to_string(),
        seeds: sorted_seeds,
        runs,
        summaries,
        failed_cells: Vec::new(),
        degraded: Vec::new(),
    }
}

/// Canonicalises the resilience sections in place (the executor collects
/// them in group-completion order, which is thread-count dependent).
pub fn sort_resilience_sections(failed: &mut [FailedCell], degraded: &mut [DegradedCell]) {
    failed.sort_by(|a, b| {
        (&a.dataset, &a.model, &a.method, a.seed).cmp(&(&b.dataset, &b.model, &b.method, b.seed))
    });
    degraded.sort_by(|a, b| {
        (&a.dataset, &a.model, &a.method, a.seed, &a.site)
            .cmp(&(&b.dataset, &b.model, &b.method, b.seed, &b.site))
    });
}

impl MatrixReport {
    /// Stable JSON rendering: rows are pre-sorted, struct field order is
    /// fixed, so two bit-identical executions print identical text.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Looks up one aggregated metric.
    pub fn summary(
        &self,
        dataset: &str,
        model: &str,
        method: &str,
        metric: &str,
    ) -> Option<&RunSummary> {
        self.summaries.iter().find(|s| {
            s.dataset == dataset && s.model == model && s.method == method && s.metric == metric
        })
    }

    /// The distinct dataset names, in summary (i.e. sorted) order.
    pub fn datasets(&self) -> Vec<String> {
        let mut names: Vec<String> = self.cells().into_iter().map(|c| c.0).collect();
        names.dedup();
        names
    }

    /// The distinct `(dataset, model, method)` cells, in summary order.
    pub fn cells(&self) -> Vec<(String, String, String)> {
        let mut cells: Vec<(String, String, String)> = Vec::new();
        for s in &self.summaries {
            let key = (s.dataset.clone(), s.model.clone(), s.method.clone());
            if cells.last() != Some(&key) {
                cells.push(key);
            }
        }
        cells
    }

    /// Plain-text rendering of the Table III–V metric set, one line per
    /// `(dataset, model, method)` cell, every number as `mean±std`.
    pub fn to_table_string(&self) -> String {
        let mut out = format!(
            "scenario '{}' over seeds {:?} ({} runs)\n",
            self.scenario,
            self.seeds,
            self.runs.len()
        );
        out.push_str(
            "dataset        model      method   acc%            bias            meanAUC         worstAUC        Δacc%           Δbias%          Δrisk%          Δ\n",
        );
        for (dataset, model, method) in self.cells() {
            let get = |metric: &str| {
                self.summary(&dataset, &model, &method, metric)
                    .map(|s| s.stats.clone())
                    .expect("core metrics exist for every cell")
            };
            let acc_pct = get("acc").scaled(100.0);
            out.push_str(&format!(
                "{:<14} {:<10} {:<8} {:<15} {:<15} {:<15} {:<15} {:<15} {:<15} {:<15} {}\n",
                dataset,
                model,
                method,
                acc_pct.pm(2),
                get("bias").pm(4),
                get("risk_auc").pm(4),
                get("worst_risk_auc").pm(4),
                get("d_acc_pct").pm(2),
                get("d_bias_pct").pm(2),
                get("d_risk_pct").pm(2),
                get("delta").pm(3),
            ));
        }
        for f in &self.failed_cells {
            out.push_str(&format!(
                "FAILED   {} {} {} seed {}: {} (after {} attempts)\n",
                f.dataset, f.model, f.method, f.seed, f.error, f.attempts
            ));
        }
        for d in &self.degraded {
            out.push_str(&format!(
                "DEGRADED {} {} {} seed {}: {} {} -> {}\n",
                d.dataset, d.model, d.method, d.seed, d.site, d.from, d.to
            ));
        }
        out
    }

    /// [`Self::to_table_string`] plus a trailing artifact-cache summary line.
    /// The cache tallies ride along in the human-readable rendering only —
    /// the serialised report must stay bit-identical between cold and
    /// cache-warm runs, so they never enter [`Self::to_json`].
    pub fn to_table_string_with_cache(&self, cache: &crate::cache::CacheStats) -> String {
        let mut out = self.to_table_string();
        out.push_str(&cache.summary_line());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn fake_run(dataset: &str, method: &str, seed: u64, acc: f64) -> SeedRun {
        SeedRun {
            dataset: dataset.to_string(),
            model: "GCN".to_string(),
            method: method.to_string(),
            seed,
            evaluation: Evaluation {
                accuracy: acc,
                bias: 0.1,
                risk_auc: 0.9,
                risk_gap: 0.2,
                auc_per_distance: vec![("cosine".to_string(), 0.8)],
                worst_risk_auc: 0.92,
                auc_per_threat: vec![("posteriors".to_string(), 0.91)],
            },
            deltas: MethodDeltas {
                d_acc: -0.01,
                d_bias: -0.3,
                d_risk: 0.02,
                delta: -0.6,
            },
        }
    }

    #[test]
    fn stats_match_hand_computation() {
        let s = MetricStats::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!((s.min, s.max, s.n), (1.0, 3.0, 3));
        assert_eq!(s.pm(2), "2.00±1.00");
    }

    #[test]
    fn single_run_and_constant_metrics_are_nan_free() {
        let single = MetricStats::from_values(&[0.5]);
        assert_eq!((single.mean, single.std, single.n), (0.5, 0.0, 1));
        let constant = MetricStats::from_values(&[0.7; 5]);
        assert_eq!(constant.std, 0.0);
        assert!(constant.mean.is_finite());
    }

    #[test]
    fn aggregation_is_invariant_to_run_order() {
        let runs = vec![
            fake_run("b", "Reg", 2, 0.8),
            fake_run("a", "Reg", 1, 0.7),
            fake_run("a", "Reg", 2, 0.9),
            fake_run("b", "Reg", 1, 0.6),
        ];
        let mut reversed = runs.clone();
        reversed.reverse();
        let fwd = aggregate("t", &[1, 2], runs);
        let rev = aggregate("t", &[2, 1], reversed);
        assert_eq!(fwd.to_json(), rev.to_json());
        let acc = fwd.summary("a", "GCN", "Reg", "acc").expect("summary");
        assert!((acc.stats.mean - 0.8).abs() < 1e-12);
        assert_eq!(acc.stats.n, 2);
    }

    #[test]
    fn report_covers_every_table_metric_and_distance() {
        let report = aggregate("t", &[1], vec![fake_run("a", "PPFR", 1, 0.75)]);
        for metric in [
            "acc",
            "bias",
            "risk_auc",
            "risk_gap",
            "worst_risk_auc",
            "d_acc_pct",
            "d_bias_pct",
            "d_risk_pct",
            "delta",
            "auc_dist:cosine",
            "auc_threat:posteriors",
        ] {
            assert!(
                report.summary("a", "GCN", "PPFR", metric).is_some(),
                "missing metric {metric}"
            );
        }
        let text = report.to_table_string();
        assert!(text.contains("PPFR"));
        assert!(text.contains('±'));
    }
}
