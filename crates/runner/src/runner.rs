//! The scenario executor: expands a [`ScenarioSpec`] into run groups,
//! executes them in parallel through `ppfr_linalg::parallel` and aggregates
//! the per-seed runs.
//!
//! Parallelism is over `(dataset, seed)` groups: runs inside one group share
//! mutable artifacts (the auditor's distance buffers, the vanilla
//! checkpoints), so the group is the natural independence boundary.  Every
//! group is deterministic in its cache key and the aggregation
//! canonicalises run order, so thread count never changes the report —
//! pinned by the `forced-thread` tests below, exactly like the kernel layer.
//!
//! # Failure semantics
//!
//! The executor is crash-proof at two granularities.  A panicking **cell**
//! is caught *inside* the artifact-bundle lock scope (so the bundle mutex is
//! never poisoned), retried per the spec's deterministic
//! [`RetryPolicy`](ppfr_resilience::RetryPolicy), and — if every attempt
//! fails — quarantined into the report's `failed_cells` section while every
//! other cell completes untouched.  A panicking **group** (anything that
//! escapes the per-cell quarantine, e.g. an artifact build crash) is caught
//! at the dispatch boundary by [`par_rows_quarantined`] and surfaces as one
//! `failed_cells` entry per cell it would have run.  Each cell additionally
//! runs under the spec's optional work [`Budget`](ppfr_resilience::Budget);
//! degraded estimators triggered by budget exhaustion land in the report's
//! `degraded` section, so deviation from the exact protocol is always
//! flagged.

use crate::aggregate::{
    aggregate, sort_resilience_sections, DegradedCell, FailedCell, MatrixReport, SeedRun,
};
use crate::cache::{lock_recover, ArtifactCache};
use crate::spec::{RunGroup, ScenarioSpec};
use ppfr_linalg::parallel::par_rows_quarantined;
use ppfr_resilience::{
    collect_degradations, panic_message, run_with_retry, with_budget, Budget, FaultKind,
    RetryPolicy, RunError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything one group produced: completed runs plus the quarantined
/// failures and recorded degradations of its cells.
struct GroupOutcome {
    runs: Vec<SeedRun>,
    failed: Vec<FailedCell>,
    degraded: Vec<DegradedCell>,
}

/// Executes every run of one group against its (possibly cached) shared
/// artifacts.  Cell failures are quarantined per cell; only a failure
/// outside any cell (artifact build, injected group fault) unwinds out of
/// this function, into the dispatch-level quarantine.
fn run_group(spec: &ScenarioSpec, group: &RunGroup, cache: &ArtifactCache) -> GroupOutcome {
    let _span = ppfr_telemetry::span!("runner_group");
    let cfg = spec.config_for_seed(group.seed);
    let dataset_spec = &spec.datasets[group.dataset_index];
    if ppfr_resilience::armed() {
        let group_key = format!("{}:s{}", dataset_spec.name, group.seed);
        if ppfr_resilience::fault_at("group", &group_key) == Some(FaultKind::Panic) {
            panic!("injected fault: group {group_key} panicked");
        }
    }
    let bundle = cache.get_or_build(
        dataset_spec,
        &cfg,
        group.seed,
        spec.threat_models.as_deref(),
        spec.cell_budget,
    );
    let mut artifacts = lock_recover(&bundle);
    let mut out = GroupOutcome {
        runs: Vec::with_capacity(spec.models.len() * spec.methods.len()),
        failed: Vec::new(),
        degraded: Vec::new(),
    };
    let policy = RetryPolicy::attempts(spec.max_cell_attempts);
    for &kind in &spec.models {
        for &method in &spec.methods {
            let _cell_span = ppfr_telemetry::span!("runner_cell");
            let cell_key = format!(
                "{}:s{}:{}:{}",
                dataset_spec.name,
                group.seed,
                kind.name(),
                method.name()
            );
            let attempted = run_with_retry(policy, |_attempt| {
                // Injected faults, resolved before any real work so an
                // injected panic never leaves partially mutated artifacts —
                // that is what lets the chaos suite pin surviving cells
                // bit-identical.  One relaxed load when no plan is armed.
                let mut inject_panic = false;
                if ppfr_resilience::armed() {
                    match ppfr_resilience::fault_at("cell", &cell_key) {
                        Some(FaultKind::Panic) => inject_panic = true,
                        Some(FaultKind::Error) => {
                            return Err(RunError::CellError {
                                cell: cell_key.clone(),
                                message: "injected transient cell error".to_string(),
                            })
                        }
                        _ => {}
                    }
                }
                // Fresh budget per attempt: a retried cell restarts with the
                // full allowance, keeping attempts deterministic.
                let budget = match spec.cell_budget {
                    Some(units) => Budget::units(units),
                    None => Budget::unlimited(),
                };
                if ppfr_resilience::armed()
                    && ppfr_resilience::fault_at("budget", &cell_key)
                        == Some(FaultKind::ExhaustBudget)
                {
                    budget.exhaust();
                }
                // The catch sits INSIDE the bundle-lock scope, so a cell
                // panic never poisons the artifact mutex.  AssertUnwindSafe
                // is justified: `DatasetArtifacts` mutates transactionally
                // (the vanilla checkpoint and the shared re-weighting are
                // inserted only after they are fully built), so an unwound
                // cell leaves the bundle consistent.
                let (result, degradations) = collect_degradations(|| {
                    with_budget(&budget, || {
                        catch_unwind(AssertUnwindSafe(|| {
                            if inject_panic {
                                panic!("injected fault: cell {cell_key} panicked");
                            }
                            artifacts.cell(kind, method, &cfg)
                        }))
                    })
                });
                match result {
                    Ok(cell) => Ok((cell, degradations)),
                    Err(payload) => {
                        ppfr_resilience::note_cell_panic();
                        Err(RunError::CellPanic {
                            cell: cell_key.clone(),
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            });
            match attempted {
                Ok((cell, degradations)) => {
                    for event in degradations {
                        out.degraded.push(DegradedCell {
                            dataset: cell.run.dataset.clone(),
                            model: cell.run.model.clone(),
                            method: cell.run.method.clone(),
                            seed: group.seed,
                            site: event.site,
                            from: event.from,
                            to: event.to,
                        });
                    }
                    out.runs.push(SeedRun {
                        dataset: cell.run.dataset.clone(),
                        model: cell.run.model.clone(),
                        method: cell.run.method.clone(),
                        seed: group.seed,
                        deltas: cell.deltas(),
                        evaluation: cell.run.evaluation,
                    });
                }
                Err(err) => out.failed.push(FailedCell {
                    dataset: dataset_spec.name.to_string(),
                    model: kind.name().to_string(),
                    method: method.name().to_string(),
                    seed: group.seed,
                    error: err.to_string(),
                    attempts: policy.max_attempts,
                }),
            }
        }
    }
    out
}

/// Folds per-group outcomes (including whole-group panics) into the final
/// report.  A panicked group contributes one `failed_cells` entry per cell
/// it would have run; its panic message is preserved verbatim.
fn finish(
    spec: &ScenarioSpec,
    groups: &[RunGroup],
    outcomes: Vec<Result<GroupOutcome, String>>,
) -> MatrixReport {
    let _span = ppfr_telemetry::span!("aggregate");
    let mut runs = Vec::new();
    let mut failed = Vec::new();
    let mut degraded = Vec::new();
    for (group, outcome) in groups.iter().zip(outcomes) {
        match outcome {
            Ok(o) => {
                runs.extend(o.runs);
                failed.extend(o.failed);
                degraded.extend(o.degraded);
            }
            Err(message) => {
                ppfr_resilience::note_cell_panic();
                let dataset = spec.datasets[group.dataset_index].name;
                for &kind in &spec.models {
                    for &method in &spec.methods {
                        failed.push(FailedCell {
                            dataset: dataset.to_string(),
                            model: kind.name().to_string(),
                            method: method.name().to_string(),
                            seed: group.seed,
                            error: format!("group panicked: {message}"),
                            attempts: 0,
                        });
                    }
                }
            }
        }
    }
    let mut report = aggregate(&spec.name, &spec.seeds, runs);
    sort_resilience_sections(&mut failed, &mut degraded);
    report.failed_cells = failed;
    report.degraded = degraded;
    report
}

/// Executes the scenario's full run matrix, groups in parallel.
///
/// Never panics on runner-path failures: an invalid spec returns
/// [`RunError::InvalidSpec`], and crashed cells/groups are quarantined into
/// the report's `failed_cells` section while the rest of the matrix
/// completes.
pub fn run_scenario(spec: &ScenarioSpec, cache: &ArtifactCache) -> Result<MatrixReport, RunError> {
    spec.validate().map_err(RunError::InvalidSpec)?;
    let groups = spec.groups();
    let outcomes = par_rows_quarantined(groups.len(), |g| run_group(spec, &groups[g], cache));
    Ok(finish(spec, &groups, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::two_block_weak;
    use ppfr_core::{Method, PpfrConfig};
    use ppfr_datasets::{two_block_synthetic, DatasetSpec};
    use ppfr_gnn::ModelKind;
    use ppfr_linalg::parallel::with_forced_threads;

    /// A deliberately tiny matrix so the executor tests stay fast: 2 small
    /// datasets × 2 methods × 2 seeds at 10 epochs.
    fn tiny_scenario() -> ScenarioSpec {
        ScenarioSpec::new(
            "tiny",
            vec![two_block_synthetic(), two_block_weak()],
            PpfrConfig {
                vanilla_epochs: 10,
                influence_cg_iters: 3,
                ..PpfrConfig::smoke()
            },
        )
        .with_methods(&[Method::Vanilla, Method::Reg])
        .with_seeds(&[7, 11])
    }

    #[test]
    fn matrix_shape_and_summary_coverage() {
        let cache = ArtifactCache::new();
        let report = run_scenario(&tiny_scenario(), &cache).expect("valid scenario runs");
        assert_eq!(report.runs.len(), 8, "2 datasets × 2 methods × 2 seeds");
        assert_eq!(cache.misses(), 4, "one build per (dataset, seed)");
        assert!(
            report.failed_cells.is_empty(),
            "clean run quarantines nothing"
        );
        assert!(
            report.degraded.is_empty(),
            "unbudgeted run degrades nothing"
        );
        for (dataset, model, method) in report.cells() {
            for metric in ["acc", "bias", "risk_auc", "worst_risk_auc", "delta"] {
                let s = report
                    .summary(&dataset, &model, &method, metric)
                    .unwrap_or_else(|| panic!("{dataset}/{method}/{metric} missing"));
                assert_eq!(s.stats.n, 2);
                assert!(s.stats.mean.is_finite() && s.stats.std.is_finite());
            }
        }
        // Vanilla rows are their own reference: Δ metrics are exactly zero.
        let d = report
            .summary("two-block", "GCN", "Vanilla", "d_acc_pct")
            .expect("vanilla delta row");
        assert_eq!(d.stats.mean, 0.0);
        assert_eq!(d.stats.std, 0.0);
    }

    #[test]
    fn invalid_spec_is_an_error_not_a_panic() {
        let cache = ArtifactCache::new();
        let empty = tiny_scenario().with_methods(&[]);
        let err = run_scenario(&empty, &cache).expect_err("empty axis must be rejected");
        assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
        assert!(err.to_string().contains("empty axis"));
        // A repeated model or method would run its cells twice and double
        // `n` in the aggregation, like a repeated seed or dataset.
        for (dup, axis) in [
            (
                tiny_scenario().with_methods(&[Method::DpFr, Method::DpFr]),
                "method 'DPFR'",
            ),
            (
                tiny_scenario().with_models(&[ModelKind::Gcn, ModelKind::Gat, ModelKind::Gcn]),
                "model 'GCN'",
            ),
        ] {
            let err = run_scenario(&dup, &cache).expect_err("duplicates must be rejected");
            assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
            assert!(
                err.to_string().contains(&format!("repeats {axis}")),
                "{err}"
            );
        }
        // A QCLP budget the solver would reject must not reach the cells,
        // where every DPFR/PPFR cell would panic and be quarantined.
        for (alpha, beta) in [(-1.0, 0.1), (0.9, f64::NAN)] {
            let mut bad = tiny_scenario().with_methods(&[Method::Vanilla, Method::Ppfr]);
            bad.config.qclp_alpha = alpha;
            bad.config.qclp_beta = beta;
            let err = run_scenario(&bad, &cache).expect_err("invalid QCLP budget");
            assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
            assert!(err.to_string().contains("QCLP budget"), "{err}");
        }
        // Likewise a DP budget edge-DP would reject: every DPReg/DPFR cell
        // would panic in the mechanism and be quarantined.
        for epsilon in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut bad =
                tiny_scenario().with_methods(&[Method::Vanilla, Method::DpReg, Method::DpFr]);
            bad.config.dp_epsilon = epsilon;
            let err = run_scenario(&bad, &cache).expect_err("invalid DP budget");
            assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
            assert!(err.to_string().contains("dp_epsilon"), "{err}");
        }
        // A negative perturbation ratio would panic every PPFR cell, and a
        // NaN damping would make every influence NaN, which the QCLP of
        // every DPFR cell rejects: both must stop at validation instead.
        let mut bad = tiny_scenario().with_methods(&[Method::Vanilla, Method::Ppfr]);
        bad.config.perturb_ratio = -0.5;
        let err = run_scenario(&bad, &cache).expect_err("invalid perturbation ratio");
        assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
        assert!(err.to_string().contains("perturb_ratio"), "{err}");
        let mut bad = tiny_scenario()
            .with_methods(&[Method::Vanilla, Method::DpFr])
            .with_seeds(&[7]);
        bad.config.influence_damping = f64::NAN;
        let err = run_scenario(&bad, &cache).expect_err("invalid Hessian damping");
        assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
        assert!(err.to_string().contains("influence_damping"), "{err}");
        // A non-finite learning rate or weight decay would make every cell's
        // logits NaN, and a non-finite fairness strength every Reg/DPReg
        // cell's: each would panic in the accuracy's argmax.  An infinite
        // fine-tuning fraction would panic every DPFR/PPFR fine-tune, and a
        // NaN or negative one would fine-tune for one epoch; a NaN or
        // negative LiSSA scale would fall back to power iteration, and an
        // infinite one would zero every LiSSA influence.
        type Spoil = fn(&mut PpfrConfig);
        let knobs: [(&str, Spoil); 10] = [
            ("lr", |c| c.lr = f64::NAN),
            ("lr", |c| c.lr = f64::INFINITY),
            ("weight_decay", |c| c.weight_decay = f64::NAN),
            ("fairness_lambda", |c| c.fairness_lambda = f64::INFINITY),
            ("finetune_fraction", |c| c.finetune_fraction = f64::INFINITY),
            ("finetune_fraction", |c| c.finetune_fraction = f64::NAN),
            ("finetune_fraction", |c| c.finetune_fraction = -1.0),
            ("lissa_scale", |c| c.lissa_scale = f64::INFINITY),
            ("lissa_scale", |c| c.lissa_scale = f64::NAN),
            ("lissa_scale", |c| c.lissa_scale = -1.0),
        ];
        for (knob, spoil) in knobs {
            let mut bad = tiny_scenario().with_seeds(&[7]);
            spoil(&mut bad.config);
            let err = run_scenario(&bad, &cache).expect_err("invalid training knob");
            assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
            assert!(err.to_string().contains(&format!(" {knob} = ")), "{err}");
        }
        // A class count of zero or above the node count panics in the
        // generator or the shadow SBM, and a feature probability outside
        // [0, 1] in the generator's Bernoulli draws: every cell of the
        // dataset would be quarantined.  A non-finite degree, homophily or
        // skew generates the complete graph, a negative degree no edges, and
        // a homophily outside [0, 1] no inter- or no intra-class edges:
        // every cell would report numbers for the wrong graph.
        type SpoilData = fn(&mut DatasetSpec);
        let fields: [(&str, SpoilData); 8] = [
            ("n_classes", |d| d.n_classes = 0),
            ("n_classes", |d| d.n_classes = d.n_nodes + 1),
            ("feature_signal", |d| d.feature_signal = f64::NAN),
            ("feature_noise", |d| d.feature_noise = 1.5),
            ("avg_degree", |d| d.avg_degree = f64::INFINITY),
            ("avg_degree", |d| d.avg_degree = -4.0),
            ("target_homophily", |d| d.target_homophily = 1.5),
            ("degree_skew", |d| d.degree_skew = f64::NAN),
        ];
        for (field, spoil) in fields {
            let mut bad = tiny_scenario().with_seeds(&[7]);
            spoil(&mut bad.datasets[0]);
            let err = run_scenario(&bad, &cache).expect_err("invalid dataset spec");
            assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
            assert!(
                err.to_string()
                    .contains(&format!("dataset 'two-block' has {field} = ")),
                "{err}"
            );
        }
        // A misspelt threat model or an empty list would keep fewer registry
        // entries and silently audit a smaller grid.
        for (names, want) in [
            (
                vec!["posterior".to_string()],
                "unknown threat model 'posterior'",
            ),
            (Vec::new(), "empty threat_models"),
        ] {
            let mut bad = tiny_scenario();
            bad.threat_models = Some(names);
            let err = run_scenario(&bad, &cache).expect_err("invalid threat models");
            assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
            assert!(err.to_string().contains(want), "{err}");
        }
        assert!(cache.is_empty(), "nothing was built for an invalid spec");
    }

    #[test]
    fn parallel_serial_and_forced_thread_counts_agree_bitwise() {
        let spec = tiny_scenario();
        let serial = with_forced_threads(1, || {
            run_scenario(&spec, &ArtifactCache::new()).expect("serial run")
        })
        .to_json();
        for threads in [2, 4] {
            let parallel = with_forced_threads(threads, || {
                run_scenario(&spec, &ArtifactCache::new()).expect("parallel run")
            });
            assert_eq!(
                parallel.to_json(),
                serial,
                "report differs at {threads} forced threads"
            );
        }
    }

    #[test]
    fn threat_subset_restricts_the_per_threat_metrics() {
        let cache = ArtifactCache::new();
        let mut spec = tiny_scenario().with_seeds(&[7]);
        spec.threat_models = Some(vec!["posteriors".into(), "posteriors+shadow".into()]);
        let report = run_scenario(&spec, &cache).expect("scenario runs");
        let run = &report.runs[0];
        assert_eq!(run.evaluation.auc_per_threat.len(), 2);
        assert!(report
            .summary("two-block", "GCN", "Vanilla", "auc_threat:posteriors")
            .is_some());
        assert!(report
            .summary(
                "two-block",
                "GCN",
                "Vanilla",
                "auc_threat:posteriors+features"
            )
            .is_none());
    }

    #[test]
    fn budgeted_run_completes_with_flagged_degradations() {
        // A 1-unit budget exhausts while the PPFR cell trains its vanilla
        // checkpoint, so the downstream FR pipeline must walk the
        // degradation ladder — and the cell still completes: no failures,
        // metrics finite, downgrades flagged.
        let spec = tiny_scenario()
            .with_methods(&[Method::Ppfr])
            .with_seeds(&[7])
            .with_cell_budget(1);
        let cache = ArtifactCache::new();
        let report = run_scenario(&spec, &cache).expect("budgeted scenario runs");
        assert_eq!(report.runs.len(), 2, "every cell completed");
        assert!(report.failed_cells.is_empty());
        assert!(
            !report.degraded.is_empty(),
            "an exhausted budget must be flagged as degradation"
        );
        let sites: Vec<&str> = report.degraded.iter().map(|d| d.site.as_str()).collect();
        assert!(sites.contains(&"influence"), "sites: {sites:?}");
        assert!(
            !sites.contains(&"pair_sample"),
            "the FR path draws no pair sample, so it has none to degrade: {sites:?}"
        );
        for d in &report.degraded {
            assert_eq!(d.method, "PPFR", "only the FR method walks the ladder");
        }
        for run in &report.runs {
            assert!(run.evaluation.accuracy.is_finite());
            assert!(run.evaluation.bias.is_finite());
        }
        // Degraded runs are deterministic too: the same budget stops the
        // same loops at the same iterations at any thread count.
        let again = with_forced_threads(4, || {
            run_scenario(&spec, &ArtifactCache::new()).expect("budgeted rerun")
        });
        assert_eq!(again.to_json(), report.to_json());
    }
}
