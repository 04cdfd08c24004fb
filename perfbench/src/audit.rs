//! `audit-small` and `audit-paper`: the runner's scenario matrix.
//!
//! Set-up builds every group's bundle — the dataset, the threat auditor with
//! its shadow bundle, and the trained and audited vanilla checkpoints —
//! into a fresh `ArtifactCache` through `ArtifactCache::get_or_build` and
//! `DatasetArtifacts::vanilla`.  The timed run is `run_scenario` on that
//! cache, so every group fetch must be a cache hit.
//!
//! The traced run walks the same matrix itself: it calls
//! `DatasetArtifacts::cell` per cell, exactly as the runner does, and then
//! re-runs each layer's entry point on that cell's own inputs — the steps
//! of `run_method_from_vanilla` and `evaluate_with` — inside one span per
//! layer.  The re-run must reproduce the cell's evaluation bit for bit,
//! which pins it to the code it stands in for.

use crate::trace::{self, timed};
use crate::{
    derive_seed, digest, end_to_end_metrics, layer_metrics, Pacer, RunResult, RunnerFigures, Size,
    Tally, Workload,
};
use ppfr_attacks::{PairFeatureTable, ThreatAuditor, TrainedAttack};
use ppfr_core::{
    deltas, heterophilic_perturbation, predictions, threat_auditor, ExperimentScale, Method,
    PpfrConfig, TrainedOutcome,
};
use ppfr_datasets::{generate, Dataset};
use ppfr_fairness::bias;
use ppfr_gnn::{train, AnyModel, FairnessReg, GraphContext, ModelKind};
use ppfr_graph::{jaccard_similarity, similarity_laplacian, Graph, SparseMatrix};
use ppfr_influence::{
    bias_grad_wrt_params, conjugate_gradient, hessian_vector_product_with, influence_from_s_f,
    risk_grad_wrt_params, training_loss_grad, HvpScratch,
};
use ppfr_privacy::{edge_rand, lap_graph, PairSample};
use ppfr_qclp::{solve, QclpProblem, SolverOptions};
use ppfr_resilience::{counters, ResilienceCounters};
use ppfr_runner::{
    aggregate, run_scenario, ArtifactCache, MatrixReport, ScenarioRegistry, ScenarioSpec, SeedRun,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Scenario seed sets one untraced iteration runs, one matrix each.  On
/// `audit-small` a matrix lasts under a second while the host's speed
/// drifts over tens of seconds, and its QCLP iteration count, with it the
/// matrix's work, varies up to 2× between scenario seeds; an iteration of
/// four matrices (twelve scenario seeds) smooths both.
fn seed_sets(workload: Workload, size: Size) -> u64 {
    match (workload, size) {
        (Workload::AuditSmall, Size::Full) => 4,
        _ => 1,
    }
}

/// The scenario of an audit workload for seed set `set`, its seed axis
/// derived from the workload seed.
pub fn spec(workload: Workload, size: Size, seed: u64, set: u64) -> ScenarioSpec {
    let seeds = |n: u64| -> Vec<u64> { (0..n).map(|i| derive_seed(seed, set * n + i)).collect() };
    let tables = || {
        ScenarioRegistry::get("tables-high-homophily", ExperimentScale::Smoke)
            .expect("stock scenario is registered")
    };
    let reduced = |mut spec: ScenarioSpec| {
        spec.config.vanilla_epochs = 8;
        spec.config.influence_cg_iters = 3;
        spec
    };
    match (workload, size) {
        (Workload::AuditSmall, Size::Full) => ScenarioSpec::bench_small().with_seeds(&seeds(3)),
        (Workload::AuditPaper, Size::Full) => tables().with_seeds(&seeds(1)),
        (Workload::AuditSmall, Size::Reduced) => reduced(
            ScenarioSpec::bench_small()
                .with_seeds(&seeds(1))
                .with_methods(&[Method::Vanilla, Method::Reg, Method::DpFr]),
        ),
        (Workload::AuditPaper, Size::Reduced) => {
            let mut spec = reduced(tables().with_seeds(&seeds(1)).with_methods(&[
                Method::Vanilla,
                Method::DpReg,
                Method::Ppfr,
            ]));
            spec.datasets.truncate(1);
            spec
        }
        (Workload::ScaleStream, _) => panic!("scale-stream is not an audit workload"),
    }
}

/// Set-up: builds every group's bundle and vanilla checkpoints into `cache`.
fn prebuild(spec: &ScenarioSpec, cache: &ArtifactCache) {
    for group in spec.groups() {
        let cfg = spec.config_for_seed(group.seed);
        let bundle = cache.get_or_build(
            &spec.datasets[group.dataset_index],
            &cfg,
            group.seed,
            spec.threat_models.as_deref(),
            spec.cell_budget,
        );
        let mut artifacts = bundle.lock().expect("a fresh bundle is not poisoned");
        for &kind in &spec.models {
            artifacts.vanilla(kind, &cfg);
        }
    }
}

/// Counts one `run_scenario` call's cell attempts: every cell once, plus
/// one per runner retry; failed are the retried attempts plus the cells
/// quarantined in `failed_cells`.
fn account(
    tally: &mut Tally,
    spec: &ScenarioSpec,
    report: &MatrixReport,
    before: ResilienceCounters,
) {
    let retries = counters().retries - before.retries;
    tally.attempted += spec.n_runs() as u64 + retries;
    tally.failed += retries + report.failed_cells.len() as u64;
}

/// Runs the scenario once, counting its attempts; `None` when the runner
/// rejected the spec.
fn run_counted(
    spec: &ScenarioSpec,
    cache: &ArtifactCache,
    tally: &mut Tally,
) -> Option<MatrixReport> {
    let before = counters();
    match run_scenario(spec, cache) {
        Ok(report) => {
            account(tally, spec, &report, before);
            Some(report)
        }
        Err(err) => {
            tally.attempted += spec.n_runs() as u64;
            tally.failed += spec.n_runs() as u64;
            tally.problem(format!("run_scenario failed: {err}"));
            None
        }
    }
}

/// True when every cell completed on the exact protocol.
fn complete(spec: &ScenarioSpec, report: &MatrixReport) -> bool {
    report.failed_cells.is_empty()
        && report.degraded.is_empty()
        && report.runs.len() == spec.n_runs()
}

/// The cold reference: `run_scenario` on an empty cache, which builds its
/// own bundles.  It doubles as the process's warm-up iteration, which ran
/// 15–40% slower than later ones in every probe.
fn cold_reference(spec: &ScenarioSpec, tally: &mut Tally) -> Option<String> {
    let report = run_counted(spec, &ArtifactCache::new(), tally)?;
    tally.check(complete(spec, &report), || {
        format!(
            "cold run incomplete: {} runs, {} failed, {} degraded",
            report.runs.len(),
            report.failed_cells.len(),
            report.degraded.len()
        )
    });
    Some(report.to_json())
}

/// Checks a warm run against the cold reference and the set-up split.
fn check_warm(
    tally: &mut Tally,
    spec: &ScenarioSpec,
    report: &MatrixReport,
    reference: &Option<String>,
    hits: usize,
    misses: usize,
) {
    let groups = spec.groups().len();
    tally.check(hits == groups && misses == 0, || {
        format!("cache hits {hits} / misses {misses}, expected {groups} / 0")
    });
    if !report.failed_cells.is_empty() {
        // Already counted as failed operations; the report cannot match.
        return;
    }
    tally.check(report.degraded.is_empty(), || {
        format!("{} degraded cells", report.degraded.len())
    });
    if let Some(reference) = reference {
        tally.check(&report.to_json() == reference, || {
            "report differs from the cold run".to_string()
        });
    }
}

/// The end-to-end measurement: per iteration, one matrix per seed set,
/// each a fresh cache, its set-up and `run_scenario`, repeated within
/// `seconds`; medians over the iterations (set-up per matrix).
pub(crate) fn run_untraced(workload: Workload, size: Size, seed: u64, seconds: f64) -> RunResult {
    let specs: Vec<ScenarioSpec> = (0..seed_sets(workload, size))
        .map(|set| spec(workload, size, seed, set))
        .collect();
    let mut tally = Tally::default();
    let references: Vec<Option<String>> = specs
        .iter()
        .map(|spec| cold_reference(spec, &mut tally))
        .collect();
    let mut setup_s = Vec::new();
    let mut cells_per_s = Vec::new();
    let mut pacer = Pacer::new(seconds);
    while pacer.next_iteration() {
        let (mut cells, mut run_s, mut complete) = (0, 0.0, true);
        for (spec, reference) in specs.iter().zip(&references) {
            let cache = ArtifactCache::new();
            let t = Instant::now();
            prebuild(spec, &cache);
            setup_s.push(t.elapsed().as_secs_f64());
            let built = cache.stats();
            let t = Instant::now();
            let report = run_counted(spec, &cache, &mut tally);
            run_s += t.elapsed().as_secs_f64();
            let after = cache.stats();
            let Some(report) = report else {
                complete = false;
                continue;
            };
            complete &= report.failed_cells.is_empty();
            cells += spec.n_runs();
            check_warm(
                &mut tally,
                spec,
                &report,
                reference,
                after.hits - built.hits,
                after.misses - built.misses,
            );
        }
        eprintln!(
            "perfbench: iteration {} run_s {run_s:.4}",
            pacer.iterations()
        );
        if complete {
            cells_per_s.push(cells as f64 / run_s);
        }
    }
    let iterations = pacer.iterations();
    tally.check(!cells_per_s.is_empty(), || {
        "no iteration completed all its cells".to_string()
    });
    let metrics = end_to_end_metrics(&setup_s, &cells_per_s, &tally);
    let outputs: Vec<&str> = references
        .iter()
        .map(|r| r.as_deref().unwrap_or(""))
        .collect();
    let digest = digest(&outputs.concat());
    tally.finish(metrics, digest, iterations)
}

/// The model `run_method_from_vanilla` makes for a from-scratch method (it
/// keeps that function private): GraphSAGE samples 10 neighbours.
fn fresh_model(
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
    if let AnyModel::GraphSage(sage) = &mut model {
        sage.sample_size = Some(10);
    }
    model
}

/// The edge-DP graph of the DP methods: EdgeRand below 2500 nodes,
/// LapGraph above, seeded as the pipeline seeds it.
fn dp_graph(dataset: &Dataset, cfg: &PpfrConfig) -> Graph {
    let _span = trace::span("privacy.dp");
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5bd1_e995);
    if dataset.graph.n_nodes() >= 2500 {
        lap_graph(&dataset.graph, cfg.dp_epsilon, &mut rng)
    } else {
        edge_rand(&dataset.graph, cfg.dp_epsilon, &mut rng)
    }
}

/// Trains inside a `gnn.train` span, counting epochs.
fn train_spanned(
    model: &mut AnyModel,
    ctx: &GraphContext,
    dataset: &Dataset,
    weights: &[f64],
    reg: Option<&FairnessReg>,
    cfg: &ppfr_gnn::TrainConfig,
) {
    let _span = trace::span("gnn.train");
    let report = train(
        model,
        ctx,
        &dataset.labels,
        &dataset.splits.train,
        weights,
        reg,
        cfg,
    );
    trace::count("gnn.epochs", report.loss_history.len() as u64);
}

/// Fairness-aware loss weights `1 + w` through the influence and QCLP
/// layers: the exact-CG branch of `fairness_weights`, one span per stage.
fn fr_loss_weights(
    model: &AnyModel,
    ctx: &GraphContext,
    dataset: &Dataset,
    l_s: &SparseMatrix,
    sample: &PairSample,
    cfg: &PpfrConfig,
) -> Vec<f64> {
    let (labels, train_ids) = (&dataset.labels, &dataset.splits.train);
    let icfg = cfg.influence_config();
    let influences: Vec<Vec<f64>> = timed("influence.compute", || {
        let grads = [
            training_loss_grad(model, ctx, labels, train_ids),
            bias_grad_wrt_params(model, ctx, l_s),
            risk_grad_wrt_params(model, ctx, sample),
        ];
        grads
            .iter()
            .map(|grad| {
                let s_f = timed("influence.cg", || {
                    let mut scratch = HvpScratch::new(model);
                    let mut hvps = 0u64;
                    let s_f = conjugate_gradient(
                        |v| {
                            hvps += 1;
                            hessian_vector_product_with(
                                &mut scratch,
                                ctx,
                                labels,
                                train_ids,
                                v,
                                icfg.fd_step,
                                icfg.damping,
                            )
                        },
                        grad,
                        icfg.cg_iters,
                        icfg.cg_tol,
                    );
                    trace::count("influence.hvps", hvps);
                    s_f
                });
                timed("influence.tail", || {
                    influence_from_s_f(model, ctx, labels, train_ids, &s_f)
                })
            })
            .collect()
    });
    let [util, bias_inf, _risk]: [Vec<f64>; 3] =
        influences.try_into().expect("three influence vectors");
    let solution = timed("qclp.solve", || {
        solve(
            &QclpProblem {
                bias_influence: bias_inf,
                util_influence: util,
                alpha: cfg.qclp_alpha,
                beta: cfg.qclp_beta,
            },
            &SolverOptions::default(),
        )
    });
    trace::count("qclp.iters", solution.iterations as u64);
    solution.weights.iter().map(|w| 1.0 + w).collect()
}

/// Re-runs the target half-split fits of the partial-knowledge threat
/// models, which `ThreatAuditor::audit` runs internally, on the distance
/// table the audit just filled.
fn refit_partial_attacks(auditor: &ThreatAuditor, dataset: &Dataset, probs: &ppfr_linalg::Matrix) {
    let _span = trace::span("attacks.fit");
    let sample = auditor.sample();
    let n_pos = sample.positives.len();
    let n_pairs = n_pos + sample.negatives.len();
    let half_train: Vec<usize> = (0..n_pairs)
        .filter(|&i| (if i < n_pos { i } else { i - n_pos }) % 2 == 0)
        .collect();
    for (model, cfg) in auditor.registry().iter().filter(|(m, _)| !m.shadow_dataset) {
        let features = model.node_features.then_some(&dataset.features);
        let table = PairFeatureTable::from_distances(
            auditor.evaluator().table(),
            sample,
            probs,
            features,
            true,
        );
        std::hint::black_box(TrainedAttack::fit(&table, &half_train, cfg));
    }
}

/// Predictions, bias and the threat-grid audit of a trained outcome, one
/// span each; returns `(accuracy, bias, mean AUC, worst AUC)`.
fn evaluate_spanned(
    outcome: &TrainedOutcome,
    dataset: &Dataset,
    cfg: &PpfrConfig,
    auditor: &mut ThreatAuditor,
    refit: bool,
) -> [f64; 4] {
    let probs = timed("gnn.predict", || predictions(outcome, cfg));
    let accuracy = ppfr_nn::accuracy(&probs, &dataset.labels, &dataset.splits.test);
    let bias_value = timed("fairness.bias", || {
        bias(&probs, &outcome.similarity_laplacian)
    });
    let grid = timed("attacks.audit", || auditor.audit(&probs));
    if refit {
        refit_partial_attacks(auditor, dataset, &probs);
    }
    [
        accuracy,
        bias_value,
        grid.unsupervised.average_auc,
        grid.worst_case_auc,
    ]
}

fn evaluation_key(e: &ppfr_core::Evaluation) -> [f64; 4] {
    [e.accuracy, e.bias, e.risk_auc, e.worst_risk_auc]
}

/// Re-runs one non-vanilla cell's layer calls on its own inputs — the
/// steps of `run_method_from_vanilla` for `method`, then evaluation — and
/// returns the evaluation key for comparison with the real cell.
fn replay_cell(
    kind: ModelKind,
    method: Method,
    cfg: &PpfrConfig,
    dataset: &Dataset,
    vanilla: &TrainedOutcome,
    auditor: &mut ThreatAuditor,
) -> [f64; 4] {
    let base_ctx = GraphContext::new(dataset.graph.clone(), dataset.features.clone());
    let l_s = vanilla.similarity_laplacian.clone();
    let uniform = vec![1.0; dataset.splits.train.len()];
    let reg = FairnessReg {
        laplacian: l_s.clone(),
        lambda: cfg.fairness_lambda,
    };
    let fine_tune_sample = || {
        timed("privacy.pair_sample", || {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xb492_b66f);
            PairSample::balanced(&dataset.graph, &mut rng)
        })
    };
    let (model, deploy_ctx, loss_weights) = match method {
        Method::Vanilla => unreachable!("vanilla cells reuse the checkpoint"),
        Method::Reg => {
            let mut model = fresh_model(kind, &base_ctx, dataset, cfg);
            train_spanned(
                &mut model,
                &base_ctx,
                dataset,
                &uniform,
                Some(&reg),
                &cfg.vanilla_train_config(),
            );
            (model, base_ctx, None)
        }
        Method::DpReg => {
            let mut model = fresh_model(kind, &base_ctx, dataset, cfg);
            let dp_ctx = base_ctx.with_graph(dp_graph(dataset, cfg));
            train_spanned(
                &mut model,
                &dp_ctx,
                dataset,
                &uniform,
                Some(&reg),
                &cfg.vanilla_train_config(),
            );
            (model, dp_ctx, None)
        }
        Method::DpFr => {
            let mut model = vanilla.model.clone();
            let sample = fine_tune_sample();
            let weights = fr_loss_weights(&model, &base_ctx, dataset, &l_s, &sample, cfg);
            let dp_ctx = base_ctx.with_graph(dp_graph(dataset, cfg));
            train_spanned(
                &mut model,
                &dp_ctx,
                dataset,
                &weights,
                None,
                &cfg.finetune_train_config(),
            );
            (model, dp_ctx, Some(weights))
        }
        Method::Ppfr => {
            let mut model = vanilla.model.clone();
            let sample = fine_tune_sample();
            let weights = fr_loss_weights(&model, &base_ctx, dataset, &l_s, &sample, cfg);
            let delta = timed("core.perturb", || {
                heterophilic_perturbation(
                    &model,
                    &base_ctx,
                    cfg.perturb_ratio,
                    cfg.seed ^ 0x7f4a_7c15,
                )
            });
            let pp_ctx = base_ctx.with_graph(delta.apply(&base_ctx.graph));
            train_spanned(
                &mut model,
                &pp_ctx,
                dataset,
                &weights,
                None,
                &cfg.finetune_train_config(),
            );
            (model, pp_ctx, Some(weights))
        }
    };
    let outcome = TrainedOutcome {
        model,
        deploy_ctx,
        method,
        model_kind: kind,
        similarity_laplacian: l_s,
        fairness_loss_weights: loss_weights,
    };
    evaluate_spanned(&outcome, dataset, cfg, auditor, true)
}

/// Traced set-up: the real pre-build, then each group's set-up layers
/// re-run on their own inputs (generation, auditor build, similarity,
/// vanilla training and its audit), checked against the built bundle.
fn traced_setup(spec: &ScenarioSpec, cache: &ArtifactCache, tally: &mut Tally) {
    timed("setup.prebuild", || prebuild(spec, cache));
    for group in spec.groups() {
        let cfg = spec.config_for_seed(group.seed);
        let dataset_spec = &spec.datasets[group.dataset_index];
        let dataset = timed("datasets.generate", || generate(dataset_spec, group.seed));
        let mut auditor = timed("attacks.auditor_build", || threat_auditor(&dataset, &cfg));
        let l_s = timed("graph.similarity", || {
            similarity_laplacian(&jaccard_similarity(&dataset.graph))
        });
        let bundle = cache.get_or_build(
            dataset_spec,
            &cfg,
            group.seed,
            spec.threat_models.as_deref(),
            spec.cell_budget,
        );
        let mut artifacts = bundle.lock().expect("a fresh bundle is not poisoned");
        let base_ctx = GraphContext::new(dataset.graph.clone(), dataset.features.clone());
        let uniform = vec![1.0; dataset.splits.train.len()];
        for &kind in &spec.models {
            let mut model = fresh_model(kind, &base_ctx, &dataset, &cfg);
            train_spanned(
                &mut model,
                &base_ctx,
                &dataset,
                &uniform,
                None,
                &cfg.vanilla_train_config(),
            );
            let outcome = TrainedOutcome {
                model,
                deploy_ctx: base_ctx.clone(),
                method: Method::Vanilla,
                model_kind: kind,
                similarity_laplacian: l_s.clone(),
                fairness_loss_weights: None,
            };
            let got = evaluate_spanned(&outcome, &dataset, &cfg, &mut auditor, false);
            let want = evaluation_key(&artifacts.vanilla(kind, &cfg).1.evaluation);
            tally.check(got == want, || {
                format!(
                    "set-up re-run of {} {} differs: {got:?} vs {want:?}",
                    dataset.name,
                    kind.name()
                )
            });
        }
    }
}

/// The span of one method's cells.
fn cell_span(method: Method) -> &'static str {
    match method {
        Method::Vanilla => "core.cell.Vanilla",
        Method::Reg => "core.cell.Reg",
        Method::DpReg => "core.cell.DPReg",
        Method::DpFr => "core.cell.DPFR",
        Method::Ppfr => "core.cell.PPFR",
    }
}

/// The traced matrix: per group, the runner's fetch and one
/// `DatasetArtifacts::cell` call per cell (span `core.cell.<method>`), each
/// followed by its layer re-run (span `core.replay`).
fn traced_matrix(spec: &ScenarioSpec, cache: &ArtifactCache, tally: &mut Tally) -> Vec<SeedRun> {
    let _matrix = trace::span("runner.matrix");
    let mut runs = Vec::with_capacity(spec.n_runs());
    for group in spec.groups() {
        let cfg = spec.config_for_seed(group.seed);
        let bundle = cache.get_or_build(
            &spec.datasets[group.dataset_index],
            &cfg,
            group.seed,
            spec.threat_models.as_deref(),
            spec.cell_budget,
        );
        let mut artifacts = bundle.lock().expect("a fresh bundle is not poisoned");
        let dataset = artifacts.dataset.clone();
        for &kind in &spec.models {
            let vanilla = artifacts.vanilla(kind, &cfg).0.clone();
            for &method in &spec.methods {
                let cell = timed(cell_span(method), || artifacts.cell(kind, method, &cfg));
                if method != Method::Vanilla {
                    let got = timed("core.replay", || {
                        replay_cell(
                            kind,
                            method,
                            &cfg,
                            &dataset,
                            &vanilla,
                            artifacts.auditor_mut(),
                        )
                    });
                    let want = evaluation_key(&cell.run.evaluation);
                    tally.check(got == want, || {
                        format!(
                            "re-run of {} {} {} differs: {got:?} vs {want:?}",
                            dataset.name,
                            kind.name(),
                            method.name()
                        )
                    });
                }
                runs.push(SeedRun {
                    dataset: cell.run.dataset.clone(),
                    model: cell.run.model.clone(),
                    method: cell.run.method.clone(),
                    seed: group.seed,
                    deltas: deltas(&cell.vanilla.evaluation, &cell.run.evaluation),
                    evaluation: cell.run.evaluation,
                });
            }
        }
    }
    runs
}

/// Cell time not covered by any layer span of the re-runs, in ms.
fn unattributed_ms(spans: &[trace::Span]) -> f64 {
    let totals = trace::total_ms(spans);
    let cells: f64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("core.cell."))
        .map(|(_, ms)| ms)
        .sum();
    // Layer spans directly inside a re-run, less the attack fits: the
    // audit span already contains them, so their re-run is extra work.
    let replay_layers: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "core.replay"))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum();
    cells - replay_layers + totals.get("attacks.fit").copied().unwrap_or(0.0)
}

/// The traced run: one untraced `run_scenario` on a pre-built cache as the
/// overhead baseline and the source of the cache figures, then traced
/// iterations within `seconds`.
pub(crate) fn run_traced(workload: Workload, size: Size, seed: u64, seconds: f64) -> RunResult {
    let spec = spec(workload, size, seed, 0);
    let mut tally = Tally::default();
    let reference = cold_reference(&spec, &mut tally);

    let cache = ArtifactCache::new();
    prebuild(&spec, &cache);
    let built = cache.stats();
    let t = Instant::now();
    let untraced = run_counted(&spec, &cache, &mut tally);
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    let after = cache.stats();
    let figures_hits = after.hits - built.hits;
    let figures_misses = after.misses - built.misses;
    if let Some(report) = &untraced {
        check_warm(
            &mut tally,
            &spec,
            report,
            &reference,
            figures_hits,
            figures_misses,
        );
    }
    drop(cache);

    rayon::reset_pool_stats();
    rayon::set_pool_stats_enabled(true);
    trace::start();
    let mut pacer = Pacer::new(seconds);
    while pacer.next_iteration() {
        let cache = ArtifactCache::new();
        timed("setup", || traced_setup(&spec, &cache, &mut tally));
        let runs = traced_matrix(&spec, &cache, &mut tally);
        tally.attempted += runs.len() as u64;
        let traced = aggregate(&spec.name, &spec.seeds, runs);
        if let Some(untraced) = &untraced {
            tally.check(traced.to_json() == untraced.to_json(), || {
                "traced cell evaluations differ from the untraced report".to_string()
            });
        }
    }
    let iterations = pacer.iterations();
    let (spans, counts) = trace::stop();
    rayon::set_pool_stats_enabled(false);
    let pool = rayon::pool_stats();

    // Tracing overhead: the traced matrix without its re-runs against the
    // untraced run_scenario call.
    let totals = trace::total_ms(&spans);
    let traced_matrix_ms = (totals.get("runner.matrix").copied().unwrap_or(0.0)
        - totals.get("core.replay").copied().unwrap_or(0.0))
        / iterations as f64;
    let metrics = layer_metrics(
        &trace::self_ms(&spans),
        &counts,
        &pool,
        iterations,
        RunnerFigures {
            unattributed_ms: unattributed_ms(&spans) / iterations as f64,
            cache_hits: figures_hits,
            cache_misses: figures_misses,
        },
        traced_matrix_ms / untraced_ms - 1.0,
    );
    trace::write_trace(workload.name(), seed, &spans);
    let digest = digest(reference.as_deref().unwrap_or(""));
    tally.finish(metrics, digest, iterations)
}
