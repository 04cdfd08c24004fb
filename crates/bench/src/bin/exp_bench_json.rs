//! Times the core kernels (dense matmul, CSR SpMM, Jaccard similarity,
//! Hessian-vector product) at one forced thread against the ambient thread
//! count and writes `BENCH_kernels.json` so successive PRs accumulate a
//! machine-readable performance trajectory.  Each kernel has one
//! implementation; its "serial" column is that implementation run under
//! `with_forced_threads(1, ..)`.
//!
//! Usage: `cargo run --release -p ppfr_bench --bin exp_bench_json [--smoke]`
//! (`--smoke` shrinks the problem sizes for CI).

use ppfr_core::ExperimentScale;
use ppfr_datasets::{generate, two_block_synthetic, DatasetSpec};
use ppfr_gnn::{AnyModel, GnnModel, GraphContext, ModelKind};
use ppfr_graph::jaccard_similarity;
use ppfr_influence::{hessian_vector_product_with, HvpScratch};
use ppfr_linalg::parallel::{current_num_threads, with_forced_threads};
use ppfr_linalg::{row_softmax, Matrix};
use ppfr_privacy::AttackEvaluator;
use ppfr_telemetry::Stopwatch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};

/// One kernel's wall-clock comparison, at one forced thread vs the ambient
/// thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelBench {
    /// Kernel name.
    pub kernel: String,
    /// Problem-size label.
    pub size: String,
    /// Best-of-reps time at one forced thread (milliseconds).
    pub serial_ms: f64,
    /// Best-of-reps time at the ambient thread count (milliseconds).
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
}

/// One stage of the supervised attack subsystem (`ppfr_attacks`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackStageBench {
    /// Stage name (e.g. `feature_extract_parallel`, `classifier_train_logistic`).
    pub stage: String,
    /// Problem-size label.
    pub size: String,
    /// Best-of-reps wall time (milliseconds).
    pub ms: f64,
}

/// End-to-end training timing per architecture through the zero-allocation
/// `TrainWorkspace` path, with a cold and a warm workspace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingBench {
    /// Architecture name (GCN / GAT / GraphSage).
    pub model: String,
    /// Problem-size label.
    pub size: String,
    /// Best-of-reps per-epoch time of the warm workspace path (milliseconds).
    pub workspace_epoch_ms: f64,
    /// Epochs per second with a cold (freshly allocated) workspace.
    pub cold_epochs_per_s: f64,
    /// Epochs per second with a warm (reused) workspace.
    pub warm_epochs_per_s: f64,
}

/// Scenario-runner timing: one full run matrix, cold vs artifact-cache-warm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunnerBench {
    /// Matrix shape label.
    pub matrix: String,
    /// Number of runs in the matrix.
    pub runs: usize,
    /// Wall time of the cold execution (fresh artifact cache), milliseconds.
    pub cold_ms: f64,
    /// Wall time of the warm re-run (same cache), milliseconds.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms` — what the artifact cache buys.
    pub speedup: f64,
    /// Artifact bundles cached after the cold run.
    pub cache_entries: usize,
}

/// One kernel timed at one forced thread vs an explicitly forced thread
/// count (the top-level `kernels` section records only the ambient count).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolKernelBench {
    /// Kernel name.
    pub kernel: String,
    /// Problem-size label.
    pub size: String,
    /// Forced `PPFR_NUM_THREADS` for the parallel run.
    pub threads: usize,
    /// Best-of-reps time at one forced thread (milliseconds).
    pub serial_ms: f64,
    /// Best-of-reps pooled time at `threads` (milliseconds).
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
}

/// Best-of-`reps` wall time of `f`, in milliseconds — through the telemetry
/// [`Stopwatch`], the single wall-clock primitive of the workspace.
fn best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let sw = Stopwatch::new();
        std::hint::black_box(f());
        best = best.min(sw.elapsed_ms());
    }
    best
}

fn compare<R>(
    kernel: &str,
    size: String,
    reps: usize,
    mut serial: impl FnMut() -> R,
    mut parallel: impl FnMut() -> R,
) -> KernelBench {
    let serial_ms = best_ms(reps, &mut serial);
    let parallel_ms = best_ms(reps, &mut parallel);
    let b = KernelBench {
        kernel: kernel.to_string(),
        size,
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms,
    };
    println!(
        "{:<24} {:<18} serial {:>9.3} ms   parallel {:>9.3} ms   speedup {:>5.2}x",
        b.kernel, b.size, b.serial_ms, b.parallel_ms, b.speedup
    );
    b
}

fn main() {
    let scale = ppfr_bench::scale_from_args();
    let (mm, mk, mn, reps) = match scale {
        ExperimentScale::Full => (512, 256, 128, 5),
        ExperimentScale::Smoke => (128, 64, 32, 3),
    };
    let threads = current_num_threads();
    println!("kernel benchmarks: {threads} worker thread(s), best of {reps}\n");

    let mut kernels = Vec::new();
    let mut rng = StdRng::seed_from_u64(7);

    // Dense matmul.
    let a = Matrix::gaussian(mm, mk, 0.0, 1.0, &mut rng);
    let b = Matrix::gaussian(mk, mn, 0.0, 1.0, &mut rng);
    kernels.push(compare(
        "matmul",
        format!("{mm}x{mk}*{mk}x{mn}"),
        reps,
        || with_forced_threads(1, || a.matmul(&b)),
        || a.matmul(&b),
    ));

    // Graph kernels on an SBM large enough to show parallel structure.
    let spec = DatasetSpec {
        n_nodes: scale.scale_nodes(1200),
        ..two_block_synthetic()
    };
    let ds = generate(&spec, 7);
    let a_hat = ds.graph.normalized_adjacency();
    let feat_cols = ds.features.cols();
    kernels.push(compare(
        "spmm",
        format!(
            "{}x{} nnz={} * d={}",
            ds.n_nodes(),
            ds.n_nodes(),
            a_hat.nnz(),
            feat_cols
        ),
        reps,
        || with_forced_threads(1, || a_hat.matmul_dense(&ds.features)),
        || a_hat.matmul_dense(&ds.features),
    ));
    kernels.push(compare(
        "jaccard",
        format!("n={} m={}", ds.n_nodes(), ds.graph.n_edges()),
        reps,
        || with_forced_threads(1, || jaccard_similarity(&ds.graph)),
        || jaccard_similarity(&ds.graph),
    ));

    // Hessian-vector product through a warm HvpScratch (parallel = the two
    // FD gradients via par_join plus the parallel forward/backward kernels
    // underneath).
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 16, ds.n_classes, 1);
    let v = vec![0.01; model.n_params()];
    let hvp = |scratch: &mut HvpScratch| {
        hessian_vector_product_with(scratch, &ctx, &ds.labels, &ds.splits.train, &v, 1e-4, 0.01)
    };
    let (mut serial_scratch, mut parallel_scratch) =
        (HvpScratch::new(&model), HvpScratch::new(&model));
    kernels.push(compare(
        "hvp",
        format!("params={}", model.n_params()),
        reps,
        || with_forced_threads(1, || hvp(&mut serial_scratch)),
        || hvp(&mut parallel_scratch),
    ));

    // End-to-end GNN training through the TrainWorkspace path, per
    // architecture, with a cold and a warm workspace.
    let training = {
        use ppfr_gnn::{train_with_workspace, TrainConfig, TrainWorkspace};
        let epochs = match scale {
            ExperimentScale::Full => 20,
            ExperimentScale::Smoke => 8,
        };
        let cfg = TrainConfig {
            epochs,
            lr: 0.01,
            weight_decay: 5e-4,
            seed: 1,
        };
        let weights = vec![1.0; ds.splits.train.len()];
        let size = format!("n={} d={} h=16 e={}", ds.n_nodes(), ctx.feat_dim(), epochs);
        let mut rows = Vec::new();
        for kind in ModelKind::ALL {
            let fresh = || AnyModel::new(kind, ctx.feat_dim(), 16, ds.n_classes, 1);
            // Cold: a fresh workspace per run (first-call warm-up included).
            let cold_ms = best_ms(reps, || {
                let mut model = fresh();
                let mut ws = TrainWorkspace::new();
                train_with_workspace(
                    &mut model,
                    &ctx,
                    &ds.labels,
                    &ds.splits.train,
                    &weights,
                    None,
                    &cfg,
                    &mut ws,
                )
            });
            // Warm: one workspace reused across runs (the multi-seed pattern).
            let mut ws = TrainWorkspace::new();
            let warm_ms = best_ms(reps + 1, || {
                let mut model = fresh();
                train_with_workspace(
                    &mut model,
                    &ctx,
                    &ds.labels,
                    &ds.splits.train,
                    &weights,
                    None,
                    &cfg,
                    &mut ws,
                )
            });
            let row = TrainingBench {
                model: kind.name().to_string(),
                size: size.clone(),
                workspace_epoch_ms: warm_ms / epochs as f64,
                cold_epochs_per_s: epochs as f64 / (cold_ms / 1e3),
                warm_epochs_per_s: epochs as f64 / (warm_ms / 1e3),
            };
            println!(
                "{:<24} {:<18} workspace {:>7.3} ms/ep   (cold {:.0} / warm {:.0} ep/s)",
                format!("training_{}", row.model),
                row.size,
                row.workspace_epoch_ms,
                row.cold_epochs_per_s,
                row.warm_epochs_per_s
            );
            rows.push(row);
        }
        rows
    };

    // Link-stealing attack evaluation: the single-pass multi-metric kernel at
    // one forced thread vs the ambient count.
    let mut rng = StdRng::seed_from_u64(17);
    let probs = row_softmax(&Matrix::gaussian(
        ds.n_nodes(),
        ds.n_classes,
        0.0,
        1.0,
        &mut rng,
    ));
    let mut rng = StdRng::seed_from_u64(5);
    let mut ev_serial = AttackEvaluator::from_graph(&ds.graph, &mut rng);
    let mut ev_parallel = ev_serial.clone();
    let (n_pos, n_neg) = ev_serial.sample().counts();
    kernels.push(compare(
        "attack_multi_metric",
        format!("pairs={}", n_pos + n_neg),
        reps,
        || {
            with_forced_threads(1, || {
                ev_serial.distances(&probs);
            })
        },
        || {
            ev_parallel.distances(&probs);
        },
    ));

    let sample = ev_parallel.sample().clone();

    // Supervised attack stages: batched pair-feature extraction (serial vs
    // parallel) and attack-classifier training (logistic and MLP).
    let mut attacks = Vec::new();
    {
        use ppfr_attacks::{AttackTrainConfig, ClassifierKind, PairFeatureTable, TrainedAttack};
        ev_parallel.distances(&probs);
        let features = &ds.features;
        let size = format!(
            "pairs={} ch=12",
            sample.positives.len() + sample.negatives.len()
        );
        let mut record = |stage: &str, size: &str, ms: f64| {
            println!("{stage:<32} {size:<18} {ms:>9.3} ms");
            attacks.push(AttackStageBench {
                stage: stage.to_string(),
                size: size.to_string(),
                ms,
            });
        };
        let extract = |parallel: bool| {
            PairFeatureTable::from_distances(
                ev_parallel.table(),
                &sample,
                &probs,
                Some(features),
                parallel,
            )
        };
        record(
            "attack_feature_extract_serial",
            &size,
            best_ms(reps, || extract(false)),
        );
        record(
            "attack_feature_extract_parallel",
            &size,
            best_ms(reps, || extract(true)),
        );
        let table = extract(true);
        let all: Vec<usize> = (0..table.n_pairs()).collect();
        record(
            "attack_classifier_train_logistic",
            &size,
            best_ms(reps, || {
                TrainedAttack::fit(&table, &all, &AttackTrainConfig::default())
            }),
        );
        let mlp = AttackTrainConfig {
            kind: ClassifierKind::Mlp { hidden: 8 },
            ..AttackTrainConfig::default()
        };
        record(
            "attack_classifier_train_mlp8",
            &size,
            best_ms(reps, || TrainedAttack::fit(&table, &all, &mlp)),
        );
    }

    // Scenario runner: one full (2 datasets × 5 methods × N seeds) matrix,
    // cold vs artifact-cache-warm, through the parallel executor.
    let runner = {
        use ppfr_runner::{run_scenario, ArtifactCache, ScenarioSpec};
        let spec = match scale {
            ExperimentScale::Full => ScenarioSpec::bench_small(),
            ExperimentScale::Smoke => ScenarioSpec::bench_small().with_seeds(&[7, 11]),
        };
        let cache = ArtifactCache::new();
        let (cold_report, cold_ms) =
            ppfr_telemetry::time_ms(|| ppfr_bench::report_or_exit(run_scenario(&spec, &cache)));
        let (warm_report, warm_ms) =
            ppfr_telemetry::time_ms(|| ppfr_bench::report_or_exit(run_scenario(&spec, &cache)));
        assert_eq!(
            cold_report.to_json(),
            warm_report.to_json(),
            "cache-warm runner matrix diverged from cold"
        );
        let b = RunnerBench {
            matrix: format!(
                "{} datasets x {} models x {} methods x {} seeds",
                spec.datasets.len(),
                spec.models.len(),
                spec.methods.len(),
                spec.seeds.len()
            ),
            runs: spec.n_runs(),
            cold_ms,
            warm_ms,
            speedup: cold_ms / warm_ms,
            cache_entries: cache.len(),
        };
        println!(
            "{:<24} {:<18} cold  {:>9.1} ms   warm     {:>9.1} ms   speedup {:>5.2}x",
            "runner_matrix", b.matrix, b.cold_ms, b.warm_ms, b.speedup
        );
        b
    };

    // Persistent pool: kernels at explicitly forced thread counts.
    let pool_value = {
        let mut kernel_rows = Vec::new();
        for threads in [1usize, 2, 8] {
            let serial_ms = best_ms(reps, || with_forced_threads(1, || a.matmul(&b)));
            let parallel_ms = best_ms(reps, || with_forced_threads(threads, || a.matmul(&b)));
            kernel_rows.push(PoolKernelBench {
                kernel: "matmul".to_string(),
                size: format!("{mm}x{mk}*{mk}x{mn}"),
                threads,
                serial_ms,
                parallel_ms,
                speedup: serial_ms / parallel_ms,
            });
            let serial_ms = best_ms(reps, || {
                with_forced_threads(1, || a_hat.matmul_dense(&ds.features))
            });
            let parallel_ms = best_ms(reps, || {
                with_forced_threads(threads, || a_hat.matmul_dense(&ds.features))
            });
            kernel_rows.push(PoolKernelBench {
                kernel: "spmm".to_string(),
                size: format!("{}x{} nnz={}", ds.n_nodes(), ds.n_nodes(), a_hat.nnz()),
                threads,
                serial_ms,
                parallel_ms,
                speedup: serial_ms / parallel_ms,
            });
        }
        for row in &kernel_rows {
            println!(
                "{:<24} {:<18} serial {:>9.3} ms   pool@{}   {:>9.3} ms   speedup {:>5.2}x",
                format!("pool_{}", row.kernel),
                row.size,
                row.serial_ms,
                row.threads,
                row.parallel_ms,
                row.speedup
            );
        }

        Value::Obj(vec![("kernels".to_string(), kernel_rows.to_value())])
    };

    // Static-analysis layer: lint runtime over the workspace plus the model
    // checker's exhaustive state-space sizes, so regressions in either (a
    // rule suddenly firing, a scenario losing exhaustiveness) show up in the
    // same artifact as the kernel numbers.
    let analysis = {
        let (scan, lint_ms) = ppfr_telemetry::time_ms(|| {
            ppfr_analysis::scan_workspace(std::path::Path::new("."))
                .expect("ppfr_lint scan (run from the repo root)")
        });
        println!(
            "\nppfr_lint                {:>4} file(s)         {:>4} violation(s)     {:>9.1} ms",
            scan.files_scanned,
            scan.violations.len(),
            lint_ms
        );
        // The panic-propagation scenario injects hundreds of caught panics;
        // silence the default hook's backtraces while the checker runs.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let scenarios = ppfr_analysis::loom_scenarios::all();
        std::panic::set_hook(prev_hook);
        let loom: Vec<Value> = scenarios
            .into_iter()
            .map(|(name, report)| {
                println!(
                    "loom {:<24} {:>7} interleaving(s)   complete={}",
                    name, report.interleavings, report.complete
                );
                Value::Obj(vec![
                    ("scenario".to_string(), name.to_value()),
                    ("interleavings".to_string(), report.interleavings.to_value()),
                    ("complete".to_string(), report.complete.to_value()),
                ])
            })
            .collect();
        Value::Obj(vec![
            (
                "lint".to_string(),
                Value::Obj(vec![
                    ("files_scanned".to_string(), scan.files_scanned.to_value()),
                    ("violations".to_string(), scan.violations.len().to_value()),
                    ("runtime_ms".to_string(), lint_ms.to_value()),
                ]),
            ),
            ("loom".to_string(), Value::Arr(loom)),
        ])
    };

    // Large-graph scaling scenario: sparse generation, streamed bias, capped
    // attack and neighbour-sampled training, with per-stage wall-clock
    // recovered from the telemetry spans (the scenario itself never reads a
    // clock).  Recording is switched on for this section only and restored
    // afterwards.
    let scaling = {
        use ppfr_runner::{run_scale_scenario, ScaleSpec};
        let spec = match scale {
            ExperimentScale::Full => ScaleSpec::million(),
            ExperimentScale::Smoke => ScaleSpec::smoke(),
        };
        let was_enabled = ppfr_telemetry::enabled();
        ppfr_telemetry::set_enabled(true);
        ppfr_telemetry::reset();
        let (report, total_ms) =
            ppfr_telemetry::time_ms(|| ppfr_bench::report_or_exit(run_scale_scenario(&spec)));
        let tree = ppfr_telemetry::span_tree();
        ppfr_telemetry::set_enabled(was_enabled);

        let mut stages = Vec::new();
        if let Some(root) = ppfr_telemetry::find_span(&tree, "scale_scenario") {
            for child in &root.children {
                let ms = child.total_ns as f64 / 1e6;
                println!("{:<32} {:>9.1} ms", child.name, ms);
                stages.push(Value::Obj(vec![
                    ("stage".to_string(), child.name.to_value()),
                    ("ms".to_string(), ms.to_value()),
                ]));
            }
        }
        println!(
            "{:<24} n={} m={}     bias {:.4}   auc {:.3}   acc {:.3}   total {:>9.1} ms",
            "scaling",
            report.n_nodes,
            report.n_edges,
            report.bias,
            report.attack_auc,
            report.sampled_train_accuracy,
            total_ms
        );
        Value::Obj(vec![
            ("spec".to_string(), spec.to_value()),
            ("report".to_string(), report.to_value()),
            ("total_ms".to_string(), total_ms.to_value()),
            ("stages".to_string(), Value::Arr(stages)),
        ])
    };

    // Resilience layer: the disabled-gate fast path must cost ~nothing on the
    // hot paths, and a faulted run must surface its retry/degradation work in
    // the always-on counters.
    let resilience = {
        use ppfr_core::Method;
        use ppfr_resilience::{
            checkpoint, counters, fault_at, reset_counters, with_fault_plan, FaultKind, FaultPlan,
            FaultSpec,
        };
        use ppfr_runner::{run_scenario, ArtifactCache, ScenarioSpec};

        // Disabled gate: no plan installed, no ambient budget — `fault_at` is
        // one relaxed atomic load and `checkpoint` one thread-local probe.
        // Record the per-call cost so a regression on these (everywhere-run)
        // checks shows up in the trajectory.
        let gate_iters: u64 = match scale {
            ExperimentScale::Smoke => 200_000,
            ExperimentScale::Full => 2_000_000,
        };
        let gate_ms = best_ms(5, || {
            let mut alive = 0u64;
            for i in 0..gate_iters {
                if fault_at("bench_gate", "off").is_none() {
                    alive += 1;
                }
                if checkpoint(0) {
                    alive += 1;
                }
                std::hint::black_box(i);
            }
            alive
        });
        let gate_ns_per_call = gate_ms * 1e6 / (2 * gate_iters) as f64;

        // Counter exercise: a one-seed PPFR-only matrix under a 1-unit budget
        // and one transient injected cell error.  The run must complete with
        // no failed cells while the retry/degradation/budget tallies light up.
        reset_counters();
        let spec = ScenarioSpec::bench_small()
            .with_seeds(&[7])
            .with_methods(&[Method::Ppfr])
            .with_cell_budget(1);
        let plan = FaultPlan::empty(0xbe9c).with(FaultSpec::times("cell", "", FaultKind::Error, 1));
        let report = with_fault_plan(plan, || {
            ppfr_bench::report_or_exit(run_scenario(&spec, &ArtifactCache::new()))
        });
        let c = counters();
        assert!(
            report.failed_cells.is_empty(),
            "the injected transient fault must be retried away"
        );
        println!(
            "{:<24} gate {:>6.2} ns/call   retries {}   degradations {}   budget_stops {}   faults {}",
            "resilience", gate_ns_per_call, c.retries, c.degradations, c.budget_stops, c.faults_injected
        );
        Value::Obj(vec![
            ("gate_ns_per_call".to_string(), gate_ns_per_call.to_value()),
            (
                "degraded_cells".to_string(),
                (report.degraded.len() as f64).to_value(),
            ),
            ("retries".to_string(), (c.retries as f64).to_value()),
            (
                "degradations".to_string(),
                (c.degradations as f64).to_value(),
            ),
            ("cell_panics".to_string(), (c.cell_panics as f64).to_value()),
            (
                "faults_injected".to_string(),
                (c.faults_injected as f64).to_value(),
            ),
            (
                "budget_stops".to_string(),
                (c.budget_stops as f64).to_value(),
            ),
        ])
    };

    // Merge into any existing BENCH_kernels.json: only this binary's
    // sections are replaced, sections owned by other binaries survive.
    let existing = std::fs::read_to_string("BENCH_kernels.json").ok();
    let json = ppfr_bench::merge_bench_sections(
        existing.as_deref(),
        vec![
            ("threads", threads.to_value()),
            ("reps", reps.to_value()),
            ("kernels", kernels.to_value()),
            ("training", training.to_value()),
            ("attacks", attacks.to_value()),
            ("runner", runner.to_value()),
            ("pool", pool_value),
            ("analysis", analysis),
            ("scaling", scaling),
            ("resilience", resilience),
        ],
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json (merged)");
}
