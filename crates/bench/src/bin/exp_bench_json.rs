//! Times the core kernels (dense GEMM in its three forms, CSR SpMM, the
//! products with the input features, Jaccard similarity, the Hessian-vector
//! product, the multi-metric attack, the QCLP solve and one pool dispatch)
//! once at one forced thread and again at forced 2 and 8 threads, times
//! training, the attack stages, the runner matrix and the scaling scenario
//! at the ambient thread count, records the `bench-small` span tree at one
//! forced thread, and writes the whole of `BENCH_kernels.json` so
//! successive PRs accumulate a machine-readable performance trajectory.
//! Each kernel has one implementation; every row of the `kernels` table
//! runs it under `with_forced_threads`, so the table does not depend on the
//! ambient thread count.
//!
//! Usage: `cargo run --release -p ppfr_bench --bin exp_bench_json [--smoke]`
//! (`--smoke` shrinks the problem sizes for CI).

use ppfr_core::experiments::scaled_spec;
use ppfr_core::ExperimentScale;
use ppfr_datasets::{cora, generate, two_block_synthetic, DatasetSpec};
use ppfr_gnn::{AnyModel, GnnModel, GraphContext, ModelKind};
use ppfr_graph::jaccard_similarity;
use ppfr_influence::{hessian_vector_product_with, HvpScratch};
use ppfr_linalg::parallel::{current_num_threads, with_forced_threads};
use ppfr_linalg::{row_softmax, Matrix};
use ppfr_privacy::AttackEvaluator;
use ppfr_qclp::{solve, QclpProblem, SolverOptions};
use ppfr_telemetry::Stopwatch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// The forced thread counts every kernel is timed at after its one-thread
/// run.
const KERNEL_THREADS: [usize; 2] = [2, 8];

/// One kernel's wall-clock comparison: one forced thread against `threads`
/// forced threads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelBench {
    /// Kernel name.
    pub kernel: String,
    /// Problem-size label.
    pub size: String,
    /// Forced thread count of the `parallel_ms` run.
    pub threads: usize,
    /// Best-of-reps time at one forced thread (milliseconds).
    pub serial_ms: f64,
    /// Best-of-reps time at `threads` forced threads (milliseconds).
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

/// Peak resident set size of this process in MiB: `VmHWM` of
/// `/proc/self/status`, or `None` where that file is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

/// Renders one merged span node (and its children) as a JSON object.
fn span_value(node: &ppfr_telemetry::SpanTree) -> Value {
    Value::Obj(vec![
        ("name".to_string(), node.name.to_value()),
        ("count".to_string(), node.count.to_value()),
        (
            "total_ms".to_string(),
            (node.total_ns as f64 / 1e6).to_value(),
        ),
        (
            "children".to_string(),
            Value::Arr(node.children.iter().map(span_value).collect()),
        ),
    ])
}

fn pool_value(stats: &rayon::PoolStats) -> Value {
    Value::Obj(vec![
        ("dispatches".to_string(), stats.dispatches.to_value()),
        (
            "serial_fallbacks".to_string(),
            stats.serial_fallbacks.to_value(),
        ),
        ("joins".to_string(), stats.joins.to_value()),
        ("joins_inline".to_string(), stats.joins_inline.to_value()),
        ("steals".to_string(), stats.steals.to_value()),
        ("local_pops".to_string(), stats.local_pops.to_value()),
        ("parks".to_string(), stats.parks.to_value()),
    ])
}

/// Times `f` once at one forced thread, then at each of [`KERNEL_THREADS`],
/// and appends one row per forced count to `rows`.
fn time_kernel<R>(
    rows: &mut Vec<KernelBench>,
    kernel: &str,
    size: String,
    reps: usize,
    mut f: impl FnMut() -> R,
) {
    let serial_ms = with_forced_threads(1, || best_ms(reps, &mut f));
    for threads in KERNEL_THREADS {
        let parallel_ms = with_forced_threads(threads, || best_ms(reps, &mut f));
        let b = KernelBench {
            kernel: kernel.to_string(),
            size: size.clone(),
            threads,
            serial_ms,
            parallel_ms,
            speedup: serial_ms / parallel_ms,
        };
        println!(
            "{:<24} {:<18} serial {:>9.3} ms   {} threads {:>9.3} ms   speedup {:>5.2}x",
            b.kernel, b.size, b.serial_ms, b.threads, b.parallel_ms, b.speedup
        );
        rows.push(b);
    }
}

fn main() {
    let scale = ppfr_bench::scale_from_args();
    let (mm, mk, mn, reps) = match scale {
        ExperimentScale::Full => (512, 256, 128, 5),
        ExperimentScale::Smoke => (128, 64, 32, 3),
    };
    let threads = current_num_threads();
    println!(
        "kernel benchmarks: best of {reps} at 1 vs {KERNEL_THREADS:?} forced thread(s); \
         {threads} ambient worker thread(s) for the other sections\n"
    );

    let mut kernels = Vec::new();
    let mut rng = StdRng::seed_from_u64(7);

    // Dense GEMM: `a·b`, and the transpose-free `aᵀ·at_rhs` and `a·bt_rhsᵀ`.
    let a = Matrix::gaussian(mm, mk, 0.0, 1.0, &mut rng);
    let b = Matrix::gaussian(mk, mn, 0.0, 1.0, &mut rng);
    let at_rhs = Matrix::gaussian(mm, mn, 0.0, 1.0, &mut rng);
    let bt_rhs = Matrix::gaussian(mn, mk, 0.0, 1.0, &mut rng);
    let gemm = format!("{mm}x{mk}*{mk}x{mn}");
    time_kernel(&mut kernels, "matmul", gemm, reps, || a.matmul(&b));
    let gemm_at_b = format!("({mm}x{mk})T*{mm}x{mn}");
    time_kernel(&mut kernels, "matmul_at_b", gemm_at_b, reps, || {
        a.matmul_at_b(&at_rhs)
    });
    let gemm_a_bt = format!("{mm}x{mk}*({mn}x{mk})T");
    time_kernel(&mut kernels, "matmul_a_bt", gemm_a_bt, reps, || {
        a.matmul_a_bt(&bt_rhs)
    });

    // Graph kernels on an SBM large enough to show parallel structure.
    let spec = DatasetSpec {
        n_nodes: scale.scale_nodes(1200),
        ..two_block_synthetic()
    };
    let ds = generate(&spec, 7);
    let a_hat = ds.graph.normalized_adjacency();
    let size = format!(
        "{}x{} nnz={} * d={}",
        ds.n_nodes(),
        ds.n_nodes(),
        a_hat.nnz(),
        ds.features.cols()
    );
    time_kernel(&mut kernels, "spmm", size, reps, || {
        a_hat.matmul_dense(&ds.features)
    });

    // The products with the input features that every model runs, through
    // the context's CSR of `X`, on the Cora smoke analogue at any scale.
    let cora_ds = generate(&scaled_spec(cora(), ExperimentScale::Smoke), 7);
    let cora_ctx = GraphContext::new(cora_ds.graph.clone(), cora_ds.features.clone());
    let x_nnz = cora_ds
        .features
        .as_slice()
        .iter()
        .filter(|&&v| v != 0.0)
        .count();
    let (n, d, h) = (cora_ds.n_nodes(), cora_ctx.feat_dim(), 16);
    let w = Matrix::gaussian(d, h, 0.0, 1.0, &mut rng);
    let g = Matrix::gaussian(n, h, 0.0, 1.0, &mut rng);
    let size = format!("n={n} d={d} nnz={x_nnz} h={h}");
    let mut out = Matrix::default();
    time_kernel(&mut kernels, "features_xw_csr", size.clone(), 50, || {
        cora_ctx.features_matmul_into(&w, &mut out)
    });
    time_kernel(&mut kernels, "features_xtg_csr", size, 50, || {
        cora_ctx.features_t_matmul_into(&g, &mut out)
    });
    let size = format!("n={} m={}", ds.n_nodes(), ds.graph.n_edges());
    time_kernel(&mut kernels, "jaccard", size, reps, || {
        jaccard_similarity(&ds.graph)
    });

    // Hessian-vector product through a warm HvpScratch (parallel = the two
    // FD gradients via par_join plus the parallel forward/backward kernels
    // underneath).
    let ctx = GraphContext::new(ds.graph.clone(), ds.features.clone());
    let model = AnyModel::new(ModelKind::Gcn, ctx.feat_dim(), 16, ds.n_classes, 1);
    let v = vec![0.01; model.n_params()];
    let mut scratch = HvpScratch::new(&model);
    let size = format!("params={}", model.n_params());
    time_kernel(&mut kernels, "hvp", size, reps, || {
        hessian_vector_product_with(
            &mut scratch,
            &ctx,
            &ds.labels,
            &ds.splits.train,
            &v,
            1e-4,
            0.01,
        )
    });

    // The QCLP re-weighting solve over 200 variables at the default
    // options.  The solver is serial, so its rows read about 1x.
    let n_vars = 200;
    let problem = QclpProblem {
        bias_influence: (0..n_vars)
            .map(|i| ((i * 31 % 17) as f64 - 8.0) / 10.0)
            .collect(),
        util_influence: (0..n_vars)
            .map(|i| ((i * 13 % 23) as f64 - 11.0) / 10.0)
            .collect(),
        alpha: 0.9,
        beta: 0.1,
    };
    let size = format!("vars={n_vars}");
    time_kernel(&mut kernels, "qclp_solve", size, reps, || {
        solve(&problem, &SolverOptions::default())
    });

    // One pool dispatch over trivial items: the fixed cost a parallel
    // kernel pays per call.  At one thread it is a plain loop.
    let items = 1024;
    let cells: Vec<AtomicU64> = (0..items).map(|_| AtomicU64::new(0)).collect();
    let size = format!("items={items}");
    time_kernel(&mut kernels, "pool_dispatch", size, 200, || {
        rayon::dispatch(items, current_num_threads(), |i| {
            cells[i].store(i as u64 + 1, Ordering::Relaxed)
        })
    });

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
    let mut ev = AttackEvaluator::from_graph(&ds.graph, &mut rng);
    let (n_pos, n_neg) = ev.sample().counts();
    let size = format!("pairs={}", n_pos + n_neg);
    time_kernel(&mut kernels, "attack_multi_metric", size, reps, || {
        ev.distances(&probs);
    });

    let sample = ev.sample().clone();

    // Supervised attack stages: batched pair-feature extraction (serial vs
    // parallel) and attack-classifier training (logistic and MLP).
    let mut attacks = Vec::new();
    {
        use ppfr_attacks::{AttackTrainConfig, ClassifierKind, PairFeatureTable, TrainedAttack};
        ev.distances(&probs);
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
            PairFeatureTable::from_distances(ev.table(), &sample, &probs, Some(features), parallel)
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
    // afterwards.  The process's peak resident set is read right after the
    // run, which at full scale is the 10⁶-node scenario's peak.
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
        let peak_rss_mb = peak_rss_mb();
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
            "{:<24} n={} m={}     bias {:.4}   auc {:.3}   acc {:.3}   total {:>9.1} ms   peak rss {} MiB",
            "scaling",
            report.n_nodes,
            report.n_edges,
            report.bias,
            report.attack_auc,
            report.sampled_train_accuracy,
            total_ms,
            peak_rss_mb.map_or("n/a".to_string(), |mb| format!("{mb:.1}"))
        );
        Value::Obj(vec![
            ("spec".to_string(), spec.to_value()),
            ("report".to_string(), report.to_value()),
            ("total_ms".to_string(), total_ms.to_value()),
            ("peak_rss_mb".to_string(), peak_rss_mb.to_value()),
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

    // The `bench-small` span tree, with the pool and artifact-cache counts
    // of the same run, at smoke scale and one forced thread whether or not
    // `--smoke` is given, so its counts compare across recordings.
    // Telemetry and the pool statistics are switched on for this section
    // only, and the telemetry gate is restored afterwards.
    let telemetry = {
        use ppfr_runner::{run_scenario, ArtifactCache, ScenarioRegistry};
        let spec = ScenarioRegistry::get("bench-small", ExperimentScale::Smoke)
            .expect("bench-small is a registered scenario");
        let traced_threads = 1;
        let cache = ArtifactCache::new();
        let was_enabled = ppfr_telemetry::enabled();
        ppfr_telemetry::set_enabled(true);
        ppfr_telemetry::reset();
        rayon::reset_pool_stats();
        rayon::set_pool_stats_enabled(true);
        with_forced_threads(traced_threads, || {
            ppfr_bench::report_or_exit(run_scenario(&spec, &cache))
        });
        rayon::set_pool_stats_enabled(false);
        let pool = rayon::pool_stats();
        let tree = ppfr_telemetry::span_tree();
        ppfr_telemetry::set_enabled(was_enabled);
        let stats = cache.stats();
        println!(
            "{:<24} {} ({} runs) at {traced_threads} thread   {}",
            "telemetry",
            spec.name,
            spec.n_runs(),
            stats.summary_line()
        );
        Value::Obj(vec![
            ("scenario".to_string(), spec.name.to_value()),
            ("threads".to_string(), traced_threads.to_value()),
            (
                "spans".to_string(),
                Value::Arr(tree.iter().map(span_value).collect()),
            ),
            ("pool".to_string(), pool_value(&pool)),
            (
                "cache".to_string(),
                Value::Obj(vec![
                    ("entries".to_string(), stats.entries.to_value()),
                    ("hits".to_string(), stats.hits.to_value()),
                    ("misses".to_string(), stats.misses.to_value()),
                ]),
            ),
        ])
    };

    let sections = [
        ("threads", threads.to_value()),
        ("reps", reps.to_value()),
        ("kernels", kernels.to_value()),
        ("training", training.to_value()),
        ("attacks", attacks.to_value()),
        ("runner", runner.to_value()),
        ("analysis", analysis),
        ("scaling", scaling),
        ("resilience", resilience),
        ("telemetry", telemetry),
    ];
    let report = Value::Obj(
        sections
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    );
    let json = serde_json::to_string_pretty(&report).expect("bench report serialises");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");
}
