//! `scale-stream`: the large-graph measurement loop at 200 000 nodes.
//!
//! Set-up generates the measurement graph, its block posteriors and the
//! 20 000-node training graph; the timed run is the three stages of
//! `run_scale_scenario` — streamed bias, capped-pair attack AUC and
//! neighbour-sampled training — called through their public functions.
//! No runner, influence or attack classifier runs here.

use crate::trace::{self, timed};
use crate::{derive_seed, digest, end_to_end_metrics, median, Pacer, RunResult, Size, Tally};
use ppfr_datasets::{sparse_sbm, sparse_sbm_dataset, Dataset};
use ppfr_fairness::streamed_bias;
use ppfr_gnn::{train_sampled, AnyModel, ModelKind, SampledContext, TrainConfig, TrainWorkspace};
use ppfr_graph::Graph;
use ppfr_linalg::Matrix;
use ppfr_privacy::{average_attack_auc, PairSample};
use ppfr_runner::{run_scale_scenario, ScaleReport, ScaleSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The workload's scale spec: `ScaleSpec::smoke()` with a 200 000-node
/// measurement graph and a 20 000-node training graph.
fn spec(size: Size, seed: u64) -> ScaleSpec {
    let seed = derive_seed(seed, 0x5ca1e);
    match size {
        Size::Full => ScaleSpec {
            n_nodes: 200_000,
            train_nodes: 20_000,
            seed,
            ..ScaleSpec::smoke()
        },
        Size::Reduced => ScaleSpec {
            n_nodes: 3_000,
            train_nodes: 600,
            epochs: 2,
            bias_block_rows: 64,
            max_attack_pos: 300,
            seed,
            ..ScaleSpec::smoke()
        },
    }
}

/// The set-up products one iteration consumes.
struct Inputs {
    graph: Graph,
    probs: Matrix,
    train: Dataset,
}

/// Row `v` concentrates on its block with a deterministic per-node
/// confidence — the posteriors `run_scale_scenario` builds, rebuilt here
/// because the scenario keeps that function private.  The output check
/// against `run_scale_scenario` pins the two together.
fn block_posteriors(blocks: &[usize], n_classes: usize) -> Matrix {
    let mut probs = Matrix::zeros(blocks.len(), n_classes);
    for (v, &b) in blocks.iter().enumerate() {
        let h = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        let p = 0.70 + 0.25 * (h as f64 / (1u64 << 24) as f64);
        let rest = (1.0 - p) / (n_classes - 1).max(1) as f64;
        for c in 0..n_classes {
            probs[(v, c)] = if c == b { p } else { rest };
        }
    }
    probs
}

/// Set-up: both graphs and the posteriors.
fn setup(spec: &ScaleSpec) -> Inputs {
    let _span = trace::span("datasets.generate");
    let (graph, blocks) = sparse_sbm(
        spec.n_nodes,
        spec.n_blocks,
        spec.intra_degree,
        spec.inter_degree,
        spec.seed,
    );
    let train = sparse_sbm_dataset(
        spec.train_nodes,
        spec.n_blocks,
        spec.intra_degree,
        spec.inter_degree,
        spec.feat_dim,
        spec.seed ^ 0x517c_c1b7_2722_0a95,
    );
    drop(_span);
    let probs = block_posteriors(&blocks, spec.n_blocks);
    Inputs {
        graph,
        probs,
        train,
    }
}

/// Runs one stage, counting a panic as a failed call.  The panic message
/// still reaches stderr through the default hook; nothing is retried.
fn stage<T>(tally: &mut Tally, name: &str, f: impl FnOnce() -> T) -> Option<T> {
    tally.attempted += 1;
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => Some(value),
        Err(_) => {
            tally.failed += 1;
            eprintln!("perfbench: scale-stream stage {name} panicked");
            None
        }
    }
}

/// The timed run: the three stages on the set-up's inputs.  Returns `None`
/// when any stage failed.
fn run_stages(spec: &ScaleSpec, inputs: &Inputs, tally: &mut Tally) -> Option<ScaleReport> {
    let bias = stage(tally, "streamed_bias", || {
        timed("fairness.streamed_bias", || {
            streamed_bias(&inputs.graph, &inputs.probs, spec.bias_block_rows)
        })
    });
    let attack = stage(tally, "attack", || {
        let sample = timed("privacy.pair_sample", || {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xb492_b66f);
            PairSample::capped(&inputs.graph, spec.max_attack_pos, &mut rng)
        });
        let auc = timed("privacy.attack_auc", || {
            average_attack_auc(&inputs.probs, &sample)
        });
        (auc, sample.counts())
    });
    let accuracy = stage(tally, "train_sampled", || {
        timed("gnn.train_sampled", || {
            let ds = &inputs.train;
            let mut sctx = SampledContext::new(ds.graph.clone(), ds.features.clone(), spec.fanout);
            let mut model =
                AnyModel::new(ModelKind::Gcn, spec.feat_dim, 16, spec.n_blocks, spec.seed);
            let weights = vec![1.0; ds.splits.train.len()];
            let cfg = TrainConfig {
                epochs: spec.epochs,
                lr: 0.05,
                weight_decay: 5e-4,
                seed: spec.seed.wrapping_add(13),
            };
            let mut ws = TrainWorkspace::new();
            let report = train_sampled(
                &mut model,
                &mut sctx,
                &ds.labels,
                &ds.splits.train,
                &weights,
                None,
                &cfg,
                &mut ws,
            );
            trace::count("gnn.epochs", report.loss_history.len() as u64);
            report.train_accuracy
        })
    });
    let (bias, (attack_auc, attack_pairs), sampled_train_accuracy) = (bias?, attack?, accuracy?);
    Some(ScaleReport {
        n_nodes: inputs.graph.n_nodes(),
        n_edges: inputs.graph.n_edges(),
        bias,
        attack_auc,
        attack_pairs,
        train_nodes: spec.train_nodes,
        sampled_train_accuracy,
    })
}

/// The reference report: `run_scale_scenario` itself, which also serves as
/// the process's warm-up iteration (lazy pool start, first-touch memory).
fn reference(spec: &ScaleSpec, tally: &mut Tally) -> Option<ScaleReport> {
    tally.attempted += 1;
    match catch_unwind(AssertUnwindSafe(|| run_scale_scenario(spec))) {
        Ok(Ok(report)) => Some(report),
        Ok(Err(err)) => {
            tally.failed += 1;
            tally.problem(format!("run_scale_scenario returned an error: {err}"));
            None
        }
        Err(_) => {
            tally.failed += 1;
            tally.problem("run_scale_scenario panicked");
            None
        }
    }
}

fn check_report(tally: &mut Tally, got: &ScaleReport, want: &Option<ScaleReport>, what: &str) {
    if let Some(want) = want {
        tally.check(got == want, || {
            format!("{what} differs from run_scale_scenario: {got:?} vs {want:?}")
        });
    }
}

/// The end-to-end measurement: set-up and run, repeated within `seconds`;
/// medians over the iterations.
pub(crate) fn run_untraced(size: Size, seed: u64, seconds: f64) -> RunResult {
    let spec = spec(size, seed);
    let mut tally = Tally::default();
    let want = reference(&spec, &mut tally);
    let mut setup_s = Vec::new();
    let mut nodes_per_s = Vec::new();
    let mut pacer = Pacer::new(seconds);
    while pacer.next_iteration() {
        let t = Instant::now();
        let inputs = setup(&spec);
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let report = run_stages(&spec, &inputs, &mut tally);
        let run_s = t.elapsed().as_secs_f64();
        eprintln!(
            "perfbench: iteration {} setup_s {:.4} run_s {run_s:.4}",
            setup_s.len(),
            setup_s[setup_s.len() - 1]
        );
        if let Some(report) = report {
            nodes_per_s.push(report.n_nodes as f64 / run_s);
            check_report(&mut tally, &report, &want, "iteration");
        }
    }
    let iterations = setup_s.len();
    tally.check(!nodes_per_s.is_empty(), || {
        "no iteration completed all its stages".to_string()
    });
    let metrics = end_to_end_metrics(&setup_s, &nodes_per_s, &tally);
    let digest = digest(&format!("{want:?}"));
    tally.finish(metrics, digest, iterations)
}

/// The traced run: per-layer self times over the same iterations, pool
/// counters, and the overhead of tracing against an untraced iteration.
pub(crate) fn run_traced(size: Size, seed: u64, seconds: f64) -> RunResult {
    let spec = spec(size, seed);
    let mut tally = Tally::default();
    let want = reference(&spec, &mut tally);

    // One untraced iteration as the overhead baseline.
    let inputs = setup(&spec);
    let t = Instant::now();
    let untraced = run_stages(&spec, &inputs, &mut tally);
    let untraced_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(inputs);
    if let Some(report) = &untraced {
        check_report(&mut tally, report, &want, "untraced iteration");
    }

    rayon::reset_pool_stats();
    rayon::set_pool_stats_enabled(true);
    trace::start();
    let mut run_ms = Vec::new();
    let mut pacer = Pacer::new(seconds);
    while pacer.next_iteration() {
        let inputs = trace::timed("setup", || setup(&spec));
        let t = Instant::now();
        let report = trace::timed("run", || run_stages(&spec, &inputs, &mut tally));
        run_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(report) = &report {
            check_report(&mut tally, report, &want, "traced iteration");
        }
    }
    let (spans, counts) = trace::stop();
    rayon::set_pool_stats_enabled(false);
    let pool = rayon::pool_stats();
    let iterations = run_ms.len();
    let own = trace::self_ms(&spans);
    let metrics = crate::layer_metrics(
        &own,
        &counts,
        &pool,
        iterations,
        crate::RunnerFigures::default(),
        median(&run_ms) / untraced_ms - 1.0,
    );
    trace::write_trace("scale-stream", seed, &spans);
    let digest = digest(&format!("{want:?}"));
    tally.finish(metrics, digest, iterations)
}
