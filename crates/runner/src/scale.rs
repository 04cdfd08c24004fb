//! Large-graph scaling scenario: the full PPFR measurement loop at node
//! counts where every dense `n × n` object is unaffordable.
//!
//! The paper's experiments stop at citation-graph scale (§VII-A); this
//! module drives the streamed/stochastic code paths at up to 10⁶ nodes:
//!
//! 1. graph generation through the `O(n · d̄)` sparse SBM sampler
//!    ([`ppfr_datasets::sparse_sbm`]) — never the exact `O(n²)` pair sweep;
//! 2. block-derived posteriors (an `n × c` matrix, the only per-node dense
//!    state the scenario holds);
//! 3. individual-fairness bias through [`ppfr_fairness::streamed_bias`],
//!    which accumulates `Tr(PᵀL_S P)` over CSR row blocks without ever
//!    materialising the similarity Laplacian;
//! 4. edge-inference attack AUC over a size-capped pair sample
//!    ([`ppfr_privacy::PairSample::capped`]) so the distance table stays
//!    `O(max_attack_pos)`;
//! 5. neighbour-sampled GCN training ([`ppfr_gnn::train_sampled`]) on a
//!    companion training graph with `O(n · fanout)` per-epoch operators.
//!
//! Every stage is deterministic in [`ScaleSpec::seed`] and telemetry-spanned,
//! so `ppfr_bench`'s `exp_bench_json` can report per-stage wall-clock without
//! the scenario itself ever reading a clock.

use ppfr_datasets::{sparse_sbm, sparse_sbm_dataset};
use ppfr_fairness::streamed_bias;
use ppfr_gnn::{train_sampled, AnyModel, ModelKind, SampledContext, TrainConfig, TrainWorkspace};
use ppfr_linalg::Matrix;
use ppfr_privacy::{average_attack_auc, PairSample};
use ppfr_resilience::RunError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Shape of one large-graph scaling scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleSpec {
    /// Nodes of the measurement graph (bias + attack stages).
    pub n_nodes: usize,
    /// SBM blocks (doubles as the posterior class count).
    pub n_blocks: usize,
    /// Expected same-block degree per node.
    pub intra_degree: f64,
    /// Expected cross-block degree per node.
    pub inter_degree: f64,
    /// Feature dimensionality of the training graph.
    pub feat_dim: usize,
    /// Nodes of the companion training graph (sampled-training stage).
    pub train_nodes: usize,
    /// Per-node neighbour fan-out of sampled training.
    pub fanout: usize,
    /// Sampled-training epochs.
    pub epochs: usize,
    /// CSR row-block height of the streamed bias accumulation.
    pub bias_block_rows: usize,
    /// Positive-pair cap of the attack sample.
    pub max_attack_pos: usize,
    /// Master seed; every stage derives its own stream from it.
    pub seed: u64,
}

impl ScaleSpec {
    /// The million-node scenario pinned by the `#[ignore]`d release smoke
    /// test and reported in `BENCH_kernels.json`'s `scaling` section.
    pub fn million() -> Self {
        Self {
            n_nodes: 1_000_000,
            n_blocks: 4,
            intra_degree: 6.0,
            inter_degree: 1.5,
            feat_dim: 32,
            train_nodes: 100_000,
            fanout: 5,
            epochs: 8,
            bias_block_rows: 4096,
            max_attack_pos: 20_000,
            seed: 42,
        }
    }

    /// A debug-buildable reduction (same structure, ~50× smaller) for CI and
    /// the benchmark smoke scale.
    pub fn smoke() -> Self {
        Self {
            n_nodes: 20_000,
            train_nodes: 2_000,
            epochs: 4,
            bias_block_rows: 512,
            max_attack_pos: 2_000,
            ..Self::million()
        }
    }
}

/// Metrics of one [`run_scale_scenario`] execution.  Deterministic in the
/// spec: same spec ⇒ bit-identical report, at any thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleReport {
    /// Nodes of the measurement graph.
    pub n_nodes: usize,
    /// Realised undirected edge count of the measurement graph.
    pub n_edges: usize,
    /// Streamed InFoRM bias `Tr(PᵀL_S P) / n` of the block posteriors.
    pub bias: f64,
    /// Distance-averaged edge-inference AUC over the capped pair sample.
    pub attack_auc: f64,
    /// `(positives, negatives)` of the capped attack sample.
    pub attack_pairs: (usize, usize),
    /// Nodes of the companion training graph.
    pub train_nodes: usize,
    /// Final full-graph training accuracy of the neighbour-sampled GCN.
    pub sampled_train_accuracy: f64,
}

/// Deterministic per-node posterior concentration in `[0.70, 0.95)`: a cheap
/// multiplicative-hash wiggle so rows are distinguishable (ties would blur
/// the attack's distance ranking) without any RNG state.
fn posterior_concentration(v: usize) -> f64 {
    let h = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
    0.70 + 0.25 * (h as f64 / (1u64 << 24) as f64)
}

/// Block-derived posteriors: row `v` concentrates on `blocks[v]` and spreads
/// the remainder uniformly.  The `n × c` matrix is the only per-node dense
/// state of the scenario.
fn block_posteriors(blocks: &[usize], n_classes: usize) -> Matrix {
    let n = blocks.len();
    let mut probs = Matrix::zeros(n, n_classes);
    for (v, &b) in blocks.iter().enumerate() {
        let p = posterior_concentration(v);
        let rest = (1.0 - p) / (n_classes - 1).max(1) as f64;
        for c in 0..n_classes {
            probs[(v, c)] = if c == b { p } else { rest };
        }
    }
    probs
}

/// Runs the full scaling scenario for `spec`; see the module docs for the
/// stage list.  Never materialises any `n × n` object — peak memory is
/// `O(|E| + n · n_blocks)`.
///
/// Malformed specs come back as [`RunError::InvalidSpec`] instead of
/// panicking, so callers embedding the scenario in larger sweeps can report
/// the bad configuration and move on.
pub fn run_scale_scenario(spec: &ScaleSpec) -> Result<ScaleReport, RunError> {
    let _span = ppfr_telemetry::span!("scale_scenario");
    if spec.n_nodes < 2 || spec.train_nodes < 2 {
        return Err(RunError::InvalidSpec(format!(
            "graphs too small: n_nodes={}, train_nodes={} (both need >= 2)",
            spec.n_nodes, spec.train_nodes
        )));
    }
    if spec.n_blocks < 2 {
        return Err(RunError::InvalidSpec(format!(
            "need at least two blocks for an attack, got {}",
            spec.n_blocks
        )));
    }
    // Both SBM graphs are drawn from these, so the smaller one bounds them.
    let min_nodes = spec.n_nodes.min(spec.train_nodes);
    if spec.n_blocks > min_nodes {
        return Err(RunError::InvalidSpec(format!(
            "{} blocks do not fit the smaller graph of {min_nodes} nodes",
            spec.n_blocks
        )));
    }
    for (name, degree) in [
        ("intra_degree", spec.intra_degree),
        ("inter_degree", spec.inter_degree),
    ] {
        if !(degree.is_finite() && degree >= 0.0) {
            return Err(RunError::InvalidSpec(format!(
                "{name} must be finite and non-negative, got {degree}"
            )));
        }
    }
    let degree = spec.intra_degree + spec.inter_degree;
    if degree > (min_nodes - 1) as f64 {
        return Err(RunError::InvalidSpec(format!(
            "expected degree {degree} exceeds the {} other nodes of the smaller graph",
            min_nodes - 1
        )));
    }
    for (name, value) in [
        ("feat_dim", spec.feat_dim),
        ("bias_block_rows", spec.bias_block_rows),
        ("fanout", spec.fanout),
        ("max_attack_pos", spec.max_attack_pos),
    ] {
        if value == 0 {
            return Err(RunError::InvalidSpec(format!("{name} must be at least 1")));
        }
    }

    let (graph, blocks) = {
        let _s = ppfr_telemetry::span!("scale_graph_gen");
        sparse_sbm(
            spec.n_nodes,
            spec.n_blocks,
            spec.intra_degree,
            spec.inter_degree,
            spec.seed,
        )
    };

    let probs = {
        let _s = ppfr_telemetry::span!("scale_posteriors");
        block_posteriors(&blocks, spec.n_blocks)
    };

    let bias = {
        let _s = ppfr_telemetry::span!("scale_streamed_bias");
        streamed_bias(&graph, &probs, spec.bias_block_rows)
    };

    let (attack_auc, attack_pairs) = {
        let _s = ppfr_telemetry::span!("scale_attack");
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xb492_b66f);
        let sample = PairSample::capped(&graph, spec.max_attack_pos, &mut rng);
        (average_attack_auc(&probs, &sample), sample.counts())
    };

    let sampled_train_accuracy = {
        let _s = ppfr_telemetry::span!("scale_sampled_training");
        let ds = sparse_sbm_dataset(
            spec.train_nodes,
            spec.n_blocks,
            spec.intra_degree,
            spec.inter_degree,
            spec.feat_dim,
            spec.seed ^ 0x517c_c1b7_2722_0a95,
        );
        let mut sctx = SampledContext::new(ds.graph.clone(), ds.features.clone(), spec.fanout);
        let mut model = AnyModel::new(ModelKind::Gcn, spec.feat_dim, 16, spec.n_blocks, spec.seed);
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
        report.train_accuracy
    };

    Ok(ScaleReport {
        n_nodes: graph.n_nodes(),
        n_edges: graph.n_edges(),
        bias,
        attack_auc,
        attack_pairs,
        train_nodes: spec.train_nodes,
        sampled_train_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sub-second reduction of the scenario for unit tests.
    fn tiny() -> ScaleSpec {
        ScaleSpec {
            n_nodes: 1_500,
            train_nodes: 300,
            epochs: 3,
            bias_block_rows: 64,
            max_attack_pos: 200,
            ..ScaleSpec::million()
        }
    }

    #[test]
    fn scale_scenario_produces_sane_metrics() {
        let report = run_scale_scenario(&tiny()).expect("tiny spec is valid");
        assert_eq!(report.n_nodes, 1_500);
        assert!(report.n_edges > 0);
        assert!(report.bias.is_finite() && report.bias >= 0.0);
        assert!((0.0..=1.0).contains(&report.attack_auc));
        assert!(
            report.attack_auc > 0.5,
            "block posteriors leak edges, AUC should beat chance: {}",
            report.attack_auc
        );
        let (pos, neg) = report.attack_pairs;
        assert_eq!(pos, 200, "the positive cap must bind");
        assert_eq!(neg, pos, "capped sample stays balanced");
        assert!((0.0..=1.0).contains(&report.sampled_train_accuracy));
    }

    #[test]
    fn scale_scenario_is_deterministic_and_thread_count_invariant() {
        let spec = tiny();
        let baseline = ppfr_linalg::parallel::with_forced_threads(1, || run_scale_scenario(&spec))
            .expect("tiny spec is valid");
        assert_eq!(
            baseline,
            run_scale_scenario(&spec).expect("tiny spec is valid"),
            "scale scenario must be deterministic run-to-run"
        );
        let par = ppfr_linalg::parallel::with_forced_threads(4, || run_scale_scenario(&spec))
            .expect("tiny spec is valid");
        assert_eq!(par, baseline, "scale scenario differs at 4 threads");
    }

    #[test]
    fn degenerate_scale_specs_are_errors_not_panics() {
        let too_small = ScaleSpec {
            n_nodes: 1,
            ..tiny()
        };
        let err = run_scale_scenario(&too_small).expect_err("one-node graph must be rejected");
        assert!(matches!(err, RunError::InvalidSpec(_)), "got {err:?}");
        let one_block = ScaleSpec {
            n_blocks: 1,
            ..tiny()
        };
        let err = run_scale_scenario(&one_block).expect_err("one block must be rejected");
        assert!(err.to_string().contains("two blocks"), "got {err}");
        // One case per check. All but two used to panic: the degree-sum
        // case asks for an expected degree no simple graph can reach, and
        // a zero feat_dim trained a constant model over no feature columns.
        type Edit = fn(&mut ScaleSpec);
        let cases: [(Edit, &str); 10] = [
            (
                |s| (s.n_nodes, s.n_blocks) = (10, 11),
                "do not fit the smaller graph of 10 nodes",
            ),
            (
                |s| s.n_blocks = 301,
                "do not fit the smaller graph of 300 nodes",
            ),
            (|s| s.intra_degree = -1.0, "intra_degree must be finite"),
            (|s| s.intra_degree = f64::NAN, "intra_degree must be finite"),
            (
                |s| s.inter_degree = f64::INFINITY,
                "inter_degree must be finite",
            ),
            (
                |s| (s.intra_degree, s.inter_degree) = (200.0, 100.0),
                "exceeds the 299 other nodes",
            ),
            (|s| s.feat_dim = 0, "feat_dim must be at least 1"),
            (
                |s| s.bias_block_rows = 0,
                "bias_block_rows must be at least 1",
            ),
            (|s| s.fanout = 0, "fanout must be at least 1"),
            (
                |s| s.max_attack_pos = 0,
                "max_attack_pos must be at least 1",
            ),
        ];
        for (edit, message) in cases {
            let mut spec = tiny();
            edit(&mut spec);
            let err = run_scale_scenario(&spec).expect_err(message);
            assert!(
                matches!(&err, RunError::InvalidSpec(m) if m.contains(message)),
                "expected `{message}`, got {err:?}"
            );
        }
    }

    #[test]
    fn posteriors_concentrate_on_the_block_label() {
        let blocks = vec![0, 1, 2, 0, 1];
        let probs = block_posteriors(&blocks, 3);
        for (v, &b) in blocks.iter().enumerate() {
            let row = probs.row(v);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            for (c, &p) in row.iter().enumerate() {
                if c == b {
                    assert!(p >= 0.70);
                } else {
                    assert!(p < 0.5);
                }
            }
        }
    }

    #[test]
    fn million_and_smoke_specs_share_structure() {
        let full = ScaleSpec::million();
        let smoke = ScaleSpec::smoke();
        assert_eq!(full.n_nodes, 1_000_000);
        assert!(smoke.n_nodes < full.n_nodes / 10);
        assert_eq!(full.n_blocks, smoke.n_blocks);
        assert_eq!(full.fanout, smoke.fanout);
    }
}
