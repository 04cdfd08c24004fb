//! Neighbour-sampled mini-batch operators for large-graph training.
//!
//! One neighbour draw, [`draw_neighbours`], serves both samplers: every
//! epoch GraphSAGE rebuilds its sampled mean from it ([`GnnModel::resample`]),
//! and a [`SampledContext`] builds [`sample_subgraph`] from it and swaps
//! that graph and its operators (`Â` and the neighbour mean `M`) into its
//! context, so **all three** models — GCN, GAT and GraphSAGE — train through
//! the existing [`GnnModel::forward_ws`]/[`GnnModel::backward_ws`] workspace
//! path on `O(n · fanout)` operators instead of `O(|E|)`.  GAT walks the
//! sampled graph's rows directly.
//!
//! The sampled edge subset is symmetrised (an edge survives when either
//! endpoint draws it), which keeps `Â` symmetric — GCN's hand-derived
//! backward pass relies on that.  With `fanout ≥ max degree` the sampled
//! graph *is* the full graph, so [`train_sampled`] degenerates to a
//! bit-identical replay of [`train`](crate::train) — the pinning tests lean
//! on this.
//!
//! An epoch's rebuild is linear in the sampled edges: the shuffle reuses one
//! buffer across nodes, [`Graph::from_edges`] builds the sampled graph by a
//! counting sort, and its `Â` and mean-aggregation operators are written
//! straight into CSR from the graph's sorted neighbour rows.

use crate::train::TrainingRun;
use crate::{FairnessReg, GnnModel, GraphContext, TrainConfig, TrainReport, TrainWorkspace};
use ppfr_graph::Graph;
use ppfr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Draws up to `k` neighbours of every node of `graph`, deterministic in
/// `seed`, and returns the drawn rows as CSR parts `(row_ptr, col_idx)`.
///
/// Each node with neighbours copies its row into one buffer reused across
/// nodes, shuffles it with one `StdRng::seed_from_u64(seed)` stream, and
/// keeps the first `min(degree, k)` entries, sorted ascending.  The shuffle
/// sees the same slice as a fresh copy of the row would, so it draws the
/// same stream; nodes without neighbours draw nothing.
pub(crate) fn draw_neighbours(graph: &Graph, k: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = graph.n_nodes();
    let mut row_ptr = Vec::with_capacity(n + 1);
    // Node `v` keeps `min(degree(v), k)` entries, and the degrees sum to
    // `2·|E|`, so this bound holds every draw.
    let mut col_idx = Vec::with_capacity((2 * graph.n_edges()).min(n.saturating_mul(k)));
    let mut pool = Vec::new();
    row_ptr.push(0);
    for v in 0..n {
        let neighbors = graph.neighbors(v);
        if !neighbors.is_empty() {
            pool.clear();
            pool.extend_from_slice(neighbors);
            pool.shuffle(&mut rng);
            let drawn = &mut pool[..neighbors.len().min(k)];
            drawn.sort_unstable();
            col_idx.extend_from_slice(drawn);
        }
        row_ptr.push(col_idx.len());
    }
    (row_ptr, col_idx)
}

/// Draws up to `fanout` neighbours per node ([`draw_neighbours`], the
/// stream GraphSAGE's sampler draws too) and returns the symmetrised union
/// as a graph over the same node set.
pub fn sample_subgraph(base: &Graph, fanout: usize, seed: u64) -> Graph {
    assert!(fanout > 0, "fanout must be positive");
    let (row_ptr, col_idx) = draw_neighbours(base, fanout, seed);
    let mut edges = Vec::with_capacity(col_idx.len());
    for v in 0..base.n_nodes() {
        edges.extend(col_idx[row_ptr[v]..row_ptr[v + 1]].iter().map(|&u| (v, u)));
    }
    // `from_edges` dedups and symmetrises: (v,u) and (u,v) collapse into one
    // undirected edge, so an edge survives when either endpoint drew it.
    Graph::from_edges(base.n_nodes(), &edges)
}

/// A full graph plus a per-epoch neighbour-sampled [`GraphContext`] that any
/// [`GnnModel`] can train on through [`train_sampled`].
///
/// The features and their CSR are built once, by [`SampledContext::new`],
/// and never touched by resampling; only the graph and its operators are
/// swapped in place.  No operator exists before the first epoch's draw, and
/// the full graph's are built once, for the final report.
#[derive(Debug, Clone)]
pub struct SampledContext {
    base: Graph,
    fanout: usize,
    ctx: GraphContext,
}

impl SampledContext {
    /// Holds `graph` and `features` for [`train_sampled`] with `fanout`
    /// neighbours per node.
    pub fn new(graph: Graph, features: Matrix, fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        Self {
            base: graph,
            fanout,
            ctx: GraphContext::without_graph(features),
        }
    }

    /// Installs the graph and operators of a fresh `seed`-keyed neighbour
    /// sample.  Deterministic: the same seed always installs the same
    /// operators.
    fn resample(&mut self, seed: u64) {
        let sampled = sample_subgraph(&self.base, self.fanout, seed);
        self.ctx.install_graph(sampled);
    }

    /// Installs the full graph and its operators, for the final report.
    fn restore_full(&mut self) {
        self.ctx.install_graph(self.base.clone());
    }
}

/// [`train`](crate::train) over per-epoch neighbour-sampled operators: every
/// epoch re-draws the sampled context (deterministic in `(cfg.seed, epoch)`)
/// and trains one step through the caller's workspace, and the final report
/// is evaluated on the **full** graph.
///
/// With `fanout ≥ max degree` this is bit-identical to [`train`](crate::train)
/// for every model (the sampled graph equals the base graph each epoch).
#[allow(clippy::too_many_arguments)]
pub fn train_sampled(
    model: &mut dyn GnnModel,
    sctx: &mut SampledContext,
    labels: &[usize],
    train_ids: &[usize],
    weights: &[f64],
    fairness: Option<&FairnessReg>,
    cfg: &TrainConfig,
    ws: &mut TrainWorkspace,
) -> TrainReport {
    let _span = ppfr_telemetry::span!("train_sampled");
    let mut run = TrainingRun::new(model, labels, train_ids, weights, fairness, cfg);
    for epoch in 0..cfg.epochs {
        // Cooperative deadline, mirroring `train`: stop early under an
        // exhausted ambient budget and report on what was learned so far.
        if !ppfr_resilience::checkpoint(1) {
            break;
        }
        let _epoch_span = ppfr_telemetry::span!("train_sampled_epoch");
        let seed = cfg.seed.wrapping_add(epoch as u64);
        sctx.resample(seed);
        run.step(model, &sctx.ctx, seed, ws);
    }
    sctx.restore_full();
    run.report(model, &sctx.ctx, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train, AnyModel, ModelKind};
    use ppfr_datasets::{generate, two_block_synthetic};

    fn setup() -> (Graph, Matrix, Vec<usize>, Vec<usize>) {
        let ds = generate(&two_block_synthetic(), 7);
        (
            ds.graph.clone(),
            ds.features.clone(),
            ds.labels.clone(),
            ds.splits.train.clone(),
        )
    }

    fn max_degree(g: &Graph) -> usize {
        (0..g.n_nodes()).map(|v| g.degree(v)).max().unwrap_or(0)
    }

    #[test]
    fn sampled_subgraph_is_a_symmetric_edge_subset() {
        let (g, _, _, _) = setup();
        let sampled = sample_subgraph(&g, 2, 42);
        assert_eq!(sampled.n_nodes(), g.n_nodes());
        assert!(sampled.n_edges() <= g.n_edges());
        assert!(sampled.n_edges() <= 2 * g.n_nodes());
        for (u, v) in sampled.edges() {
            assert!(g.has_edge(u, v), "sampled edge ({u},{v}) not in base");
            assert!(sampled.has_edge(v, u), "sampled graph must stay symmetric");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (g, _, _, _) = setup();
        let a = sample_subgraph(&g, 3, 9);
        let b = sample_subgraph(&g, 3, 9);
        let c = sample_subgraph(&g, 3, 10);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        assert_ne!(
            a.edges().collect::<Vec<_>>(),
            c.edges().collect::<Vec<_>>(),
            "different seeds should draw different subsets"
        );
    }

    #[test]
    fn full_fanout_training_is_bit_identical_to_full_batch_for_every_model() {
        let (g, x, labels, train_ids) = setup();
        let fanout = max_degree(&g);
        let weights = vec![1.0; train_ids.len()];
        let cfg = TrainConfig {
            epochs: 25,
            lr: 0.02,
            weight_decay: 5e-4,
            seed: 3,
        };
        for kind in ModelKind::ALL {
            let full_ctx = GraphContext::new(g.clone(), x.clone());
            let mut full_model = AnyModel::new(kind, x.cols(), 8, 2, 1);
            let mut sampled_model = full_model.clone();
            let mut ws_sampled = TrainWorkspace::new();
            let full = train(
                &mut full_model,
                &full_ctx,
                &labels,
                &train_ids,
                &weights,
                None,
                &cfg,
            );
            let mut sctx = SampledContext::new(g.clone(), x.clone(), fanout);
            let sampled = train_sampled(
                &mut sampled_model,
                &mut sctx,
                &labels,
                &train_ids,
                &weights,
                None,
                &cfg,
                &mut ws_sampled,
            );
            assert_eq!(
                full_model.params(),
                sampled_model.params(),
                "{}: params diverge at full fanout",
                kind.name()
            );
            assert_eq!(
                full.loss_history,
                sampled.loss_history,
                "{}: loss history diverges at full fanout",
                kind.name()
            );
            assert_eq!(
                full.train_accuracy,
                sampled.train_accuracy,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn sampled_training_is_deterministic_and_learns() {
        let (g, x, labels, train_ids) = setup();
        let weights = vec![1.0; train_ids.len()];
        let cfg = TrainConfig {
            epochs: 80,
            lr: 0.02,
            weight_decay: 5e-4,
            seed: 5,
        };
        let run = || {
            let mut model = AnyModel::new(ModelKind::Gcn, x.cols(), 8, 2, 1);
            let mut sctx = SampledContext::new(g.clone(), x.clone(), 2);
            let mut ws = TrainWorkspace::new();
            let report = train_sampled(
                &mut model, &mut sctx, &labels, &train_ids, &weights, None, &cfg, &mut ws,
            );
            (model.params(), report)
        };
        let (params_a, report_a) = run();
        let (params_b, report_b) = run();
        assert_eq!(params_a, params_b, "sampled training must be deterministic");
        assert_eq!(report_a.loss_history, report_b.loss_history);
        assert!(
            report_a.train_accuracy > 0.8,
            "sampled training should still fit the train set, got {}",
            report_a.train_accuracy
        );
    }

    #[test]
    fn sampled_training_is_thread_count_invariant() {
        let (g, x, labels, train_ids) = setup();
        let weights = vec![1.0; train_ids.len()];
        let cfg = TrainConfig {
            epochs: 20,
            lr: 0.02,
            weight_decay: 5e-4,
            seed: 11,
        };
        let run = || {
            let mut model = AnyModel::new(ModelKind::Gat, x.cols(), 8, 2, 1);
            let mut sctx = SampledContext::new(g.clone(), x.clone(), 3);
            let mut ws = TrainWorkspace::new();
            train_sampled(
                &mut model, &mut sctx, &labels, &train_ids, &weights, None, &cfg, &mut ws,
            );
            model.params()
        };
        let p1 = ppfr_linalg::parallel::with_forced_threads(1, run);
        let p4 = ppfr_linalg::parallel::with_forced_threads(4, run);
        assert_eq!(p1, p4, "sampled training differs across thread counts");
    }

    #[test]
    fn restore_full_round_trips_the_operators() {
        fn assert_same_operators(got: &GraphContext, want: &GraphContext, after: &str) {
            assert_eq!(
                got.graph.edges().collect::<Vec<_>>(),
                want.graph.edges().collect::<Vec<_>>(),
                "graph after {after}"
            );
            assert_eq!(got.a_hat, want.a_hat, "a_hat after {after}");
            assert_eq!(got.mean_agg, want.mean_agg, "mean_agg after {after}");
        }
        let (g, x, _, _) = setup();
        let full_ctx = GraphContext::new(g.clone(), x.clone());
        let sampled_ctx = GraphContext::new(sample_subgraph(&g, 2, 77), x.clone());
        let mut sctx = SampledContext::new(g, x, 2);
        sctx.resample(77);
        assert!(sctx.ctx.graph.n_edges() < full_ctx.graph.n_edges());
        assert_same_operators(&sctx.ctx, &sampled_ctx, "resample(77)");
        sctx.restore_full();
        assert_same_operators(&sctx.ctx, &full_ctx, "restore_full");
    }
}
