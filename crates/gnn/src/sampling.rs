//! Neighbour-sampled mini-batch operators for large-graph training.
//!
//! GraphSAGE already re-draws a per-epoch sampled aggregation operator
//! ([`GnnModel::resample`]).  This module generalises that idea to the whole
//! [`GraphContext`]: a [`SampledContext`] keeps the full graph plus one
//! *sampled* context whose graph and propagation operators (`Â`, mean
//! aggregation, attention edges) are rebuilt from a per-`(seed, epoch)`
//! neighbour-sampled edge subset, so **all three** models — GCN, GAT and
//! GraphSAGE — train through the existing
//! [`GnnModel::forward_ws`]/[`GnnModel::backward_ws`] workspace path on
//! `O(n · fanout)` operators instead of `O(|E|)`.
//!
//! The sampled edge subset is symmetrised (an edge survives when either
//! endpoint draws it), which keeps `Â` symmetric — GCN's hand-derived
//! backward pass relies on that.  With `fanout ≥ max degree` the sampled
//! graph *is* the full graph, so [`train_sampled`] degenerates to a
//! bit-identical replay of [`train_with_workspace`](crate::train_with_workspace)
//! — the pinning tests lean on this.
//!
//! An epoch's rebuild is linear in the sampled edges: the shuffle reuses one
//! buffer across nodes, [`Graph::from_edges`] builds the sampled graph by a
//! counting sort, and its `Â` and mean-aggregation operators are written
//! straight into CSR from the graph's sorted neighbour rows.

use crate::{FairnessReg, GnnModel, GraphContext, TrainConfig, TrainReport, TrainWorkspace};
use ppfr_graph::Graph;
use ppfr_linalg::Matrix;
use ppfr_nn::{accuracy, weighted_cross_entropy_into, Adam, Optimizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Draws up to `fanout` neighbours per node (the GraphSAGE shuffle idiom,
/// deterministic in `seed`) and returns the symmetrised union as a graph over
/// the same node set.
///
/// Each node's neighbours are shuffled in one buffer reused across nodes;
/// the shuffle sees the same slice as a fresh copy would, so it draws the
/// same RNG stream.
pub fn sample_subgraph(base: &Graph, fanout: usize, seed: u64) -> Graph {
    assert!(fanout > 0, "fanout must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    // Node `v` pushes `min(degree(v), fanout)` edges, and the degrees sum to
    // `2·|E|`, so this bound holds every push.
    let mut edges =
        Vec::with_capacity((2 * base.n_edges()).min(base.n_nodes().saturating_mul(fanout)));
    let mut pool = Vec::new();
    for v in 0..base.n_nodes() {
        let neighbors = base.neighbors(v);
        if neighbors.is_empty() {
            continue;
        }
        pool.clear();
        pool.extend_from_slice(neighbors);
        pool.shuffle(&mut rng);
        edges.extend(pool.iter().take(fanout).map(|&u| (v, u)));
    }
    // `from_edges` dedups and symmetrises: (v,u) and (u,v) collapse into one
    // undirected edge, so an edge survives when either endpoint drew it.
    Graph::from_edges(base.n_nodes(), &edges)
}

/// A full graph plus a per-epoch neighbour-sampled [`GraphContext`] that any
/// [`GnnModel`] can train on.
///
/// Features are built once and never touched by resampling; only the graph
/// and its operators are swapped in place.
#[derive(Debug, Clone)]
pub struct SampledContext {
    base: Graph,
    fanout: usize,
    ctx: GraphContext,
}

impl SampledContext {
    /// Builds the context over the full graph; call
    /// [`SampledContext::resample`] to switch to a sampled epoch operator.
    pub fn new(graph: Graph, features: Matrix, fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        let ctx = GraphContext::new(graph.clone(), features);
        Self {
            base: graph,
            fanout,
            ctx,
        }
    }

    /// The current (full or sampled) context.
    pub fn ctx(&self) -> &GraphContext {
        &self.ctx
    }

    /// Per-node neighbour fan-out of the sampled operators.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Rebuilds the context's graph and operators from a fresh
    /// `(seed)`-keyed neighbour sample.  Deterministic: the same seed always
    /// installs the same operators.
    pub fn resample(&mut self, seed: u64) {
        let sampled = sample_subgraph(&self.base, self.fanout, seed);
        self.ctx.install_graph(sampled);
    }

    /// Restores the full-graph operators (used for the final evaluation after
    /// sampled training).
    pub fn restore_full(&mut self) {
        self.ctx.install_graph(self.base.clone());
    }
}

/// [`train_with_workspace`](crate::train_with_workspace) over per-epoch
/// neighbour-sampled operators: every epoch re-draws the sampled context
/// (deterministic in `(cfg.seed, epoch)`), trains one step through the
/// workspace path, and the final report is evaluated on the **full** graph.
///
/// With `fanout ≥ max degree` this is bit-identical to the full-batch loop
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
    assert_eq!(
        train_ids.len(),
        weights.len(),
        "one weight per training node"
    );
    let _span = ppfr_telemetry::span!("train_sampled");
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut params = model.params();
    let mut loss_history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        // Cooperative deadline, mirroring `train`: stop early under an
        // exhausted ambient budget and report on what was learned so far.
        if !ppfr_resilience::checkpoint(1) {
            break;
        }
        let _epoch_span = ppfr_telemetry::span!("train_sampled_epoch");
        let epoch_seed = cfg.seed.wrapping_add(epoch as u64);
        sctx.resample(epoch_seed);
        model.resample(&sctx.ctx, epoch_seed);
        model.forward_ws(&sctx.ctx, ws);
        let loss = weighted_cross_entropy_into(
            &ws.logits,
            labels,
            train_ids,
            weights,
            &mut ws.probs,
            &mut ws.d_logits,
        );
        if let Some(reg) = fairness {
            reg.grad_wrt_probs_into(&ws.probs, &mut ws.d_probs);
            ppfr_linalg::row_softmax_backward_into(&ws.probs, &ws.d_probs, &mut ws.d_reg);
            ws.d_logits.add_inplace(&ws.d_reg);
        }
        model.backward_ws(&sctx.ctx, ws);
        opt.step(&mut params, &ws.grads);
        model.set_params(&params);
        loss_history.push(loss);
    }
    // Final report on the full graph, mirroring the full-batch loop's
    // warm-workspace evaluation.
    sctx.restore_full();
    model.forward_ws(&sctx.ctx, ws);
    let train_accuracy = accuracy(&ws.logits, labels, train_ids);
    let final_bias = fairness.map(|reg| {
        ppfr_linalg::row_softmax_into(&ws.logits, &mut ws.probs);
        reg.bias(&ws.probs)
    });
    TrainReport {
        loss_history,
        train_accuracy,
        final_bias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_with_workspace, AnyModel, ModelKind};
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
            let mut ws_full = TrainWorkspace::new();
            let mut ws_sampled = TrainWorkspace::new();
            let full = train_with_workspace(
                &mut full_model,
                &full_ctx,
                &labels,
                &train_ids,
                &weights,
                None,
                &cfg,
                &mut ws_full,
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
            assert_eq!(got.att_edges, want.att_edges, "att_edges after {after}");
            assert_eq!(got.att_ptr, want.att_ptr, "att_ptr after {after}");
        }
        let (g, x, _, _) = setup();
        let full_ctx = GraphContext::new(g.clone(), x.clone());
        let sampled_ctx = GraphContext::new(sample_subgraph(&g, 2, 77), x.clone());
        let mut sctx = SampledContext::new(g, x, 2);
        sctx.resample(77);
        assert!(sctx.ctx().graph.n_edges() < full_ctx.graph.n_edges());
        assert_same_operators(sctx.ctx(), &sampled_ctx, "resample(77)");
        sctx.restore_full();
        assert_same_operators(sctx.ctx(), &full_ctx, "restore_full");
    }
}
