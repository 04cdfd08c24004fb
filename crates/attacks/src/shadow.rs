//! The shadow side of the supervised attacks: a look-alike dataset with a
//! posterior surrogate, its own pair sample and cached feature tables.
//!
//! The shadow victim does not have to be a fully trained GNN — the attack
//! transfers as long as the shadow posteriors carry the same *structural*
//! signal a trained victim leaks (nodes of the same block have close,
//! confident rows; cross-block pairs do not).  A two-hop label-smoothing
//! surrogate (an SGC-style propagation of the shadow's one-hot labels through
//! the symmetric normalised adjacency) reproduces exactly that signal at
//! `O(nnz · c)` cost, which keeps shadow construction affordable inside the
//! 20k-node scenarios.

use crate::features::PairFeatureTable;
use ppfr_datasets::{shadow_of, Dataset};
use ppfr_graph::Graph;
use ppfr_linalg::Matrix;
use ppfr_privacy::{AttackEvaluator, PairSample};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SGC-style posterior surrogate: two propagation hops of the one-hot labels
/// through `Â = D^{-1/2}(A + I)D^{-1/2}`, mixed half-and-half with the
/// one-hop result and row-normalised into probabilities.  Deterministic, no
/// RNG, no training.
pub fn surrogate_posteriors(graph: &Graph, labels: &[usize], n_classes: usize) -> Matrix {
    assert_eq!(graph.n_nodes(), labels.len(), "one label per node");
    let n = graph.n_nodes();
    let mut one_hot = Matrix::zeros(n, n_classes.max(1));
    for (i, &l) in labels.iter().enumerate() {
        one_hot[(i, l.min(n_classes.saturating_sub(1)))] = 1.0;
    }
    let a_hat = graph.normalized_adjacency();
    let hop1 = a_hat.matmul_dense(&one_hot);
    let hop2 = a_hat.matmul_dense(&hop1);
    let mixed = hop1.add(&hop2);
    // Row-normalise with a small floor so isolated nodes get uniform rows.
    let mut probs = mixed.map(|v| v.max(0.0) + 1e-3);
    for r in 0..n {
        let row = probs.row_mut(r);
        let total: f64 = row.iter().sum();
        for v in row {
            *v /= total;
        }
    }
    probs
}

/// Everything the shadow adversary trains on, built once per target dataset
/// and reused across every audited posterior matrix.
#[derive(Debug, Clone)]
pub struct ShadowBundle {
    /// The look-alike dataset (fresh SBM draw mirroring the target moments).
    pub data: Dataset,
    /// Shadow posteriors from the surrogate victim.
    pub probs: Matrix,
    evaluator: AttackEvaluator,
    plain_table: Option<PairFeatureTable>,
    feature_table: Option<PairFeatureTable>,
}

impl ShadowBundle {
    /// Samples the shadow of `target` and prepares its balanced pair sample.
    /// Fully deterministic in `seed`.
    pub fn new(target: &Dataset, seed: u64) -> Self {
        let data = shadow_of(target, seed);
        let probs = surrogate_posteriors(&data.graph, &data.labels, data.n_classes);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e11_5ead);
        let sample = PairSample::balanced(&data.graph, &mut rng);
        Self {
            data,
            probs,
            evaluator: AttackEvaluator::new(sample),
            plain_table: None,
            feature_table: None,
        }
    }

    /// The shadow pair sample.
    pub fn sample(&self) -> &PairSample {
        self.evaluator.sample()
    }

    /// The shadow feature table for the requested channel set, extracted on
    /// first use and cached (shadow posteriors never change).
    pub fn table(&mut self, with_features: bool) -> &PairFeatureTable {
        let slot = if with_features {
            &mut self.feature_table
        } else {
            &mut self.plain_table
        };
        if slot.is_none() {
            self.evaluator.distances(&self.probs);
            let features = with_features.then_some(&self.data.features);
            *slot = Some(PairFeatureTable::from_distances(
                self.evaluator.table(),
                self.evaluator.sample(),
                &self.probs,
                features,
                true,
            ));
        }
        slot.as_ref().expect("just filled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_datasets::sparse_sbm_dataset;
    use ppfr_privacy::DistanceKind;

    #[test]
    fn surrogate_posteriors_are_probability_rows_and_block_separated() {
        let ds = sparse_sbm_dataset(400, 3, 8.0, 1.0, 24, 5);
        let probs = surrogate_posteriors(&ds.graph, &ds.labels, ds.n_classes);
        assert_eq!(probs.shape(), (400, 3));
        for r in 0..probs.rows() {
            let row = probs.row(r);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9, "row {r} sum");
            assert!(row.iter().all(|&v| v > 0.0));
        }
        // Same-block rows are closer than cross-block rows on average.
        let d = |u: usize, v: usize| {
            ppfr_privacy::pairwise_distance(DistanceKind::Euclidean, probs.row(u), probs.row(v))
        };
        let (mut same, mut cross, mut n_same, mut n_cross) = (0.0, 0.0, 0usize, 0usize);
        for u in (0..400).step_by(7) {
            for v in (1..400).step_by(11) {
                if u == v {
                    continue;
                }
                if ds.labels[u] == ds.labels[v] {
                    same += d(u, v);
                    n_same += 1;
                } else {
                    cross += d(u, v);
                    n_cross += 1;
                }
            }
        }
        assert!(same / n_same as f64 + 0.05 < cross / n_cross as f64);
    }

    #[test]
    fn surrogate_handles_isolated_nodes() {
        let g = Graph::from_edges(5, &[(0, 1)]);
        let probs = surrogate_posteriors(&g, &[0, 1, 0, 1, 0], 2);
        assert!(probs.as_slice().iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn bundle_caches_both_channel_sets() {
        let target = sparse_sbm_dataset(300, 2, 6.0, 1.5, 16, 9);
        let mut bundle = ShadowBundle::new(&target, 21);
        let plain_channels = bundle.table(false).n_channels();
        let feat_channels = bundle.table(true).n_channels();
        assert_eq!(feat_channels, plain_channels + 2);
        // Cached: a second call returns the same allocation contents.
        let first = bundle.table(false).as_slice().to_vec();
        assert_eq!(bundle.table(false).as_slice(), &first[..]);
        // The shadow is not the target.
        assert_eq!(bundle.data.n_nodes(), target.n_nodes());
        let shared = target
            .graph
            .edges()
            .filter(|&(u, v)| bundle.data.graph.has_edge(u, v))
            .count();
        assert!(shared < target.graph.n_edges());
    }
}
