//! Degree-corrected stochastic block model generator with class-conditional
//! sparse binary features.

use crate::{DatasetSpec, Splits};
use ppfr_graph::Graph;
use ppfr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated dataset: graph structure, node features, labels and the
/// Planetoid-style train/val/test split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (copied from the spec).
    pub name: &'static str,
    /// Undirected graph structure.
    pub graph: Graph,
    /// Node features, one row per node.
    pub features: Matrix,
    /// Ground-truth class label per node.
    pub labels: Vec<usize>,
    /// Train / validation / test node-index split.
    pub splits: Splits,
    /// Number of classes.
    pub n_classes: usize,
}

impl Dataset {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.graph.n_nodes()
    }
}

/// Generates a dataset from a spec with a fixed RNG seed.
///
/// The generator follows three steps:
/// 1. assign balanced labels (`node i → class i mod c`, then shuffled);
/// 2. sample edges from a degree-corrected SBM with intra/inter probabilities
///    from [`DatasetSpec::block_probabilities`];
/// 3. sample sparse binary features where each class "owns" a contiguous
///    block of feature bits that fire with probability `feature_signal`
///    (background bits fire with `feature_noise`).
pub fn generate(spec: &DatasetSpec, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let n = spec.n_nodes;
    let c = spec.n_classes;

    // --- labels: balanced then shuffled -------------------------------------
    let mut labels: Vec<usize> = (0..n).map(|i| i % c).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        labels.swap(i, j);
    }

    // --- degree propensities (degree correction) ----------------------------
    // theta_i in [1-skew, 1+skew*tail], normalised to mean 1.
    let mut theta: Vec<f64> = (0..n)
        .map(|_| {
            if spec.degree_skew <= 0.0 {
                1.0
            } else {
                // Pareto-ish heavy tail truncated at 6x the mean.
                let u: f64 = rng.gen_range(0.0_f64..1.0);
                (1.0 - spec.degree_skew) + spec.degree_skew * (1.0 / (1.0 - 0.9 * u)).min(6.0)
            }
        })
        .collect();
    let mean_theta = theta.iter().sum::<f64>() / n as f64;
    for t in &mut theta {
        *t /= mean_theta;
    }

    // --- edges ---------------------------------------------------------------
    let (p, q) = spec.block_probabilities();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let base = if labels[u] == labels[v] { p } else { q };
            let prob = (base * theta[u] * theta[v]).min(1.0);
            if prob > 0.0 && rng.gen_bool(prob) {
                edges.push((u, v));
            }
        }
    }
    let graph = Graph::from_edges(n, &edges);

    // --- features ------------------------------------------------------------
    let features = class_features(
        &labels,
        c,
        spec.feat_dim,
        spec.feature_signal,
        spec.feature_noise,
        &mut rng,
    );

    // --- splits --------------------------------------------------------------
    let splits = Splits::planetoid(
        &labels,
        c,
        spec.train_per_class,
        spec.n_val,
        spec.n_test,
        &mut rng,
    );

    Dataset {
        name: spec.name,
        graph,
        features,
        labels,
        splits,
        n_classes: c,
    }
}

/// Class-conditional sparse binary features: each class "owns" a contiguous
/// block of feature bits that fire with probability `signal`, background bits
/// fire with `noise`.  Shared by [`generate`] and the shadow-dataset
/// generators in [`crate::shadow`].
pub fn class_features<R: Rng + ?Sized>(
    labels: &[usize],
    n_classes: usize,
    feat_dim: usize,
    signal: f64,
    noise: f64,
    rng: &mut R,
) -> Matrix {
    let n = labels.len();
    let block = (feat_dim / n_classes).max(1);
    let mut features = Matrix::zeros(n, feat_dim);
    for i in 0..n {
        let class = labels[i];
        let start = class * block;
        let end = ((class + 1) * block).min(feat_dim);
        for f in 0..feat_dim {
            let p_fire = if f >= start && f < end { signal } else { noise };
            if rng.gen_bool(p_fire) {
                features[(i, f)] = 1.0;
            }
        }
    }
    features
}

/// Sparse SBM graph sampled in `O(n · d̄)` expected time, for large-graph
/// scenarios where [`generate`]'s exact `O(n²)` pair sweep is unaffordable.
///
/// Blocks are assigned round-robin (`node i → block i mod n_blocks`); each
/// node draws ≈`intra_degree/2` same-block and ≈`inter_degree/2` cross-block
/// partners uniformly (each undirected edge is drawn from both endpoints, so
/// expected degrees come out at `intra_degree + inter_degree`).  Duplicate
/// draws collapse in [`Graph::from_edges`], which makes the realised density
/// fractionally lower than nominal — irrelevant for scaling scenarios.
/// Fully deterministic in `seed`.
///
/// Returns the graph and the block label of every node.
pub fn sparse_sbm(
    n_nodes: usize,
    n_blocks: usize,
    intra_degree: f64,
    inter_degree: f64,
    seed: u64,
) -> (Graph, Vec<usize>) {
    assert!(n_blocks >= 1 && n_blocks <= n_nodes, "invalid block count");
    assert!(
        intra_degree >= 0.0 && inter_degree >= 0.0,
        "degrees must be non-negative"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5b3c_1a2d_9e8f_7064);
    let labels: Vec<usize> = (0..n_nodes).map(|i| i % n_blocks).collect();
    // Block b's members are {b, b + k, b + 2k, ...}: membership is indexable
    // without materialising per-block node lists.
    let block_size = |b: usize| n_nodes / n_blocks + usize::from(b < n_nodes % n_blocks);
    // Stochastic rounding of a fractional stub count.
    let draw_count = |expected: f64, rng: &mut StdRng| -> usize {
        let floor = expected.floor();
        floor as usize + usize::from(rng.gen_bool(expected - floor))
    };
    let mut edges =
        Vec::with_capacity((n_nodes as f64 * (intra_degree + inter_degree) / 2.0).ceil() as usize);
    for (u, &b) in labels.iter().enumerate() {
        for _ in 0..draw_count(intra_degree / 2.0, &mut rng) {
            let v = b + n_blocks * rng.gen_range(0..block_size(b));
            if v != u {
                edges.push((u, v));
            }
        }
        if n_blocks > 1 {
            for _ in 0..draw_count(inter_degree / 2.0, &mut rng) {
                // A uniformly random block other than u's own.
                let other = (b + 1 + rng.gen_range(0..n_blocks - 1)) % n_blocks;
                let v = other + n_blocks * rng.gen_range(0..block_size(other));
                edges.push((u, v));
            }
        }
    }
    (Graph::from_edges(n_nodes, &edges), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{cora, two_block_synthetic};
    use ppfr_graph::{edge_density, intra_inter_probabilities};

    #[test]
    fn sparse_sbm_is_deterministic_homophilous_and_near_nominal_degree() {
        let (g, labels) = sparse_sbm(4000, 4, 8.0, 2.0, 42);
        let (g2, labels2) = sparse_sbm(4000, 4, 8.0, 2.0, 42);
        assert_eq!(labels, labels2);
        assert_eq!(g.n_edges(), g2.n_edges(), "same seed ⇒ same graph");
        let avg_degree = 2.0 * g.n_edges() as f64 / g.n_nodes() as f64;
        assert!(
            (7.0..=10.0).contains(&avg_degree),
            "average degree {avg_degree} far from nominal 10"
        );
        let (p, q) = intra_inter_probabilities(&g, &labels);
        assert!(p > 3.0 * q, "intra {p} must dominate inter {q}");
        // Degrees concentrate: no isolated half of the graph.
        let isolated = (0..g.n_nodes()).filter(|&v| g.degree(v) == 0).count();
        assert!(isolated < g.n_nodes() / 100, "{isolated} isolated nodes");
    }

    #[test]
    fn sparse_sbm_handles_single_block_and_uneven_blocks() {
        let (g, labels) = sparse_sbm(101, 1, 4.0, 3.0, 7);
        assert_eq!(g.n_nodes(), 101);
        assert!(labels.iter().all(|&l| l == 0));
        assert!(g.n_edges() > 0);
        // 3 blocks over 100 nodes: block 0 has 34 members, blocks 1-2 have 33.
        let (g3, labels3) = sparse_sbm(100, 3, 6.0, 1.0, 7);
        for (v, &l) in labels3.iter().enumerate() {
            assert_eq!(l, v % 3);
        }
        for (u, v) in g3.edges() {
            assert!(u < 100 && v < 100);
        }
    }

    #[test]
    fn labels_are_roughly_balanced() {
        let ds = generate(&cora(), 1);
        let mut counts = vec![0usize; ds.n_classes];
        for &l in &ds.labels {
            counts[l] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "balanced assignment expected, got {counts:?}"
        );
    }

    #[test]
    fn generated_graph_is_sparse_and_homophilous_in_p_q() {
        let ds = generate(&cora(), 2);
        assert!(
            edge_density(&ds.graph) < 0.02,
            "citation graphs must be sparse"
        );
        let (p, q) = intra_inter_probabilities(&ds.graph, &ds.labels);
        assert!(p > q, "empirical p={p} must exceed q={q}");
    }

    #[test]
    fn features_are_binary_and_class_informative() {
        let ds = generate(&two_block_synthetic(), 5);
        assert!(ds.features.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        // Class-0 nodes should fire more bits in the class-0 block than class-1 nodes do.
        let spec = two_block_synthetic();
        let block = spec.feat_dim / spec.n_classes;
        let mut in_block = [0.0_f64; 2];
        let mut counts = [0.0_f64; 2];
        for i in 0..ds.n_nodes() {
            let c = ds.labels[i];
            counts[c] += 1.0;
            in_block[c] += ds.features.row(i)[..block].iter().sum::<f64>();
        }
        let rate0 = in_block[0] / counts[0];
        let rate1 = in_block[1] / counts[1];
        assert!(
            rate0 > 2.0 * rate1,
            "class-0 block should fire mostly for class-0 nodes: {rate0} vs {rate1}"
        );
    }

    #[test]
    fn splits_are_disjoint_and_train_covers_each_class() {
        let ds = generate(&cora(), 4);
        ds.splits.assert_valid(ds.n_nodes());
        let mut class_seen = vec![false; ds.n_classes];
        for &v in &ds.splits.train {
            class_seen[ds.labels[v]] = true;
        }
        assert!(
            class_seen.iter().all(|&b| b),
            "every class needs labelled training nodes"
        );
    }
}
