//! Per-pair attack feature extraction.
//!
//! Every supervised attack consumes one row per node pair.  The channel
//! layout is fixed so classifiers trained on a shadow graph transfer to the
//! target without any bookkeeping:
//!
//! * channels `0..8` — the eight posterior distances of
//!   [`DistanceKind::ALL`], produced by the single-pass
//!   [`ppfr_privacy::multi_distance`] kernel (reused from the
//!   [`DistanceTable`] the unsupervised evaluator already computed);
//! * channel `8` — mean posterior entropy `(H(p_u) + H(p_v)) / 2`;
//! * channel `9` — entropy gap `|H(p_u) − H(p_v)|`;
//! * channels `10..12` (feature-aware threat models only) — cosine and
//!   cityblock distance between the two nodes' *input feature* rows.
//!
//! All channels are symmetric in the pair order, so `(u, v)` and `(v, u)`
//! extract bit-identical rows — pinned by the vendored-proptest property
//! tests.  Batched extraction is parallel over pair chunks via
//! [`ppfr_linalg::parallel::par_chunks`]; its `parallel = false` mode runs
//! the same per-pair body in a plain loop, bit-identically.

use ppfr_linalg::parallel::{par_chunks, par_rows};
use ppfr_linalg::Matrix;
use ppfr_privacy::{
    multi_distance, pairwise_distance, DistanceKind, DistanceTable, PairSample, N_DISTANCE_KINDS,
};

/// Entropy channels appended after the eight distances.
pub const N_ENTROPY_CHANNELS: usize = 2;
/// Input-feature distance channels appended for feature-aware threat models.
pub const N_FEATURE_CHANNELS: usize = 2;

/// Number of channels a threat model's feature rows carry.
pub fn n_channels(with_features: bool) -> usize {
    N_DISTANCE_KINDS + N_ENTROPY_CHANNELS + if with_features { N_FEATURE_CHANNELS } else { 0 }
}

/// Human-readable channel names, in row order.
pub fn channel_names(with_features: bool) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = DistanceKind::ALL.iter().map(|k| k.name()).collect();
    names.push("entropy_mean");
    names.push("entropy_gap");
    if with_features {
        names.push("feat_cosine");
        names.push("feat_cityblock");
    }
    names
}

/// Shannon entropy (nats) of one posterior row; zero probabilities contribute
/// zero, so degraded posteriors stay finite.
pub fn row_entropy(p: &[f64]) -> f64 {
    p.iter()
        .map(|&v| if v > 0.0 { -v * v.ln() } else { 0.0 })
        .sum()
}

/// Entropy of every posterior row; parallel over rows when requested (the
/// serial path keeps serial-vs-parallel timings honest — results are
/// bit-identical either way).
pub fn node_entropies(probs: &Matrix, parallel: bool) -> Vec<f64> {
    if parallel {
        par_rows(probs.rows(), |r| row_entropy(probs.row(r)))
    } else {
        (0..probs.rows())
            .map(|r| row_entropy(probs.row(r)))
            .collect()
    }
}

/// Reference single-pair extraction (also the property-test subject): fills
/// `out` (length [`n_channels`]) for the pair `(u, v)`.
///
/// # Panics
/// Panics when `out` does not match `n_channels(features.is_some())`.
// lint: allow(uncalled-pub) — the subject of ppfr_attacks' feature_properties tests
pub fn pair_feature_row(
    probs: &Matrix,
    features: Option<&Matrix>,
    u: usize,
    v: usize,
    out: &mut [f64],
) {
    assert_eq!(
        out.len(),
        n_channels(features.is_some()),
        "output row length must match the channel layout"
    );
    multi_distance(probs.row(u), probs.row(v), &mut out[..N_DISTANCE_KINDS]);
    let (h_u, h_v) = (row_entropy(probs.row(u)), row_entropy(probs.row(v)));
    out[N_DISTANCE_KINDS] = 0.5 * (h_u + h_v);
    out[N_DISTANCE_KINDS + 1] = (h_u - h_v).abs();
    if let Some(x) = features {
        out[N_DISTANCE_KINDS + 2] = pairwise_distance(DistanceKind::Cosine, x.row(u), x.row(v));
        out[N_DISTANCE_KINDS + 3] = pairwise_distance(DistanceKind::Cityblock, x.row(u), x.row(v));
    }
}

/// The extracted feature rows of every sampled pair, positives first —
/// row-major `n_pairs × n_channels`, mirroring [`DistanceTable`]'s layout.
#[derive(Debug, Clone)]
pub struct PairFeatureTable {
    values: Vec<f64>,
    n_channels: usize,
    n_pos: usize,
    n_neg: usize,
}

impl PairFeatureTable {
    /// Batched extraction reusing the distances the unsupervised evaluator
    /// already computed: `table` must be the [`DistanceTable`] of `sample`
    /// under the same posterior matrix `probs`.  Entropy channels read the
    /// precomputed per-node entropies; feature channels (when `features` is
    /// given) are computed per pair.  Parallel over pair chunks; with
    /// `parallel = false` the same per-pair body runs in a plain loop,
    /// bit-identically.
    pub fn from_distances(
        table: &DistanceTable,
        sample: &PairSample,
        probs: &Matrix,
        features: Option<&Matrix>,
        parallel: bool,
    ) -> Self {
        let _span = ppfr_telemetry::span!("attack_features");
        let n_pos = sample.positives.len();
        let n_neg = sample.negatives.len();
        assert_eq!(
            table.n_pairs(),
            n_pos + n_neg,
            "distance table and sample disagree on the pair count"
        );
        let n_channels = n_channels(features.is_some());
        let entropies = node_entropies(probs, parallel);
        let mut values = vec![0.0; (n_pos + n_neg) * n_channels];
        let fill = |i: usize, out: &mut [f64]| {
            let (u, v) = if i < n_pos {
                sample.positives[i]
            } else {
                sample.negatives[i - n_pos]
            };
            out[..N_DISTANCE_KINDS].copy_from_slice(table.pair(i));
            let (h_u, h_v) = (entropies[u], entropies[v]);
            out[N_DISTANCE_KINDS] = 0.5 * (h_u + h_v);
            out[N_DISTANCE_KINDS + 1] = (h_u - h_v).abs();
            if let Some(x) = features {
                out[N_DISTANCE_KINDS + 2] =
                    pairwise_distance(DistanceKind::Cosine, x.row(u), x.row(v));
                out[N_DISTANCE_KINDS + 3] =
                    pairwise_distance(DistanceKind::Cityblock, x.row(u), x.row(v));
            }
        };
        if values.is_empty() {
            // par_chunks rejects empty buffers; nothing to fill anyway.
        } else if parallel {
            par_chunks(&mut values, n_channels, fill);
        } else {
            for (i, out) in values.chunks_mut(n_channels).enumerate() {
                fill(i, out);
            }
        }
        Self {
            values,
            n_channels,
            n_pos,
            n_neg,
        }
    }

    /// Number of positive (connected) pairs.
    pub fn n_pos(&self) -> usize {
        self.n_pos
    }

    /// Number of negative (unconnected) pairs.
    pub fn n_neg(&self) -> usize {
        self.n_neg
    }

    /// Total number of pairs.
    pub fn n_pairs(&self) -> usize {
        self.n_pos + self.n_neg
    }

    /// Channels per row.
    pub fn n_channels(&self) -> usize {
        self.n_channels
    }

    /// True when pair `i` is a connected (positive) pair.
    pub fn is_positive(&self, i: usize) -> bool {
        i < self.n_pos
    }

    /// Feature row of pair `i`.
    pub fn pair(&self, i: usize) -> &[f64] {
        &self.values[i * self.n_channels..(i + 1) * self.n_channels]
    }

    /// Raw row-major buffer, for the equivalence tests.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// One channel's value for every pair in `indices`.
    pub fn column(&self, channel: usize, indices: &[usize]) -> Vec<f64> {
        indices
            .iter()
            .map(|&i| self.values[i * self.n_channels + channel])
            .collect()
    }

    /// A table over given row-major rows, the first `n_pos` of them
    /// positive: arbitrary (constant, NaN-poisoned) channels for the
    /// classifier's pins.
    #[cfg(test)]
    pub(crate) fn from_rows(values: Vec<f64>, n_channels: usize, n_pos: usize) -> Self {
        assert_eq!(values.len() % n_channels, 0, "whole rows only");
        let n_pairs = values.len() / n_channels;
        assert!(n_pos <= n_pairs, "more positives than rows");
        Self {
            values,
            n_channels,
            n_pos,
            n_neg: n_pairs - n_pos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_graph::Graph;
    use ppfr_linalg::parallel::with_forced_threads;
    use ppfr_linalg::row_softmax;
    use ppfr_privacy::AttackEvaluator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Matrix, Matrix, AttackEvaluator) {
        let edges: Vec<(usize, usize)> = (0..12).map(|i| (i, (i + 1) % 12)).collect();
        let g = Graph::from_edges(12, &edges);
        let mut rng = StdRng::seed_from_u64(3);
        let probs = row_softmax(&Matrix::gaussian(12, 3, 0.0, 1.0, &mut rng));
        let features = Matrix::gaussian(12, 5, 0.0, 1.0, &mut rng).map(|v| f64::from(v > 0.0));
        let mut rng = StdRng::seed_from_u64(8);
        let ev = AttackEvaluator::from_graph(&g, &mut rng);
        (probs, features, ev)
    }

    #[test]
    fn batched_extraction_matches_the_reference_row() {
        let (probs, features, mut ev) = setup();
        ev.distances(&probs);
        let sample = ev.sample().clone();
        let table =
            PairFeatureTable::from_distances(ev.table(), &sample, &probs, Some(&features), true);
        assert_eq!(table.n_channels(), n_channels(true));
        let mut reference = vec![0.0; n_channels(true)];
        for (i, &(u, v)) in sample
            .positives
            .iter()
            .chain(sample.negatives.iter())
            .enumerate()
        {
            pair_feature_row(&probs, Some(&features), u, v, &mut reference);
            assert_eq!(table.pair(i), &reference[..], "pair {i} ({u},{v}) differs");
        }
    }

    #[test]
    fn parallel_and_serial_extraction_are_bit_identical() {
        let (probs, features, mut ev) = setup();
        ev.distances(&probs);
        let sample = ev.sample().clone();
        let serial =
            PairFeatureTable::from_distances(ev.table(), &sample, &probs, Some(&features), false);
        for threads in [1, 2, 4] {
            let parallel = with_forced_threads(threads, || {
                PairFeatureTable::from_distances(ev.table(), &sample, &probs, Some(&features), true)
            });
            assert_eq!(
                parallel.as_slice(),
                serial.as_slice(),
                "extraction differs at {threads} threads"
            );
        }
    }

    #[test]
    fn node_entropies_parallel_matches_serial_across_thread_counts() {
        let (probs, _, _) = setup();
        let serial = node_entropies(&probs, false);
        for threads in [1, 2, 4] {
            let parallel = with_forced_threads(threads, || node_entropies(&probs, true));
            assert_eq!(
                parallel, serial,
                "node_entropies differs at {threads} threads"
            );
        }
    }

    #[test]
    fn channel_names_match_the_layout() {
        assert_eq!(channel_names(false).len(), n_channels(false));
        assert_eq!(channel_names(true).len(), n_channels(true));
        assert_eq!(channel_names(true)[0], "cosine");
        assert_eq!(channel_names(true)[N_DISTANCE_KINDS], "entropy_mean");
        assert_eq!(channel_names(true)[N_DISTANCE_KINDS + 2], "feat_cosine");
    }

    #[test]
    fn entropy_is_maximal_for_uniform_rows() {
        let uniform = [0.25; 4];
        let peaked = [1.0, 0.0, 0.0, 0.0];
        assert!((row_entropy(&uniform) - 4.0_f64.ln()).abs() < 1e-12);
        assert_eq!(row_entropy(&peaked), 0.0);
    }
}
