//! The scalable link-stealing attack evaluator.
//!
//! [`AttackEvaluator`] owns one [`PairSample`] plus a reusable distance
//! buffer and scores the attack for arbitrary many posterior matrices against
//! that fixed sample — the shape of the paper's evaluation, where five
//! methods × several seeds are attacked on exactly the same pairs and only
//! the posteriors change.
//!
//! Two design choices make it scale past the seed implementation:
//!
//! 1. **Single-pass multi-metric kernel** — [`multi_distance`] computes all
//!    eight [`DistanceKind`] values per node pair in one traversal of the two
//!    posterior rows, instead of re-walking every pair once per metric.  The
//!    pair loop is parallelised over pair chunks via
//!    [`ppfr_linalg::parallel::par_chunks`]; each pair writes only its own
//!    row of the table, so the result is bit-identical at any thread count
//!    (pinned by tests across forced `PPFR_NUM_THREADS` counts).
//! 2. **Rank-based AUC** — [`auc_from_distances`] is the `O(m log m)`
//!    Mann–Whitney statistic with exact midrank tie handling, replacing the
//!    seed's `O(|pos|·|neg|)` pairwise loop.

use crate::attack::{auc_from_distances, PairSample};
use crate::distance::{multi_distance, DistanceKind, N_DISTANCE_KINDS};
use ppfr_graph::Graph;
use ppfr_linalg::parallel::par_chunks;
use ppfr_linalg::{mean, Matrix};
use rand::Rng;

/// All eight pairwise distances for every sampled pair, positives first —
/// the single materialised artefact every attack statistic is derived from.
///
/// Layout: row-major `n_pairs × N_DISTANCE_KINDS`, pair `i`'s metrics at
/// `values[i*8 .. (i+1)*8]` in [`DistanceKind::ALL`] order.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    values: Vec<f64>,
    n_pos: usize,
    n_neg: usize,
}

impl DistanceTable {
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

    /// The eight distances of pair `i` in [`DistanceKind::ALL`] order.
    pub fn pair(&self, i: usize) -> &[f64] {
        &self.values[i * N_DISTANCE_KINDS..(i + 1) * N_DISTANCE_KINDS]
    }

    /// Raw row-major buffer (`n_pairs × 8`), for the equivalence tests.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Gathers one metric's column, split into `(positives, negatives)`.
    pub fn split(&self, kind: DistanceKind) -> (Vec<f64>, Vec<f64>) {
        let k = kind.index();
        let column = |range: std::ops::Range<usize>| -> Vec<f64> {
            range
                .map(|i| self.values[i * N_DISTANCE_KINDS + k])
                .collect()
        };
        (column(0..self.n_pos), column(self.n_pos..self.n_pairs()))
    }

    /// Rank-based attack AUC under one distance metric.
    pub fn auc(&self, kind: DistanceKind) -> f64 {
        let (pos, neg) = self.split(kind);
        auc_from_distances(&pos, &neg)
    }

    /// Attack AUC for each of the eight metrics (the series of Fig. 4).
    pub fn auc_per_distance(&self) -> Vec<(DistanceKind, f64)> {
        DistanceKind::ALL
            .iter()
            .map(|&kind| (kind, self.auc(kind)))
            .collect()
    }

    /// `f_risk` of Definition 2 under one metric: the absolute gap between
    /// the mean distance of unconnected and connected pairs.
    pub fn mean_gap(&self, kind: DistanceKind) -> f64 {
        if self.n_pos == 0 || self.n_neg == 0 {
            return 0.0;
        }
        let (pos, neg) = self.split(kind);
        (mean(&neg) - mean(&pos)).abs()
    }
}

/// One full attack scoring of a posterior matrix.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Attack AUC per distance metric, in [`DistanceKind::ALL`] order.
    pub auc_per_distance: Vec<(DistanceKind, f64)>,
    /// Mean attack AUC over the eight metrics.
    pub average_auc: f64,
    /// `f_risk` of Definition 2 (euclidean mean-distance gap).
    pub risk_gap: f64,
}

/// Link-stealing attack evaluator with a fixed pair sample and a distance
/// buffer reused across posterior matrices.
#[derive(Debug, Clone)]
pub struct AttackEvaluator {
    sample: PairSample,
    table: DistanceTable,
}

impl AttackEvaluator {
    /// Wraps an existing pair sample.
    pub fn new(sample: PairSample) -> Self {
        let n_pos = sample.positives.len();
        let n_neg = sample.negatives.len();
        Self {
            sample,
            table: DistanceTable {
                values: Vec::new(),
                n_pos,
                n_neg,
            },
        }
    }

    /// Samples balanced pairs from `graph` (see [`PairSample::balanced`]) and
    /// wraps them.
    pub fn from_graph<R: Rng + ?Sized>(graph: &Graph, rng: &mut R) -> Self {
        Self::new(PairSample::balanced(graph, rng))
    }

    /// The pair sample every call scores against.
    pub fn sample(&self) -> &PairSample {
        &self.sample
    }

    /// The distance table of the most recent `distances` / `evaluate` call.
    pub fn table(&self) -> &DistanceTable {
        &self.table
    }

    /// Computes all eight distances for every sampled pair in one pass over
    /// the posterior rows, parallelised over pair chunks.
    pub fn distances(&mut self, probs: &Matrix) -> &DistanceTable {
        let n_pairs = self.table.n_pairs();
        self.table.values.clear();
        self.table.values.resize(n_pairs * N_DISTANCE_KINDS, 0.0);
        let sample = &self.sample;
        let n_pos = self.table.n_pos;
        par_chunks(&mut self.table.values, N_DISTANCE_KINDS, |i, out| {
            let (u, v) = if i < n_pos {
                sample.positives[i]
            } else {
                sample.negatives[i - n_pos]
            };
            multi_distance(probs.row(u), probs.row(v), out);
        });
        &self.table
    }

    /// Scores the attack on one posterior matrix: per-metric AUC, mean AUC
    /// and the euclidean risk gap, all derived from a single distance pass.
    pub fn evaluate(&mut self, probs: &Matrix) -> AttackReport {
        let table = self.distances(probs);
        let auc_per_distance = table.auc_per_distance();
        let average_auc =
            auc_per_distance.iter().map(|(_, a)| a).sum::<f64>() / auc_per_distance.len() as f64;
        AttackReport {
            average_auc,
            risk_gap: table.mean_gap(DistanceKind::Euclidean),
            auc_per_distance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{attack_auc, auc_per_distance, average_attack_auc};
    use crate::distance::pairwise_distance;
    use ppfr_linalg::parallel::with_forced_threads;
    use ppfr_linalg::{mean, row_softmax};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `f_risk` of Definition 2 pair by pair: the oracle of
    /// [`DistanceTable::mean_gap`].
    fn prediction_distance_gap(probs: &Matrix, sample: &PairSample, kind: DistanceKind) -> f64 {
        let mean_distance = |pairs: &[(usize, usize)]| {
            let d: Vec<f64> = pairs
                .iter()
                .map(|&(u, v)| pairwise_distance(kind, probs.row(u), probs.row(v)))
                .collect();
            mean(&d)
        };
        (mean_distance(&sample.negatives) - mean_distance(&sample.positives)).abs()
    }

    /// A two-community graph with separable posteriors (mirrors attack.rs).
    fn setup(n_per_block: usize) -> (Graph, Matrix, AttackEvaluator) {
        let mut edges = Vec::new();
        for block in 0..2 {
            let base = block * n_per_block;
            for i in 0..n_per_block {
                for j in (i + 1)..n_per_block {
                    if (i + j) % 3 != 0 {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        edges.push((0, n_per_block));
        let n = 2 * n_per_block;
        let g = Graph::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(17);
        let logits = Matrix::gaussian(n, 4, 0.0, 1.0, &mut rng);
        let probs = row_softmax(&logits.map(|v| v * 0.3));
        let mut rng = StdRng::seed_from_u64(5);
        let evaluator = AttackEvaluator::from_graph(&g, &mut rng);
        (g, probs, evaluator)
    }

    #[test]
    fn table_matches_the_per_pair_reference_distances() {
        let (_, probs, mut ev) = setup(6);
        ev.distances(&probs);
        let n_pos = ev.sample().positives.len();
        for (i, &(u, v)) in ev
            .sample()
            .positives
            .iter()
            .chain(ev.sample().negatives.iter())
            .enumerate()
        {
            let row = ev.table().pair(i);
            for kind in DistanceKind::ALL {
                let reference = pairwise_distance(kind, probs.row(u), probs.row(v));
                let tol = if kind == DistanceKind::Correlation {
                    1e-9
                } else {
                    0.0
                };
                assert!(
                    (row[kind.index()] - reference).abs() <= tol,
                    "{} differs on pair {i} ({u},{v}), pos={}",
                    kind.name(),
                    i < n_pos
                );
            }
        }
    }

    #[test]
    fn parallel_and_serial_tables_are_bit_identical_across_thread_counts() {
        let (_, probs, mut ev) = setup(8);
        let serial = with_forced_threads(1, || ev.distances(&probs).as_slice().to_vec());
        for threads in [2, 4, 7] {
            let parallel =
                with_forced_threads(threads, || ev.distances(&probs).as_slice().to_vec());
            assert_eq!(parallel, serial, "results differ at {threads} threads");
        }
    }

    #[test]
    fn evaluator_agrees_with_the_legacy_per_metric_path() {
        let (_, probs, mut ev) = setup(6);
        let report = ev.evaluate(&probs);
        let sample = ev.sample().clone();
        for (kind, auc) in &report.auc_per_distance {
            let legacy = attack_auc(&probs, &sample, *kind);
            assert!(
                (auc - legacy).abs() < 1e-9,
                "{}: evaluator {auc} vs legacy {legacy}",
                kind.name()
            );
        }
        let legacy_avg = average_attack_auc(&probs, &sample);
        assert!((report.average_auc - legacy_avg).abs() < 1e-9);
        let legacy_gap = prediction_distance_gap(&probs, &sample, DistanceKind::Euclidean);
        assert!((report.risk_gap - legacy_gap).abs() < 1e-12);
        assert_eq!(
            report.auc_per_distance.len(),
            auc_per_distance(&probs, &sample).len()
        );
    }

    #[test]
    fn buffer_is_reused_across_posterior_matrices() {
        let (_, probs, mut ev) = setup(6);
        let first = ev.evaluate(&probs);
        let blurred = probs.map(|v| 0.25 + (v - 0.25) * 0.01);
        let second = ev.evaluate(&blurred);
        // Same sample, different posteriors: reports must be self-consistent.
        assert_eq!(first.auc_per_distance.len(), 8);
        assert_eq!(second.auc_per_distance.len(), 8);
        let third = ev.evaluate(&probs);
        for (a, b) in first.auc_per_distance.iter().zip(third.auc_per_distance) {
            assert_eq!(a.1, b.1, "re-evaluation must be deterministic");
        }
    }

    #[test]
    fn empty_sample_reports_chance_level() {
        let g = Graph::empty(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut ev = AttackEvaluator::from_graph(&g, &mut rng);
        let probs = Matrix::filled(4, 2, 0.5);
        let report = ev.evaluate(&probs);
        assert_eq!(report.average_auc, 0.5);
        assert_eq!(report.risk_gap, 0.0);
    }

    /// Two 3-cliques whose predictions lie `separation` apart.
    fn separated(separation: f64) -> (Matrix, AttackEvaluator) {
        let edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        let g = Graph::from_edges(6, &edges);
        let mut probs = Matrix::zeros(6, 2);
        for v in 0..6 {
            let wiggle = v as f64 * 0.01;
            let p = if v < 3 {
                0.5 + separation / 2.0
            } else {
                0.5 - separation / 2.0
            };
            probs[(v, 0)] = p - wiggle;
            probs[(v, 1)] = 1.0 - p + wiggle;
        }
        let mut rng = StdRng::seed_from_u64(3);
        (probs, AttackEvaluator::from_graph(&g, &mut rng))
    }

    #[test]
    fn larger_separation_means_larger_risk() {
        let (p_small, mut ev_small) = separated(0.1);
        let (p_large, mut ev_large) = separated(0.8);
        for kind in [
            DistanceKind::Euclidean,
            DistanceKind::Cityblock,
            DistanceKind::Cosine,
        ] {
            let small = ev_small.distances(&p_small).mean_gap(kind);
            let large = ev_large.distances(&p_large).mean_gap(kind);
            assert!(
                large > small,
                "{}: gap {large} should exceed {small}",
                kind.name()
            );
        }
    }

    #[test]
    fn identical_predictions_have_zero_gap() {
        let (_, mut ev) = separated(0.5);
        let probs = Matrix::filled(6, 2, 0.5);
        assert!(ev.evaluate(&probs).risk_gap.abs() < 1e-12);
    }
}
