//! Black-box link-stealing attack (Attack-0 of He et al., USENIX Security'21).
//!
//! The attacker queries the target GNN once per node, computes a distance
//! between the prediction vectors of a node pair and infers "connected" when
//! the distance is small.  The paper measures edge-privacy risk as the AUC of
//! this attack, averaged over eight distance metrics; the unsupervised 2-means
//! clustering variant described in §IV is also provided.

use crate::{pairwise_distance, DistanceKind};
use ppfr_graph::Graph;
use ppfr_linalg::Matrix;
use rand::Rng;
use std::collections::BTreeSet;

/// A balanced sample of node pairs used to evaluate the attack:
/// every training-graph edge as positives plus an equal number of *distinct*
/// sampled unconnected pairs as negatives.
#[derive(Debug, Clone)]
pub struct PairSample {
    /// Connected node pairs (positives).
    pub positives: Vec<(usize, usize)>,
    /// Unconnected node pairs (negatives).
    pub negatives: Vec<(usize, usize)>,
}

impl PairSample {
    /// Builds the balanced sample from the *original* (pre-perturbation)
    /// graph — the attacker targets the confidential edges of the training
    /// data, not whatever noisy structure a defence exposes.
    ///
    /// Negatives are rejection-sampled without replacement; when rejection
    /// stalls (small or dense graphs where distinct non-edges are scarce) the
    /// sampler falls back to a deterministic enumeration of the remaining
    /// non-edges, so the sample only stays unbalanced when the graph has
    /// fewer non-edges than edges.  [`PairSample::counts`] exposes the
    /// achieved sizes.
    pub fn balanced<R: Rng + ?Sized>(graph: &Graph, rng: &mut R) -> Self {
        Self::with_ratio(graph, 1.0, rng)
    }

    /// [`PairSample::balanced`] with a configurable negative:positive ratio —
    /// `neg_per_pos` negatives are targeted per positive (rounded), so threat
    /// models can evaluate the attack on imbalanced pair sets (real attackers
    /// face far more non-edges than edges).  Sampling follows the same
    /// rejection-then-enumeration scheme as the balanced sampler; the achieved
    /// ratio (via [`PairSample::counts`]) only falls short when the graph has
    /// fewer distinct non-edges than the target.
    ///
    /// # Panics
    /// Panics when `neg_per_pos` is negative or non-finite.
    pub fn with_ratio<R: Rng + ?Sized>(graph: &Graph, neg_per_pos: f64, rng: &mut R) -> Self {
        assert!(
            neg_per_pos.is_finite() && neg_per_pos >= 0.0,
            "negative:positive ratio must be finite and non-negative"
        );
        let positives: Vec<(usize, usize)> = graph.edges().collect();
        let target = (positives.len() as f64 * neg_per_pos).round() as usize;
        let negatives = sample_negatives(graph, target, rng);
        Self {
            positives,
            negatives,
        }
    }

    /// A size-capped balanced sample for large graphs: at most `max_pos`
    /// *distinct* edges as positives (all edges when the graph has fewer) and
    /// an equal number of sampled non-edges as negatives.
    ///
    /// [`PairSample::balanced`] keeps every edge, which at 10⁶ nodes means
    /// millions of pairs and a distance table in the hundreds of megabytes;
    /// capping the positives keeps attack evaluation `O(max_pos)` while the
    /// AUC stays an unbiased estimate of the all-edges value (positives are
    /// drawn uniformly without replacement, in deterministic ascending edge
    /// order for a fixed RNG stream).
    ///
    /// # Panics
    /// Panics when `max_pos` is zero.
    pub fn capped<R: Rng + ?Sized>(graph: &Graph, max_pos: usize, rng: &mut R) -> Self {
        assert!(max_pos > 0, "positive cap must be positive");
        let n_edges = graph.n_edges();
        let positives: Vec<(usize, usize)> = if n_edges <= max_pos {
            graph.edges().collect()
        } else {
            // Rejection-sample distinct edge indices; the BTreeSet keeps the
            // chosen set free of hash order, and collecting in ascending
            // index order makes the sample a pure function of the RNG stream.
            let mut chosen: BTreeSet<usize> = BTreeSet::new();
            while chosen.len() < max_pos {
                chosen.insert(rng.gen_range(0..n_edges));
            }
            graph
                .edges()
                .enumerate()
                .filter(|(i, _)| chosen.contains(i))
                .map(|(_, e)| e)
                .collect()
        };
        let target = positives.len();
        let negatives = sample_negatives(graph, target, rng);
        Self {
            positives,
            negatives,
        }
    }

    /// Total number of sampled pairs.
    pub fn len(&self) -> usize {
        self.positives.len() + self.negatives.len()
    }

    /// True when no pairs were sampled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Achieved `(positives, negatives)` counts.  They differ from the
    /// targeted ratio only when the graph has fewer distinct non-edges than
    /// the negative target.
    pub fn counts(&self) -> (usize, usize) {
        (self.positives.len(), self.negatives.len())
    }
}

/// Draws `target` distinct non-edges `(u, v)` with `u < v`: rejection
/// sampling from the RNG stream, falling back to deterministic enumeration
/// of the remaining non-edges when the attempt budget runs out.
///
/// Membership-only dedup: a BTreeSet keeps the sampler free of any
/// hash-iteration order so the drawn negatives depend only on the RNG
/// stream and the deterministic enumeration fallback.
fn sample_negatives<R: Rng + ?Sized>(
    graph: &Graph,
    target: usize,
    rng: &mut R,
) -> Vec<(usize, usize)> {
    let n = graph.n_nodes();
    let mut negatives = Vec::with_capacity(target);
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut attempts = 0usize;
    let max_attempts = target.saturating_mul(50).max(1000);
    while negatives.len() < target && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        let pair = (u.min(v), u.max(v));
        if seen.insert(pair) {
            negatives.push(pair);
        }
    }
    if negatives.len() < target {
        // Rejection sampling exhausted its budget: deterministically
        // enumerate the non-edges that were not already drawn.
        'fill: for u in 0..n {
            for v in (u + 1)..n {
                if negatives.len() >= target {
                    break 'fill;
                }
                if graph.has_edge(u, v) || seen.contains(&(u, v)) {
                    continue;
                }
                seen.insert((u, v));
                negatives.push((u, v));
            }
        }
    }
    negatives
}

fn pair_distances(probs: &Matrix, pairs: &[(usize, usize)], kind: DistanceKind) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(u, v)| pairwise_distance(kind, probs.row(u), probs.row(v)))
        .collect()
}

/// Area under the ROC curve of the score "negative distance" for separating
/// connected from unconnected pairs.  0.5 ⇒ no leakage, 1.0 ⇒ the attacker
/// recovers every edge.
pub fn attack_auc(probs: &Matrix, sample: &PairSample, kind: DistanceKind) -> f64 {
    let pos = pair_distances(probs, &sample.positives, kind);
    let neg = pair_distances(probs, &sample.negatives, kind);
    auc_from_distances(&pos, &neg)
}

/// AUC computed directly from distance samples of connected (`pos`) and
/// unconnected (`neg`) pairs.  A positive "wins" when its distance is
/// smaller; exact-value ties count as half a win.
///
/// Runs in `O(m log m)` via the Mann–Whitney rank statistic with midrank tie
/// handling, replacing the seed's `O(|pos|·|neg|)` pairwise loop; on
/// tie-free inputs it matches [`auc_from_distances_quadratic`] exactly.
pub fn auc_from_distances(pos: &[f64], neg: &[f64]) -> f64 {
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let n_pos = pos.len();
    let n_neg = neg.len();
    let mut all: Vec<(f64, bool)> = pos
        .iter()
        .map(|&d| (d, true))
        .chain(neg.iter().map(|&d| (d, false)))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Rank sum of the positives in ascending order, ties sharing the midrank.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < all.len() {
        let mut j = i + 1;
        while j < all.len() && all[j].0 == all[i].0 {
            j += 1;
        }
        // Ranks are 1-based: the tie group spans ranks i+1 ..= j.
        let midrank = (i + 1 + j) as f64 / 2.0;
        let pos_in_group = all[i..j].iter().filter(|&&(_, is_pos)| is_pos).count();
        rank_sum_pos += midrank * pos_in_group as f64;
        i = j;
    }
    // U counts (pos > neg) pairs plus half the exact ties; a positive wins
    // when its distance is *smaller*, hence the complement.
    let u_pos = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    1.0 - u_pos / (n_pos as f64 * n_neg as f64)
}

/// The seed's quadratic AUC, kept as the test oracle for
/// [`auc_from_distances`].
///
/// Ties are counted by *exact value equality* (half a win each): the seed's
/// `(p − q).abs() <= f64::EPSILON` tolerance missed genuinely equal ranks at
/// magnitudes above ~2 and fired spuriously for distinct values near 0.
// lint: allow(uncalled-pub) — the oracle of ppfr_privacy's attack_properties and
// large_sbm_attack tests
pub fn auc_from_distances_quadratic(pos: &[f64], neg: &[f64]) -> f64 {
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0;
    for &p in pos {
        for &q in neg {
            if p < q {
                wins += 1.0;
            } else if p == q {
                wins += 0.5;
            }
        }
    }
    wins / (pos.len() as f64 * neg.len() as f64)
}

/// Attack AUC for each of the eight distance metrics (the series of Fig. 4).
pub fn auc_per_distance(probs: &Matrix, sample: &PairSample) -> Vec<(DistanceKind, f64)> {
    DistanceKind::ALL
        .iter()
        .map(|&kind| (kind, attack_auc(probs, sample, kind)))
        .collect()
}

/// Mean attack AUC over the eight distances — the scalar privacy-risk value
/// used in Tables IV and V.
pub fn average_attack_auc(probs: &Matrix, sample: &PairSample) -> f64 {
    let per = auc_per_distance(probs, sample);
    per.iter().map(|(_, auc)| auc).sum::<f64>() / per.len() as f64
}

/// Result of the unsupervised clustering attack.
#[derive(Debug, Clone, Copy)]
pub struct ClusterAttackOutcome {
    /// Fraction of pairs classified correctly.
    pub accuracy: f64,
    /// Precision on the "connected" class.
    pub precision: f64,
    /// Recall on the "connected" class.
    pub recall: f64,
    /// F1 on the "connected" class.
    pub f1: f64,
}

/// The unsupervised attack variant of §IV: 2-means clustering of the pair
/// distances; the cluster with the smaller centroid is predicted "connected".
pub fn cluster_attack(
    probs: &Matrix,
    sample: &PairSample,
    kind: DistanceKind,
) -> ClusterAttackOutcome {
    let pos = pair_distances(probs, &sample.positives, kind);
    let neg = pair_distances(probs, &sample.negatives, kind);
    let mut all: Vec<(f64, bool)> = pos
        .iter()
        .map(|&d| (d, true))
        .chain(neg.iter().map(|&d| (d, false)))
        .collect();
    // `total_cmp` keeps a NaN posterior distance from panicking the whole
    // experiment: NaN pairs land at a sign-dependent end of the total order
    // and merely degrade this attack's score.
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    if all.is_empty() {
        return ClusterAttackOutcome {
            accuracy: 0.0,
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
        };
    }
    // 1-D 2-means via Lloyd iterations on the sorted distances.
    let mut c_low = all.first().unwrap().0;
    let mut c_high = all.last().unwrap().0;
    for _ in 0..50 {
        let threshold = (c_low + c_high) / 2.0;
        let (mut sum_low, mut n_low, mut sum_high, mut n_high) = (0.0, 0usize, 0.0, 0usize);
        for &(d, _) in &all {
            if d <= threshold {
                sum_low += d;
                n_low += 1;
            } else {
                sum_high += d;
                n_high += 1;
            }
        }
        if n_low == 0 || n_high == 0 {
            break;
        }
        let new_low = sum_low / n_low as f64;
        let new_high = sum_high / n_high as f64;
        if (new_low - c_low).abs() < 1e-12 && (new_high - c_high).abs() < 1e-12 {
            break;
        }
        c_low = new_low;
        c_high = new_high;
    }
    let threshold = (c_low + c_high) / 2.0;
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut tn = 0usize;
    let mut fn_ = 0usize;
    for &(d, connected) in &all {
        let predicted = d <= threshold;
        match (predicted, connected) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, false) => tn += 1,
            (false, true) => fn_ += 1,
        }
    }
    let accuracy = (tp + tn) as f64 / all.len() as f64;
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    ClusterAttackOutcome {
        accuracy,
        precision,
        recall,
        f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A graph whose two communities get visibly different predictions, so
    /// the attack should succeed; plus shared helper probabilities.
    fn separable_setup() -> (Graph, Matrix, PairSample) {
        // Two 4-cliques joined by a single bridge edge.
        let mut edges = Vec::new();
        for block in 0..2 {
            let base = block * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 4));
        let g = Graph::from_edges(8, &edges);
        let mut probs = Matrix::zeros(8, 2);
        for v in 0..8 {
            // Small per-node wiggle keeps pairs distinguishable.
            let wiggle = v as f64 * 0.01;
            if v < 4 {
                probs[(v, 0)] = 0.9 - wiggle;
                probs[(v, 1)] = 0.1 + wiggle;
            } else {
                probs[(v, 0)] = 0.1 + wiggle;
                probs[(v, 1)] = 0.9 - wiggle;
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let sample = PairSample::balanced(&g, &mut rng);
        (g, probs, sample)
    }

    #[test]
    fn auc_from_distances_handles_perfect_and_random_cases() {
        assert_eq!(auc_from_distances(&[0.1, 0.2], &[0.9, 0.8]), 1.0);
        assert_eq!(auc_from_distances(&[0.9, 0.8], &[0.1, 0.2]), 0.0);
        assert_eq!(auc_from_distances(&[0.5], &[0.5]), 0.5);
        assert_eq!(auc_from_distances(&[], &[0.5]), 0.5);
    }

    #[test]
    fn ties_count_as_half_wins_at_any_magnitude() {
        // Regression for the seed's `(p - q).abs() <= f64::EPSILON` tie test:
        // distinct distances below ~2e-16 were spuriously merged into ties,
        // while above magnitude ~2 the absolute tolerance degenerates away.
        // Exact-value equality is the rank semantics.
        let tiny_pos = [1e-17];
        let tiny_neg = [9e-17];
        assert_eq!(
            auc_from_distances(&tiny_pos, &tiny_neg),
            1.0,
            "distinct near-zero distances are not ties"
        );
        for scale in [1.0, 10.0, 1e6] {
            let all_equal = [0.7 * scale; 5];
            assert_eq!(
                auc_from_distances(&all_equal, &all_equal[..3]),
                0.5,
                "all-equal inputs at scale {scale}"
            );
        }
        // Mixed ties: pos = [1, 2, 2], neg = [2, 3].
        // Pairwise wins: 1<2 ✓, 1<3 ✓, 2=2 ½, 2<3 ✓, 2=2 ½, 2<3 ✓ → 5/6.
        let pos = [1.0, 2.0, 2.0];
        let neg = [2.0, 3.0];
        let expected = 5.0 / 6.0;
        assert!((auc_from_distances(&pos, &neg) - expected).abs() < 1e-15);
        assert!((auc_from_distances_quadratic(&pos, &neg) - expected).abs() < 1e-15);
    }

    #[test]
    fn rank_auc_matches_the_quadratic_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..25 {
            let n_pos = 1 + (trial % 7);
            let n_neg = 1 + (trial % 11);
            let pos: Vec<f64> = (0..n_pos).map(|_| rng.gen_range(0.0..3.0)).collect();
            let mut neg: Vec<f64> = (0..n_neg).map(|_| rng.gen_range(0.0..3.0)).collect();
            // Inject exact ties in half the trials.
            if trial % 2 == 0 {
                neg[0] = pos[0];
            }
            let fast = auc_from_distances(&pos, &neg);
            let slow = auc_from_distances_quadratic(&pos, &neg);
            assert!(
                (fast - slow).abs() < 1e-12,
                "trial {trial}: rank {fast} vs quadratic {slow}"
            );
        }
    }

    #[test]
    fn pair_sampling_is_deterministic_for_a_fixed_seed() {
        // Pins the sampler's order-independence: the negative dedup structure
        // carries no hash-iteration order, so the sample is a pure function of
        // (graph, ratio, seed) — including the enumeration fallback, which a
        // dense graph with a high ratio forces.
        let (g, _, _) = separable_setup();
        for ratio in [1.0, 4.0] {
            let draw = || PairSample::with_ratio(&g, ratio, &mut StdRng::seed_from_u64(42));
            let a = draw();
            let b = draw();
            assert_eq!(
                a.positives, b.positives,
                "positives differ at ratio {ratio}"
            );
            assert_eq!(
                a.negatives, b.negatives,
                "negatives differ at ratio {ratio}"
            );
        }
    }

    #[test]
    fn balanced_sample_is_balanced_and_disjoint() {
        let (g, _, sample) = separable_setup();
        assert_eq!(sample.positives.len(), g.n_edges());
        assert!(sample.negatives.len() <= sample.positives.len());
        for &(u, v) in &sample.negatives {
            assert!(
                !g.has_edge(u, v),
                "negative pair ({u},{v}) is actually an edge"
            );
        }
    }

    #[test]
    fn negatives_are_distinct_and_fill_dense_graphs_deterministically() {
        // A near-complete graph: 8 nodes, all edges except three.  Rejection
        // sampling alone cannot find 25 distinct negatives (only 3 exist) and
        // the seed's sampler both duplicated and under-filled; the fallback
        // must enumerate every missing non-edge exactly once.
        let n = 8;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        let missing = [(0, 1), (2, 5), (6, 7)];
        edges.retain(|e| !missing.contains(e));
        let g = Graph::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(3);
        let sample = PairSample::balanced(&g, &mut rng);
        let (n_pos, n_neg) = sample.counts();
        assert_eq!(n_pos, g.n_edges());
        assert_eq!(n_neg, missing.len(), "every non-edge must be found");
        let unique: std::collections::HashSet<_> = sample.negatives.iter().collect();
        assert_eq!(unique.len(), sample.negatives.len(), "duplicate negatives");
        for &(u, v) in &sample.negatives {
            assert!(missing.contains(&(u, v)));
        }
    }

    #[test]
    fn with_ratio_reports_the_achieved_ratio_through_counts() {
        // A sparse ring has plenty of non-edges, so every target is met.
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_edges(n, &edges);
        for (ratio, expected_neg) in [(0.5, 20), (1.0, 40), (3.0, 120)] {
            let mut rng = StdRng::seed_from_u64(9);
            let sample = PairSample::with_ratio(&g, ratio, &mut rng);
            let (n_pos, n_neg) = sample.counts();
            assert_eq!(n_pos, g.n_edges());
            assert_eq!(n_neg, expected_neg, "ratio {ratio} missed its target");
            let unique: std::collections::HashSet<_> = sample.negatives.iter().collect();
            assert_eq!(unique.len(), n_neg, "ratio {ratio} duplicated negatives");
            for &(u, v) in &sample.negatives {
                assert!(!g.has_edge(u, v));
            }
        }
        // Zero ratio: positives only.
        let mut rng = StdRng::seed_from_u64(9);
        let sample = PairSample::with_ratio(&g, 0.0, &mut rng);
        assert_eq!(sample.counts(), (g.n_edges(), 0));
        // Balanced is exactly ratio 1.
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        let a = PairSample::balanced(&g, &mut rng_a);
        let b = PairSample::with_ratio(&g, 1.0, &mut rng_b);
        assert_eq!(a.negatives, b.negatives);
    }

    #[test]
    #[should_panic(expected = "ratio must be finite")]
    fn with_ratio_rejects_nan_ratios() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = PairSample::with_ratio(&g, f64::NAN, &mut rng);
    }

    #[test]
    fn capped_sample_respects_the_cap_and_stays_balanced() {
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(11);
        let sample = PairSample::capped(&g, 12, &mut rng);
        let (n_pos, n_neg) = sample.counts();
        assert_eq!(n_pos, 12, "cap must bind on a 40-edge graph");
        assert_eq!(n_neg, n_pos, "capped sample must stay balanced");
        let edge_set: std::collections::HashSet<(usize, usize)> = g.edges().collect();
        for &(u, v) in &sample.positives {
            assert!(edge_set.contains(&(u, v)), "positive ({u},{v}) not an edge");
        }
        let unique: std::collections::HashSet<_> = sample.positives.iter().collect();
        assert_eq!(unique.len(), n_pos, "duplicate positives under the cap");
        for &(u, v) in &sample.negatives {
            assert!(!g.has_edge(u, v), "negative ({u},{v}) is an edge");
        }
    }

    #[test]
    fn capped_sample_is_deterministic_and_degrades_to_balanced() {
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = Graph::from_edges(n, &edges);
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let a = PairSample::capped(&g, 12, &mut rng_a);
        let b = PairSample::capped(&g, 12, &mut rng_b);
        assert_eq!(
            a.positives, b.positives,
            "positives must be seed-determined"
        );
        assert_eq!(
            a.negatives, b.negatives,
            "negatives must be seed-determined"
        );
        // A cap at or above the edge count keeps every edge, exactly like
        // `balanced` with the same RNG stream.
        let mut rng_c = StdRng::seed_from_u64(21);
        let mut rng_d = StdRng::seed_from_u64(21);
        let c = PairSample::capped(&g, g.n_edges(), &mut rng_c);
        let d = PairSample::balanced(&g, &mut rng_d);
        assert_eq!(c.positives, d.positives);
        assert_eq!(c.negatives, d.negatives);
    }

    #[test]
    #[should_panic(expected = "positive cap must be positive")]
    fn capped_rejects_a_zero_cap() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = PairSample::capped(&g, 0, &mut rng);
    }

    #[test]
    fn negatives_never_duplicate_on_sparse_graphs() {
        let (g, _, _) = separable_setup();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sample = PairSample::balanced(&g, &mut rng);
            let unique: std::collections::HashSet<_> = sample.negatives.iter().collect();
            assert_eq!(
                unique.len(),
                sample.negatives.len(),
                "seed {seed} produced duplicate negatives"
            );
            assert_eq!(sample.counts(), (g.n_edges(), sample.negatives.len()));
        }
    }

    #[test]
    fn community_predictions_leak_edges() {
        let (_, probs, sample) = separable_setup();
        for kind in DistanceKind::ALL {
            let auc = attack_auc(&probs, &sample, kind);
            assert!(auc > 0.6, "{}: expected leakage, AUC {auc}", kind.name());
        }
        let avg = average_attack_auc(&probs, &sample);
        assert!(avg > 0.7, "average AUC {avg}");
    }

    #[test]
    fn uniform_predictions_do_not_leak() {
        let (_, _, sample) = separable_setup();
        let probs = Matrix::filled(8, 2, 0.5);
        let avg = average_attack_auc(&probs, &sample);
        assert!(
            (avg - 0.5).abs() < 0.05,
            "no information ⇒ AUC ≈ 0.5, got {avg}"
        );
    }

    #[test]
    fn cluster_attack_beats_chance_on_separable_predictions() {
        let (_, probs, sample) = separable_setup();
        let outcome = cluster_attack(&probs, &sample, DistanceKind::Euclidean);
        assert!(outcome.accuracy > 0.6, "accuracy {}", outcome.accuracy);
        assert!(outcome.f1 > 0.6, "f1 {}", outcome.f1);
    }

    #[test]
    fn tighter_predictions_reduce_auc() {
        // Shrinking the gap between the two communities' predictions lowers risk.
        let (_, probs, sample) = separable_setup();
        let shrunk = probs.map(|v| 0.5 + (v - 0.5) * 0.05);
        let sharp = average_attack_auc(&probs, &sample);
        let blur = average_attack_auc(&shrunk, &sample);
        assert!(
            sharp >= blur,
            "shrinking prediction gaps must not increase AUC: {sharp} vs {blur}"
        );
    }
}
