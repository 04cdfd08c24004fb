//! The supervised attack classifier: a two-class logistic regression over
//! per-pair feature rows, trained full-batch from zero weights with Adam on
//! the mean softmax cross-entropy of the training rows.
//!
//! An epoch is one pass over the standardised training rows that allocates
//! nothing: each row's two logits (`row_logits`, which scoring shares),
//! its two-way softmax and logit gradient, then its rank-1 contribution to
//! one reused gradient buffer laid out like the flat parameters `[w, b]`.
//! The pass adds every sum in the order the dense `X·W`, bias broadcast,
//! softmax, `Xᵀ·G` and column-sum kernels did, so the fit is bit-identical
//! to theirs (pinned against them in this module's tests).
//!
//! Channels are z-scored with statistics fitted on the *training* rows (the
//! shadow pairs, for shadow adversaries) and the same scaler is applied at
//! transfer time.  After training, the adversary performs model selection on
//! its own training data: if a single (sign-oriented) channel separates the
//! training pairs better than the learned classifier, the attack scores with
//! that channel instead — a shadow adversary tunes on data it fully controls,
//! so the deployed attack is never weaker than the best distance threshold it
//! could have used unsupervised.

use crate::features::{channel_names, PairFeatureTable};
use ppfr_linalg::Matrix;
use ppfr_nn::{Adam, Optimizer};
use ppfr_privacy::auc_from_distances;

/// Hyper-parameters of one supervised attack training run.
#[derive(Debug, Clone)]
pub struct AttackTrainConfig {
    /// Full-batch Adam epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Cap on the number of training pairs; larger training sets are thinned
    /// by a deterministic stride subsample that preserves the pos:neg ratio.
    pub max_train_pairs: usize,
}

impl Default for AttackTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            lr: 0.05,
            weight_decay: 1e-4,
            max_train_pairs: 4000,
        }
    }
}

/// Per-channel z-scoring fitted on training rows.
#[derive(Debug, Clone)]
struct ChannelScaler {
    means: Vec<f64>,
    inv_stds: Vec<f64>,
}

impl ChannelScaler {
    fn fit(table: &PairFeatureTable, indices: &[usize]) -> Self {
        let d = table.n_channels();
        let n = indices.len().max(1) as f64;
        let mut means = vec![0.0; d];
        for &i in indices {
            for (m, &v) in means.iter_mut().zip(table.pair(i)) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for &i in indices {
            for (c, &v) in table.pair(i).iter().enumerate() {
                let centered = v - means[c];
                vars[c] += centered * centered;
            }
        }
        let inv_stds = vars
            .iter()
            .map(|&v| {
                let std = (v / n).sqrt();
                // A constant (or NaN-poisoned) channel contributes nothing.
                if std.is_finite() && std > 1e-12 {
                    1.0 / std
                } else {
                    0.0
                }
            })
            .collect();
        Self { means, inv_stds }
    }

    /// Writes the standardised `row` into `out`.  Non-finite inputs (a NaN
    /// posterior upstream) are zeroed so one bad pair degrades the attack
    /// instead of poisoning the whole fit.
    fn standardise_into(&self, row: &[f64], out: &mut [f64]) {
        for (c, z_out) in out.iter_mut().enumerate() {
            let z = (row[c] - self.means[c]) * self.inv_stds[c];
            *z_out = if z.is_finite() { z } else { 0.0 };
        }
    }

    /// Standardised design matrix of the selected rows.
    fn design(&self, table: &PairFeatureTable, indices: &[usize]) -> Matrix {
        let mut x = Matrix::zeros(indices.len(), table.n_channels());
        for (r, &i) in indices.iter().enumerate() {
            self.standardise_into(table.pair(i), x.row_mut(r));
        }
        x
    }
}

/// The two logits of one standardised row `x` under the flat parameters
/// `[w, b]` (`w` row-major `d × 2`, then `b`): `l_c = Σ_k x_k·w_kc + b_c`,
/// the sum taken over ascending `k` from `0.0` and `b_c` added last.
///
/// Every term is added, zeros included.  With finite weights a `±0` product
/// cannot move a sum that starts at `+0.0`, so this equals the dense
/// kernel's zero-skip; with a NaN or ±∞ weight it is the IEEE-exact sum.
#[inline]
fn row_logits(x: &[f64], params: &[f64]) -> [f64; 2] {
    let (w, b) = params.split_at(2 * x.len());
    let mut logits = [0.0; 2];
    for (&xk, wk) in x.iter().zip(w.chunks_exact(2)) {
        logits[0] += xk * wk[0];
        logits[1] += xk * wk[1];
    }
    [logits[0] + b[0], logits[1] + b[1]]
}

/// `exp(t)` for a logit shifted by its row's maximum.  One of the two is the
/// maximum itself, `t == 0.0`, where `exp` returns exactly `1.0`.
#[inline]
fn exp_shifted(t: f64) -> f64 {
    if t == 0.0 {
        1.0
    } else {
        t.exp()
    }
}

/// Writes the gradient of the mean cross-entropy over the rows of `x` at
/// `params` into `grad`, in the `[w, b]` layout of `params`.  Rows `..n_pos`
/// are connected pairs (class 1), the rest unconnected (class 0).
///
/// One pass over the rows, with no allocation: a row's logits, its two-way
/// softmax (`max` over both logits, `sum = 0 + e₀ + e₁`, normalised only
/// when `sum > 0`), its logit gradient `1·(p_c − [c = y]) / n`, then its
/// rank-1 contribution `x_k·g_c` to every `w` entry and `g_c` to `b`.  Each
/// gradient entry sums over ascending rows from `0.0`, as `Xᵀ·G` and the
/// column sums of `G` did.
fn loss_gradient(x: &Matrix, n_pos: usize, params: &[f64], grad: &mut [f64]) {
    assert!(
        params.len() == 2 * x.cols() + 2 && grad.len() == params.len(),
        "parameters and gradient must hold `[w, b]` for the design's channels"
    );
    grad.fill(0.0);
    let norm = x.rows().max(1) as f64;
    let (g_w, g_b) = grad.split_at_mut(2 * x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        let [l0, l1] = row_logits(row, params);
        let max = f64::NEG_INFINITY.max(l0).max(l1);
        let (mut p0, mut p1) = (exp_shifted(l0 - max), exp_shifted(l1 - max));
        let sum = 0.0 + p0 + p1;
        if sum > 0.0 {
            p0 /= sum;
            p1 /= sum;
        }
        let (y0, y1) = if r < n_pos { (0.0, 1.0) } else { (1.0, 0.0) };
        let d0 = 1.0 * (p0 - y0) / norm;
        let d1 = 1.0 * (p1 - y1) / norm;
        for (&xk, gk) in row.iter().zip(g_w.chunks_exact_mut(2)) {
            gk[0] += xk * d0;
            gk[1] += xk * d1;
        }
        g_b[0] += d0;
        g_b[1] += d1;
    }
}

/// What the trained adversary actually scores with (chosen on training data).
#[derive(Debug, Clone, PartialEq)]
pub enum AttackScorer {
    /// The learned classifier's connected-class margin.
    Classifier,
    /// A single sign-oriented channel beat the classifier on training data.
    SingleChannel {
        /// Channel index into the feature-row layout.
        channel: usize,
        /// `+1` when larger values indicate "connected", `−1` otherwise.
        sign: f64,
    },
}

/// A trained supervised link-stealing attack, ready to transfer.
#[derive(Debug, Clone)]
pub struct TrainedAttack {
    scaler: ChannelScaler,
    /// The classifier's parameters `[w, b]`: `w` row-major `d × 2`, then `b`.
    params: Vec<f64>,
    /// The scorer model selection picked on the training rows.
    pub scorer: AttackScorer,
    /// Training-set AUC of the picked scorer.
    pub train_auc: f64,
    /// Number of training pairs actually used (after the cap).
    pub n_train: usize,
}

/// AUC of `P(score_pos > score_neg)` — scores are "connectedness", so they
/// are negated into the distance convention of [`auc_from_distances`].
pub fn auc_from_scores(pos: &[f64], neg: &[f64]) -> f64 {
    let pos_d: Vec<f64> = pos.iter().map(|&s| -s).collect();
    let neg_d: Vec<f64> = neg.iter().map(|&s| -s).collect();
    auc_from_distances(&pos_d, &neg_d)
}

/// Deterministic stride subsample of `indices` down to at most `cap`
/// elements, preserving order.
fn stride_subsample(indices: Vec<usize>, cap: usize) -> Vec<usize> {
    if indices.len() <= cap || cap == 0 {
        return indices;
    }
    let stride = indices.len() as f64 / cap as f64;
    (0..cap)
        .map(|k| indices[((k as f64 * stride) as usize).min(indices.len() - 1)])
        .collect()
}

/// The rows a fit trains on, positives first, and the number of positives:
/// `train_indices` split by [`PairFeatureTable::is_positive`] and capped at
/// `max_pairs` *proportionally*, so the training set keeps the caller's
/// pos:neg ratio (imbalanced threat models stay imbalanced after thinning).
fn training_rows(
    table: &PairFeatureTable,
    train_indices: &[usize],
    max_pairs: usize,
) -> (Vec<usize>, usize) {
    let (pos, neg): (Vec<usize>, Vec<usize>) =
        train_indices.iter().partition(|&&i| table.is_positive(i));
    let total = pos.len() + neg.len();
    let cap = max_pairs.min(total.max(1));
    let cap_pos = if total == 0 {
        0
    } else {
        ((cap * pos.len()) as f64 / total as f64).round() as usize
    };
    let cap_neg = cap - cap_pos.min(cap);
    let mut indices = stride_subsample(pos, cap_pos.max(1));
    let n_pos = indices.len();
    indices.extend(stride_subsample(neg, cap_neg.max(1)));
    (indices, n_pos)
}

/// Adversarial model selection on the training rows: the classifier's
/// margins on the positive and negative rows compete against every single
/// sign-oriented channel.  Returns the picked scorer and its training AUC.
fn select_scorer(
    table: &PairFeatureTable,
    pos_idx: &[usize],
    neg_idx: &[usize],
    pos_margins: &[f64],
    neg_margins: &[f64],
) -> (AttackScorer, f64) {
    let mut best_auc = auc_from_scores(pos_margins, neg_margins);
    let mut best = AttackScorer::Classifier;
    for channel in 0..table.n_channels() {
        let auc_up = auc_from_scores(
            &table.column(channel, pos_idx),
            &table.column(channel, neg_idx),
        );
        // Midrank AUC obeys the mirror identity, so the flipped
        // orientation is 1 − auc_up exactly.
        let (auc, sign) = if auc_up >= 1.0 - auc_up {
            (auc_up, 1.0)
        } else {
            (1.0 - auc_up, -1.0)
        };
        if auc > best_auc {
            best_auc = auc;
            best = AttackScorer::SingleChannel { channel, sign };
        }
    }
    (best, best_auc)
}

impl TrainedAttack {
    /// Trains the attack on the rows of `table` selected by `train_indices`
    /// (their connected/unconnected label comes from
    /// [`PairFeatureTable::is_positive`]).  Degenerate training sets (one
    /// class or empty) yield a chance-level scorer instead of panicking.
    pub fn fit(table: &PairFeatureTable, train_indices: &[usize], cfg: &AttackTrainConfig) -> Self {
        let _span = ppfr_telemetry::span!("attack_classifier");
        let (indices, n_pos) = training_rows(table, train_indices, cfg.max_train_pairs);
        let n_train = indices.len();
        let scaler = ChannelScaler::fit(table, &indices);
        let mut params = vec![0.0; 2 * table.n_channels() + 2];

        let degenerate = n_pos == 0 || n_pos == n_train;
        if !degenerate {
            let x = scaler.design(table, &indices);
            let mut grad = vec![0.0; params.len()];
            let mut adam = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
            for _ in 0..cfg.epochs {
                loss_gradient(&x, n_pos, &params, &mut grad);
                adam.step(&mut params, &grad);
            }
        }

        let mut attack = Self {
            scaler,
            params,
            scorer: AttackScorer::Classifier,
            train_auc: 0.5,
            n_train,
        };
        if !degenerate {
            let (pos, neg) = indices.split_at(n_pos);
            let pos_margins = attack.classifier_scores(table, pos);
            let neg_margins = attack.classifier_scores(table, neg);
            (attack.scorer, attack.train_auc) =
                select_scorer(table, pos, neg, &pos_margins, &neg_margins);
        }
        attack
    }

    /// Raw classifier margins (connected minus unconnected logit).
    fn classifier_scores(&self, table: &PairFeatureTable, indices: &[usize]) -> Vec<f64> {
        let d = table.n_channels();
        assert_eq!(
            self.params.len(),
            2 * d + 2,
            "the table's channel layout must match the trained attack's"
        );
        let mut z = vec![0.0; d];
        indices
            .iter()
            .map(|&i| {
                self.scaler.standardise_into(table.pair(i), &mut z);
                let [l0, l1] = row_logits(&z, &self.params);
                l1 - l0
            })
            .collect()
    }

    /// Connectedness scores of the selected rows under the picked scorer
    /// (higher ⇒ more likely connected).
    pub fn scores(&self, table: &PairFeatureTable, indices: &[usize]) -> Vec<f64> {
        match self.scorer {
            AttackScorer::Classifier => self.classifier_scores(table, indices),
            AttackScorer::SingleChannel { channel, sign } => table
                .column(channel, indices)
                .iter()
                .map(|&v| sign * v)
                .collect(),
        }
    }

    /// AUC of the attack on an eval split given as `(positives, negatives)`
    /// index lists.
    pub fn evaluate(&self, table: &PairFeatureTable, pos: &[usize], neg: &[usize]) -> f64 {
        auc_from_scores(&self.scores(table, pos), &self.scores(table, neg))
    }

    /// Human-readable description of the picked scorer.
    pub fn scorer_name(&self) -> String {
        match self.scorer {
            AttackScorer::Classifier => "logistic".to_string(),
            AttackScorer::SingleChannel { channel, sign } => {
                let names = channel_names(true);
                let name = names.get(channel).copied().unwrap_or("channel");
                format!("{}{}", if sign > 0.0 { "+" } else { "-" }, name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_linalg::parallel::with_forced_threads;
    use ppfr_linalg::row_softmax;
    use ppfr_nn::weighted_cross_entropy_into;
    use ppfr_privacy::{AttackEvaluator, PairSample};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A table whose positives have visibly smaller distances.
    fn separable_table() -> PairFeatureTable {
        let n = 60;
        let mut edges = Vec::new();
        for block in 0..2 {
            let base = block * (n / 2);
            for i in 0..(n / 2) {
                edges.push((base + i, base + (i + 1) % (n / 2)));
                edges.push((base + i, base + (i + 7) % (n / 2)));
            }
        }
        let g = ppfr_graph::Graph::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(2);
        let mut logits = Matrix::gaussian(n, 3, 0.0, 0.05, &mut rng);
        for v in 0..n {
            logits[(v, usize::from(v >= n / 2))] += 3.0;
        }
        let probs = row_softmax(&logits);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = PairSample::balanced(&g, &mut rng);
        let mut ev = AttackEvaluator::new(sample.clone());
        ev.distances(&probs);
        PairFeatureTable::from_distances(ev.table(), &sample, &probs, None, true)
    }

    #[test]
    fn logistic_attack_separates_an_easy_table() {
        let table = separable_table();
        let all: Vec<usize> = (0..table.n_pairs()).collect();
        let attack = TrainedAttack::fit(&table, &all, &AttackTrainConfig::default());
        assert!(
            attack.train_auc > 0.8,
            "separable training pairs must be separable, got {}",
            attack.train_auc
        );
        let pos: Vec<usize> = (0..table.n_pos()).collect();
        let neg: Vec<usize> = (table.n_pos()..table.n_pairs()).collect();
        assert!(attack.evaluate(&table, &pos, &neg) > 0.8);
    }

    #[test]
    fn model_selection_never_loses_to_a_single_channel_on_training_data() {
        let table = separable_table();
        let all: Vec<usize> = (0..table.n_pairs()).collect();
        let attack = TrainedAttack::fit(&table, &all, &AttackTrainConfig::default());
        let pos: Vec<usize> = (0..table.n_pos()).collect();
        let neg: Vec<usize> = (table.n_pos()..table.n_pairs()).collect();
        for channel in 0..table.n_channels() {
            let auc = auc_from_scores(&table.column(channel, &pos), &table.column(channel, &neg));
            let oriented = auc.max(1.0 - auc);
            assert!(
                attack.train_auc >= oriented - 1e-12,
                "channel {channel} ({oriented}) beats the selected scorer ({})",
                attack.train_auc
            );
        }
    }

    #[test]
    fn degenerate_training_sets_score_chance_level() {
        let table = separable_table();
        let only_pos: Vec<usize> = (0..table.n_pos()).collect();
        let attack = TrainedAttack::fit(&table, &only_pos, &AttackTrainConfig::default());
        assert_eq!(attack.train_auc, 0.5);
        assert_eq!(attack.scorer, AttackScorer::Classifier);
        let empty = TrainedAttack::fit(&table, &[], &AttackTrainConfig::default());
        assert_eq!(empty.train_auc, 0.5);
    }

    #[test]
    fn training_cap_subsamples_deterministically() {
        let table = separable_table();
        let all: Vec<usize> = (0..table.n_pairs()).collect();
        let cfg = AttackTrainConfig {
            max_train_pairs: 20,
            ..AttackTrainConfig::default()
        };
        let a = TrainedAttack::fit(&table, &all, &cfg);
        let b = TrainedAttack::fit(&table, &all, &cfg);
        assert_eq!(a.n_train, 20);
        assert_eq!(a.train_auc, b.train_auc, "same inputs ⇒ same attack");
    }

    #[test]
    fn stride_subsample_preserves_order_and_cap() {
        let picked = stride_subsample((0..100).collect(), 10);
        assert_eq!(picked.len(), 10);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        let untouched = stride_subsample(vec![3, 1, 2], 10);
        assert_eq!(untouched, vec![3, 1, 2]);
    }

    /// The epoch `fit` ran before its fused pass, kept as the pin's oracle:
    /// `X·W` through the pooled dense kernel, the bias broadcast, `ppfr_nn`'s
    /// weighted cross-entropy (unit weights), `Xᵀ·G` through the pooled
    /// kernel and the column sums of `G`, packed as `[g_w, g_b]`.
    fn oracle_gradient(x: &Matrix, n_pos: usize, params: &[f64]) -> Vec<f64> {
        let (n, d) = x.shape();
        let w = Matrix::from_vec(d, 2, params[..2 * d].to_vec());
        let b = &params[2 * d..];
        let mut logits = x.matmul(&w);
        for r in 0..n {
            for (l, &bc) in logits.row_mut(r).iter_mut().zip(b) {
                *l += bc;
            }
        }
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i < n_pos)).collect();
        let ids: Vec<usize> = (0..n).collect();
        let (mut probs, mut d_logits) = (Matrix::default(), Matrix::default());
        weighted_cross_entropy_into(
            &logits,
            &labels,
            &ids,
            &vec![1.0; n],
            &mut probs,
            &mut d_logits,
        );
        let mut grad = x.matmul_at_b(&d_logits).as_slice().to_vec();
        let mut g_b = vec![0.0; 2];
        for r in 0..n {
            for (s, &g) in g_b.iter_mut().zip(d_logits.row(r)) {
                *s += g;
            }
        }
        grad.extend(g_b);
        grad
    }

    /// The margins `classifier_scores` computed before it shared
    /// [`row_logits`]: the design matrix, the dense product, the bias.
    fn oracle_margins(
        scaler: &ChannelScaler,
        params: &[f64],
        table: &PairFeatureTable,
        indices: &[usize],
    ) -> Vec<f64> {
        let d = table.n_channels();
        let logits =
            scaler
                .design(table, indices)
                .matmul(&Matrix::from_vec(d, 2, params[..2 * d].to_vec()));
        let b = &params[2 * d..];
        (0..indices.len())
            .map(|r| (logits[(r, 1)] + b[1]) - (logits[(r, 0)] + b[0]))
            .collect()
    }

    /// What the old `fit` returned: its parameters `[w, b]`, scorer and
    /// training AUC, plus the scaler to score held-out rows with.
    struct OracleFit {
        scaler: ChannelScaler,
        params: Vec<f64>,
        scorer: AttackScorer,
        train_auc: f64,
    }

    fn oracle_fit(
        table: &PairFeatureTable,
        train_indices: &[usize],
        cfg: &AttackTrainConfig,
    ) -> OracleFit {
        let (indices, n_pos) = training_rows(table, train_indices, cfg.max_train_pairs);
        let scaler = ChannelScaler::fit(table, &indices);
        let mut params = vec![0.0; 2 * table.n_channels() + 2];
        if n_pos == 0 || n_pos == indices.len() {
            return OracleFit {
                scaler,
                params,
                scorer: AttackScorer::Classifier,
                train_auc: 0.5,
            };
        }
        let x = scaler.design(table, &indices);
        let mut adam = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        for _ in 0..cfg.epochs {
            let grad = oracle_gradient(&x, n_pos, &params);
            adam.step(&mut params, &grad);
        }
        let (pos, neg) = indices.split_at(n_pos);
        let pos_margins = oracle_margins(&scaler, &params, table, pos);
        let neg_margins = oracle_margins(&scaler, &params, table, neg);
        let (scorer, train_auc) = select_scorer(table, pos, neg, &pos_margins, &neg_margins);
        OracleFit {
            scaler,
            params,
            scorer,
            train_auc,
        }
    }

    /// Bit-for-bit equality, except that every NaN equals every NaN: IEEE-754
    /// leaves the payload of a NaN result to the hardware and the compiler.
    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: lengths differ");
        for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{k}]: {g:e} ({:#x}) vs oracle {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// A random value whose magnitude spans six decades, exactly `±0.0`
    /// about one time in five.
    fn spread_value(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-3.0..3.0) * 10f64.powi(rng.gen_range(-3..3)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused fit equals the old epoch loop bit for bit: parameters,
        /// scorer, training AUC and held-out scores, at forced threads 1, 2
        /// and 4.  Cases cover 1–9 training rows, 10 and 12 channels, a
        /// constant channel (z-scores ±0.0), a NaN-poisoned channel, the
        /// all-zero first epoch (equal logits), and a learning rate large
        /// enough to saturate the softmax to exactly 0 and 1.
        #[test]
        fn fused_fit_matches_the_old_epoch_oracle_bit_for_bit(
            n_train in 1usize..10,
            with_features in 0usize..2,
            quirks in 0u32..16,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = crate::features::n_channels(with_features == 1);
            let n_rows = n_train + 5;
            let mut values: Vec<f64> = (0..n_rows * d).map(|_| spread_value(&mut rng)).collect();
            if quirks & 1 != 0 {
                let (c, v) = (rng.gen_range(0..d), rng.gen_range(-2.0..2.0));
                (0..n_rows).for_each(|r| values[r * d + c] = v);
            }
            if quirks & 2 != 0 {
                let (r, c) = (rng.gen_range(0..n_rows), rng.gen_range(0..d));
                values[r * d + c] = f64::NAN;
            }
            let cfg = AttackTrainConfig {
                lr: if quirks & 4 != 0 { 5.0 } else { 0.05 },
                max_train_pairs: if quirks & 8 != 0 { 4 } else { 4000 },
                ..AttackTrainConfig::default()
            };
            let table = PairFeatureTable::from_rows(values, d, rng.gen_range(0..=n_rows));
            let mut order: Vec<usize> = (0..n_rows).collect();
            for i in (1..n_rows).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let (train, held_out) = order.split_at(n_train);

            let oracle = with_forced_threads(1, || oracle_fit(&table, train, &cfg));
            let oracle_held = oracle_margins(&oracle.scaler, &oracle.params, &table, held_out);
            let oracle_scores = match oracle.scorer {
                AttackScorer::Classifier => oracle_held.clone(),
                AttackScorer::SingleChannel { channel, sign } => {
                    table.column(channel, held_out).iter().map(|&v| sign * v).collect()
                }
            };
            for threads in [1, 2, 4] {
                let attack = with_forced_threads(threads, || TrainedAttack::fit(&table, train, &cfg));
                let ctx = format!("{threads} thread(s), {n_train} rows, {d} channels, quirks {quirks:#06b}");
                assert_bits(&attack.params[..2 * d], &oracle.params[..2 * d], &format!("w at {ctx}"));
                assert_bits(&attack.params[2 * d..], &oracle.params[2 * d..], &format!("b at {ctx}"));
                prop_assert_eq!(&attack.scorer, &oracle.scorer, "scorer at {}", ctx);
                assert_bits(&[attack.train_auc], &[oracle.train_auc], &format!("train AUC at {ctx}"));
                assert_bits(
                    &attack.classifier_scores(&table, held_out),
                    &oracle_held,
                    &format!("held-out margins at {ctx}"),
                );
                assert_bits(
                    &attack.scores(&table, held_out),
                    &oracle_scores,
                    &format!("held-out scores at {ctx}"),
                );
            }
        }

        /// One fused epoch equals one old epoch bit for bit from any
        /// parameters: zero (equal logits), ordinary, huge (a softmax entry
        /// of exactly 0 or 1), equal columns (equal logits again), or
        /// holding a NaN or ±∞, where the old kernels took their IEEE-exact
        /// path.  The design holds `±0.0` entries, which the old kernels
        /// skipped.
        #[test]
        fn fused_epoch_matches_the_old_epoch_from_any_parameters(
            n in 1usize..10,
            with_features in 0usize..2,
            start in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = crate::features::n_channels(with_features == 1);
            let x = Matrix::from_vec(n, d, (0..n * d).map(|_| spread_value(&mut rng)).collect());
            let n_pos = rng.gen_range(0..=n);
            let mut params: Vec<f64> = match start {
                0 => vec![0.0; 2 * d + 2],
                1 => (0..2 * d + 2).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                2 => (0..2 * d + 2).map(|_| rng.gen_range(-1e3..1e3)).collect(),
                3 => (0..d + 1).map(|_| rng.gen_range(-1.0..1.0)).flat_map(|v| [v, v]).collect(),
                _ => (0..2 * d + 2).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            };
            if start >= 4 {
                let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                let k = rng.gen_range(0..params.len());
                params[k] = poison;
            }
            let want = with_forced_threads(1, || oracle_gradient(&x, n_pos, &params));
            let mut want_params = params.clone();
            Adam::new(0.05).step(&mut want_params, &want);
            for threads in [1, 2, 4] {
                let mut grad = vec![f64::NAN; params.len()];
                with_forced_threads(threads, || loss_gradient(&x, n_pos, &params, &mut grad));
                let ctx = format!("{threads} thread(s), {n}x{d}, start {start}");
                assert_bits(&grad, &want, &format!("gradient at {ctx}"));
                let mut got_params = params.clone();
                Adam::new(0.05).step(&mut got_params, &grad);
                assert_bits(&got_params, &want_params, &format!("parameters at {ctx}"));
            }
        }
    }

    #[test]
    fn auc_from_scores_mirrors_distance_auc() {
        let mut rng = StdRng::seed_from_u64(1);
        let pos: Vec<f64> = (0..20).map(|_| rng.gen_range(0.0..1.0)).collect();
        let neg: Vec<f64> = (0..30).map(|_| rng.gen_range(0.0..1.0)).collect();
        let s = auc_from_scores(&pos, &neg);
        let d = auc_from_distances(&pos, &neg);
        assert!((s + d - 1.0).abs() < 1e-12);
    }
}
