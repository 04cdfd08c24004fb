//! The supervised attack classifier: a two-class logistic regression over
//! per-pair feature rows, trained full-batch from zero weights with
//! `ppfr_nn`'s weighted cross-entropy and Adam.
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
use ppfr_nn::{weighted_cross_entropy, Adam, Optimizer};
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

    /// Standardised design matrix of the selected rows.  Non-finite inputs
    /// (a NaN posterior upstream) are zeroed so one bad pair degrades the
    /// attack instead of poisoning the whole fit.
    fn design(&self, table: &PairFeatureTable, indices: &[usize]) -> Matrix {
        let d = table.n_channels();
        let mut x = Matrix::zeros(indices.len(), d);
        for (r, &i) in indices.iter().enumerate() {
            let row = table.pair(i);
            let out = x.row_mut(r);
            for c in 0..d {
                let z = (row[c] - self.means[c]) * self.inv_stds[c];
                out[c] = if z.is_finite() { z } else { 0.0 };
            }
        }
        x
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
    w: Matrix,
    b: Vec<f64>,
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

impl TrainedAttack {
    /// Trains the attack on the rows of `table` selected by `train_indices`
    /// (their connected/unconnected label comes from
    /// [`PairFeatureTable::is_positive`]).  Degenerate training sets (one
    /// class or empty) yield a chance-level scorer instead of panicking.
    pub fn fit(table: &PairFeatureTable, train_indices: &[usize], cfg: &AttackTrainConfig) -> Self {
        let _span = ppfr_telemetry::span!("attack_classifier");
        let d = table.n_channels();
        let pos: Vec<usize> = train_indices
            .iter()
            .copied()
            .filter(|&i| table.is_positive(i))
            .collect();
        let neg: Vec<usize> = train_indices
            .iter()
            .copied()
            .filter(|&i| !table.is_positive(i))
            .collect();
        // Cap positives and negatives *proportionally* so the training set
        // keeps the caller's pos:neg ratio (imbalanced threat models stay
        // imbalanced after thinning).
        let total = pos.len() + neg.len();
        let cap = cfg.max_train_pairs.min(total.max(1));
        let cap_pos = if total == 0 {
            0
        } else {
            ((cap * pos.len()) as f64 / total as f64).round() as usize
        };
        let cap_neg = cap - cap_pos.min(cap);
        let mut indices = stride_subsample(pos, cap_pos.max(1));
        let n_pos = indices.len();
        indices.extend(stride_subsample(neg, cap_neg.max(1)));
        let n_train = indices.len();

        let scaler = ChannelScaler::fit(table, &indices);
        let mut w = Matrix::zeros(d, 2);
        let mut b = vec![0.0; 2];

        let degenerate = n_pos == 0 || n_pos == n_train;
        if !degenerate {
            let x = scaler.design(table, &indices);
            let labels: Vec<usize> = (0..n_train).map(|i| usize::from(i < n_pos)).collect();
            let ids: Vec<usize> = (0..n_train).collect();
            let weights = vec![1.0; n_train];
            let mut adam = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
            let mut params = pack(&w, &b);
            for _ in 0..cfg.epochs {
                unpack(&params, &mut w, &mut b);
                let mut logits = x.matmul(&w);
                logits.add_row_broadcast_inplace(&b);
                let ce = weighted_cross_entropy(&logits, &labels, &ids, &weights);
                let g_w = x.matmul_at_b(&ce.d_logits);
                let g_b = ce.d_logits.col_sums();
                adam.step(&mut params, &pack(&g_w, &g_b));
            }
            unpack(&params, &mut w, &mut b);
        }

        let mut attack = Self {
            scaler,
            w,
            b,
            scorer: AttackScorer::Classifier,
            train_auc: 0.5,
            n_train,
        };
        attack.select_scorer(table, &indices, n_pos, degenerate);
        attack
    }

    /// Adversarial model selection on the training rows: the classifier
    /// competes against every single sign-oriented channel.
    fn select_scorer(
        &mut self,
        table: &PairFeatureTable,
        indices: &[usize],
        n_pos: usize,
        degenerate: bool,
    ) {
        if degenerate {
            return;
        }
        let (pos_idx, neg_idx) = (&indices[..n_pos], &indices[n_pos..]);
        let margin = |idx: &[usize]| -> Vec<f64> { self.classifier_scores(table, idx) };
        let mut best_auc = auc_from_scores(&margin(pos_idx), &margin(neg_idx));
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
        self.train_auc = best_auc;
        self.scorer = best;
    }

    /// Raw classifier margins (connected minus unconnected logit).
    fn classifier_scores(&self, table: &PairFeatureTable, indices: &[usize]) -> Vec<f64> {
        let x = self.scaler.design(table, indices);
        let mut logits = x.matmul(&self.w);
        logits.add_row_broadcast_inplace(&self.b);
        (0..logits.rows())
            .map(|r| logits[(r, 1)] - logits[(r, 0)])
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

fn pack(w: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut flat = Vec::with_capacity(w.as_slice().len() + b.len());
    flat.extend_from_slice(w.as_slice());
    flat.extend_from_slice(b);
    flat
}

fn unpack(flat: &[f64], w: &mut Matrix, b: &mut [f64]) {
    let n = w.as_slice().len();
    w.as_mut_slice().copy_from_slice(&flat[..n]);
    b.copy_from_slice(&flat[n..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_linalg::row_softmax;
    use ppfr_privacy::{AttackEvaluator, PairSample};
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
