//! Weighted softmax cross-entropy (Eqs. 6–7 of the paper) and accuracy.

use ppfr_linalg::{row_softmax, row_softmax_into, Matrix};

/// Result of evaluating the weighted cross-entropy: the scalar loss, the
/// softmax probabilities and the gradient w.r.t. the logits.
#[derive(Debug, Clone)]
pub struct CrossEntropy {
    /// Mean weighted negative log-likelihood over the supervised nodes.
    pub loss: f64,
    /// Softmax probabilities for every node (not just supervised ones).
    pub probs: Matrix,
    /// Gradient of the loss w.r.t. the logits (zero on unsupervised rows).
    pub d_logits: Matrix,
}

/// Weighted softmax cross-entropy over the nodes in `node_ids`.
///
/// `weights[k]` multiplies the loss of `node_ids[k]` — this is the `(1 + w_v)`
/// factor of Eq. (7); pass all-ones for vanilla training (Eq. 6).  The loss is
/// normalised by the number of supervised nodes (not by the weight sum) so
/// that re-weighting actually changes the optimum, mirroring the paper.
pub fn weighted_cross_entropy(
    logits: &Matrix,
    labels: &[usize],
    node_ids: &[usize],
    weights: &[f64],
) -> CrossEntropy {
    let probs = row_softmax(logits);
    let mut d_logits = Matrix::zeros(logits.rows(), logits.cols());
    let loss = ce_core(logits, labels, node_ids, weights, &probs, &mut d_logits);
    CrossEntropy {
        loss,
        probs,
        d_logits,
    }
}

/// [`weighted_cross_entropy`] writing the probabilities and logit gradient
/// into caller-owned buffers (resized as needed; allocation-free when shapes
/// already match) and returning the scalar loss.  Bit-identical to the
/// allocating entry point.
pub fn weighted_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    node_ids: &[usize],
    weights: &[f64],
    probs: &mut Matrix,
    d_logits: &mut Matrix,
) -> f64 {
    row_softmax_into(logits, probs);
    d_logits.resize_to(logits.rows(), logits.cols());
    d_logits.as_mut_slice().fill(0.0);
    ce_core(logits, labels, node_ids, weights, probs, d_logits)
}

/// Shared loss/gradient core: assumes `probs = row_softmax(logits)` and
/// `d_logits` zero-initialised at the logits' shape.
fn ce_core(
    logits: &Matrix,
    labels: &[usize],
    node_ids: &[usize],
    weights: &[f64],
    probs: &Matrix,
    d_logits: &mut Matrix,
) -> f64 {
    assert_eq!(
        node_ids.len(),
        weights.len(),
        "one weight per supervised node"
    );
    assert_eq!(logits.rows(), labels.len(), "one label per node");
    let mut loss = 0.0;
    let norm = node_ids.len().max(1) as f64;
    for (&v, &w) in node_ids.iter().zip(weights.iter()) {
        loss += cross_entropy_node_into(probs, v, labels[v], w, norm, d_logits);
    }
    loss / norm
}

/// The per-node body of [`weighted_cross_entropy_into`]: writes row `v` of
/// `d_logits` as `w·(p_v − 1[c = y])/norm` from the softmax row `probs[v]`
/// and returns node `v`'s weighted loss term `−w·ln p_{v,y}` (before the
/// division by `norm`).  Touches no other row, so a caller holding one
/// softmax can write a single node's logit gradient into an otherwise-zero
/// `d_logits` — bit-identical to the full loss over `[v]` with weight `w`.
pub fn cross_entropy_node_into(
    probs: &Matrix,
    v: usize,
    y: usize,
    w: f64,
    norm: f64,
    d_logits: &mut Matrix,
) -> f64 {
    for c in 0..probs.cols() {
        let indicator = if c == y { 1.0 } else { 0.0 };
        d_logits[(v, c)] = w * (probs[(v, c)] - indicator) / norm;
    }
    -w * probs[(v, y)].max(1e-12).ln()
}

/// Classification accuracy of `logits` against `labels` restricted to
/// `node_ids` (e.g. the test split).
pub fn accuracy(logits: &Matrix, labels: &[usize], node_ids: &[usize]) -> f64 {
    if node_ids.is_empty() {
        return 0.0;
    }
    let pred = logits.row_argmax();
    let correct = node_ids.iter().filter(|&&v| pred[v] == labels[v]).count();
    correct as f64 / node_ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_is_low_when_logits_match_labels() {
        let logits = Matrix::from_rows(&[vec![10.0, 0.0], vec![0.0, 10.0]]);
        let labels = vec![0, 1];
        let ce = weighted_cross_entropy(&logits, &labels, &[0, 1], &[1.0, 1.0]);
        assert!(
            ce.loss < 1e-3,
            "confident correct predictions should have tiny loss"
        );
        let wrong = weighted_cross_entropy(&logits, &[1, 0], &[0, 1], &[1.0, 1.0]);
        assert!(
            wrong.loss > 5.0,
            "confident wrong predictions should have large loss"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.3, 0.1], vec![-1.0, 0.2, 0.7]]);
        let labels = vec![2, 0];
        let ids = vec![0, 1];
        let w = vec![1.0, 0.5];
        let ce = weighted_cross_entropy(&logits, &labels, &ids, &w);
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus[(r, c)] += h;
                let mut minus = logits.clone();
                minus[(r, c)] -= h;
                let fp = weighted_cross_entropy(&plus, &labels, &ids, &w).loss;
                let fm = weighted_cross_entropy(&minus, &labels, &ids, &w).loss;
                let numeric = (fp - fm) / (2.0 * h);
                assert!(
                    (numeric - ce.d_logits[(r, c)]).abs() < 1e-6,
                    "({r},{c}): numeric {numeric} vs analytic {}",
                    ce.d_logits[(r, c)]
                );
            }
        }
    }

    #[test]
    fn unsupervised_rows_receive_zero_gradient() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.3], vec![1.0, 2.0], vec![0.0, 0.0]]);
        let labels = vec![0, 1, 0];
        let ce = weighted_cross_entropy(&logits, &labels, &[1], &[1.0]);
        assert!(ce.d_logits.row(0).iter().all(|&v| v == 0.0));
        assert!(ce.d_logits.row(2).iter().all(|&v| v == 0.0));
        assert!(ce.d_logits.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn zero_weight_removes_a_node_from_the_loss() {
        let logits = Matrix::from_rows(&[vec![3.0, -1.0], vec![-2.0, 0.5]]);
        let labels = vec![1, 1];
        let with_node0 = weighted_cross_entropy(&logits, &labels, &[0, 1], &[0.0, 1.0]);
        let only_node1 = weighted_cross_entropy(&logits, &labels, &[1], &[1.0]);
        // Same gradient direction on node 1; node 0 contributes nothing.
        assert!(with_node0.d_logits.row(0).iter().all(|&v| v == 0.0));
        assert!(with_node0.loss > 0.0 && only_node1.loss > 0.0);
    }

    #[test]
    fn into_variant_matches_allocating_version_bitwise() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.3, 0.1], vec![-1.0, 0.2, 0.7]]);
        let labels = vec![2, 0];
        let ids = vec![0, 1];
        let w = vec![1.0, 0.5];
        let ce = weighted_cross_entropy(&logits, &labels, &ids, &w);
        let mut probs = Matrix::zeros(9, 9);
        let mut d_logits = Matrix::zeros(0, 0);
        let loss =
            weighted_cross_entropy_into(&logits, &labels, &ids, &w, &mut probs, &mut d_logits);
        assert_eq!(loss.to_bits(), ce.loss.to_bits());
        assert_eq!(probs.as_slice(), ce.probs.as_slice());
        assert_eq!(d_logits.as_slice(), ce.d_logits.as_slice());
        // Reuse must fully overwrite stale contents.
        let loss2 =
            weighted_cross_entropy_into(&logits, &labels, &ids, &w, &mut probs, &mut d_logits);
        assert_eq!(loss2.to_bits(), ce.loss.to_bits());
        assert_eq!(d_logits.as_slice(), ce.d_logits.as_slice());
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let logits = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 2.0], vec![2.0, 0.0]]);
        let labels = vec![0, 1, 1];
        assert!((accuracy(&logits, &labels, &[0, 1, 2]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&logits, &labels, &[]), 0.0);
    }
}
