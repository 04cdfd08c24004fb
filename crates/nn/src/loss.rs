//! Weighted softmax cross-entropy (Eqs. 6–7 of the paper) and accuracy.

use ppfr_linalg::{row_softmax_into, Matrix};

/// Weighted softmax cross-entropy over the nodes in `node_ids`, writing the
/// softmax probabilities of every node and the gradient w.r.t. the logits
/// (zero on unsupervised rows) into caller-owned buffers (resized as needed;
/// allocation-free when shapes already match), and returning the scalar
/// loss: the mean weighted negative log-likelihood over the supervised
/// nodes.
///
/// `weights[k]` multiplies the loss of `node_ids[k]` — this is the `(1 + w_v)`
/// factor of Eq. (7); pass all-ones for vanilla training (Eq. 6).  The loss is
/// normalised by the number of supervised nodes (not by the weight sum) so
/// that re-weighting actually changes the optimum, mirroring the paper.
pub fn weighted_cross_entropy_into(
    logits: &Matrix,
    labels: &[usize],
    node_ids: &[usize],
    weights: &[f64],
    probs: &mut Matrix,
    d_logits: &mut Matrix,
) -> f64 {
    assert_eq!(
        node_ids.len(),
        weights.len(),
        "one weight per supervised node"
    );
    assert_eq!(logits.rows(), labels.len(), "one label per node");
    row_softmax_into(logits, probs);
    d_logits.resize_to(logits.rows(), logits.cols());
    d_logits.as_mut_slice().fill(0.0);
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
    use ppfr_linalg::row_softmax;

    /// The loss and logit gradient of [`weighted_cross_entropy_into`] on
    /// fresh buffers.
    fn ce(logits: &Matrix, labels: &[usize], ids: &[usize], weights: &[f64]) -> (f64, Matrix) {
        let (mut probs, mut d_logits) = (Matrix::default(), Matrix::default());
        let loss =
            weighted_cross_entropy_into(logits, labels, ids, weights, &mut probs, &mut d_logits);
        (loss, d_logits)
    }

    #[test]
    fn loss_is_low_when_logits_match_labels() {
        let logits = Matrix::from_rows(&[vec![10.0, 0.0], vec![0.0, 10.0]]);
        let labels = vec![0, 1];
        let (loss, _) = ce(&logits, &labels, &[0, 1], &[1.0, 1.0]);
        assert!(
            loss < 1e-3,
            "confident correct predictions should have tiny loss"
        );
        let (wrong, _) = ce(&logits, &[1, 0], &[0, 1], &[1.0, 1.0]);
        assert!(
            wrong > 5.0,
            "confident wrong predictions should have large loss"
        );
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.3, 0.1], vec![-1.0, 0.2, 0.7]]);
        let labels = vec![2, 0];
        let ids = vec![0, 1];
        let w = vec![1.0, 0.5];
        let (_, d_logits) = ce(&logits, &labels, &ids, &w);
        let h = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus[(r, c)] += h;
                let mut minus = logits.clone();
                minus[(r, c)] -= h;
                let fp = ce(&plus, &labels, &ids, &w).0;
                let fm = ce(&minus, &labels, &ids, &w).0;
                let numeric = (fp - fm) / (2.0 * h);
                assert!(
                    (numeric - d_logits[(r, c)]).abs() < 1e-6,
                    "({r},{c}): numeric {numeric} vs analytic {}",
                    d_logits[(r, c)]
                );
            }
        }
    }

    #[test]
    fn unsupervised_rows_receive_zero_gradient() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.3], vec![1.0, 2.0], vec![0.0, 0.0]]);
        let labels = vec![0, 1, 0];
        let (_, d_logits) = ce(&logits, &labels, &[1], &[1.0]);
        assert!(d_logits.row(0).iter().all(|&v| v == 0.0));
        assert!(d_logits.row(2).iter().all(|&v| v == 0.0));
        assert!(d_logits.row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn zero_weight_removes_a_node_from_the_loss() {
        let logits = Matrix::from_rows(&[vec![3.0, -1.0], vec![-2.0, 0.5]]);
        let labels = vec![1, 1];
        let (with_node0, d_logits) = ce(&logits, &labels, &[0, 1], &[0.0, 1.0]);
        let (only_node1, _) = ce(&logits, &labels, &[1], &[1.0]);
        // Same gradient direction on node 1; node 0 contributes nothing.
        assert!(d_logits.row(0).iter().all(|&v| v == 0.0));
        assert!(with_node0 > 0.0 && only_node1 > 0.0);
    }

    #[test]
    fn into_variant_matches_allocating_version_bitwise() {
        let logits = Matrix::from_rows(&[vec![0.5, -0.3, 0.1], vec![-1.0, 0.2, 0.7]]);
        let labels = vec![2, 0];
        let ids = vec![0, 1];
        let w = vec![1.0, 0.5];
        // Allocating oracle: a fresh softmax, then the per-node body on a
        // fresh zero gradient.
        let want_probs = row_softmax(&logits);
        let mut want_d = Matrix::zeros(2, 3);
        let want_loss = ids.iter().zip(&w).fold(0.0, |loss, (&v, &wv)| {
            loss + cross_entropy_node_into(&want_probs, v, labels[v], wv, 2.0, &mut want_d)
        }) / 2.0;
        let mut probs = Matrix::zeros(9, 9);
        let mut d_logits = Matrix::filled(1, 1, f64::NAN);
        for _ in 0..2 {
            // The second call reuses the buffers and must fully overwrite them.
            let loss =
                weighted_cross_entropy_into(&logits, &labels, &ids, &w, &mut probs, &mut d_logits);
            assert_eq!(loss.to_bits(), want_loss.to_bits());
            assert_eq!(probs.as_slice(), want_probs.as_slice());
            assert_eq!(d_logits.as_slice(), want_d.as_slice());
        }
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let logits = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 2.0], vec![2.0, 0.0]]);
        let labels = vec![0, 1, 1];
        assert!((accuracy(&logits, &labels, &[0, 1, 2]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&logits, &labels, &[]), 0.0);
    }
}
