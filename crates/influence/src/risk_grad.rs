//! Differentiable instantiation of the privacy-risk function `f_risk(θ)`.
//!
//! For influence estimation the paper instantiates
//! `f_risk(θ) = 2‖d̄₀ − d̄₁‖ / (var(d₀) + var(d₁))` (§VI-B1).  To make the
//! gradient tractable the pair distance is the squared euclidean distance in
//! prediction space, which is smooth in the probabilities.  This module
//! provides the score's analytic gradient w.r.t. the probability matrix
//! (verified against finite differences of the score in tests).

use ppfr_linalg::{mean, variance, Matrix};
use ppfr_privacy::PairSample;

fn sq_distance(probs: &Matrix, u: usize, v: usize) -> f64 {
    let mut d = 0.0;
    for c in 0..probs.cols() {
        let diff = probs[(u, c)] - probs[(v, c)];
        d += diff * diff;
    }
    d
}

/// Analytic gradient w.r.t. the probabilities of the normalised risk score
/// `2‖d̄₀ − d̄₁‖ / (var(d₀) + var(d₁))` with squared-euclidean pair distances.
pub fn sq_risk_gradient_wrt_probs(probs: &Matrix, sample: &PairSample) -> Matrix {
    let d1: Vec<f64> = sample
        .positives
        .iter()
        .map(|&(u, v)| sq_distance(probs, u, v))
        .collect();
    let d0: Vec<f64> = sample
        .negatives
        .iter()
        .map(|&(u, v)| sq_distance(probs, u, v))
        .collect();
    let m1 = d1.len().max(1) as f64;
    let m0 = d0.len().max(1) as f64;
    let mean1 = mean(&d1);
    let mean0 = mean(&d0);
    let var_sum = (variance(&d0) + variance(&d1)).max(1e-9);
    let gap = mean0 - mean1;
    let sign = if gap >= 0.0 { 1.0 } else { -1.0 };
    let abs_gap = gap.abs();

    // ∂f/∂d_i for a connected pair i (contributes to d1):
    //   f = 2|D0 − D1| / V,    V = var(d0) + var(d1)
    //   ∂|D0 − D1|/∂d_i = −sign / m1
    //   ∂V/∂d_i        = 2 (d_i − D1) / m1
    let df_dd1 = |d_i: f64| -> f64 {
        (2.0 / var_sum) * (-sign / m1)
            - (2.0 * abs_gap / (var_sum * var_sum)) * (2.0 * (d_i - mean1) / m1)
    };
    let df_dd0 = |d_i: f64| -> f64 {
        (2.0 / var_sum) * (sign / m0)
            - (2.0 * abs_gap / (var_sum * var_sum)) * (2.0 * (d_i - mean0) / m0)
    };

    let mut grad = Matrix::zeros(probs.rows(), probs.cols());
    let mut accumulate = |pairs: &[(usize, usize)], dists: &[f64], df: &dyn Fn(f64) -> f64| {
        for (&(u, v), &d_i) in pairs.iter().zip(dists.iter()) {
            let coeff = df(d_i);
            for c in 0..probs.cols() {
                let diff = probs[(u, c)] - probs[(v, c)];
                grad[(u, c)] += coeff * 2.0 * diff;
                grad[(v, c)] -= coeff * 2.0 * diff;
            }
        }
    };
    accumulate(&sample.positives, &d1, &df_dd1);
    accumulate(&sample.negatives, &d0, &df_dd0);
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The normalised risk score with squared-euclidean pair distances: the
    /// function [`sq_risk_gradient_wrt_probs`] differentiates.
    fn sq_risk_score(probs: &Matrix, sample: &PairSample) -> f64 {
        let d1: Vec<f64> = sample
            .positives
            .iter()
            .map(|&(u, v)| sq_distance(probs, u, v))
            .collect();
        let d0: Vec<f64> = sample
            .negatives
            .iter()
            .map(|&(u, v)| sq_distance(probs, u, v))
            .collect();
        let gap = (mean(&d0) - mean(&d1)).abs();
        let denom = (variance(&d0) + variance(&d1)).max(1e-9);
        2.0 * gap / denom
    }

    fn setup() -> (Matrix, PairSample) {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let mut rng = StdRng::seed_from_u64(17);
        let sample = PairSample::balanced(&g, &mut rng);
        let probs = Matrix::from_rows(&[
            vec![0.85, 0.15],
            vec![0.80, 0.20],
            vec![0.75, 0.25],
            vec![0.20, 0.80],
            vec![0.25, 0.75],
            vec![0.30, 0.70],
        ]);
        (probs, sample)
    }

    #[test]
    fn score_is_positive_for_separated_communities() {
        let (probs, sample) = setup();
        assert!(sq_risk_score(&probs, &sample) > 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (probs, sample) = setup();
        let grad = sq_risk_gradient_wrt_probs(&probs, &sample);
        let h = 1e-6;
        for r in 0..probs.rows() {
            for c in 0..probs.cols() {
                let mut plus = probs.clone();
                plus[(r, c)] += h;
                let mut minus = probs.clone();
                minus[(r, c)] -= h;
                let numeric =
                    (sq_risk_score(&plus, &sample) - sq_risk_score(&minus, &sample)) / (2.0 * h);
                assert!(
                    (numeric - grad[(r, c)]).abs() < 1e-4 * numeric.abs().max(1.0),
                    "({r},{c}): numeric {numeric} vs analytic {}",
                    grad[(r, c)]
                );
            }
        }
    }

    #[test]
    fn identical_predictions_give_zero_score() {
        let (_, sample) = setup();
        let probs = Matrix::filled(6, 2, 0.5);
        assert!(sq_risk_score(&probs, &sample).abs() < 1e-9);
    }
}
