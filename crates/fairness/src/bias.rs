//! The InFoRM individual-fairness bias `Tr(Pᵀ L_S P)` and its gradient.

use ppfr_graph::SparseMatrix;
use ppfr_linalg::Matrix;

/// InFoRM bias of predictions `probs` under the similarity Laplacian `l_s`,
/// normalised by the number of nodes:
/// `f_bias = Tr(Pᵀ L_S P) / n`.
///
/// Lower values mean fairer predictions (Definition 1).
pub fn bias(probs: &Matrix, l_s: &SparseMatrix) -> f64 {
    assert_eq!(
        probs.rows(),
        l_s.n_rows(),
        "Laplacian must match prediction rows"
    );
    let lp = l_s.matmul_dense(probs);
    let mut tr = 0.0;
    for r in 0..probs.rows() {
        tr += probs.row_dot(r, &lp, r);
    }
    tr / probs.rows() as f64
}

/// Gradient of `Tr(Pᵀ L_S P) / n` w.r.t. `P`: `2 L_S P / n` (the Laplacian is
/// symmetric).
pub fn bias_gradient_wrt_probs(probs: &Matrix, l_s: &SparseMatrix) -> Matrix {
    l_s.matmul_dense(probs).scale(2.0 / probs.rows() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_graph::{jaccard_similarity, similarity_laplacian, Graph};

    /// Equivalent pairwise form `½ Σ_{ij} S_ij ‖P_i − P_j‖² / n` computed
    /// directly from the similarity matrix: the oracle of [`bias`].
    fn pairwise_bias(probs: &Matrix, similarity: &SparseMatrix) -> f64 {
        assert_eq!(probs.rows(), similarity.n_rows());
        let mut total = 0.0;
        for (i, j, s) in similarity.iter() {
            if i == j {
                continue;
            }
            let mut d2 = 0.0;
            for c in 0..probs.cols() {
                let d = probs[(i, c)] - probs[(j, c)];
                d2 += d * d;
            }
            total += 0.5 * s * d2;
        }
        total / probs.rows() as f64
    }

    fn toy() -> (Graph, SparseMatrix, SparseMatrix) {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)]);
        let s = jaccard_similarity(&g);
        let l = similarity_laplacian(&s);
        (g, s, l)
    }

    #[test]
    fn uniform_predictions_have_zero_bias() {
        let (_, _, l) = toy();
        let probs = Matrix::filled(5, 3, 1.0 / 3.0);
        assert!(bias(&probs, &l).abs() < 1e-12);
    }

    #[test]
    fn laplacian_and_pairwise_forms_agree() {
        let (_, s, l) = toy();
        let probs = Matrix::from_rows(&[
            vec![0.9, 0.1],
            vec![0.2, 0.8],
            vec![0.5, 0.5],
            vec![0.7, 0.3],
            vec![0.1, 0.9],
        ]);
        let a = bias(&probs, &l);
        let b = pairwise_bias(&probs, &s);
        assert!((a - b).abs() < 1e-9, "trace form {a} vs pairwise form {b}");
        assert!(a > 0.0);
    }

    #[test]
    fn bias_is_non_negative_for_arbitrary_predictions() {
        let (_, _, l) = toy();
        let probs = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.5, 0.5],
        ]);
        assert!(bias(&probs, &l) >= 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (_, _, l) = toy();
        let probs = Matrix::from_rows(&[
            vec![0.6, 0.4],
            vec![0.3, 0.7],
            vec![0.5, 0.5],
            vec![0.8, 0.2],
            vec![0.45, 0.55],
        ]);
        let grad = bias_gradient_wrt_probs(&probs, &l);
        let h = 1e-6;
        for r in 0..5 {
            for c in 0..2 {
                let mut plus = probs.clone();
                plus[(r, c)] += h;
                let mut minus = probs.clone();
                minus[(r, c)] -= h;
                let numeric = (bias(&plus, &l) - bias(&minus, &l)) / (2.0 * h);
                assert!(
                    (numeric - grad[(r, c)]).abs() < 1e-6,
                    "({r},{c}): numeric {numeric} vs analytic {}",
                    grad[(r, c)]
                );
            }
        }
    }

    #[test]
    fn smoothing_similar_nodes_reduces_bias() {
        let (_, _, l) = toy();
        let sharp = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ]);
        let smooth = Matrix::from_rows(&[
            vec![0.6, 0.4],
            vec![0.5, 0.5],
            vec![0.6, 0.4],
            vec![0.5, 0.5],
            vec![0.6, 0.4],
        ]);
        assert!(bias(&smooth, &l) < bias(&sharp, &l));
    }
}
