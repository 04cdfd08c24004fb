//! Activation functions, row-wise softmax and their gradients.

use crate::parallel::par_chunks;
use crate::Matrix;

/// Rectified linear unit applied element-wise, written into a caller-owned
/// buffer (resized as needed; allocation-free when the shape already
/// matches).
pub fn relu_into(m: &Matrix, out: &mut Matrix) {
    m.map_into(out, |v| if v > 0.0 { v } else { 0.0 });
}

/// Back-propagates `upstream` through ReLU: the gradient mask evaluated at
/// the pre-activation `pre`, written into a caller-owned buffer.
pub fn relu_grad_into(pre: &Matrix, upstream: &Matrix, out: &mut Matrix) {
    pre.zip_into(upstream, out, |p, u| if p > 0.0 { u } else { 0.0 });
}

/// Leaky ReLU with negative slope `alpha` (GAT uses `alpha = 0.2`).
pub fn leaky_relu(v: f64, alpha: f64) -> f64 {
    if v > 0.0 {
        v
    } else {
        alpha * v
    }
}

/// Derivative of the leaky ReLU at pre-activation `v`.
pub fn leaky_relu_grad(v: f64, alpha: f64) -> f64 {
    if v > 0.0 {
        1.0
    } else {
        alpha
    }
}

/// One softmax row in place; shared by the parallel and serial entry points
/// so both produce bit-identical results.
///
/// The max pass runs 4-laned: each lane folds every fourth element and the
/// lane maxima combine at the end.  `f64::max` is exact (no rounding) and
/// order-independent on the values that reach the subtraction — NaNs are
/// ignored by every ordering, and a `±0.0` sign flip cannot change
/// `(v - max).exp()` — so the reassociated reduction stays bit-identical to
/// the sequential fold while exposing four independent compares per step.
/// The exp/sum pass stays sequential: float addition does *not* reassociate.
#[inline]
fn softmax_row_inplace(row: &mut [f64]) {
    let mut chunks = row.chunks_exact(4);
    let mut lanes = [f64::NEG_INFINITY; 4];
    for c in chunks.by_ref() {
        lanes[0] = lanes[0].max(c[0]);
        lanes[1] = lanes[1].max(c[1]);
        lanes[2] = lanes[2].max(c[2]);
        lanes[3] = lanes[3].max(c[3]);
    }
    let mut max = lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]));
    for &v in chunks.remainder() {
        max = max.max(v);
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Numerically-stable row-wise softmax, parallelised over rows: each row of
/// the result sums to one.
pub fn row_softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    let cols = out.cols();
    if cols == 0 || out.rows() == 0 {
        return out;
    }
    par_chunks(out.as_mut_slice(), cols, |_, row| softmax_row_inplace(row));
    out
}

/// [`row_softmax`] writing into a caller-owned buffer (resized as needed;
/// allocation-free when the shape already matches).
pub fn row_softmax_into(logits: &Matrix, out: &mut Matrix) {
    out.copy_from(logits);
    let cols = out.cols();
    if cols == 0 || out.rows() == 0 {
        return;
    }
    par_chunks(out.as_mut_slice(), cols, |_, row| softmax_row_inplace(row));
}

/// Back-propagates a gradient w.r.t. softmax probabilities `d_probs` to a
/// gradient w.r.t. the logits, given the probabilities `probs` themselves,
/// written into a caller-owned buffer; parallelised over rows.
///
/// For each row: `dZ_c = P_c * (dP_c - sum_k dP_k * P_k)`.
pub fn row_softmax_backward_into(probs: &Matrix, d_probs: &Matrix, out: &mut Matrix) {
    assert_eq!(probs.shape(), d_probs.shape(), "shape mismatch");
    out.resize_to(probs.rows(), probs.cols());
    let cols = probs.cols();
    if cols == 0 || probs.rows() == 0 {
        return;
    }
    par_chunks(out.as_mut_slice(), cols, |r, out_row| {
        let p = probs.row(r);
        let dp = d_probs.row(r);
        let inner: f64 = p.iter().zip(dp.iter()).map(|(&pi, &di)| pi * di).sum();
        for (c, o) in out_row.iter_mut().enumerate() {
            *o = p[c] * (dp[c] - inner);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn relu_zeroes_negative_entries() {
        let m = Matrix::from_rows(&[vec![-1.0, 2.0], vec![0.0, -3.0]]);
        let mut r = Matrix::filled(3, 3, 7.0);
        relu_into(&m, &mut r);
        assert_eq!(r.shape(), (2, 2));
        assert_eq!(r.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn relu_grad_masks_by_preactivation() {
        let pre = Matrix::from_rows(&[vec![-1.0, 2.0]]);
        let up = Matrix::from_rows(&[vec![5.0, 5.0]]);
        let mut g = Matrix::filled(2, 2, 7.0);
        relu_grad_into(&pre, &up, &mut g);
        assert_eq!(g.shape(), (1, 2));
        assert_eq!(g.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn leaky_relu_and_grad() {
        assert_eq!(leaky_relu(2.0, 0.2), 2.0);
        assert_eq!(leaky_relu(-2.0, 0.2), -0.4);
        assert_eq!(leaky_relu_grad(2.0, 0.2), 1.0);
        assert_eq!(leaky_relu_grad(-2.0, 0.2), 0.2);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let p = row_softmax(&m);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!(approx_eq(s, 1.0, 1e-12));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[vec![101.0, 102.0, 103.0]]);
        let pa = row_softmax(&a);
        let pb = row_softmax(&b);
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert!(approx_eq(*x, *y, 1e-12));
        }
    }

    #[test]
    fn parallel_softmax_equals_serial_exactly() {
        let logits = Matrix::from_rows(
            &(0..40)
                .map(|r| (0..7).map(|c| ((r * 7 + c) as f64).sin() * 3.0).collect())
                .collect::<Vec<_>>(),
        );
        // 40 rows reach the pool at 2 and 4 threads.
        let serial = crate::parallel::with_forced_threads(1, || row_softmax(&logits));
        let mut buf = Matrix::zeros(0, 0);
        for threads in [2, 4] {
            let parallel = crate::parallel::with_forced_threads(threads, || row_softmax(&logits));
            assert_eq!(
                parallel.as_slice(),
                serial.as_slice(),
                "row_softmax differs at {threads} threads"
            );
            crate::parallel::with_forced_threads(threads, || row_softmax_into(&logits, &mut buf));
            assert_eq!(
                buf.as_slice(),
                serial.as_slice(),
                "row_softmax_into differs at {threads} threads"
            );
        }
    }

    #[test]
    fn into_variants_match_allocating_versions_bitwise() {
        let m = Matrix::from_rows(&[vec![-1.0, 2.0, 0.0], vec![3.0, -0.5, 1.5]]);
        let mut buf = Matrix::zeros(0, 0);
        let reference = row_softmax(&m);
        row_softmax_into(&m, &mut buf);
        assert_eq!(buf.as_slice(), reference.as_slice());
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let logits = Matrix::from_rows(&[vec![0.3, -0.7, 1.2]]);
        // Arbitrary smooth function of the probabilities: f(P) = sum c_i * P_i^2
        let coeff = [0.5, -1.5, 2.0];
        let f = |z: &Matrix| -> f64 {
            let p = row_softmax(z);
            p.row(0)
                .iter()
                .zip(coeff.iter())
                .map(|(&pi, &ci)| ci * pi * pi)
                .sum()
        };
        let probs = row_softmax(&logits);
        let d_probs = Matrix::from_rows(&[probs
            .row(0)
            .iter()
            .zip(coeff.iter())
            .map(|(&pi, &ci)| 2.0 * ci * pi)
            .collect::<Vec<_>>()]);
        let mut analytic = Matrix::zeros(0, 0);
        row_softmax_backward_into(&probs, &d_probs, &mut analytic);
        let h = 1e-6;
        for c in 0..3 {
            let mut plus = logits.clone();
            plus[(0, c)] += h;
            let mut minus = logits.clone();
            minus[(0, c)] -= h;
            let numeric = (f(&plus) - f(&minus)) / (2.0 * h);
            assert!(
                (numeric - analytic[(0, c)]).abs() < 1e-6,
                "col {c}: numeric {numeric} vs analytic {}",
                analytic[(0, c)]
            );
        }
    }
}
