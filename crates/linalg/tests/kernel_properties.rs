//! Property-based equivalence suite for the dense GEMM kernels: `matmul`,
//! `matmul_at_b` and `matmul_a_bt` (allocating and in-place) must be
//! **bit-identical** to a scalar zero-skip oracle — `matmul` directly, the
//! transpose-free products through `transpose()` — across arbitrary shapes
//! (including empty, `1×N` and `N×1` matrices) and at forced worker-thread
//! counts 1 and 4.  The oracle is the plain scalar loop the 4-wide
//! microkernels replaced; it is the only reference for them that does not
//! share their code.

use ppfr_linalg::parallel::with_forced_threads;
use ppfr_linalg::{
    relu_grad_into, relu_into, row_softmax, row_softmax_backward_into, row_softmax_into, Matrix,
};
use proptest::prelude::*;

/// Scalar single-threaded `A·B`: per output row, ascending `k`, skipping
/// zero coefficients of `A`, one scalar multiply-add per element (finite
/// operands assumed).
fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        let out_row = out.row_mut(r);
        for (k, &coeff) in a.row(r).iter().enumerate() {
            if coeff == 0.0 {
                continue;
            }
            for (o, &v) in out_row.iter_mut().zip(b.row(k)) {
                *o += coeff * v;
            }
        }
    }
    out
}

/// A fixed-shape case with no zero coefficients, so every 4-wide group takes
/// the fused update (the proptest's ReLU sparsity sends many groups down
/// the per-term skip loop instead), and enough rows that 4 forced threads
/// reach the pool.
#[test]
fn gemm_kernels_match_the_scalar_oracle_on_dense_inputs() {
    let dense = |rows: usize, cols: usize, seed: f64| {
        let data = (0..rows * cols)
            .map(|i| 0.25 + ((i as f64) * 0.7 + seed).sin().abs())
            .collect();
        Matrix::from_vec(rows, cols, data)
    };
    let (a, b, c, d) = (
        dense(67, 37, 0.3),
        dense(37, 13, 1.1),
        dense(67, 13, 2.2),
        dense(13, 37, 0.9),
    );
    let ab = scalar_matmul(&a, &b);
    let at_c = scalar_matmul(&a.transpose(), &c);
    let a_dt = scalar_matmul(&a, &d.transpose());
    let mut out = Matrix::zeros(0, 0);
    for threads in [1, 4] {
        let got = with_forced_threads(threads, || a.matmul(&b));
        assert_eq!(got.as_slice(), ab.as_slice(), "matmul at {threads} threads");
        with_forced_threads(threads, || a.matmul_into(&b, &mut out));
        assert_eq!(out.as_slice(), ab.as_slice(), "matmul_into at {threads}");
        let got = with_forced_threads(threads, || a.matmul_at_b(&c));
        assert_eq!(got.as_slice(), at_c.as_slice(), "matmul_at_b at {threads}");
        let got = with_forced_threads(threads, || a.matmul_a_bt(&d));
        assert_eq!(got.as_slice(), a_dt.as_slice(), "matmul_a_bt at {threads}");
    }
}

/// Strategy: a matrix of the given shape with finite entries and ReLU-like
/// sparsity (zeros are common, so the sparse fast paths actually fire).
fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f64..3.0, rows * cols).prop_map(move |mut data| {
        for v in &mut data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        Matrix::from_vec(rows, cols, data)
    })
}

/// Strategy: an `m×k` / `k×n` matmul pair, dimensions down to zero.
fn arb_mk_kn() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12)
        .prop_flat_map(|(m, k, n)| (arb_matrix(m, k), arb_matrix(k, n)))
}

/// Strategy: an `m×k` / `m×n` pair for `Aᵀ·B`.
fn arb_mk_mn() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12)
        .prop_flat_map(|(m, k, n)| (arb_matrix(m, k), arb_matrix(m, n)))
}

/// Strategy: an `m×k` / `n×k` pair for `A·Bᵀ`.
fn arb_mk_nk() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..12, 0usize..12, 0usize..12)
        .prop_flat_map(|(m, k, n)| (arb_matrix(m, k), arb_matrix(n, k)))
}

/// Strategy: two same-shaped matrices.
fn arb_same_shape(min_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (min_dim..8usize, min_dim..8usize).prop_flat_map(|(r, c)| (arb_matrix(r, c), arb_matrix(r, c)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_into_matches_serial_oracle(pair in arb_mk_kn()) {
        let (a, b) = pair;
        let oracle = scalar_matmul(&a, &b);
        let mut out = Matrix::zeros(3, 3);
        for threads in [1, 4] {
            let product = with_forced_threads(threads, || a.matmul(&b));
            prop_assert_eq!(product.as_slice(), oracle.as_slice());
            prop_assert_eq!(product.shape(), oracle.shape());
            with_forced_threads(threads, || a.matmul_into(&b, &mut out));
            prop_assert_eq!(out.as_slice(), oracle.as_slice());
            prop_assert_eq!(out.shape(), oracle.shape());
        }
    }

    #[test]
    fn matmul_at_b_matches_transpose_oracle(pair in arb_mk_mn()) {
        let (a, b) = pair;
        let oracle = scalar_matmul(&a.transpose(), &b);
        let mut out = Matrix::zeros(1, 1);
        for threads in [1, 4] {
            with_forced_threads(threads, || a.matmul_at_b_into(&b, &mut out));
            prop_assert_eq!(out.as_slice(), oracle.as_slice());
            prop_assert_eq!(out.shape(), oracle.shape());
        }
        prop_assert_eq!(a.matmul_at_b(&b).as_slice(), oracle.as_slice());
    }

    #[test]
    fn matmul_a_bt_matches_transpose_oracle(pair in arb_mk_nk()) {
        let (a, b) = pair;
        let oracle = scalar_matmul(&a, &b.transpose());
        let mut out = Matrix::zeros(1, 1);
        for threads in [1, 4] {
            with_forced_threads(threads, || a.matmul_a_bt_into(&b, &mut out));
            prop_assert_eq!(out.as_slice(), oracle.as_slice());
            prop_assert_eq!(out.shape(), oracle.shape());
        }
        prop_assert_eq!(a.matmul_a_bt(&b).as_slice(), oracle.as_slice());
    }

    #[test]
    fn elementwise_into_kernels_match_oracles(pair in arb_same_shape(0)) {
        let (pre, up) = pair;
        let mut out = Matrix::zeros(2, 2);

        relu_into(&pre, &mut out);
        prop_assert_eq!(out.shape(), pre.shape());
        for (&o, &p) in out.as_slice().iter().zip(pre.as_slice()) {
            prop_assert_eq!(o, if p > 0.0 { p } else { 0.0 });
        }

        relu_grad_into(&pre, &up, &mut out);
        prop_assert_eq!(out.shape(), pre.shape());
        for ((&o, &p), &u) in out.as_slice().iter().zip(pre.as_slice()).zip(up.as_slice()) {
            prop_assert_eq!(o, if p > 0.0 { u } else { 0.0 });
        }

        let oracle = row_softmax(&pre);
        for threads in [1, 4] {
            with_forced_threads(threads, || row_softmax_into(&pre, &mut out));
            prop_assert_eq!(out.as_slice(), oracle.as_slice());
        }

        let mut d_oracle = Matrix::zeros(0, 0);
        with_forced_threads(1, || row_softmax_backward_into(&oracle, &up, &mut d_oracle));
        prop_assert_eq!(d_oracle.shape(), pre.shape());
        with_forced_threads(4, || row_softmax_backward_into(&oracle, &up, &mut out));
        prop_assert_eq!(out.as_slice(), d_oracle.as_slice());
    }

    #[test]
    fn zip_map_col_and_broadcast_match_oracles(pair in arb_same_shape(1)) {
        let (a, b) = pair;
        let (rows, cols) = a.shape();
        let mut out = Matrix::zeros(2, 2);

        a.zip_into(&b, &mut out, |x, y| x - 2.0 * y);
        prop_assert_eq!(out.as_slice(), a.zip_with(&b, |x, y| x - 2.0 * y).as_slice());

        let mut sum = a.clone();
        sum.add_inplace(&b);
        prop_assert_eq!(sum.as_slice(), a.add(&b).as_slice());

        let bias: Vec<f64> = (0..cols).map(|c| c as f64 - 1.5).collect();
        let mut inplace = a.clone();
        inplace.add_row_broadcast_inplace(&bias);
        prop_assert_eq!(inplace.as_slice(), a.add_row_broadcast(&bias).as_slice());

        let mut col_buf = vec![0.0; rows];
        for c in 0..cols {
            a.col_into(c, &mut col_buf);
            prop_assert_eq!(&col_buf, &a.col(c));
        }
    }
}
