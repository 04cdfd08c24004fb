//! A generic sparse matrix in compressed-sparse-row form.
//!
//! Used both for normalised adjacency operators (`Â`) and for the Jaccard
//! similarity matrix `S` / its Laplacian `L_S`.

use ppfr_linalg::{par_row_blocks, Matrix};

/// Rows per parallel work item in [`SparseMatrix::matmul_dense_into`]: one
/// block of output rows amortises a dispatch over several CSR row sweeps,
/// which keeps per-item overhead low on power-law graphs full of short rows.
/// A fixed constant (never derived from the thread count) so blocking cannot
/// affect results.
const SPMM_BLOCK_ROWS: usize = 16;

/// One output row of a sparse × dense product given the row's CSR slices;
/// shared by [`SparseMatrix::matmul_dense`] and the streamed-bias path in
/// `ppfr_fairness` so both run the exact same floating-point chain.
///
/// Runs as a 4-wide microkernel over the row's stored entries: groups of
/// four nonzero values gather their four dense rows and fuse the
/// contributions into one left-associative update per output element —
/// bit-identical to the four sequential scalar adds, with four independent
/// multiplies for the autovectoriser.  Groups containing an explicit zero
/// fall back to the per-entry skip loop (`0 × NaN` must still vanish exactly
/// as before).
#[inline]
pub fn spmm_row_kernel(cols: &[usize], vals: &[f64], dense: &Matrix, out_row: &mut [f64]) {
    let mut i = 0;
    while i + 4 <= vals.len() {
        let (v0, v1, v2, v3) = (vals[i], vals[i + 1], vals[i + 2], vals[i + 3]);
        if v0 != 0.0 && v1 != 0.0 && v2 != 0.0 && v3 != 0.0 {
            let d0 = dense.row(cols[i]);
            let d1 = dense.row(cols[i + 1]);
            let d2 = dense.row(cols[i + 2]);
            let d3 = dense.row(cols[i + 3]);
            for ((((o, &e0), &e1), &e2), &e3) in out_row.iter_mut().zip(d0).zip(d1).zip(d2).zip(d3)
            {
                *o = *o + v0 * e0 + v1 * e1 + v2 * e2 + v3 * e3;
            }
        } else {
            for t in i..i + 4 {
                let v = vals[t];
                if v == 0.0 {
                    continue;
                }
                let d_row = dense.row(cols[t]);
                for (o, &d) in out_row.iter_mut().zip(d_row.iter()) {
                    *o += v * d;
                }
            }
        }
        i += 4;
    }
    for t in i..vals.len() {
        let v = vals[t];
        if v == 0.0 {
            continue;
        }
        let d_row = dense.row(cols[t]);
        for (o, &d) in out_row.iter_mut().zip(d_row.iter()) {
            *o += v * d;
        }
    }
}

/// Sparse matrix in CSR format with `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n_rows: usize,
    n_cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes the entries of row `r`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets.  Duplicate cells
    /// are summed; explicit zeros are kept (callers filter when they care).
    pub fn from_triplets(n_rows: usize, n_cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_rows];
        for &(r, c, v) in triplets {
            assert!(r < n_rows && c < n_cols, "triplet ({r},{c}) out of bounds");
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = 0.0;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let out = Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        };
        out.debug_validate();
        out
    }

    /// Builds a CSR matrix directly from its raw parts.
    ///
    /// Every row's column indices must already be sorted, duplicate-free and
    /// in bounds — the blocked SpMM and streamed-Laplacian kernels silently
    /// miscompute on malformed CSR, so this is checked by
    /// [`SparseMatrix::debug_validate`] (debug builds only).
    ///
    /// # Panics
    /// Panics when `row_ptr` is not a monotone cover of `col_idx`, or (debug
    /// builds) when any row's columns are unsorted, duplicated or out of
    /// bounds.
    pub fn from_csr_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            row_ptr.len(),
            n_rows + 1,
            "row_ptr must have n_rows+1 entries"
        );
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        assert_eq!(
            *row_ptr.last().expect("row_ptr is non-empty"),
            col_idx.len(),
            "row_ptr must cover all entries"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be monotone"
        );
        let out = Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        };
        out.debug_validate();
        out
    }

    /// Debug-build structural check: every row's column indices are sorted,
    /// duplicate-free and within `n_cols`.
    fn debug_validate(&self) {
        if cfg!(debug_assertions) {
            for r in 0..self.n_rows {
                let cols = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
                debug_assert!(
                    cols.windows(2).all(|w| w[0] < w[1]),
                    "row {r} has unsorted or duplicate column indices"
                );
                debug_assert!(
                    cols.iter().all(|&c| c < self.n_cols),
                    "row {r} has a column index out of bounds"
                );
            }
        }
    }

    /// An all-zero sparse matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over `(col, value)` of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Value at `(r, c)` (zero when not stored).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.row(r).find(|&(cc, _)| cc == c).map_or(0.0, |(_, v)| v)
    }

    /// Iterator over every stored `(row, col, value)` triplet.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n_rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// One output row of the sparse × dense product, through the shared
    /// [`spmm_row_kernel`].
    #[inline]
    fn spmm_row_into(&self, r: usize, dense: &Matrix, out_row: &mut [f64]) {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        spmm_row_kernel(
            &self.col_idx[start..end],
            &self.values[start..end],
            dense,
            out_row,
        );
    }

    fn spmm_check(&self, dense: &Matrix) {
        assert_eq!(
            self.n_cols,
            dense.rows(),
            "spmm dimension mismatch: {}x{} * {}x{}",
            self.n_rows,
            self.n_cols,
            dense.rows(),
            dense.cols()
        );
    }

    /// Sparse × dense product, parallelised over [`SPMM_BLOCK_ROWS`]-row
    /// output blocks via the shared `ppfr_linalg::parallel` idiom.
    pub fn matmul_dense(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_dense_into(dense, &mut out);
        out
    }

    /// [`SparseMatrix::matmul_dense`] writing into a caller-owned buffer
    /// (resized as needed; allocation-free when the shape already matches).
    pub fn matmul_dense_into(&self, dense: &Matrix, out: &mut Matrix) {
        self.spmm_check(dense);
        let cols = dense.cols();
        out.resize_to(self.n_rows, cols);
        if cols == 0 || self.n_rows == 0 {
            return;
        }
        out.as_mut_slice().fill(0.0);
        par_row_blocks(
            out.as_mut_slice(),
            cols,
            SPMM_BLOCK_ROWS,
            |first_row, block| {
                for (dr, out_row) in block.chunks_mut(cols).enumerate() {
                    self.spmm_row_into(first_row + dr, dense, out_row);
                }
            },
        );
    }

    /// Transposed sparse × dense product (`selfᵀ * dense`) without building the
    /// transpose explicitly, written into a caller-owned buffer.  Serial by
    /// construction: the scatter over output rows follows the CSR layout of
    /// `self`, which keeps the accumulation order fixed.
    pub fn transpose_matmul_dense_into(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(self.n_rows, dense.rows(), "spmmᵀ dimension mismatch");
        let cols = dense.cols();
        out.resize_to(self.n_cols, cols);
        out.as_mut_slice().fill(0.0);
        for r in 0..self.n_rows {
            let d_row = dense.row(r);
            for (c, v) in self.row(r) {
                if v == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(c);
                for (o, &d) in out_row.iter_mut().zip(d_row.iter()) {
                    *o += v * d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_linalg::parallel::with_forced_threads;

    /// Test helpers of the crate's unit tests.
    impl SparseMatrix {
        /// Converts to a dense matrix.
        pub(crate) fn to_dense(&self) -> Matrix {
            let mut out = Matrix::zeros(self.n_rows, self.n_cols);
            for (r, c, v) in self.iter() {
                out[(r, c)] += v;
            }
            out
        }

        /// Sum of all stored values in row `r`.
        pub(crate) fn row_sum(&self, r: usize) -> f64 {
            self.row(r).map(|(_, v)| v).sum()
        }
    }

    fn sample() -> SparseMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    #[test]
    fn get_returns_stored_and_zero_values() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(m.get(0, 1), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = sample();
        let d = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let sparse_result = m.matmul_dense(&d);
        let dense_result = m.to_dense().matmul(&d);
        for (a, b) in sparse_result.as_slice().iter().zip(dense_result.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_spmm_matches_dense() {
        let m = sample();
        let d = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        // A stale, wrongly shaped buffer must be fully overwritten.
        let mut got = Matrix::filled(4, 4, 9.0);
        m.transpose_matmul_dense_into(&d, &mut got);
        let want = m.to_dense().transpose().matmul(&d);
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_spmm_equals_serial_exactly() {
        // 40x40 ring-with-chords sparse matrix times a 40x5 dense matrix:
        // 40 rows reach the pool at 2 and 4 threads.
        let n = 40;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, (i + 1) % n, 1.0 + i as f64 / 10.0));
            triplets.push((i, (i * 7 + 3) % n, -0.5));
        }
        let m = SparseMatrix::from_triplets(n, n, &triplets);
        let dense = Matrix::from_vec(n, 5, (0..n * 5).map(|v| (v as f64).cos()).collect());
        let serial = with_forced_threads(1, || m.matmul_dense(&dense));
        let mut buf = Matrix::zeros(0, 0);
        for threads in [2, 4] {
            let parallel = with_forced_threads(threads, || m.matmul_dense(&dense));
            assert_eq!(
                parallel.as_slice(),
                serial.as_slice(),
                "matmul_dense differs at {threads} threads"
            );
            with_forced_threads(threads, || m.matmul_dense_into(&dense, &mut buf));
            assert_eq!(
                buf.as_slice(),
                serial.as_slice(),
                "matmul_dense_into differs at {threads} threads"
            );
        }
    }

    /// Scalar single-threaded sparse × dense product: one multiply-add per
    /// stored entry, in CSR order, skipping explicit zeros.  The reference
    /// the 4-wide [`spmm_row_kernel`] must match bit for bit.
    fn scalar_spmm(m: &SparseMatrix, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(m.n_rows(), dense.cols());
        for r in 0..m.n_rows() {
            let out_row = out.row_mut(r);
            for (c, v) in m.row(r) {
                if v == 0.0 {
                    continue;
                }
                for (o, &d) in out_row.iter_mut().zip(dense.row(c)) {
                    *o += v * d;
                }
            }
        }
        out
    }

    #[test]
    fn spmm_is_bit_identical_to_the_scalar_oracle() {
        // Ten nonzero entries per row: two fused 4-wide groups — the second
        // adds onto a nonzero output, where a reassociated update would
        // round differently — plus a scalar tail.  37 rows reach the pool at
        // 4 threads.
        let n = 37;
        let mut triplets = Vec::new();
        for i in 0..n {
            for s in 0..10 {
                triplets.push((i, (i * 5 + s * 7 + 1) % n, 0.25 + (i + s) as f64 / 10.0));
            }
        }
        let m = SparseMatrix::from_triplets(n, n, &triplets);
        let d = Matrix::from_vec(n, 8, (0..n * 8).map(|v| (v as f64 * 0.7).sin()).collect());
        let oracle = scalar_spmm(&m, &d);
        let mut buf = Matrix::zeros(0, 0);
        for threads in [1, 4] {
            let got = with_forced_threads(threads, || m.matmul_dense(&d));
            assert_eq!(
                got.as_slice(),
                oracle.as_slice(),
                "matmul_dense differs at {threads} threads"
            );
            with_forced_threads(threads, || m.matmul_dense_into(&d, &mut buf));
            assert_eq!(
                buf.as_slice(),
                oracle.as_slice(),
                "matmul_dense_into differs at {threads} threads"
            );
        }
    }

    #[test]
    fn into_variants_match_allocating_versions_bitwise() {
        let m = sample();
        let d = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut buf = Matrix::zeros(7, 7);
        let want = m.matmul_dense(&d);
        for threads in [1, 2, 4] {
            with_forced_threads(threads, || m.matmul_dense_into(&d, &mut buf));
            assert_eq!(
                buf.as_slice(),
                want.as_slice(),
                "differs at {threads} threads"
            );
            assert_eq!(buf.shape(), want.shape());
        }

        // Buffer reuse across calls must not leak previous contents.
        m.matmul_dense_into(&d, &mut buf);
        assert_eq!(buf.as_slice(), want.as_slice());
    }

    #[test]
    fn row_sum_counts_only_that_row() {
        let m = sample();
        assert_eq!(m.row_sum(0), 3.0);
        assert_eq!(m.row_sum(1), 0.0);
        assert_eq!(m.row_sum(2), 7.0);
    }

    #[test]
    fn from_csr_parts_roundtrips_from_triplets() {
        let m = sample();
        let rebuilt = SparseMatrix::from_csr_parts(
            3,
            3,
            m.row_ptr.clone(),
            m.col_idx.clone(),
            m.values.clone(),
        );
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn spmm_row_kernel_matches_matmul_row() {
        let m = sample();
        let d = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let full = m.matmul_dense(&d);
        for r in 0..3 {
            let start = m.row_ptr[r];
            let end = m.row_ptr[r + 1];
            let mut out = vec![0.0; 2];
            spmm_row_kernel(&m.col_idx[start..end], &m.values[start..end], &d, &mut out);
            assert_eq!(out.as_slice(), full.row(r));
        }
    }

    #[test]
    #[should_panic(expected = "row_ptr must cover all entries")]
    fn from_csr_parts_rejects_short_row_ptr_cover() {
        let _ = SparseMatrix::from_csr_parts(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr must be monotone")]
    fn from_csr_parts_rejects_non_monotone_row_ptr() {
        let _ = SparseMatrix::from_csr_parts(2, 2, vec![2, 0, 2], vec![0, 1], vec![1.0, 2.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unsorted or duplicate column indices")]
    fn from_csr_parts_rejects_unsorted_columns_in_debug() {
        let _ = SparseMatrix::from_csr_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "unsorted or duplicate column indices")]
    fn from_csr_parts_rejects_duplicate_columns_in_debug() {
        let _ = SparseMatrix::from_csr_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "column index out of bounds")]
    fn from_csr_parts_rejects_out_of_bounds_column_in_debug() {
        let _ = SparseMatrix::from_csr_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }
}
