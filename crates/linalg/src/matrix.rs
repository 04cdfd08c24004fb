//! A small row-major dense matrix of `f64`.

use crate::parallel::{par_chunks, par_row_blocks};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Output rows per block in the cache-blocked `Aᵀ·B` kernel: one block shares
/// a single sweep over the packed rows of `B`.  A fixed constant (never
/// derived from the thread count) so results are identical across forced
/// `PPFR_NUM_THREADS`.
const AT_B_BLOCK_ROWS: usize = 8;

/// Row-major dense matrix of `f64`.
///
/// This is the only tensor type in the PPFR stack.  Rows are node/sample
/// indices, columns are feature/class indices.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested rows (convenient in tests).
    ///
    /// # Panics
    /// Panics when rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for r in rows {
            assert_eq!(r.len(), n_cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Self {
            rows: n_rows,
            cols: n_cols,
            data,
        }
    }

    /// Glorot/Xavier-style random initialisation used for GNN weights.
    pub fn glorot<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let scale = (6.0 / (rows + cols) as f64).sqrt();
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.gen_range(-scale..scale);
        }
        m
    }

    /// Gaussian random matrix (used by synthetic feature generators).
    pub fn gaussian<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        mean: f64,
        std: f64,
        rng: &mut R,
    ) -> Self {
        let dist = Normal::new(mean, std).expect("std must be finite and non-negative");
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = dist.sample(rng);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.col_into(c, &mut out);
        out
    }

    /// Writes column `c` into `out` without allocating.
    ///
    /// # Panics
    /// Panics when `out.len() != rows` or `c` is out of bounds.
    pub fn col_into(&self, c: usize, out: &mut [f64]) {
        assert!(
            c < self.cols,
            "column {c} out of bounds for {} cols",
            self.cols
        );
        assert_eq!(out.len(), self.rows, "column buffer length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.data[r * self.cols + c];
        }
    }

    /// Reshapes the matrix to `rows × cols`, reallocating only when the new
    /// element count exceeds the current capacity.  Existing contents are
    /// unspecified afterwards — every `*_into` kernel fully overwrites its
    /// output, so workspace buffers can be resized freely.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        if self.rows == rows && self.cols == cols {
            return;
        }
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Overwrites `self` with the shape and contents of `other`.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.resize_to(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// One output row of the dense product: `out_row += a_row * other`, with a
    /// sparse fast path that skips zero coefficients.  Shared by the parallel
    /// and serial matmul so both produce bit-identical results.
    ///
    /// The zero-skip is only valid when every row of `other` reachable from a
    /// zero coefficient is finite (`0 × NaN = NaN`, `0 × ∞ = NaN` under
    /// IEEE-754); the entry points dispatch to
    /// [`Matrix::matmul_row_into_exact`] when `other` contains non-finite
    /// values.
    /// The inner loop is a packed 4-wide microkernel over `k`: when a group
    /// of four consecutive coefficients is entirely nonzero, their four
    /// `b`-row contributions are fused into one sweep of `out_row`
    /// (`o + t₀ + t₁ + t₂ + t₃` — left-associative, hence bit-identical to
    /// the four sequential adds of the scalar loop, while giving the
    /// autovectoriser four independent multiplies per output element).
    /// Groups containing a zero fall back to the per-term skip loop, so the
    /// ReLU-sparse activations that motivate the skip keep their fast path.
    #[inline]
    fn matmul_row_into(a_row: &[f64], other: &Matrix, out_row: &mut [f64]) {
        let mut groups = a_row.chunks_exact(4);
        let mut k = 0;
        for group in groups.by_ref() {
            let (c0, c1, c2, c3) = (group[0], group[1], group[2], group[3]);
            if c0 != 0.0 && c1 != 0.0 && c2 != 0.0 && c3 != 0.0 {
                let b0 = other.row(k);
                let b1 = other.row(k + 1);
                let b2 = other.row(k + 2);
                let b3 = other.row(k + 3);
                for ((((o, &v0), &v1), &v2), &v3) in
                    out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *o = *o + c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3;
                }
            } else {
                for (dk, &a) in group.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = other.row(k + dk);
                    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a * b;
                    }
                }
            }
            k += 4;
        }
        for (dk, &a) in groups.remainder().iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let b_row = other.row(k + dk);
            for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a * b;
            }
        }
    }

    /// IEEE-exact variant of [`Matrix::matmul_row_into`]: no zero-skip, so
    /// products with non-finite operands follow the mathematical result
    /// (`0 × NaN` and `0 × ∞` contribute NaN instead of silently vanishing).
    /// Uses the always-fused 4-wide microkernel (left-associative adds keep
    /// it bit-identical to the sequential scalar loop).
    #[inline]
    fn matmul_row_into_exact(a_row: &[f64], other: &Matrix, out_row: &mut [f64]) {
        let mut groups = a_row.chunks_exact(4);
        let mut k = 0;
        for group in groups.by_ref() {
            let (c0, c1, c2, c3) = (group[0], group[1], group[2], group[3]);
            let b0 = other.row(k);
            let b1 = other.row(k + 1);
            let b2 = other.row(k + 2);
            let b3 = other.row(k + 3);
            for ((((o, &v0), &v1), &v2), &v3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
            {
                *o = *o + c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3;
            }
            k += 4;
        }
        for (dk, &a) in groups.remainder().iter().enumerate() {
            let b_row = other.row(k + dk);
            for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a * b;
            }
        }
    }

    #[inline]
    fn matmul_row_dispatch(a_row: &[f64], other: &Matrix, exact: bool, out_row: &mut [f64]) {
        if exact {
            Self::matmul_row_into_exact(a_row, other, out_row);
        } else {
            Self::matmul_row_into(a_row, other, out_row);
        }
    }

    fn matmul_check(&self, other: &Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// Dense matrix product `self * other`, parallelised over output rows via
    /// the shared [`crate::parallel`] idiom.
    ///
    /// Non-finite operands follow IEEE-754 semantics: the sparse zero-skip
    /// fast path is only taken when `other` is entirely finite, so `0 × NaN`
    /// and `0 × ∞` propagate NaN into the product.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a caller-owned output buffer (resized
    /// as needed; allocation-free when the shape already matches).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_check(other);
        out.resize_to(self.rows, other.cols);
        if out.data.is_empty() {
            return;
        }
        out.data.fill(0.0);
        let exact = other.has_non_finite();
        let oc = other.cols;
        par_chunks(&mut out.data, oc, |r, out_row| {
            Self::matmul_row_dispatch(self.row(r), other, exact, out_row);
        });
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// Bit-identical to `self.transpose().matmul(other)`: each output element
    /// accumulates its terms in the same order with the same zero-skip (and
    /// the same IEEE-exact fallback when `other` contains non-finite values).
    ///
    /// # Panics
    /// Panics when `self.rows() != other.rows()`.
    pub fn matmul_at_b(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_at_b_into(other, &mut out);
        out
    }

    fn at_b_check(&self, other: &Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at_b dimension mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// One cache block of the `Aᵀ·B` product: `block` holds whole output rows
    /// starting at `first_row` (its length is always a multiple of `n`), and
    /// the whole block shares one sweep over the packed rows of `other`.  Per
    /// output element the accumulation order (ascending `i`, zero-skip on
    /// `self[(i, k)]`) is independent of the blocking, so any block size
    /// gives bit-identical results.
    ///
    /// The `i` loop runs as a packed 4-wide microkernel: four consecutive
    /// input rows are swept together, and when a block row's four
    /// coefficients are all usable (exact mode, or all nonzero) their
    /// contributions fuse into one left-associative update per output
    /// element — bit-identical to the four sequential scalar adds, but with
    /// four independent multiplies for the autovectoriser.  Groups with a
    /// zero coefficient fall back to the per-`i` skip loop.
    #[inline]
    fn at_b_block(&self, other: &Matrix, exact: bool, first_row: usize, block: &mut [f64]) {
        let n = other.cols;
        block.fill(0.0);
        let mut i = 0;
        while i + 4 <= self.rows {
            let a = [
                self.row(i),
                self.row(i + 1),
                self.row(i + 2),
                self.row(i + 3),
            ];
            let b0 = other.row(i);
            let b1 = other.row(i + 1);
            let b2 = other.row(i + 2);
            let b3 = other.row(i + 3);
            for (r, out_row) in block.chunks_mut(n).enumerate() {
                let c0 = a[0][first_row + r];
                let c1 = a[1][first_row + r];
                let c2 = a[2][first_row + r];
                let c3 = a[3][first_row + r];
                if exact || (c0 != 0.0 && c1 != 0.0 && c2 != 0.0 && c3 != 0.0) {
                    for ((((o, &v0), &v1), &v2), &v3) in
                        out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        *o = *o + c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3;
                    }
                } else {
                    for (coeff, b_row) in [(c0, b0), (c1, b1), (c2, b2), (c3, b3)] {
                        if coeff == 0.0 {
                            continue;
                        }
                        for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                            *o += coeff * b;
                        }
                    }
                }
            }
            i += 4;
        }
        while i < self.rows {
            let a_row = self.row(i);
            let b_row = other.row(i);
            for (r, out_row) in block.chunks_mut(n).enumerate() {
                let coeff = a_row[first_row + r];
                if !exact && coeff == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += coeff * b;
                }
            }
            i += 1;
        }
    }

    /// [`Matrix::matmul_at_b`] writing into a caller-owned buffer, cache
    /// blocked over [`AT_B_BLOCK_ROWS`] output rows and parallelised over
    /// blocks.
    pub fn matmul_at_b_into(&self, other: &Matrix, out: &mut Matrix) {
        self.at_b_check(other);
        out.resize_to(self.cols, other.cols);
        if out.data.is_empty() {
            return;
        }
        let exact = other.has_non_finite();
        let n = other.cols;
        par_row_blocks(&mut out.data, n, AT_B_BLOCK_ROWS, |first_row, block| {
            self.at_b_block(other, exact, first_row, block);
        });
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// Bit-identical to `self.matmul(&other.transpose())`: each output element
    /// is a dot product over ascending `k` with the same zero-skip on
    /// `self[(i, k)]` (and the same IEEE-exact fallback when `other` contains
    /// non-finite values), and both rows are read packed.
    ///
    /// # Panics
    /// Panics when `self.cols() != other.cols()`.
    pub fn matmul_a_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_a_bt_into(other, &mut out);
        out
    }

    fn a_bt_check(&self, other: &Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_a_bt dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// One output row of the `A·Bᵀ` product: a packed dot product per column.
    ///
    /// Runs as a 4-wide microkernel over output columns: four dot products
    /// against four packed `B` rows share one sweep of `a_row`, accumulating
    /// into a `[f64; 4]` register block.  Each lane performs exactly the
    /// scalar loop's operations in the same order (lanes are independent
    /// output elements), so results are bit-identical while the shared sweep
    /// quarters the traffic over `a_row` and exposes four independent
    /// multiply-adds per step.
    #[inline]
    fn a_bt_row(a_row: &[f64], other: &Matrix, exact: bool, out_row: &mut [f64]) {
        let n = out_row.len();
        let mut j = 0;
        while j + 4 <= n {
            let b0 = other.row(j);
            let b1 = other.row(j + 1);
            let b2 = other.row(j + 2);
            let b3 = other.row(j + 3);
            let mut acc = [0.0f64; 4];
            for (k, &a) in a_row.iter().enumerate() {
                if !exact && a == 0.0 {
                    continue;
                }
                acc[0] += a * b0[k];
                acc[1] += a * b1[k];
                acc[2] += a * b2[k];
                acc[3] += a * b3[k];
            }
            out_row[j..j + 4].copy_from_slice(&acc);
            j += 4;
        }
        for (j, o) in out_row.iter_mut().enumerate().skip(j) {
            let b_row = other.row(j);
            let mut acc = 0.0;
            for (k, &a) in a_row.iter().enumerate() {
                if !exact && a == 0.0 {
                    continue;
                }
                acc += a * b_row[k];
            }
            *o = acc;
        }
    }

    /// [`Matrix::matmul_a_bt`] writing into a caller-owned buffer,
    /// parallelised over output rows.
    pub fn matmul_a_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        self.a_bt_check(other);
        out.resize_to(self.rows, other.rows);
        if out.data.is_empty() {
            return;
        }
        let exact = other.has_non_finite();
        let n = other.rows;
        par_chunks(&mut out.data, n, |r, out_row| {
            Self::a_bt_row(self.row(r), other, exact, out_row);
        });
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise combination with a closure.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.zip_into(other, &mut out, f);
        out
    }

    /// [`Matrix::zip_with`] writing into a caller-owned buffer (resized as
    /// needed; allocation-free when the shape already matches).
    pub fn zip_into(&self, other: &Matrix, out: &mut Matrix, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        out.resize_to(self.rows, self.cols);
        for ((o, &a), &b) in out
            .data
            .iter_mut()
            .zip(self.data.iter())
            .zip(other.data.iter())
        {
            *o = f(a, b);
        }
    }

    /// [`Matrix::map`] writing into a caller-owned buffer.
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f64) -> f64) {
        out.resize_to(self.rows, self.cols);
        for (o, &v) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(v);
        }
    }

    /// `self += other` without allocating.
    pub fn add_inplace(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// `self += other * s` without allocating.
    pub fn add_scaled_inplace(&mut self, other: &Matrix, s: f64) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b * s;
        }
    }

    /// Adds `row` (length `cols`) to every row of the matrix (bias add).
    pub fn add_row_broadcast(&self, row: &[f64]) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_inplace(row);
        out
    }

    /// In-place variant of [`Matrix::add_row_broadcast`] for hot paths that
    /// already own a temporary (e.g. a bias add right after a matmul).
    pub fn add_row_broadcast_inplace(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(row.iter()) {
                *v += b;
            }
        }
    }

    /// Sum of every element.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-column sums (length `cols`).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Per-row sums (length `rows`).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|r| self.row(r).iter().sum()).collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Index of the maximum entry in each row (`argmax`), used for predictions.
    pub fn row_argmax(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in argmax"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Dot product between two rows of (possibly different) matrices.
    pub fn row_dot(&self, r: usize, other: &Matrix, r_other: usize) -> f64 {
        self.row(r)
            .iter()
            .zip(other.row(r_other).iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Returns `true` when any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

impl Default for Matrix {
    /// An empty `0 × 0` matrix — the initial state of reusable workspace
    /// buffers, which the `*_into` kernels resize on first use.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::gaussian(4, 4, 0.0, 1.0, &mut rng);
        let i = Matrix::eye(4);
        let left = i.matmul(&a);
        let right = a.matmul(&i);
        for (x, y) in left.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in right.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::gaussian(3, 5, 0.0, 1.0, &mut rng);
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn row_argmax_picks_largest_column() {
        let a = Matrix::from_rows(&[vec![0.1, 0.9, 0.0], vec![2.0, -1.0, 1.0]]);
        assert_eq!(a.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn col_and_row_sums() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        assert_eq!(a.row_sums(), vec![3.0, 7.0]);
        assert_eq!(a.sum(), 10.0);
    }

    #[test]
    fn glorot_values_bounded_by_scale() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Matrix::glorot(10, 20, &mut rng);
        let scale = (6.0_f64 / 30.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= scale));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_scaled_inplace_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_scaled_inplace(&b, 0.5);
        assert!(a.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    fn parallel_matmul_equals_serial_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in [(1, 1, 1), (5, 3, 7), (17, 9, 4), (64, 32, 16)] {
            let a = Matrix::gaussian(m, k, 0.0, 1.0, &mut rng);
            let b = Matrix::gaussian(k, n, 0.0, 1.0, &mut rng);
            let serial = crate::parallel::with_forced_threads(1, || a.matmul(&b));
            for threads in [2, 3, 4] {
                let parallel = crate::parallel::with_forced_threads(threads, || a.matmul(&b));
                assert_eq!(
                    parallel.as_slice(),
                    serial.as_slice(),
                    "{m}x{k}*{k}x{n} differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn has_non_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a[(0, 1)] = f64::NAN;
        assert!(a.has_non_finite());
    }

    #[test]
    fn matmul_propagates_non_finite_through_zero_coefficients() {
        // Row [0, 1] times a B whose first row is non-finite: the mathematical
        // result is 0·NaN + 1·b = NaN, which the zero-skip fast path used to
        // silently turn into b.
        let a = Matrix::from_rows(&[vec![0.0, 1.0]]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let b = Matrix::from_rows(&[vec![bad, bad], vec![2.0, 3.0]]);
            let product = a.matmul(&b);
            assert!(
                product.as_slice().iter().all(|v| v.is_nan()),
                "0 × {bad} must contribute NaN, got {:?}",
                product.as_slice()
            );
            let at_b = Matrix::from_rows(&[vec![0.0], vec![1.0]]).matmul_at_b(&b);
            assert!(at_b.as_slice().iter().all(|v| v.is_nan()));
            let a_bt = a.matmul_a_bt(&b.transpose());
            assert!(a_bt.as_slice().iter().all(|v| v.is_nan()));
        }
    }

    #[test]
    fn matmul_finite_inputs_still_use_the_sparse_skip_consistently() {
        // Dense product with many zero coefficients: the allocating and
        // into-variants must agree bitwise at one and at several threads.
        let mut rng = StdRng::seed_from_u64(19);
        let mut a = Matrix::gaussian(40, 7, 0.0, 1.0, &mut rng);
        a.map_inplace(|v| if v < 0.0 { 0.0 } else { v });
        let b = Matrix::gaussian(7, 5, 0.0, 1.0, &mut rng);
        let reference = crate::parallel::with_forced_threads(1, || a.matmul(&b));
        let mut buf = Matrix::zeros(0, 0);
        for threads in [1, 2, 4] {
            crate::parallel::with_forced_threads(threads, || a.matmul_into(&b, &mut buf));
            assert_eq!(
                buf.as_slice(),
                reference.as_slice(),
                "differs at {threads} threads"
            );
        }
    }

    #[test]
    fn matmul_at_b_matches_explicit_transpose_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        // The last shape has 37 output rows, enough to reach the pool.
        for (m, k, n) in [(1, 1, 1), (5, 3, 7), (17, 9, 4), (33, 20, 6), (45, 37, 6)] {
            let mut a = Matrix::gaussian(m, k, 0.0, 1.0, &mut rng);
            // ReLU-like sparsity so the zero-skip actually fires.
            a.map_inplace(|v| if v < 0.3 { 0.0 } else { v });
            let b = Matrix::gaussian(m, n, 0.0, 1.0, &mut rng);
            let reference = a.transpose().matmul(&b);
            for threads in [1, 3, 4] {
                let fast = crate::parallel::with_forced_threads(threads, || a.matmul_at_b(&b));
                assert_eq!(
                    fast.as_slice(),
                    reference.as_slice(),
                    "({m}x{k})ᵀ*{m}x{n} differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn matmul_a_bt_matches_explicit_transpose_bitwise() {
        let mut rng = StdRng::seed_from_u64(29);
        // The last shape has 40 output rows, enough to reach the pool.
        for (m, k, n) in [(1, 1, 1), (5, 3, 7), (17, 9, 4), (12, 20, 33), (40, 20, 9)] {
            let mut a = Matrix::gaussian(m, k, 0.0, 1.0, &mut rng);
            a.map_inplace(|v| if v < 0.3 { 0.0 } else { v });
            let b = Matrix::gaussian(n, k, 0.0, 1.0, &mut rng);
            let reference = a.matmul(&b.transpose());
            for threads in [1, 3, 4] {
                let fast = crate::parallel::with_forced_threads(threads, || a.matmul_a_bt(&b));
                assert_eq!(
                    fast.as_slice(),
                    reference.as_slice(),
                    "{m}x{k}*({n}x{k})ᵀ differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn into_kernels_handle_degenerate_shapes() {
        let empty_rows = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(5, 5);
        empty_rows.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), (0, 2));
        // (0×3)ᵀ · (0×2): a sum over zero rows must yield an all-zero 3×2.
        empty_rows.matmul_at_b_into(&Matrix::zeros(0, 2), &mut out);
        assert_eq!(out.shape(), (3, 2));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        let row_vec = Matrix::zeros(1, 3);
        row_vec.matmul_a_bt_into(&Matrix::zeros(4, 3), &mut out);
        assert_eq!(out.shape(), (1, 4));
    }

    #[test]
    fn col_into_matches_col_without_allocating_per_call() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut buf = vec![0.0; 3];
        for c in 0..2 {
            a.col_into(c, &mut buf);
            assert_eq!(buf, a.col(c));
        }
    }

    #[test]
    fn add_row_broadcast_inplace_matches_allocating_version() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let bias = [0.5, -1.5];
        let want = a.add_row_broadcast(&bias);
        let mut got = a.clone();
        got.add_row_broadcast_inplace(&bias);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn zip_into_and_map_into_match_allocating_versions() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![0.5, 2.0], vec![-1.0, 0.0]]);
        let mut out = Matrix::zeros(0, 0);
        a.zip_into(&b, &mut out, |x, y| x * y + 1.0);
        assert_eq!(
            out.as_slice(),
            a.zip_with(&b, |x, y| x * y + 1.0).as_slice()
        );
        a.map_into(&mut out, |x| x.abs());
        assert_eq!(out.as_slice(), a.map(|x| x.abs()).as_slice());
        let mut sum = a.clone();
        sum.add_inplace(&b);
        assert_eq!(sum.as_slice(), a.add(&b).as_slice());
    }

    #[test]
    fn resize_to_reuses_capacity_and_copy_from_round_trips() {
        let mut m = Matrix::zeros(4, 4);
        m.resize_to(2, 3);
        assert_eq!(m.shape(), (2, 3));
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.copy_from(&src);
        assert_eq!(m, src);
    }
}
