//! Dense linear-algebra kernels used throughout the PPFR stack.
//!
//! The crate deliberately keeps a small surface: a row-major [`Matrix`] of
//! `f64` plus the handful of kernels a hand-written GNN needs (matmul,
//! transpose, row-wise softmax, activations, reductions and random
//! initialisation).  Everything is CPU-only; the kernels that dominate
//! training time run 4-wide microkernels in their inner loops and dispatch
//! to the persistent work-stealing pool via [`parallel`] (sparse-adjacency ×
//! dense products live in `ppfr-graph`).

mod matrix;
mod ops;
pub mod parallel;
mod stats;

pub use matrix::Matrix;
pub use ops::{
    leaky_relu, leaky_relu_grad, relu_grad_into, relu_into, row_softmax, row_softmax_backward_into,
    row_softmax_into,
};
pub use parallel::{
    par_chunks, par_fill, par_join, par_row_blocks, par_rows, par_rows_quarantined,
};
pub use stats::{mean, pearson, std_dev, variance};

/// Numerical tolerance used by tests and iterative solvers in downstream
/// crates.  Kept here so every crate agrees on what "equal enough" means.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` are equal within `tol` (absolute).
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_respects_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }
}
