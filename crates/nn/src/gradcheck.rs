//! Finite-difference gradient checking used by the GNN backward-pass tests
//! and by the influence-function Hessian-vector products.

/// Central finite-difference approximation of the gradient of `f` at `x`.
// lint: allow(uncalled-pub) — the numeric side of the gradient checks in the ppfr_gnn
// gcn/gat/sage and ppfr_influence gradients unit tests
pub fn central_difference(f: impl Fn(&[f64]) -> f64, x: &[f64], h: f64) -> Vec<f64> {
    let mut grad = vec![0.0; x.len()];
    let mut work = x.to_vec();
    for i in 0..x.len() {
        let orig = work[i];
        work[i] = orig + h;
        let fp = f(&work);
        work[i] = orig - h;
        let fm = f(&work);
        work[i] = orig;
        grad[i] = (fp - fm) / (2.0 * h);
    }
    grad
}

/// Maximum relative error between an analytic and a numeric gradient, using
/// `max(|a|, |b|, floor)` as the denominator so near-zero entries do not blow
/// up the ratio.
// lint: allow(uncalled-pub) — compares gradients in the ppfr_gnn gcn/gat/sage unit tests
pub fn max_relative_error(analytic: &[f64], numeric: &[f64], floor: f64) -> f64 {
    assert_eq!(analytic.len(), numeric.len());
    analytic
        .iter()
        .zip(numeric.iter())
        .map(|(&a, &n)| (a - n).abs() / a.abs().max(n.abs()).max(floor))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_difference_recovers_quadratic_gradient() {
        // f(x) = sum i * x_i^2 → df/dx_i = 2 i x_i
        let f = |x: &[f64]| x.iter().enumerate().map(|(i, &v)| i as f64 * v * v).sum();
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let numeric = central_difference(f, &x, 1e-5);
        let analytic: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| 2.0 * i as f64 * v)
            .collect();
        assert!(max_relative_error(&analytic, &numeric, 1e-8) < 1e-6);
    }

    #[test]
    fn relative_error_uses_floor_for_tiny_values() {
        let err = max_relative_error(&[1e-15], &[0.0], 1e-6);
        assert!(
            err < 1e-8,
            "tiny absolute differences should not explode: {err}"
        );
    }
}
