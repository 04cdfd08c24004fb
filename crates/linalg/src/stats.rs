//! Small statistics helpers (means, variances, Pearson correlation).

/// Arithmetic mean; returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; returns 0 for slices shorter than two elements.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Pearson correlation coefficient between two equally-long samples.
///
/// Returns 0 when either sample is (numerically) constant, which matches how
/// the paper treats degenerate influence vectors in Table II.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal-length samples");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= f64::EPSILON || vy <= f64::EPSILON {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_linear_relation_is_one() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let ys_neg: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!((pearson(&xs, &ys_neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_sample_is_zero() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [0.0, 2.0, 5.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[42.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }
}
