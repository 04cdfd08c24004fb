//! LiSSA — stochastic inverse-Hessian-vector products (Agarwal et al., 2017).
//!
//! The exact engine ([`crate::influence_on`]) solves
//! `s_f = (H + λI)⁻¹ ∇_θ f` with conjugate gradient over *full-batch*
//! Hessian-vector products: every CG iteration touches all labelled nodes.
//! At large `n` that is the dominant influence cost, so this module provides
//! the standard stochastic alternative — a truncated Neumann series with
//! mini-batch HVPs:
//!
//! ```text
//! x_0 = g,   x_{j+1} = g + (I − A_j / c) x_j,   A_j = H_{B_j} + λI
//! s_f ≈ x_T / c
//! ```
//!
//! where `B_j` is a per-iteration mini-batch of training nodes, `c` a scale
//! chosen so every eigenvalue of `A/c` lies in `(0, 2)` (estimated by
//! deterministic power iteration when not given), and the final estimate is
//! averaged over [`LissaConfig::samples`] independent chains.  Each HVP runs
//! through the same persistent [`HvpScratch`] the CG path uses, and the
//! per-node tail is the shared `influences_from_adjoints` — one forward
//! pass, then one backward pass per training node for every adjoint at once
//! (three in [`crate::compute_influences_lissa`]) — so the two estimators
//! differ only in how they solve the linear system.
//!
//! Everything is deterministic in `(LissaConfig::seed, chain, iteration)` —
//! the batch draws use seeded `StdRng` streams, never ambient randomness.
//!
//! # Accuracy (documented tolerance)
//!
//! With full batches (`batch = 0`), damping large enough that `H + λI` is
//! positive definite, and depth `T` in the hundreds, LiSSA agrees with the
//! exact CG solve to a few percent relative error and preserves the top-k
//! influence ranking — pinned by this crate's `lissa_pinning` proptest at
//! relative ℓ2 error ≤ 5·10⁻² and identical top-3 rankings.  Mini-batch
//! estimates (`batch > 0`) trade that tolerance for per-iteration cost
//! `O(batch)`; they remain strongly rank-correlated with the exact scores
//! but are *not* within the pinned tolerance — the deviation from the
//! paper's exact protocol is documented in PAPER.md.

use crate::{hessian_vector_product_with, influence_from_s_f, HvpScratch, InfluenceConfig};
use ppfr_gnn::{AnyModel, GraphContext};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters of the LiSSA estimator.
#[derive(Debug, Clone)]
pub struct LissaConfig {
    /// Damping λ added to the Hessian (`H + λI`); must make the damped
    /// Hessian positive definite for the Neumann series to converge.
    pub damping: f64,
    /// Finite-difference step for the Hessian-vector products.
    pub fd_step: f64,
    /// Truncation depth `T` of the Neumann recursion.
    pub depth: usize,
    /// Spectral scale `c`; `0.0` selects it automatically via deterministic
    /// power iteration (`1.3 ×` the dominant-eigenvalue estimate).
    pub scale: f64,
    /// Mini-batch size of each HVP; `0` uses the full training set.
    pub batch: usize,
    /// Number of independent chains averaged into the final estimate.
    pub samples: usize,
    /// Master seed of the batch-draw streams.
    pub seed: u64,
}

impl Default for LissaConfig {
    fn default() -> Self {
        Self {
            damping: 0.5,
            fd_step: 1e-4,
            depth: 120,
            scale: 0.0,
            batch: 0,
            samples: 1,
            seed: 0,
        }
    }
}

impl LissaConfig {
    /// A LiSSA configuration matching an exact-engine [`InfluenceConfig`]
    /// (same damping and FD step), with the given depth.
    pub fn from_influence(cfg: &InfluenceConfig, depth: usize) -> Self {
        Self {
            damping: cfg.damping,
            fd_step: cfg.fd_step,
            depth,
            ..Self::default()
        }
    }
}

/// The per-iteration mini-batch `B_j` of chain `chain`: a seeded shuffle of
/// the training ids, truncated to `batch` and re-sorted (ascending node id)
/// so the mean-loss gradient sums in a canonical order.  `batch = 0` (or
/// `batch ≥ n`) returns the full set.
fn draw_batch(train_ids: &[usize], batch: usize, seed: u64, chain: u64, iter: u64) -> Vec<usize> {
    if batch == 0 || batch >= train_ids.len() {
        return train_ids.to_vec();
    }
    // Distinct, well-separated stream per (chain, iteration).
    let stream =
        seed ^ chain.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ iter.wrapping_mul(0xd1b5_4a32_d192_ed03);
    let mut rng = StdRng::seed_from_u64(stream);
    let mut pool: Vec<usize> = train_ids.to_vec();
    pool.shuffle(&mut rng);
    pool.truncate(batch);
    pool.sort_unstable();
    pool
}

/// Deterministic power-iteration estimate of the spectral scale `c`: the
/// dominant eigenvalue of `H + λI` (full-batch HVPs from a fixed uniform
/// start vector), inflated by 1.3× so `‖A/c‖ < 1` holds with margin.
fn auto_scale(
    scratch: &mut HvpScratch,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    dim: usize,
    cfg: &LissaConfig,
) -> f64 {
    let mut v = vec![1.0 / (dim as f64).sqrt(); dim];
    let mut lambda = cfg.damping.max(1e-6);
    for _ in 0..8 {
        let hv = hessian_vector_product_with(
            scratch,
            ctx,
            labels,
            train_ids,
            &v,
            cfg.fd_step,
            cfg.damping,
        );
        let norm = hv.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= f64::EPSILON {
            break;
        }
        lambda = norm;
        for (vi, hvi) in v.iter_mut().zip(hv.iter()) {
            *vi = hvi / norm;
        }
    }
    (1.3 * lambda).max(cfg.damping.max(1e-6))
}

/// Stochastic LiSSA estimate of the influence of every training node on the
/// interested function with parameter gradient `grad_f`:
/// `I_f(w_v) ≈ −s_f · ∇_θ L(v)` with `s_f` from the truncated mini-batch
/// Neumann series.  Drop-in alternative to [`crate::influence_on`]; see the
/// module docs for the accuracy contract.
pub fn lissa_influence_on(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    grad_f: &[f64],
    cfg: &LissaConfig,
) -> Vec<f64> {
    let _span = ppfr_telemetry::span!("influence");
    let s_f = lissa_adjoint(model, ctx, labels, train_ids, grad_f, cfg);
    influence_from_s_f(model, ctx, labels, train_ids, &s_f)
}

/// The LiSSA estimate of the adjoint `s_f ≈ (H + λI)⁻¹ ∇_θ f`: the averaged
/// truncated Neumann chains, scaled by `1/c`.
pub(crate) fn lissa_adjoint(
    model: &AnyModel,
    ctx: &GraphContext,
    labels: &[usize],
    train_ids: &[usize],
    grad_f: &[f64],
    cfg: &LissaConfig,
) -> Vec<f64> {
    let _span = ppfr_telemetry::span!("influence_lissa");
    assert!(cfg.depth > 0, "LiSSA depth must be positive");
    let dim = grad_f.len();
    let mut scratch = HvpScratch::new(model);
    let scale = if cfg.scale > 0.0 {
        cfg.scale
    } else {
        auto_scale(&mut scratch, ctx, labels, train_ids, dim, cfg)
    };
    let samples = cfg.samples.max(1);
    let mut avg = vec![0.0; dim];
    for chain in 0..samples as u64 {
        let mut x: Vec<f64> = grad_f.to_vec();
        for j in 0..cfg.depth as u64 {
            // Cooperative deadline: truncating the Neumann series early still
            // yields a finite (coarser) estimate.
            if !ppfr_resilience::checkpoint(1) {
                break;
            }
            let batch = draw_batch(train_ids, cfg.batch, cfg.seed, chain, j);
            let hx = hessian_vector_product_with(
                &mut scratch,
                ctx,
                labels,
                &batch,
                &x,
                cfg.fd_step,
                cfg.damping,
            );
            for ((xi, &gi), &hxi) in x.iter_mut().zip(grad_f.iter()).zip(hx.iter()) {
                *xi = gi + *xi - hxi / scale;
            }
        }
        for (a, &xi) in avg.iter_mut().zip(x.iter()) {
            *a += xi;
        }
    }
    let inv = 1.0 / (samples as f64 * scale);
    for a in avg.iter_mut() {
        *a *= inv;
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_batch_is_deterministic_sorted_and_sized() {
        let ids: Vec<usize> = (0..20).map(|i| i * 3).collect();
        let a = draw_batch(&ids, 5, 7, 0, 3);
        let b = draw_batch(&ids, 5, 7, 0, 3);
        assert_eq!(a, b, "same (seed, chain, iter) must draw the same batch");
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "batch must be sorted");
        assert!(a.iter().all(|v| ids.contains(v)));
        let c = draw_batch(&ids, 5, 7, 0, 4);
        assert_ne!(a, c, "different iterations should draw different batches");
        assert_eq!(draw_batch(&ids, 0, 7, 0, 0), ids, "batch=0 is full-batch");
        assert_eq!(
            draw_batch(&ids, 99, 7, 0, 0),
            ids,
            "oversized batch is full"
        );
    }
}
