//! Property tests for the scenario runner's aggregation and artifact cache:
//!
//! * `mean ± std` is invariant to the order runs complete in;
//! * degenerate inputs (single seed, constant metric) never produce NaN;
//! * cache-hit (warm) executions are bit-identical to cold executions.

use ppfr_core::{Evaluation, Method, MethodDeltas, PpfrConfig};
use ppfr_datasets::two_block_synthetic;
use ppfr_linalg::parallel::with_forced_threads;
use ppfr_runner::{aggregate, run_scenario, ArtifactCache, ScenarioSpec, SeedRun};
use proptest::prelude::*;

fn synthetic_run(dataset: usize, method: usize, seed: u64, value: f64) -> SeedRun {
    SeedRun {
        dataset: format!("ds{dataset}"),
        model: "GCN".to_string(),
        method: format!("m{method}"),
        seed,
        evaluation: Evaluation {
            accuracy: value,
            bias: value * 0.1,
            risk_auc: 0.5 + value * 0.4,
            risk_gap: value.abs(),
            auc_per_distance: vec![("cosine".to_string(), 0.5 + value * 0.3)],
            worst_risk_auc: 0.5 + value * 0.45,
            auc_per_threat: vec![("posteriors".to_string(), 0.5 + value * 0.2)],
        },
        deltas: MethodDeltas {
            d_acc: value * 0.01,
            d_bias: -value * 0.3,
            d_risk: value * 0.05,
            delta: -value,
        },
    }
}

/// Deterministic permutation: rotate by `shift` then reverse alternate
/// halves, enough to scramble any completion order.
fn permute<T>(mut items: Vec<T>, shift: usize) -> Vec<T> {
    if items.is_empty() {
        return items;
    }
    let shift = shift % items.len();
    items.rotate_left(shift);
    let mid = items.len() / 2;
    items[..mid].reverse();
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aggregation_is_invariant_to_completion_order(
        values in proptest::collection::vec(0.0f64..1.0, 8),
        shift in 0usize..17,
    ) {
        // 2 datasets × 2 methods × 2 seeds, metric values drawn at random.
        let mut runs = Vec::new();
        let mut v = values.iter().copied();
        for dataset in 0..2 {
            for method in 0..2 {
                for seed in [3u64, 9] {
                    runs.push(synthetic_run(dataset, method, seed, v.next().unwrap()));
                }
            }
        }
        let baseline = aggregate("prop", &[3, 9], runs.clone());
        let shuffled = aggregate("prop", &[9, 3], permute(runs, shift));
        prop_assert_eq!(baseline.to_json(), shuffled.to_json());
    }

    #[test]
    fn degenerate_inputs_stay_nan_free(
        value in -2.0f64..2.0,
        n_seeds in 1usize..5,
    ) {
        // Constant metric over every seed (and the single-seed case).
        let runs: Vec<SeedRun> = (0..n_seeds)
            .map(|s| synthetic_run(0, 0, s as u64, value))
            .collect();
        let seeds: Vec<u64> = (0..n_seeds as u64).collect();
        let report = aggregate("degenerate", &seeds, runs);
        for summary in &report.summaries {
            let s = &summary.stats;
            prop_assert!(s.mean.is_finite(), "{}: mean NaN", summary.metric);
            prop_assert!(s.std.is_finite(), "{}: std NaN", summary.metric);
            // `(n·x)/n` may round away from `x`, so the deviation is not
            // exactly zero — but it must stay at rounding-error scale.
            let tol = 1e-12 * s.mean.abs().max(1.0);
            prop_assert!(
                s.std <= tol,
                "{}: constant metric has std {} > {tol}",
                summary.metric,
                s.std
            );
            prop_assert_eq!(s.min, s.max);
            prop_assert_eq!(s.n, n_seeds);
        }
    }
}

/// A cache-warm re-run reuses every artifact and still reproduces the cold
/// report bit for bit, and so does a warm re-run at one forced thread.
#[test]
fn warm_cache_runs_are_bit_identical_to_cold() {
    let spec = ScenarioSpec::new(
        "cache-prop",
        vec![two_block_synthetic()],
        PpfrConfig {
            vanilla_epochs: 10,
            influence_cg_iters: 3,
            ..PpfrConfig::smoke()
        },
    )
    .with_methods(&[Method::Vanilla, Method::Ppfr])
    .with_seeds(&[7, 11]);

    let cache = ArtifactCache::new();
    let cold = run_scenario(&spec, &cache).expect("cache-prop spec is valid");
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 0);

    let warm = run_scenario(&spec, &cache).expect("cache-prop spec is valid");
    assert_eq!(cache.misses(), 2, "warm run must not rebuild artifacts");
    assert_eq!(cache.hits(), 2);
    assert_eq!(cold.to_json(), warm.to_json(), "warm != cold");

    let serial_warm =
        with_forced_threads(1, || run_scenario(&spec, &cache)).expect("cache-prop spec is valid");
    assert_eq!(cold.to_json(), serial_warm.to_json(), "serial warm != cold");
}
