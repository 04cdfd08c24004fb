//! Golden-metric regression suite.
//!
//! Executes two fixed scenarios and compares every aggregated metric —
//! accuracy, bias, mean attack AUC, worst-case threat AUC, the Δ metrics
//! and the per-distance / per-threat AUCs — against a committed snapshot,
//! with per-metric tolerances that absorb cross-machine libm drift but catch
//! behavioural regressions:
//!
//! * `golden-small` (2 small SBM datasets × GCN × all five methods × 2
//!   seeds) against `tests/golden/golden_small.json`;
//! * `golden-models` (the `two-block` dataset × GAT and GraphSAGE × all five
//!   methods × the same 2 seeds) against `tests/golden/golden_models.json`.
//!   GraphSAGE runs with the pipeline's neighbour sampling, so its sampled
//!   path is pinned too;
//! * `golden-lissa` (the `two-block` dataset × GCN × DPFR and PPFR × the
//!   same 2 seeds, with `lissa_depth = 8`) against
//!   `tests/golden/golden_lissa.json`, so the opt-in truncated-LiSSA
//!   influence estimator is pinned end to end, not only against the exact
//!   engine's tail.
//!
//! Each execution is repeated under forced `PPFR_NUM_THREADS` ∈ {1, 4} and
//! must be **bit-identical** across thread counts, and a cache-warm re-run
//! must be bit-identical to the cold run.
//!
//! Regenerate the snapshots after an intentional metric change with:
//!
//! ```sh
//! PPFR_UPDATE_GOLDEN=1 cargo test -q -p ppfr --test golden_metrics
//! ```

use ppfr_core::Method;
use ppfr_gnn::ModelKind;
use ppfr_runner::{run_scenario, ArtifactCache, MatrixReport, ScenarioSpec};
use std::path::PathBuf;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file)
}

/// Comparison tolerance per metric family, given the golden value.  The raw
/// metrics get tight absolute budgets; the Δ metrics of Eq. (22) divide
/// small relative changes by other small relative changes, so drift is
/// amplified and their budget is absolute-or-relative, whichever is wider.
fn tolerance(metric: &str, golden_value: f64) -> f64 {
    let relative = |abs: f64, rel: f64| abs.max(rel * golden_value.abs());
    match metric {
        "acc" => 5e-3,
        "bias" => 2e-3,
        "risk_auc" | "worst_risk_auc" | "risk_gap" => 5e-3,
        "d_acc_pct" | "d_bias_pct" | "d_risk_pct" => relative(1.0, 0.05),
        "delta" => relative(0.25, 0.15),
        m if m.starts_with("auc_dist:") || m.starts_with("auc_threat:") => 5e-3,
        other => panic!("no tolerance defined for metric {other}"),
    }
}

fn compare_against_golden(report: &MatrixReport, golden: &MatrixReport, file: &str) {
    assert_eq!(report.scenario, golden.scenario, "scenario name changed");
    assert_eq!(report.seeds, golden.seeds, "seed axis changed");
    assert_eq!(
        report.summaries.len(),
        golden.summaries.len(),
        "summary row count changed: got {}, golden has {} — regenerate with PPFR_UPDATE_GOLDEN=1 if intentional",
        report.summaries.len(),
        golden.summaries.len()
    );
    let mut failures = Vec::new();
    for (got, want) in report.summaries.iter().zip(golden.summaries.iter()) {
        assert_eq!(
            (&got.dataset, &got.model, &got.method, &got.metric),
            (&want.dataset, &want.model, &want.method, &want.metric),
            "summary rows out of alignment"
        );
        for (stat, g, w) in [
            ("mean", got.stats.mean, want.stats.mean),
            ("std", got.stats.std, want.stats.std),
            ("min", got.stats.min, want.stats.min),
            ("max", got.stats.max, want.stats.max),
        ] {
            let tol = tolerance(&got.metric, w);
            if (g - w).abs() > tol {
                failures.push(format!(
                    "{}/{}/{}/{} {stat}: got {g}, golden {w} (tol {tol})",
                    got.dataset, got.model, got.method, got.metric
                ));
            }
        }
        assert_eq!(
            got.stats.n, want.stats.n,
            "{}: run count changed",
            got.metric
        );
    }
    assert!(
        failures.is_empty(),
        "{} metric(s) regressed vs tests/golden/{file} \
         (regenerate with PPFR_UPDATE_GOLDEN=1 if the change is intentional):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Runs `spec` cold at 1 and 4 forced worker threads and cache-warm, checks
/// the three reports are bit-identical, then compares (or, with
/// `PPFR_UPDATE_GOLDEN=1`, rewrites) the snapshot `tests/golden/<file>`.
fn check_matrix_against_snapshot(spec: &ScenarioSpec, file: &str) {
    // Cold run at 1 forced worker thread, then a cold run at 4: the report
    // must be bit-identical (the guarantee the kernel layer pins per kernel
    // with forced-thread tests).
    let cache = ArtifactCache::new();
    let report_t1 = ppfr_linalg::parallel::with_forced_threads(1, || run_scenario(spec, &cache))
        .expect("golden scenario is valid");
    let report_t4 =
        ppfr_linalg::parallel::with_forced_threads(4, || run_scenario(spec, &ArtifactCache::new()))
            .expect("golden scenario is valid");
    assert_eq!(
        report_t1.to_json(),
        report_t4.to_json(),
        "{} matrix differs between 1 and 4 forced threads",
        spec.name
    );

    // Cache-warm re-run (same cache as the first execution): bit-identical.
    let warm = run_scenario(spec, &cache).expect("golden scenario is valid");
    assert_eq!(
        report_t1.to_json(),
        warm.to_json(),
        "cache-warm {} matrix differs from cold",
        spec.name
    );
    assert!(cache.hits() > 0, "warm run did not hit the artifact cache");

    let path = golden_path(file);
    if std::env::var("PPFR_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, report_t1.to_json()).expect("write golden snapshot");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with PPFR_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let golden: MatrixReport = serde_json::from_str(&text).expect("parse golden snapshot");
    compare_against_golden(&report_t1, &golden, file);
}

#[test]
fn golden_small_matrix_matches_snapshot_across_thread_counts() {
    check_matrix_against_snapshot(&ScenarioSpec::golden_small(), "golden_small.json");
}

#[test]
fn golden_models_matrix_matches_snapshot_across_thread_counts() {
    let mut spec =
        ScenarioSpec::golden_small().with_models(&[ModelKind::Gat, ModelKind::GraphSage]);
    spec.name = "golden-models".into();
    spec.datasets.retain(|d| d.name == "two-block");
    assert_eq!(
        spec.datasets.len(),
        1,
        "golden-small lists the two-block set"
    );
    check_matrix_against_snapshot(&spec, "golden_models.json");
}

#[test]
fn golden_lissa_matrix_matches_snapshot_across_thread_counts() {
    let mut spec = ScenarioSpec::golden_small()
        .with_models(&[ModelKind::Gcn])
        .with_methods(&[Method::DpFr, Method::Ppfr]);
    spec.name = "golden-lissa".into();
    spec.datasets.retain(|d| d.name == "two-block");
    assert_eq!(
        spec.datasets.len(),
        1,
        "golden-small lists the two-block set"
    );
    spec.config.lissa_depth = 8;
    check_matrix_against_snapshot(&spec, "golden_lissa.json");
}
