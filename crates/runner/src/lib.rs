//! # `ppfr_runner` — multi-seed scenario runner with artifact caching
//!
//! The paper reports every number of Tables III–V and Figs. 4–7 as an
//! average over repeated runs.  This crate runs `ppfr_core`'s per-cell
//! pipeline ([`ppfr_core::experiments::DatasetArtifacts`]) under that
//! protocol:
//!
//! * a [`ScenarioSpec`] declares the run matrix — datasets × models ×
//!   methods × seeds — plus the perturbation knobs and an optional
//!   threat-model subset, and the [`ScenarioRegistry`] names the stock
//!   scenarios shared by the `exp_*` binaries and the golden suite;
//! * the executor ([`run_scenario`]) runs `(dataset, seed)` groups in
//!   parallel through `ppfr_linalg::parallel` — thread count never changes
//!   the report, which is pinned by forced-`PPFR_NUM_THREADS` tests like the
//!   kernel layer;
//!   a panicking cell is quarantined into the report's `failed_cells`
//!   section (after deterministic retries) instead of aborting the matrix,
//!   and per-cell budgets degrade the estimators gracefully, recorded in
//!   the `degraded` section (see `ppfr_resilience`);
//! * the [`ArtifactCache`] shares per-`(dataset, seed)` artifacts (the
//!   generated graph, the threat auditor's pair sample + shadow bundle, the
//!   trained vanilla checkpoints) across methods and across re-runs, so
//!   warm executions skip straight to method-specific training;
//! * aggregation produces typed [`RunSummary`] rows — `mean ± std` plus
//!   min/max per metric — serialized as stable, sorted JSON
//!   ([`MatrixReport::to_json`]), which `tests/golden_metrics.rs` pins
//!   against committed snapshots.
//!
//! ```no_run
//! use ppfr_runner::{ArtifactCache, ScenarioSpec, run_scenario};
//!
//! let cache = ArtifactCache::new();
//! let report = run_scenario(&ScenarioSpec::bench_small(), &cache).expect("valid spec");
//! println!("{}", report.to_table_string());
//! let warm = run_scenario(&ScenarioSpec::bench_small(), &cache).expect("valid spec");
//! assert_eq!(report.to_json(), warm.to_json()); // cache-warm, bit-identical
//! ```

#![forbid(unsafe_code)]

mod aggregate;
mod cache;
mod multi;
mod runner;
mod scale;
mod spec;

pub use aggregate::{aggregate, MatrixReport, MetricStats, RunSummary, SeedRun};
pub use cache::{ArtifactCache, CacheStats};
pub use multi::{
    accuracy_view, fig4_view, fig6_multi, table3_view, CurvePointStats, CurveStats, Fig6MultiResult,
};
pub use runner::run_scenario;
pub use scale::{run_scale_scenario, ScaleReport, ScaleSpec};
pub use spec::{two_block_weak, RunGroup, ScenarioRegistry, ScenarioSpec, DEFAULT_SEEDS};
