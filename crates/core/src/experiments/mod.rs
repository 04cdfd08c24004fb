//! Experiment building blocks behind the paper's tables and figures.
//!
//! * [`DatasetArtifacts`] — the shared per-`(dataset, seed, config)` bundle
//!   every cell runs against; the multi-seed runner in `ppfr_runner` renders
//!   Tables III–V and Figs. 4, 5 and 7 from the cells it produces;
//! * [`table2`] — Table II, the one table without a runner view;
//! * [`fig6_ablation_seeded`] — one seed of the Fig. 6 ablation, which the
//!   runner's `fig6_multi` aggregates over seeds.
//!
//! Each driver takes an [`ExperimentScale`](crate::ExperimentScale) so the
//! same code serves the full reproduction and the fast smoke variant used
//! by Criterion benches and tests.  Every result type serialises to JSON and
//! renders a plain-text table through its `to_table_string` method, which
//! is what the `exp_*` binaries in `ppfr_bench` print.

mod ablation;
mod common;
mod tables;

pub use ablation::{fig6_ablation_seeded, AblationCurve, AblationPoint, Fig6Result};
pub use common::{
    high_homophily_specs, scaled_spec, weak_homophily_specs, DatasetArtifacts, MethodCell,
    MethodRun,
};
pub use tables::{table2, Table2Result, Table2Row};
