//! # PPFR — Privacy-aware Perturbations and Fairness-aware Reweighting
//!
//! Reproduction of *"Unraveling Privacy Risks of Individual Fairness in Graph
//! Neural Networks"* (ICDE 2024).  This crate is the public entry point: it
//! wires the substrates (graphs, datasets, GNNs, fairness and privacy metrics,
//! influence functions, the QCLP solver) into
//!
//! * the **PPFR pipeline** ([`pipeline::run_method`] with [`Method::Ppfr`]):
//!   vanilla training, fairness-aware re-weighting via influence functions +
//!   QCLP, privacy-aware heterophilic edge perturbation, and fine-tuning;
//! * the **baselines** of the paper's evaluation: `Vanilla`, `Reg` (InFoRM
//!   regularisation), `DpReg` (edge DP + regularisation), `DpFr` (edge DP +
//!   fairness re-weighting);
//! * the **evaluation harness** ([`evaluate()`]) producing accuracy, InFoRM
//!   bias, link-stealing AUC (both the paper's mean-distance AUC and the
//!   worst case over `ppfr_attacks`' supervised threat-model grid) and the
//!   combined Δ metric of Eq. (22);
//! * the **experiment building blocks** ([`experiments`]): the shared
//!   per-dataset artifacts the multi-seed runner in `ppfr_runner` renders
//!   the tables and figures from, plus the Table II and Fig. 6 drivers.
//!
//! ```no_run
//! use ppfr_core::{ExperimentScale, Method, PpfrConfig, pipeline, evaluate};
//! use ppfr_datasets::{cora, generate};
//! use ppfr_gnn::ModelKind;
//!
//! let dataset = generate(&cora(), 7);
//! let cfg = PpfrConfig::default();
//! let vanilla = pipeline::run_method(&dataset, ModelKind::Gcn, Method::Vanilla, &cfg);
//! let ppfr = pipeline::run_method(&dataset, ModelKind::Gcn, Method::Ppfr, &cfg);
//! let base = evaluate::evaluate(&vanilla, &dataset, &cfg);
//! let ours = evaluate::evaluate(&ppfr, &dataset, &cfg);
//! println!("Δ = {:+.3}", evaluate::deltas(&base, &ours).delta);
//! let _ = ExperimentScale::smoke();
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod evaluate;
pub mod experiments;
pub mod perturb;
pub mod pipeline;
pub mod reweight;

pub use config::{ExperimentScale, PpfrConfig};
pub use evaluate::{
    attack_sample, deltas, evaluate, evaluate_with, predictions, threat_auditor, Evaluation,
    MethodDeltas,
};
pub use perturb::heterophilic_perturbation;
pub use pipeline::{run_method, run_method_from_vanilla, Method, TrainedOutcome};
pub use ppfr_attacks::{ThreatAuditor, ThreatGridReport, ThreatModel, ThreatOutcome};
pub use reweight::{fairness_weights, ReweightOutcome};
