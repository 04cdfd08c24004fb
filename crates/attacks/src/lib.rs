//! # `ppfr_attacks` — supervised link-stealing attacks under a threat-model
//! # registry
//!
//! The paper measures edge-privacy risk with the *weakest* adversary: an
//! unsupervised threshold on one of eight posterior distances
//! ([`ppfr_privacy::AttackEvaluator`]).  Stronger LSA-style adversaries
//! (He et al., USENIX Security'21; Surma et al., *Fairness and/or Privacy on
//! Social Graphs*) hold extra knowledge and train a supervised attack, and
//! achieve materially higher AUC — so PPFR's privacy claims must be
//! stress-tested against them.  This crate provides:
//!
//! * [`ThreatModel`] / [`ThreatModelRegistry`] — the adversary-knowledge grid
//!   along two optional axes (node features, shadow dataset; target
//!   posteriors are always known), with per-setting training configs;
//! * [`features`] — batched per-pair feature extraction (eight posterior
//!   distances reused from the evaluator's
//!   [`DistanceTable`](ppfr_privacy::DistanceTable), posterior-entropy
//!   channels, optional input-feature distance channels), parallel over pair
//!   chunks, bit-identical at any thread count;
//! * [`classifier`] — the logistic-regression attack, trained with
//!   `ppfr_nn`'s Adam in one allocation-free pass over the rows per epoch,
//!   z-scored channels, and adversarial model selection (the deployed
//!   scorer is never weaker on training data than the best single distance
//!   threshold);
//! * [`shadow`] — shadow-dataset construction ([`ppfr_datasets::shadow_of`])
//!   plus an SGC-style posterior surrogate, cached per dataset;
//! * [`ThreatAuditor`] — one object per (dataset, config) auditing arbitrary
//!   many posterior matrices against the whole grid and reporting the
//!   worst-case supervised AUC next to the paper's mean-distance AUC.

#![forbid(unsafe_code)]

pub mod auditor;
pub mod classifier;
pub mod features;
pub mod shadow;
pub mod threat;

pub use auditor::ThreatAuditor;
pub use classifier::{auc_from_scores, AttackScorer, AttackTrainConfig, TrainedAttack};
pub use features::{
    channel_names, n_channels, node_entropies, pair_feature_row, row_entropy, PairFeatureTable,
    N_ENTROPY_CHANNELS, N_FEATURE_CHANNELS,
};
pub use shadow::{surrogate_posteriors, ShadowBundle};
pub use threat::{ThreatGridReport, ThreatModel, ThreatModelRegistry, ThreatOutcome};
