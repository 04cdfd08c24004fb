//! Edge-privacy attacks, risk metrics and defences.
//!
//! * [`distance`] — the eight pairwise distances the paper's attack evaluation
//!   uses (cosine, euclidean, correlation, chebyshev, braycurtis, canberra,
//!   cityblock, sqeuclidean);
//! * [`attack`] — the black-box link-stealing attack (Attack-0 of He et al.)
//!   scored by rank-based AUC, plus the unsupervised 2-means clustering
//!   variant;
//! * [`evaluator`] — the scalable [`AttackEvaluator`]: a single-pass
//!   multi-metric distance kernel (all eight metrics per pair in one
//!   traversal, parallel over pair chunks) feeding `O(m log m)` Mann–Whitney
//!   AUCs, with sample and buffers cached across posterior matrices, and
//!   `f_risk` of Definition 2 ([`DistanceTable::mean_gap`]);
//! * [`dp`] — the edge differential-privacy defences EdgeRand and LapGraph
//!   (Wu et al., IEEE S&P 2022) used by the DPReg / DPFR baselines;
//! * [`risk_model`] — the closed-form edge-sensitivity model of Eq. (20).

#![forbid(unsafe_code)]

pub mod attack;
pub mod distance;
pub mod dp;
pub mod evaluator;
pub mod risk_model;

pub use attack::{
    attack_auc, auc_from_distances, auc_from_distances_quadratic, auc_per_distance,
    average_attack_auc, cluster_attack, ClusterAttackOutcome, PairSample,
};
pub use distance::{multi_distance, pairwise_distance, DistanceKind, N_DISTANCE_KINDS};
pub use dp::{edge_rand, lap_graph};
pub use evaluator::{AttackEvaluator, AttackReport, DistanceTable};
pub use risk_model::{edge_sensitivity, EdgeSensitivityInputs};
