//! Individual-fairness metrics for GNN predictions.
//!
//! Implements the InFoRM bias `f_bias = Tr(Pᵀ L_S P)` (Definition 1 of the
//! paper), its gradient w.r.t. the prediction matrix (used both by the Reg
//! baseline and by the influence-function machinery), a Lipschitz-style
//! individual-fairness audit and a REDRESS-style ranking-fairness metric
//! (an extension beyond the paper).

#![forbid(unsafe_code)]

mod bias;
mod lipschitz;
mod ranking;
mod streaming;

pub use bias::{bias, bias_gradient_wrt_probs, pairwise_bias};
pub use lipschitz::{lipschitz_violations, max_unfairness_gap};
pub use ranking::ranking_fairness_ndcg;
pub use streaming::streamed_bias;
