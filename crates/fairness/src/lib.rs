//! Individual-fairness metrics for GNN predictions.
//!
//! Implements the InFoRM bias `f_bias = Tr(Pᵀ L_S P)` (Definition 1 of the
//! paper), its gradient w.r.t. the prediction matrix (used both by the Reg
//! baseline and by the influence-function machinery), and a streamed bias
//! for graphs too large for a dense similarity matrix.

#![forbid(unsafe_code)]

mod bias;
mod streaming;

pub use bias::{bias, bias_gradient_wrt_probs};
pub use streaming::streamed_bias;
