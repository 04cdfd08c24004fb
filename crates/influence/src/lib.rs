//! Influence functions of training nodes on GNN behaviour (§VI-A).
//!
//! Implements Eqs. (8)–(12) of the paper:
//!
//! * the influence of a training node on the parameters,
//!   `I_θ(v) = H⁻¹ ∇_θ L(v)`, via Hessian-vector products (central finite
//!   differences of the hand-derived gradient) and a damped conjugate-gradient
//!   solver — the standard Koh & Liang recipe, no explicit Hessian is ever
//!   materialised;
//! * the influence of a training node on an *interested function* `f`
//!   (utility, `f_bias`, `f_risk`): `I_f(w_v) = −∇_θ f(θ*)ᵀ H⁻¹ ∇_θ L(v)`,
//!   computed with the adjoint trick: the caller passes the gradients of the
//!   functions it reads (the re-weighting utility and bias, Table II bias
//!   and risk), and the engine runs one CG solve per gradient, then one
//!   shared tail — a single forward pass and one backward pass per training
//!   node, whose gradient is dotted with every adjoint — so each per-node
//!   gradient is computed once for all of them;
//! * the Pearson correlation between `I_fbias` and `I_frisk` (Table II).

#![forbid(unsafe_code)]

mod engine;
mod gradients;
mod hvp;
mod lissa;
mod risk_grad;

pub use engine::{
    compute_influences, compute_influences_lissa, influence_from_s_f, InfluenceConfig,
};
pub use gradients::{
    bias_grad_wrt_params, risk_grad_wrt_params, training_loss_grad, training_loss_grad_ws,
};
pub use hvp::{conjugate_gradient, hessian_vector_product_with, HvpScratch};
pub use lissa::LissaConfig;
pub use ppfr_linalg::pearson;
pub use risk_grad::{sq_risk_gradient_wrt_probs, sq_risk_score};
