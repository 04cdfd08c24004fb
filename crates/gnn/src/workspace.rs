//! Reusable training workspaces.
//!
//! A [`TrainWorkspace`] owns every intermediate buffer the training loop and
//! the per-model forward/backward passes need, so that a full epoch performs
//! **zero heap allocations after warm-up**: buffers are resized on first use
//! (or when the problem shape changes) and fully overwritten by the in-place
//! kernels of `ppfr_linalg` / `ppfr_graph` on every subsequent epoch.
//!
//! The workspace path is the only forward/backward implementation of each
//! model: training, the influence gradients and Hessian-vector products run
//! it on long-lived workspaces, and [`GnnModel::forward`] runs it on a fresh
//! one.  Its gradients are checked against central finite differences in
//! the model modules, and its results are pinned across worker-thread counts
//! and warm-workspace reuse by `crates/gnn/tests/workspace_equivalence.rs`.
//!
//! One workspace serves one model at a time; the per-architecture buffer
//! groups ([`GcnBufs`], [`SageBufs`], [`GatBufs`]) stay empty for the
//! architectures that are not in use.
//!
//! [`GnnModel::forward`]: crate::GnnModel::forward

use ppfr_graph::SparseMatrix;
use ppfr_linalg::Matrix;

/// Resizes a scratch vector, leaving its contents unspecified (every user
/// fully overwrites).  Allocation-free once the length is stable.
pub(crate) fn ensure_len(v: &mut Vec<f64>, len: usize) {
    if v.len() != len {
        v.resize(len, 0.0);
    }
}

/// Preallocated buffers shared by the training loop and the per-model
/// forward/backward passes.  See the module docs for the reuse contract.
#[derive(Debug, Clone, Default)]
pub struct TrainWorkspace {
    /// Model output logits (one row per node), written by
    /// [`GnnModel::forward_ws`](crate::GnnModel::forward_ws).
    pub logits: Matrix,
    /// Softmax probabilities of `logits`.
    pub probs: Matrix,
    /// Gradient of the loss w.r.t. the logits; input of
    /// [`GnnModel::backward_ws`](crate::GnnModel::backward_ws).
    pub d_logits: Matrix,
    /// Gradient of the fairness regulariser w.r.t. the probabilities.
    pub d_probs: Matrix,
    /// `d_probs` back-propagated through the softmax.
    pub d_reg: Matrix,
    /// Flat parameter gradient, output of
    /// [`GnnModel::backward_ws`](crate::GnnModel::backward_ws).
    pub grads: Vec<f64>,
    /// All-one loss weights kept for the influence gradients.
    pub unit_weights: Vec<f64>,
    /// GCN-specific buffers.
    pub gcn: GcnBufs,
    /// GraphSAGE-specific buffers.
    pub sage: SageBufs,
    /// GAT-specific buffers.
    pub gat: GatBufs,
}

impl TrainWorkspace {
    /// A fresh workspace with every buffer empty; buffers are sized lazily by
    /// the first epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes `unit_weights` hold exactly `len` ones (used by the influence
    /// engine, whose utility gradient is the unit-weight training loss).
    pub fn ensure_unit_weights(&mut self, len: usize) {
        if self.unit_weights.len() != len {
            self.unit_weights.clear();
            self.unit_weights.resize(len, 1.0);
        }
    }
}

/// Forward/backward intermediates of the two-layer GCN.
#[derive(Debug, Clone, Default)]
pub struct GcnBufs {
    /// `X W₁`.
    pub xw1: Matrix,
    /// `Â X W₁` (pre-activation).
    pub pre1: Matrix,
    /// `ReLU(pre1)`.
    pub h1: Matrix,
    /// `h1 W₂`.
    pub h1w2: Matrix,
    /// `Â · d_logits`.
    pub d_h1w2: Matrix,
    /// Gradient w.r.t. `W₂`.
    pub d_w2: Matrix,
    /// Gradient w.r.t. `h1`.
    pub d_h1: Matrix,
    /// Gradient w.r.t. `pre1`.
    pub d_pre1: Matrix,
    /// `Â · d_pre1`.
    pub d_xw1: Matrix,
    /// Gradient w.r.t. `W₁`.
    pub d_w1: Matrix,
}

/// Forward/backward intermediates of the two-layer GraphSAGE.
#[derive(Debug, Clone, Default)]
pub struct SageBufs {
    /// Aggregated input features `M X`, held as CSR: on the generated
    /// datasets most of its entries are zero, and its two products skip
    /// them.  A non-finite right-hand side rebuilds it dense for that
    /// product only.
    pub mx: SparseMatrix,
    /// Layer-1 pre-activation.
    pub pre1: Matrix,
    /// `ReLU(pre1)`.
    pub h1: Matrix,
    /// Aggregated hidden state `M h1`.
    pub mh1: Matrix,
    /// `X W₁ˢᵉˡᶠ` temporary.
    pub t_self: Matrix,
    /// `(M X) W₁ⁿᵉⁱᵍʰ` temporary.
    pub t_neigh: Matrix,
    /// `h1 W₂ˢᵉˡᶠ` temporary.
    pub o_self: Matrix,
    /// `(M h1) W₂ⁿᵉⁱᵍʰ` temporary.
    pub o_neigh: Matrix,
    /// Gradient w.r.t. `W₂ˢᵉˡᶠ`.
    pub d_w2_self: Matrix,
    /// Gradient w.r.t. `W₂ⁿᵉⁱᵍʰ`.
    pub d_w2_neigh: Matrix,
    /// Direct (self) component of the gradient w.r.t. `h1`.
    pub d_h1_dir: Matrix,
    /// Gradient w.r.t. `M h1`.
    pub d_mh1: Matrix,
    /// Aggregated component `Mᵀ d_mh1` of the gradient w.r.t. `h1`.
    pub d_h1_agg: Matrix,
    /// Total gradient w.r.t. `h1`.
    pub d_h1: Matrix,
    /// Gradient w.r.t. `pre1`.
    pub d_pre1: Matrix,
    /// Gradient w.r.t. `W₁ˢᵉˡᶠ`.
    pub d_w1_self: Matrix,
    /// Gradient w.r.t. `W₁ⁿᵉⁱᵍʰ`.
    pub d_w1_neigh: Matrix,
}

/// Forward/backward intermediates of one GAT attention layer.
#[derive(Debug, Clone, Default)]
pub struct GatLayerBufs {
    /// Projected features `H = X W`.
    pub h: Matrix,
    /// Layer output `Σ_j α_ij H_j`.
    pub out: Matrix,
    /// Raw attention logits per directed edge, grouped by destination in
    /// node order: the node itself, then its neighbours in ascending order.
    pub pre: Vec<f64>,
    /// Normalised attention coefficients per directed edge.
    pub alpha: Vec<f64>,
    /// Source scores `H a_src`.
    pub s: Vec<f64>,
    /// Destination scores `H a_dst`.
    pub t: Vec<f64>,
    /// Gradient w.r.t. `H`.
    pub d_h: Matrix,
    /// Gradient w.r.t. the layer input (second layer only: the first
    /// layer's input gradient is never consumed).
    pub d_x: Matrix,
    /// Gradient w.r.t. `W`.
    pub d_w: Matrix,
    /// Gradient w.r.t. the attention coefficients.
    pub d_alpha: Vec<f64>,
    /// Gradient w.r.t. the source scores.
    pub d_s: Vec<f64>,
    /// Gradient w.r.t. the destination scores.
    pub d_t: Vec<f64>,
    /// Gradient w.r.t. `a_src`.
    pub d_a_src: Vec<f64>,
    /// Gradient w.r.t. `a_dst`.
    pub d_a_dst: Vec<f64>,
}

/// Forward/backward intermediates of the two-layer GAT.
#[derive(Debug, Clone, Default)]
pub struct GatBufs {
    /// First attention layer.
    pub l1: GatLayerBufs,
    /// Second attention layer.
    pub l2: GatLayerBufs,
    /// `ReLU(l1.out)`.
    pub h1: Matrix,
    /// Gradient w.r.t. `l1.out`.
    pub d_pre1: Matrix,
}
