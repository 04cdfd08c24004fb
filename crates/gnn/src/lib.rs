//! Graph neural networks for the PPFR stack.
//!
//! Three models with hand-derived forward and backward passes — [`Gcn`]
//! (Kipf & Welling), [`Gat`] (single-head Graph Attention Network) and
//! [`GraphSage`] (mean aggregator with optional neighbour sampling) — behind
//! the object-safe [`GnnModel`] trait, plus the weighted / fairness-regularised
//! training loop ([`train`]) used by vanilla training, the Reg baseline and
//! PPFR fine-tuning.
//!
//! All gradients are verified against central finite differences in the test
//! suites of the individual model modules.

#![forbid(unsafe_code)]

mod context;
mod gat;
mod gcn;
mod model;
mod sage;
mod sampling;
mod train;
mod workspace;

pub use context::GraphContext;
pub use gat::Gat;
pub use gcn::Gcn;
pub use model::{AnyModel, GnnModel, ModelKind};
pub use sage::GraphSage;
pub use sampling::{sample_subgraph, train_sampled, SampledContext};
pub use train::{train, train_with_workspace, FairnessReg, TrainConfig, TrainReport};
pub use workspace::{GatBufs, GatLayerBufs, GcnBufs, SageBufs, TrainWorkspace};
