//! Neural-network primitives shared by every GNN in the workspace:
//! the weighted softmax-cross-entropy loss of Eq. (6)/(7), the Adam and SGD
//! optimisers, and finite-difference gradient-check helpers used by tests.

#![forbid(unsafe_code)]

mod gradcheck;
mod loss;
mod optim;

pub use gradcheck::{central_difference, max_relative_error};
pub use loss::{accuracy, cross_entropy_node_into, weighted_cross_entropy_into};
pub use optim::{Adam, Optimizer, Sgd};
