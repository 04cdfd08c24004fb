//! Graph substrate for the PPFR stack.
//!
//! Provides the undirected [`Graph`] type (edge set + CSR adjacency), the
//! normalised propagation operators used by GCN/GAT/GraphSAGE, the Jaccard
//! similarity matrix and its Laplacian (the individual-fairness similarity of
//! InFoRM; every row of it, dense or streamed, comes from the one
//! wedge-counting kernel [`jaccard_wedge_row`]), k-hop analysis used by
//! Lemma V.1, homophily/sparsity statistics and edge-perturbation utilities
//! (`A' = A + ΔA`).

#![forbid(unsafe_code)]

mod csr;
mod graph;
mod hops;
mod perturb;
mod similarity;
mod stats;

pub use csr::{spmm_row_kernel, SparseMatrix};
pub use graph::Graph;
pub use hops::{hop_histogram, k_hop_pairs, shortest_hops_from};
pub use perturb::{add_edges, EdgePerturbation};
pub use similarity::{jaccard_similarity, jaccard_wedge_row, similarity_laplacian};
pub use stats::{average_degree, edge_density, homophily, intra_inter_probabilities};
