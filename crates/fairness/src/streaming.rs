//! Streamed InFoRM bias for large graphs.
//!
//! [`bias`](crate::bias) materialises the Jaccard similarity `S` and its
//! Laplacian `L_S` (both `O(n · 2-hop-degree)` sparse matrices) before the
//! trace.  At the million-node scale that is the dominant allocation, so this
//! module recomputes one Laplacian row at a time from the closed
//! neighbourhoods and streams the trace
//! `Tr(Pᵀ L_S P) = Σ_r P_r · (L_S P)_r` over row blocks: no `S`, no `L_S`,
//! and certainly no `n×n` dense object ever exists.
//!
//! Bit-identity with the dense oracle is load-bearing (the scale-layer tests
//! pin it across block sizes and thread counts): every step replays the exact
//! floating-point chain of the materialised path —
//!
//! * the Laplacian row is assembled in the same sorted column order
//!   `from_triplets` would produce, with the degree accumulated over the
//!   similarity entries in column order exactly like `similarity_laplacian`;
//! * the row of `L_S P` runs through the shared
//!   [`spmm_row_kernel`](ppfr_graph::spmm_row_kernel) 4-wide microkernel that
//!   `SparseMatrix::matmul_dense` uses;
//! * per-row trace terms are written into an `n`-vector and reduced by one
//!   serial in-order sum, matching the oracle's row loop regardless of block
//!   size or thread count.

use ppfr_graph::{closed_neighbourhoods, jaccard_row, spmm_row_kernel, Graph};
use ppfr_linalg::{par_row_blocks, Matrix};

/// One trace term `P_r · (L_S P)_r`, with the Laplacian row rebuilt on the
/// fly from the closed neighbourhoods.  `lp_row` is caller-provided scratch
/// of length `probs.cols()`.
fn bias_row_term(r: usize, closed: &[Vec<usize>], probs: &Matrix, lp_row: &mut [f64]) -> f64 {
    let srow = jaccard_row(r, closed);
    // Degree in similarity-column order — the accumulation order of
    // `similarity_laplacian`.
    let mut degree = 0.0;
    for &(_, _, s) in &srow {
        degree += s;
    }
    // Laplacian row in sorted column order: off-diagonals `-s` with the
    // diagonal `degree` merged at its sorted position, exactly as
    // `from_triplets` lays the row out.
    let mut cols = Vec::with_capacity(srow.len() + 1);
    let mut vals = Vec::with_capacity(srow.len() + 1);
    let mut diag_placed = false;
    for &(_, j, s) in &srow {
        if !diag_placed && j > r {
            cols.push(r);
            vals.push(degree);
            diag_placed = true;
        }
        cols.push(j);
        vals.push(-s);
    }
    if !diag_placed {
        cols.push(r);
        vals.push(degree);
    }
    lp_row.fill(0.0);
    spmm_row_kernel(&cols, &vals, probs, lp_row);
    // Same left-fold as `Matrix::row_dot` (zip–map–sum from 0.0).
    let mut term = 0.0;
    for (&p, &lp) in probs.row(r).iter().zip(lp_row.iter()) {
        term += p * lp;
    }
    term
}

/// Streamed InFoRM bias `Tr(Pᵀ L_S P) / n`, bit-identical to
/// `bias(probs, &similarity_laplacian(&jaccard_similarity(graph)))` for every
/// `block_rows ≥ 1` and thread count, without materialising `S` or `L_S`.
///
/// `block_rows` is the number of trace rows per parallel work item; callers
/// pass a fixed constant (never derived from the thread count).
///
/// # Panics
/// Panics when `probs` has fewer or more rows than the graph has nodes, or
/// when `block_rows` is zero.
pub fn streamed_bias(graph: &Graph, probs: &Matrix, block_rows: usize) -> f64 {
    let _span = ppfr_telemetry::span!("streamed_bias");
    let n = graph.n_nodes();
    assert_eq!(probs.rows(), n, "predictions must match graph nodes");
    assert!(block_rows > 0, "block_rows must be positive");
    if n == 0 {
        return 0.0;
    }
    let closed = closed_neighbourhoods(graph);
    let mut rowterms = vec![0.0; n];
    par_row_blocks(&mut rowterms, 1, block_rows, |first_row, block| {
        let mut lp_row = vec![0.0; probs.cols()];
        for (dr, term) in block.iter_mut().enumerate() {
            *term = bias_row_term(first_row + dr, &closed, probs, &mut lp_row);
        }
    });
    finish_trace(&rowterms)
}

/// Serial in-order reduction of the per-row trace terms — the oracle's
/// `tr += row_dot` loop, independent of how the terms were produced.
fn finish_trace(rowterms: &[f64]) -> f64 {
    let mut tr = 0.0;
    for &t in rowterms {
        tr += t;
    }
    tr / rowterms.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias;
    use ppfr_graph::{jaccard_similarity, similarity_laplacian};

    fn ring_with_chords(n: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            if i % 3 == 0 {
                edges.push((i, (i + 7) % n));
            }
        }
        Graph::from_edges(n, &edges)
    }

    fn smooth_probs(n: usize, c: usize) -> Matrix {
        Matrix::from_vec(
            n,
            c,
            (0..n * c)
                .map(|v| 0.5 + 0.4 * ((v as f64) * 0.37).sin())
                .collect(),
        )
    }

    #[test]
    fn streamed_bias_is_bit_identical_to_dense_oracle_across_block_sizes() {
        let n = 41;
        let g = ring_with_chords(n);
        let probs = smooth_probs(n, 3);
        let oracle = bias(&probs, &similarity_laplacian(&jaccard_similarity(&g)));
        for block_rows in [1, 7, 64, n] {
            let streamed = streamed_bias(&g, &probs, block_rows);
            assert_eq!(
                streamed.to_bits(),
                oracle.to_bits(),
                "streamed bias differs from oracle at block_rows={block_rows}"
            );
        }
    }

    #[test]
    fn streamed_bias_is_bit_identical_across_thread_counts() {
        // 37 rows in blocks of 7 reach the pool at 2 and 4 threads.
        let n = 37;
        let g = ring_with_chords(n);
        let probs = smooth_probs(n, 4);
        let serial = ppfr_linalg::parallel::with_forced_threads(1, || streamed_bias(&g, &probs, 7));
        for threads in [2, 4] {
            let parallel = ppfr_linalg::parallel::with_forced_threads(threads, || {
                streamed_bias(&g, &probs, 7)
            });
            assert_eq!(
                parallel.to_bits(),
                serial.to_bits(),
                "streamed bias differs at {threads} threads"
            );
        }
    }

    #[test]
    fn uniform_predictions_have_zero_streamed_bias() {
        let g = ring_with_chords(12);
        let probs = Matrix::filled(12, 3, 1.0 / 3.0);
        assert!(streamed_bias(&g, &probs, 4).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_streams_to_zero() {
        let g = Graph::empty(0);
        let probs = Matrix::zeros(0, 2);
        assert_eq!(streamed_bias(&g, &probs, 8), 0.0);
    }
}
