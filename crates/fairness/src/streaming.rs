//! Streamed InFoRM bias for large graphs.
//!
//! [`bias`](crate::bias) materialises the Jaccard similarity `S` and its
//! Laplacian `L_S` (both `O(n · 2-hop-degree)` sparse matrices) before the
//! trace.  At the million-node scale that is the dominant allocation, so this
//! module recomputes one Laplacian row at a time from the wedge-counting
//! row kernel [`jaccard_wedge_row`], which reads the graph's neighbour lists
//! directly, and streams the trace
//! `Tr(Pᵀ L_S P) = Σ_r P_r · (L_S P)_r` over row blocks: no `S`, no `L_S`,
//! and certainly no `n×n` dense object ever exists.  Each block owns one set
//! of row buffers, so no row allocates.
//!
//! Bit-identity with the dense oracle is load-bearing (the scale-layer tests
//! pin it across block sizes and thread counts): every step replays the exact
//! floating-point chain of the materialised path —
//!
//! * the similarity row comes from the same kernel `jaccard_similarity`
//!   calls;
//! * the Laplacian row is assembled in the same sorted column order
//!   `from_triplets` would produce, with the degree accumulated over the
//!   similarity entries in column order exactly like `similarity_laplacian`;
//! * the row of `L_S P` runs through the shared
//!   [`spmm_row_kernel`](ppfr_graph::spmm_row_kernel) 4-wide microkernel that
//!   `SparseMatrix::matmul_dense` uses;
//! * per-row trace terms are written into an `n`-vector and reduced by one
//!   serial in-order sum, matching the oracle's row loop regardless of block
//!   size or thread count.

use ppfr_graph::{jaccard_wedge_row, spmm_row_kernel, Graph};
use ppfr_linalg::{par_row_blocks, Matrix};

/// Per-block buffers of [`bias_row_term`]: every row of a block reuses them.
struct RowScratch {
    wedges: Vec<usize>,
    similarity: Vec<(usize, f64)>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Row `r` of `L_S P`, `probs.cols()` long.
    lp_row: Vec<f64>,
}

impl RowScratch {
    fn new(n_classes: usize) -> Self {
        Self {
            wedges: Vec::new(),
            similarity: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            lp_row: vec![0.0; n_classes],
        }
    }
}

/// One trace term `P_r · (L_S P)_r`, with the Laplacian row rebuilt on the
/// fly from the similarity row of `r`.
fn bias_row_term(graph: &Graph, r: usize, probs: &Matrix, scratch: &mut RowScratch) -> f64 {
    let RowScratch {
        wedges,
        similarity,
        cols,
        vals,
        lp_row,
    } = scratch;
    jaccard_wedge_row(graph, r, wedges, similarity);
    // Degree in similarity-column order — the accumulation order of
    // `similarity_laplacian`.
    let mut degree = 0.0;
    for &(_, s) in similarity.iter() {
        degree += s;
    }
    // Laplacian row in sorted column order: off-diagonals `-s` with the
    // diagonal `degree` merged at its sorted position, exactly as
    // `from_triplets` lays the row out.
    cols.clear();
    vals.clear();
    let mut diag_placed = false;
    for &(j, s) in similarity.iter() {
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
    spmm_row_kernel(cols, vals, probs, lp_row);
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
    let mut rowterms = vec![0.0; n];
    par_row_blocks(&mut rowterms, 1, block_rows, |first_row, block| {
        let mut scratch = RowScratch::new(probs.cols());
        for (dr, term) in block.iter_mut().enumerate() {
            *term = bias_row_term(graph, first_row + dr, probs, &mut scratch);
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

    /// A hub with 30 leaves, then three isolated nodes: one row with a
    /// 30-entry similarity row, rows whose only wedges run through the hub,
    /// and rows with no wedge at all.
    fn star_with_isolated_nodes() -> Graph {
        let edges: Vec<(usize, usize)> = (1..=30).map(|leaf| (0, leaf)).collect();
        Graph::from_edges(34, &edges)
    }

    /// The graphs both bit-identity pins loop over.
    fn pinned_graphs() -> [Graph; 2] {
        [ring_with_chords(41), star_with_isolated_nodes()]
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
        for g in pinned_graphs() {
            let n = g.n_nodes();
            let probs = smooth_probs(n, 3);
            let oracle = bias(&probs, &similarity_laplacian(&jaccard_similarity(&g)));
            for block_rows in [1, 7, 64, n] {
                let streamed = streamed_bias(&g, &probs, block_rows);
                assert_eq!(
                    streamed.to_bits(),
                    oracle.to_bits(),
                    "streamed bias differs from oracle at n={n}, block_rows={block_rows}"
                );
            }
        }
    }

    #[test]
    fn streamed_bias_is_bit_identical_across_thread_counts() {
        // 41 and 34 rows reach the pool at 2 and 4 threads whenever the
        // block size leaves more than one block.
        for g in pinned_graphs() {
            let n = g.n_nodes();
            let probs = smooth_probs(n, 4);
            for block_rows in [1, 7, 64, n] {
                let serial = ppfr_linalg::parallel::with_forced_threads(1, || {
                    streamed_bias(&g, &probs, block_rows)
                });
                for threads in [2, 4] {
                    let parallel = ppfr_linalg::parallel::with_forced_threads(threads, || {
                        streamed_bias(&g, &probs, block_rows)
                    });
                    assert_eq!(
                        parallel.to_bits(),
                        serial.to_bits(),
                        "streamed bias differs at n={n}, block_rows={block_rows}, \
                         {threads} threads"
                    );
                }
            }
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
