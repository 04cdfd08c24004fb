//! Jaccard similarity between node neighbourhoods and its Laplacian.
//!
//! Following the paper (§III), the neighbour set used for Jaccard similarity
//! includes the node itself (the `A + I` normalisation makes `v_i ∈ N(i)`),
//! which is what makes `S_{i,j} > 0` for 1-hop pairs (Lemma V.1, case k=1).

use crate::{Graph, SparseMatrix};
use ppfr_linalg::par_rows;

/// Rows of `S` per parallel work item of [`jaccard_similarity`]: a fixed
/// constant, never derived from the thread count.
const JACCARD_BLOCK_ROWS: usize = 64;

/// The non-zero entries `(j, S_ij)` of row `i` of the Jaccard similarity,
/// written into `row` sorted by `j`, duplicate-free and without the
/// diagonal.  The one Jaccard kernel: [`jaccard_similarity`] and the
/// streamed-bias path in `ppfr_fairness` both build their rows here.
///
/// By Lemma V.1 only pairs within two hops share a closed neighbour, so a
/// row is a wedge count: `|N(i) ∩ N(j)|` is the number of paths
/// `i – u – j` with `u ∈ N(i)` and `j ∈ N(u)`.  The kernel pushes every such
/// `j ≠ i` into `wedges` and sorts it; a run of `c` equal values `j` is
/// `|N(i) ∩ N(j)| = c`, and `|N(i) ∪ N(j)| = |N(i)| + |N(j)| − c`.  The graph
/// stores no self-loops, so `|N(v)| = deg v + 1`.
///
/// `wedges` and `row` are caller-owned scratch: both are cleared first, so
/// a caller walking many rows allocates nothing per row once they have
/// grown.
pub fn jaccard_wedge_row(
    graph: &Graph,
    i: usize,
    wedges: &mut Vec<usize>,
    row: &mut Vec<(usize, f64)>,
) {
    wedges.clear();
    row.clear();
    let neighbours = graph.neighbors(i);
    // u = i contributes N(i) \ {i}; every other u ∈ N(i) contributes itself
    // and its neighbours except i.
    wedges.extend_from_slice(neighbours);
    for &u in neighbours {
        wedges.push(u);
        wedges.extend(graph.neighbors(u).iter().copied().filter(|&w| w != i));
    }
    wedges.sort_unstable();
    let closed_i = neighbours.len() + 1;
    for run in wedges.chunk_by(|a, b| a == b) {
        let j = run[0];
        let inter = run.len();
        let union = closed_i + graph.degree(j) + 1 - inter;
        row.push((j, inter as f64 / union as f64));
    }
}

/// Jaccard similarity matrix `S` derived from the adjacency structure.
///
/// `S_{i,j} = |N(i) ∩ N(j)| / |N(i) ∪ N(j)|` where `N(i)` is the closed
/// neighbourhood `{i} ∪ neighbours(i)`.  Only pairs within two hops can be
/// non-zero (Lemma V.1), so each row is one [`jaccard_wedge_row`] wedge
/// count.
///
/// The diagonal is excluded (a node's similarity with itself carries no
/// fairness signal and would only add a constant to the bias).
pub fn jaccard_similarity(graph: &Graph) -> SparseMatrix {
    let n = graph.n_nodes();
    // Blocks of rows are independent and concatenated in row order, so the
    // CSR arrays do not depend on the thread count.
    let blocks = par_rows(n.div_ceil(JACCARD_BLOCK_ROWS), |b| {
        let first = b * JACCARD_BLOCK_ROWS;
        jaccard_block(graph, first..n.min(first + JACCARD_BLOCK_ROWS))
    });
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for (row_ends, entries) in blocks {
        let offset = col_idx.len();
        row_ptr.extend(row_ends.iter().map(|&end| offset + end));
        col_idx.extend(entries.iter().map(|&(j, _)| j));
        values.extend(entries.iter().map(|&(_, s)| s));
    }
    SparseMatrix::from_csr_parts(n, n, row_ptr, col_idx, values)
}

/// Rows `rows` of `S`: the block's entries in row order, and the entry
/// count after each row.
fn jaccard_block(graph: &Graph, rows: std::ops::Range<usize>) -> (Vec<usize>, Vec<(usize, f64)>) {
    let mut wedges = Vec::new();
    let mut row = Vec::new();
    let mut row_ends = Vec::with_capacity(rows.len());
    let mut entries = Vec::new();
    for i in rows {
        jaccard_wedge_row(graph, i, &mut wedges, &mut row);
        entries.extend_from_slice(&row);
        row_ends.push(entries.len());
    }
    (row_ends, entries)
}

/// Laplacian `L_S = D_S − S` of a (symmetric) similarity matrix, where `D_S`
/// is the diagonal of row sums.  This is the operator inside the InFoRM bias
/// `Tr(Yᵀ L_S Y)`.
pub fn similarity_laplacian(similarity: &SparseMatrix) -> SparseMatrix {
    let n = similarity.n_rows();
    assert_eq!(n, similarity.n_cols(), "similarity matrix must be square");
    let mut triplets = Vec::with_capacity(similarity.nnz() + n);
    for r in 0..n {
        let mut degree = 0.0;
        for (c, v) in similarity.row(r) {
            if r == c {
                continue;
            }
            degree += v;
            triplets.push((r, c, -v));
        }
        triplets.push((r, r, degree));
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hops::shortest_hops_from;
    use ppfr_linalg::Matrix;

    fn path5() -> Graph {
        Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn jaccard_is_symmetric_and_in_unit_interval() {
        let g = path5();
        let s = jaccard_similarity(&g);
        for (i, j, v) in s.iter() {
            assert!(v > 0.0 && v <= 1.0, "S[{i},{j}] = {v} out of (0,1]");
            assert!((s.get(j, i) - v).abs() < 1e-12, "S must be symmetric");
        }
    }

    #[test]
    fn lemma_v1_one_and_two_hop_pairs_have_positive_similarity() {
        // Lemma V.1: S_{i,j} > 0 iff the pair is within 2 hops.
        let g = path5();
        let s = jaccard_similarity(&g);
        for i in 0..5 {
            let hops = shortest_hops_from(&g, i);
            for (j, &hop) in hops.iter().enumerate() {
                if i == j {
                    continue;
                }
                let sij = s.get(i, j);
                if hop <= 2 {
                    assert!(sij > 0.0, "pair ({i},{j}) at hop {hop} should have S>0");
                } else {
                    assert_eq!(sij, 0.0, "pair ({i},{j}) at hop {hop} should have S=0");
                }
            }
        }
    }

    #[test]
    fn jaccard_of_twin_nodes_is_one() {
        // Nodes 0 and 1 are connected and share the exact same closed
        // neighbourhood {0,1,2}: similarity must be 1.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let s = jaccard_similarity(&g);
        assert!((s.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_rows_sum_to_zero_and_is_psd_quadratic_form() {
        let g = path5();
        let s = jaccard_similarity(&g);
        let l = similarity_laplacian(&s);
        for r in 0..5 {
            assert!(
                l.row_sum(r).abs() < 1e-12,
                "Laplacian row {r} must sum to 0"
            );
        }
        // xᵀ L x = ½ Σ S_ij (x_i - x_j)² ≥ 0 for arbitrary x.
        let x = Matrix::from_rows(&[vec![1.0], vec![-2.0], vec![0.5], vec![3.0], vec![0.0]]);
        let lx = l.matmul_dense(&x);
        let quad: f64 = (0..5).map(|i| x[(i, 0)] * lx[(i, 0)]).sum();
        assert!(
            quad >= -1e-12,
            "Laplacian quadratic form must be non-negative, got {quad}"
        );
    }

    #[test]
    fn laplacian_quadratic_form_matches_pairwise_sum() {
        let g = path5();
        let s = jaccard_similarity(&g);
        let l = similarity_laplacian(&s);
        let x = Matrix::from_rows(&[vec![0.3], vec![1.7], vec![-0.4], vec![2.2], vec![0.9]]);
        let lx = l.matmul_dense(&x);
        let quad: f64 = (0..5).map(|i| x[(i, 0)] * lx[(i, 0)]).sum();
        let mut pairwise = 0.0;
        for (i, j, v) in s.iter() {
            if i == j {
                continue;
            }
            let d = x[(i, 0)] - x[(j, 0)];
            pairwise += 0.5 * v * d * d;
        }
        assert!(
            (quad - pairwise).abs() < 1e-9,
            "Tr form {quad} vs pairwise {pairwise}"
        );
    }

    #[test]
    fn parallel_jaccard_equals_serial_exactly() {
        // Ring with chords: rich 2-hop structure across enough rows for
        // several row blocks to reach the pool.
        let n = 300;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            if i % 3 == 0 {
                edges.push((i, (i + 7) % n));
            }
        }
        let g = Graph::from_edges(n, &edges);
        let serial = ppfr_linalg::parallel::with_forced_threads(1, || jaccard_similarity(&g));
        for threads in [2, 4] {
            let parallel =
                ppfr_linalg::parallel::with_forced_threads(threads, || jaccard_similarity(&g));
            assert_eq!(parallel, serial, "similarity differs at {threads} threads");
        }
    }

    #[test]
    fn empty_graph_has_zero_similarity_between_distinct_nodes() {
        let g = Graph::empty(4);
        let s = jaccard_similarity(&g);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(s.get(i, j), 0.0);
                }
            }
        }
    }
}
