//! Jaccard similarity between node neighbourhoods and its Laplacian.
//!
//! Following the paper (§III), the neighbour set used for Jaccard similarity
//! includes the node itself (the `A + I` normalisation makes `v_i ∈ N(i)`),
//! which is what makes `S_{i,j} > 0` for 1-hop pairs (Lemma V.1, case k=1).

use crate::{Graph, SparseMatrix};
use ppfr_linalg::par_rows;
use std::collections::BTreeSet;

/// Size of the intersection of two sorted slices.
fn intersection_size(a: &[usize], b: &[usize]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Jaccard similarity matrix `S` derived from the adjacency structure.
///
/// `S_{i,j} = |N(i) ∩ N(j)| / |N(i) ∪ N(j)|` where `N(i)` is the closed
/// neighbourhood `{i} ∪ neighbours(i)`.  Only pairs within two hops can be
/// non-zero (Lemma V.1), so the matrix is built by enumerating, for every
/// node `i`, the union of its neighbours' neighbourhoods.
///
/// The diagonal is excluded (a node's similarity with itself carries no
/// fairness signal and would only add a constant to the bias).
pub fn jaccard_similarity(graph: &Graph) -> SparseMatrix {
    let n = graph.n_nodes();
    let closed = closed_neighbourhoods(graph);
    // Row i only reads the closed neighbourhoods, so rows are independent;
    // computed in parallel and concatenated in row order, so the triplets
    // do not depend on the thread count.
    let per_row = par_rows(n, |i| jaccard_row(i, &closed));
    let triplets: Vec<(usize, usize, f64)> = per_row.into_iter().flatten().collect();
    SparseMatrix::from_triplets(n, n, &triplets)
}

/// Sorted closed neighbourhoods `{v} ∪ neighbours(v)` for every node.
///
/// Public because the streamed-bias path in `ppfr_fairness` rebuilds one
/// similarity-Laplacian row at a time from these neighbourhoods instead of
/// materialising `S` or `L_S`.
pub fn closed_neighbourhoods(graph: &Graph) -> Vec<Vec<usize>> {
    (0..graph.n_nodes())
        .map(|v| {
            let mut set: Vec<usize> = graph.neighbors(v).to_vec();
            match set.binary_search(&v) {
                Ok(_) => {}
                Err(pos) => set.insert(pos, v),
            }
            set
        })
        .collect()
}

/// All non-zero `(i, j, S_ij)` entries of row `i`; shared by
/// [`jaccard_similarity`] and the streamed-bias path in `ppfr_fairness` so
/// both see identical triplet sequences.  Entries come out sorted by
/// `j`, duplicate-free and without the diagonal.
pub fn jaccard_row(i: usize, closed: &[Vec<usize>]) -> Vec<(usize, usize, f64)> {
    // Candidate js: anything within two hops of i (via closed neighbourhoods).
    let mut candidates: BTreeSet<usize> = BTreeSet::new();
    for &u in &closed[i] {
        for &w in &closed[u] {
            if w != i {
                candidates.insert(w);
            }
        }
    }
    let mut row = Vec::with_capacity(candidates.len());
    for &j in &candidates {
        let inter = intersection_size(&closed[i], &closed[j]);
        if inter == 0 {
            continue;
        }
        let union = closed[i].len() + closed[j].len() - inter;
        row.push((i, j, inter as f64 / union as f64));
    }
    row
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
        // Ring with chords: rich 2-hop structure across many rows.
        let n = 30;
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
