//! Property-based integration tests on the core invariants of the stack.

use ppfr_gnn::sample_subgraph;
use ppfr_graph::{jaccard_similarity, similarity_laplacian, Graph, SparseMatrix};
use ppfr_linalg::parallel::with_forced_threads;
use ppfr_linalg::{row_softmax, Matrix};
use ppfr_privacy::{auc_from_distances, edge_rand, lap_graph, pairwise_distance, DistanceKind};
use ppfr_qclp::{solve, QclpProblem, SolverOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Strategy: a random undirected graph with `n ∈ [3, 24]` nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(3 * n))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// Strategy: a random probability matrix with rows summing to one.
fn arb_probs(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-4.0f64..4.0, rows * cols)
        .prop_map(move |logits| row_softmax(&Matrix::from_vec(rows, cols, logits)))
}

/// Strategy: an `n×d` feature matrix, dimensions down to zero, half of it
/// `±0.0` and the rest negative or positive, with one planted NaN and one
/// planted `±∞` (each may fall outside the matrix), then one row and one
/// column zeroed.
fn arb_features() -> impl Strategy<Value = Matrix> {
    (0usize..10, 0usize..10).prop_flat_map(|(n, d)| {
        let cells = proptest::collection::vec((0usize..8, -3.0f64..3.0), n * d);
        let planted = (0..n * d + 2, 0..n * d + 2);
        (cells, planted, (0..n + 1, 0..d + 1)).prop_map(
            move |(cells, (nan_at, inf_at), (empty_row, empty_col))| {
                let mut data: Vec<f64> = cells
                    .into_iter()
                    .map(|(code, v)| match code {
                        0..=2 => 0.0,
                        3 => -0.0,
                        _ => v,
                    })
                    .collect();
                if let Some(x) = data.get_mut(nan_at) {
                    *x = f64::NAN;
                }
                if let Some(x) = data.get_mut(inf_at) {
                    *x = if inf_at % 2 == 0 {
                        f64::INFINITY
                    } else {
                        f64::NEG_INFINITY
                    };
                }
                let mut x = Matrix::from_vec(n, d, data);
                if empty_row < n {
                    x.row_mut(empty_row).fill(0.0);
                }
                if empty_col < d {
                    (0..n).for_each(|r| x[(r, empty_col)] = -0.0);
                }
                x
            },
        )
    })
}

/// Strategy: features `X`, a finite `W` (`d×h`) and a finite `G` (`n×h`).
fn arb_features_w_g() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (arb_features(), 0usize..6).prop_flat_map(|(x, h)| {
        let (n, d) = x.shape();
        let finite = move |rows: usize| {
            proptest::collection::vec(-2.0f64..2.0, rows * h)
                .prop_map(move |v| Matrix::from_vec(rows, h, v))
        };
        (finite(d), finite(n)).prop_map(move |(w, g)| (x.clone(), w, g))
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Strategy: `n ∈ [0, 14)` nodes and an edge list over them that holds
/// self-loops, repeated pairs and pairs listed in both directions.  It has
/// at most `2n` draws, so isolated nodes are common.
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (0usize..14).prop_flat_map(|n| {
        let node = 0..n.max(1);
        proptest::collection::vec((node.clone(), node, 0usize..4), 0..2 * n + 1).prop_map(
            move |draws| {
                let mut edges = Vec::new();
                for (u, v, kind) in draws {
                    match kind {
                        0 => edges.push((u, u)),
                        1 => edges.extend([(u, v), (v, u)]),
                        2 => edges.extend([(u, v), (u, v)]),
                        _ => edges.push((u, v)),
                    }
                }
                (n, edges)
            },
        )
    })
}

/// Oracle: the neighbour rows of one `BTreeSet` per node, which drops
/// self-loops and repeats and sorts each row.
fn oracle_rows(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut sets = vec![BTreeSet::new(); n];
    for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
        sets[u].insert(v);
        sets[v].insert(u);
    }
    sets.into_iter().map(|s| s.into_iter().collect()).collect()
}

/// Oracle: `Â` from triplets, the self loop listed first in each row and
/// `from_triplets` bucketing and sorting the rows.
fn oracle_normalized_adjacency(rows: &[Vec<usize>]) -> SparseMatrix {
    let n = rows.len();
    let deg_tilde: Vec<f64> = rows.iter().map(|row| row.len() as f64 + 1.0).collect();
    let mut triplets = Vec::new();
    for (u, row) in rows.iter().enumerate() {
        triplets.push((u, u, 1.0 / deg_tilde[u]));
        for &v in row {
            triplets.push((u, v, 1.0 / (deg_tilde[u] * deg_tilde[v]).sqrt()));
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

/// Oracle: the neighbour-mean operator `M` from triplets.
fn oracle_mean_aggregation(rows: &[Vec<usize>]) -> SparseMatrix {
    let n = rows.len();
    let mut triplets = Vec::new();
    for (u, row) in rows.iter().enumerate() {
        for &v in row {
            triplets.push((u, v, 1.0 / row.len() as f64));
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

/// Oracle: the neighbour rows of a sample that shuffles a fresh `to_vec`
/// of each node's neighbours.
fn oracle_sample(graph: &Graph, fanout: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for v in 0..graph.n_nodes() {
        let neighbors = graph.neighbors(v);
        if neighbors.is_empty() {
            continue;
        }
        let mut pool: Vec<usize> = neighbors.to_vec();
        pool.shuffle(&mut rng);
        for &u in pool.iter().take(fanout) {
            edges.push((v, u));
        }
    }
    oracle_rows(graph.n_nodes(), &edges)
}

/// A CSR matrix's shape and its stored entries in storage order, values
/// by bits.
fn csr_bits(m: &SparseMatrix) -> (usize, usize, Vec<(usize, usize, u64)>) {
    let entries = m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
    (m.n_rows(), m.n_cols(), entries)
}

/// Asserts that the graph built from `edges`, its operators and its
/// neighbour samples equal the oracles above.
fn assert_graph_matches_oracles(n: usize, edges: &[(usize, usize)], seed: u64) {
    let graph = Graph::from_edges(n, edges);
    let rows = oracle_rows(n, edges);
    assert_eq!(graph.n_nodes(), n);
    for (v, row) in rows.iter().enumerate() {
        assert_eq!(graph.neighbors(v), row.as_slice(), "neighbours of {v}");
        assert_eq!(graph.degree(v), row.len(), "degree of {v}");
        for u in 0..n {
            assert_eq!(graph.has_edge(v, u), row.contains(&u), "edge ({v},{u})");
        }
    }
    let oracle_edges: BTreeSet<(usize, usize)> = edges
        .iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    assert_eq!(graph.n_edges(), oracle_edges.len());
    assert_eq!(
        graph.edges().collect::<Vec<_>>(),
        oracle_edges.into_iter().collect::<Vec<_>>()
    );
    assert_eq!(
        csr_bits(&graph.normalized_adjacency()),
        csr_bits(&oracle_normalized_adjacency(&rows)),
        "normalised adjacency"
    );
    assert_eq!(
        csr_bits(&graph.mean_aggregation()),
        csr_bits(&oracle_mean_aggregation(&rows)),
        "mean aggregation"
    );
    let max_degree = rows.iter().map(Vec::len).max().unwrap_or(0);
    for fanout in [1, 2, 3, max_degree.max(1), max_degree + 1] {
        let sampled = sample_subgraph(&graph, fanout, seed);
        let want = oracle_sample(&graph, fanout, seed);
        assert_eq!(sampled.n_nodes(), n);
        for (v, row) in want.iter().enumerate() {
            assert_eq!(
                sampled.neighbors(v),
                row.as_slice(),
                "fanout {fanout}: sampled neighbours of {v}"
            );
        }
    }
    // At a fanout of at least the maximum degree every node keeps all of
    // its neighbours, so the sample is the graph itself.
    let full = sample_subgraph(&graph, max_degree.max(1), seed);
    assert_eq!(
        full.edges().collect::<Vec<_>>(),
        graph.edges().collect::<Vec<_>>()
    );
}

#[test]
fn empty_and_single_node_graphs_match_the_oracles() {
    for (n, edges) in [
        (0, vec![]),
        (1, vec![]),
        (1, vec![(0, 0), (0, 0)]),
        (2, vec![(1, 1)]),
        (2, vec![(0, 1), (1, 0), (0, 1)]),
    ] {
        assert_graph_matches_oracles(n, &edges, 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn feature_csr_products_equal_the_dense_kernels_bitwise(case in arb_features_w_g()) {
        let (x, w, g) = case;
        let csr = SparseMatrix::from_dense(&x);
        prop_assert_eq!((csr.n_rows(), csr.n_cols()), x.shape());
        prop_assert_eq!(csr.nnz(), x.as_slice().iter().filter(|&&v| v != 0.0).count());
        let (mut dense_out, mut csr_out) = (Matrix::zeros(2, 2), Matrix::zeros(3, 1));
        for threads in [1, 4] {
            with_forced_threads(threads, || {
                x.matmul_into(&w, &mut dense_out);
                csr.matmul_dense_into(&w, &mut csr_out);
            });
            prop_assert_eq!(csr_out.shape(), dense_out.shape());
            prop_assert_eq!(bits(&csr_out), bits(&dense_out), "X·W at {} threads", threads);
            with_forced_threads(threads, || {
                x.matmul_at_b_into(&g, &mut dense_out);
                csr.transpose_matmul_dense_into(&g, &mut csr_out);
            });
            prop_assert_eq!(csr_out.shape(), dense_out.shape());
            prop_assert_eq!(bits(&csr_out), bits(&dense_out), "Xᵀ·G at {} threads", threads);
        }
    }

    #[test]
    fn graph_csr_operators_and_samples_match_the_btreeset_and_triplet_oracles(
        case in arb_edge_list(),
        seed in 0u64..1000,
    ) {
        let (n, edges) = case;
        assert_graph_matches_oracles(n, &edges, seed);
    }

    #[test]
    fn jaccard_similarity_is_symmetric_bounded_and_laplacian_is_psd(graph in arb_graph()) {
        let s = jaccard_similarity(&graph);
        for (i, j, v) in s.iter() {
            prop_assert!(v > 0.0 && v <= 1.0 + 1e-12, "S[{},{}] = {}", i, j, v);
            prop_assert!((s.get(j, i) - v).abs() < 1e-12);
        }
        // Every off-diagonal entry equals the definition over closed
        // neighbourhoods, computed here independently of the row kernel.
        let closed: Vec<BTreeSet<usize>> = (0..graph.n_nodes())
            .map(|v| graph.neighbors(v).iter().copied().chain([v]).collect())
            .collect();
        for i in 0..graph.n_nodes() {
            for j in (0..graph.n_nodes()).filter(|&j| j != i) {
                let inter = closed[i].intersection(&closed[j]).count();
                let want = if inter == 0 {
                    0.0
                } else {
                    inter as f64 / closed[i].union(&closed[j]).count() as f64
                };
                prop_assert_eq!(
                    s.get(i, j).to_bits(),
                    want.to_bits(),
                    "S[{},{}] = {} but the definition gives {}",
                    i,
                    j,
                    s.get(i, j),
                    want
                );
            }
        }
        let l = similarity_laplacian(&s);
        // Quadratic form with an arbitrary deterministic vector is non-negative.
        let x = Matrix::from_vec(
            graph.n_nodes(),
            1,
            (0..graph.n_nodes()).map(|i| ((i * 37 % 11) as f64) - 5.0).collect(),
        );
        let lx = l.matmul_dense(&x);
        let quad: f64 = (0..graph.n_nodes()).map(|i| x[(i, 0)] * lx[(i, 0)]).sum();
        prop_assert!(quad >= -1e-9, "Laplacian quadratic form negative: {}", quad);
    }

    #[test]
    fn all_distances_are_non_negative_symmetric_and_zero_on_identical_rows(
        probs in arb_probs(6, 3),
        i in 0usize..6,
        j in 0usize..6,
    ) {
        for kind in DistanceKind::ALL {
            let d_ij = pairwise_distance(kind, probs.row(i), probs.row(j));
            let d_ji = pairwise_distance(kind, probs.row(j), probs.row(i));
            prop_assert!(d_ij >= -1e-12, "{}: negative distance {}", kind.name(), d_ij);
            prop_assert!((d_ij - d_ji).abs() < 1e-9, "{}: asymmetric", kind.name());
            let d_ii = pairwise_distance(kind, probs.row(i), probs.row(i));
            prop_assert!(d_ii.abs() < 1e-9, "{}: d(x,x) = {}", kind.name(), d_ii);
        }
    }

    #[test]
    fn auc_is_always_a_probability(
        pos in proptest::collection::vec(0.0f64..2.0, 1..40),
        neg in proptest::collection::vec(0.0f64..2.0, 1..40),
    ) {
        let auc = auc_from_distances(&pos, &neg);
        prop_assert!((0.0..=1.0).contains(&auc), "AUC out of range: {}", auc);
        // Swapping the populations mirrors the AUC around 0.5.
        let swapped = auc_from_distances(&neg, &pos);
        prop_assert!((auc + swapped - 1.0).abs() < 1e-9);
    }

    #[test]
    fn qclp_solutions_are_always_feasible(
        bias in proptest::collection::vec(-1.0f64..1.0, 2..30),
        seed in 0u64..1000,
    ) {
        let n = bias.len();
        // Derive a pseudo-random utility vector from the seed for variety.
        let util: Vec<f64> = (0..n)
            .map(|i| (((seed as usize + i * 7919) % 200) as f64 / 100.0) - 1.0)
            .collect();
        let problem = QclpProblem { bias_influence: bias, util_influence: util, alpha: 0.9, beta: 0.1 };
        let solution = solve(&problem, &SolverOptions { max_iters: 300, ..Default::default() });
        prop_assert!(problem.is_feasible(&solution.weights, 1e-5));
        prop_assert!(solution.objective <= 1e-6, "objective must not exceed the zero start");
    }

    #[test]
    fn dp_mechanisms_always_return_valid_graphs(
        n in 6usize..40,
        eps in 0.2f64..8.0,
        seed in 0u64..500,
    ) {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let graph = Graph::from_edges(n, &edges);
        let mut rng = StdRng::seed_from_u64(seed);
        for noisy in [edge_rand(&graph, eps, &mut rng), lap_graph(&graph, eps, &mut rng)] {
            prop_assert_eq!(noisy.n_nodes(), n);
            for (u, v) in noisy.edges() {
                prop_assert!(u < n && v < n && u != v);
            }
        }
    }

    #[test]
    fn softmax_rows_always_sum_to_one(probs in arb_probs(5, 4)) {
        for r in 0..probs.rows() {
            let sum: f64 = probs.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(probs.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}
