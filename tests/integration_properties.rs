//! Property-based integration tests on the core invariants of the stack.

use ppfr_graph::{jaccard_similarity, similarity_laplacian, Graph};
use ppfr_linalg::{row_softmax, Matrix};
use ppfr_privacy::{auc_from_distances, edge_rand, lap_graph, pairwise_distance, DistanceKind};
use ppfr_qclp::{solve, QclpProblem, SolverOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
