//! Edge differential-privacy defences (Wu et al., IEEE S&P 2022).
//!
//! * **EdgeRand** — randomised response on adjacency cells: each existing
//!   edge is kept with probability `e^ε / (1 + e^ε)`, and non-edges are
//!   flipped to edges with probability `1 / (1 + e^ε)`.  Because flipping
//!   every one of the `O(n²)` empty cells individually would be wasteful on
//!   sparse graphs, the number of injected edges is drawn from the matching
//!   binomial and placed uniformly at random — an exact sampling of the same
//!   distribution.
//! * **LapGraph** — adds Laplace(1/ε) noise to the adjacency entries of a
//!   candidate cell set and keeps the top-`Ẽ` cells, where `Ẽ` is the
//!   edge count perturbed with Laplace noise (a small fraction of the budget).
//!
//! Both return a *new* graph; the original is untouched so attacks can still
//! be evaluated against the true confidential edges.

use ppfr_graph::Graph;
use rand::Rng;
use rand_distr::{Distribution, Uniform};

/// Samples Laplace(0, scale) noise.
fn laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    let u: f64 = Uniform::new(-0.5, 0.5).sample(rng);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// EdgeRand: ε-edge-DP randomised response over the adjacency matrix.
pub fn edge_rand<R: Rng + ?Sized>(graph: &Graph, epsilon: f64, rng: &mut R) -> Graph {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let n = graph.n_nodes();
    // `e^ε` overflows to infinity above ε ≈ 709.78, where the quotient
    // would be NaN; its limit there is 1 (keep every edge).
    let e = epsilon.exp();
    let keep_prob = if e.is_infinite() { 1.0 } else { e / (1.0 + e) };
    let flip_prob = 1.0 - keep_prob;

    // Kept original edges.
    let mut edges: Vec<(usize, usize)> =
        graph.edges().filter(|_| rng.gen_bool(keep_prob)).collect();

    // Injected noise edges: binomial over the non-edge cells, sampled lazily.
    let total_pairs = n * (n - 1) / 2;
    let non_edges = total_pairs.saturating_sub(graph.n_edges());
    let expected_flips = flip_prob * non_edges as f64;
    // Poisson-like approximation of the binomial count (exact enough for the
    // sparse graphs here and avoids an O(n²) pass).
    let n_flips = expected_flips.round() as usize;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < n_flips && guard < n_flips * 20 + 100 {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        edges.push((u.min(v), u.max(v)));
        added += 1;
    }
    Graph::from_edges(n, &edges)
}

/// LapGraph: ε-edge-DP via Laplace noise on adjacency cells.
///
/// A 10 % slice of the budget perturbs the edge count; the remaining 90 %
/// perturbs cell values.  Candidate cells are all existing edges plus a
/// random sample of non-edges (four times the edge count), which keeps the
/// mechanism linear in `|E|` on sparse graphs while preserving its behaviour:
/// with small ε many true edges drop out of the top-`Ẽ` selection and random
/// non-edges take their place.
pub fn lap_graph<R: Rng + ?Sized>(graph: &Graph, epsilon: f64, rng: &mut R) -> Graph {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let n = graph.n_nodes();
    let eps_count = 0.1 * epsilon;
    let eps_cells = 0.9 * epsilon;

    let noisy_count =
        ((graph.n_edges() as f64 + laplace(1.0 / eps_count, rng)).round()).max(0.0) as usize;

    // Candidate cells: every true edge + sampled non-edges.
    let mut candidates: Vec<(usize, usize, f64)> = Vec::new();
    for (u, v) in graph.edges() {
        candidates.push((u, v, 1.0 + laplace(1.0 / eps_cells, rng)));
    }
    let extra = graph.n_edges() * 4;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < extra && guard < extra * 20 + 100 {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        candidates.push((u.min(v), u.max(v), laplace(1.0 / eps_cells, rng)));
        added += 1;
    }
    // NaN-safe descending sort: NaN scores are canonicalised to -inf so a
    // bad cell deterministically sinks to the tail (never into the released
    // top-k) instead of panicking.
    let rank = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
    candidates.sort_by(|a, b| rank(b.2).total_cmp(&rank(a.2)));
    let edges: Vec<(usize, usize)> = candidates
        .into_iter()
        .take(noisy_count)
        .map(|(u, v, _)| (u, v))
        .collect();
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn high_epsilon_edge_rand_preserves_most_edges() {
        let g = ring(60);
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = edge_rand(&g, 8.0, &mut rng);
        let kept = g.edges().filter(|&(u, v)| noisy.has_edge(u, v)).count();
        assert!(
            kept as f64 > 0.9 * g.n_edges() as f64,
            "kept only {kept}/{}",
            g.n_edges()
        );
    }

    #[test]
    fn huge_epsilon_edge_rand_returns_the_graph_unchanged() {
        // e^1000 overflows; the keep probability must saturate at 1, not NaN.
        let g = ring(60);
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = edge_rand(&g, 1000.0, &mut rng);
        assert_eq!(noisy.n_nodes(), g.n_nodes());
        assert_eq!(
            noisy.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn low_epsilon_edge_rand_destroys_structure() {
        let g = ring(60);
        let mut rng = StdRng::seed_from_u64(2);
        let noisy = edge_rand(&g, 0.1, &mut rng);
        let kept = g.edges().filter(|&(u, v)| noisy.has_edge(u, v)).count();
        // With ε=0.1 the keep probability is ≈ 0.52, so roughly half survive.
        assert!(kept < g.n_edges(), "low epsilon must drop some edges");
        assert!(
            noisy.n_edges() > g.n_edges(),
            "low epsilon must also inject many noise edges"
        );
    }

    #[test]
    fn lap_graph_returns_roughly_the_original_edge_count() {
        let g = ring(80);
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = lap_graph(&g, 5.0, &mut rng);
        let ratio = noisy.n_edges() as f64 / g.n_edges() as f64;
        assert!(
            ratio > 0.5 && ratio < 1.6,
            "edge count ratio {ratio} too far from 1"
        );
    }

    #[test]
    fn lap_graph_with_small_epsilon_replaces_edges_with_noise() {
        let g = ring(80);
        let mut rng = StdRng::seed_from_u64(4);
        let noisy = lap_graph(&g, 0.5, &mut rng);
        let kept = g.edges().filter(|&(u, v)| noisy.has_edge(u, v)).count();
        assert!(
            kept < g.n_edges(),
            "small epsilon should push some true edges out of the selection (kept {kept})"
        );
    }

    #[test]
    fn mechanisms_do_not_mutate_the_input_graph() {
        let g = ring(30);
        let before = g.n_edges();
        let mut rng = StdRng::seed_from_u64(5);
        let _ = edge_rand(&g, 1.0, &mut rng);
        let _ = lap_graph(&g, 1.0, &mut rng);
        assert_eq!(g.n_edges(), before);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_is_rejected() {
        let g = ring(10);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = edge_rand(&g, 0.0, &mut rng);
    }
}
