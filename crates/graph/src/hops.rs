//! k-hop neighbourhood analysis (BFS shortest hop counts).
//!
//! The paper's Lemma V.1 and Proposition V.2 reason about k-hop node pairs:
//! connected pairs are 1-hop, pairs sharing a neighbour are 2-hop, isolated
//! pairs are ∞-hop.  These helpers compute hop distances and hop histograms
//! used in tests and in the sparsity-ratio analysis of Eq. (5).

use crate::Graph;
use std::collections::VecDeque;

/// Hop value used for unreachable (∞-hop) node pairs.
pub const UNREACHABLE: usize = usize::MAX;

/// Shortest hop count from `source` to every node (BFS).  `source` maps to 0,
/// unreachable nodes map to [`UNREACHABLE`].
pub fn shortest_hops_from(graph: &Graph, source: usize) -> Vec<usize> {
    let mut dist = vec![UNREACHABLE; graph.n_nodes()];
    dist[source] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for &v in graph.neighbors(u) {
            if dist[v] == UNREACHABLE {
                dist[v] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Histogram of hop distances over all unordered node pairs.
/// Index `k` holds the number of k-hop pairs; the last entry counts
/// unreachable pairs.  Returns `(histogram, unreachable_count)`.
// lint: allow(uncalled-pub) — the Eq. 5 sparsity check of tests/integration_tradeoff.rs
pub fn hop_histogram(graph: &Graph, max_hops: usize) -> (Vec<usize>, usize) {
    let n = graph.n_nodes();
    let mut hist = vec![0usize; max_hops + 1];
    let mut unreachable = 0usize;
    for u in 0..n {
        let dist = shortest_hops_from(graph, u);
        for &d in dist.iter().skip(u + 1) {
            if d == UNREACHABLE {
                unreachable += 1;
            } else if d <= max_hops {
                hist[d] += 1;
            }
        }
    }
    (hist, unreachable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path4();
        assert_eq!(shortest_hops_from(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(shortest_hops_from(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn unreachable_nodes_are_marked() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let d = shortest_hops_from(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn hop_histogram_covers_all_pairs() {
        let g = path4();
        let (hist, unreachable) = hop_histogram(&g, 5);
        let total: usize = hist.iter().sum::<usize>() + unreachable;
        assert_eq!(total, 4 * 3 / 2);
        assert_eq!(hist[1], 3);
        assert_eq!(hist[2], 2);
        assert_eq!(hist[3], 1);
        assert_eq!(unreachable, 0);
    }

    #[test]
    fn hop_histogram_counts_disconnected_pairs() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let (hist, unreachable) = hop_histogram(&g, 3);
        assert_eq!(hist[1], 2);
        assert_eq!(unreachable, 4);
    }
}
