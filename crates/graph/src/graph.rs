//! The undirected [`Graph`] type and its normalised propagation operators.
//!
//! A graph is one flat CSR adjacency: `offsets` of `n + 1` entries and
//! `targets` of `2|E|` entries, each undirected edge stored once per
//! direction.  [`Graph::from_edges`] builds it by counting sort in one pass
//! over the edges plus one sort of each row, with no allocation per node.
//! The operators `Â` and `M` are written row by row straight into CSR
//! parts: each node's neighbour row is already sorted and duplicate-free, so
//! no triplet list is bucketed or re-sorted.

use crate::SparseMatrix;

/// An undirected, unweighted graph `G = {V, E}` stored as a flat CSR
/// adjacency: node `v`'s neighbours are `targets[offsets[v]..offsets[v + 1]]`,
/// sorted ascending and duplicate-free.
///
/// Nodes are `0..n_nodes`.  Self-loops are not stored in the edge set; the
/// normalised operators add them explicitly (the `A + I` of GCN).
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes the neighbours of `v` in
    /// `targets`; `n_nodes + 1` entries.
    offsets: Vec<usize>,
    /// Every row's neighbours, concatenated; `2|E|` entries.
    targets: Vec<usize>,
}

impl Graph {
    /// Builds a graph from an undirected edge list.  Duplicate edges and
    /// self-loops are ignored.
    ///
    /// Counting sort: count both directions of every edge, prefix-sum the
    /// counts into row offsets, scatter, then sort each row and drop its
    /// repeats in place.
    pub fn from_edges(n_nodes: usize, edges: &[(usize, usize)]) -> Self {
        // Count each row's entries into `offsets[v + 1]`; the prefix sum
        // then turns `offsets[v]` into the start of row `v`.
        let mut offsets = vec![0usize; n_nodes + 1];
        for &(u, v) in edges {
            assert!(u < n_nodes && v < n_nodes, "edge ({u},{v}) out of bounds");
            if u != v {
                offsets[u + 1] += 1;
                offsets[v + 1] += 1;
            }
        }
        let mut sum = 0;
        for offset in &mut offsets {
            sum += *offset;
            *offset = sum;
        }
        // Scattering advances `offsets[v]` as a cursor, so afterwards it
        // holds the end of row `v`.
        let mut targets = vec![0usize; offsets[n_nodes]];
        for &(u, v) in edges {
            if u != v {
                targets[offsets[u]] = v;
                offsets[u] += 1;
                targets[offsets[v]] = u;
                offsets[v] += 1;
            }
        }
        // Sort and deduplicate every row, compacting the rows towards the
        // front: the write cursor `len` never passes the read position.
        let (mut start, mut len) = (0, 0);
        for offset in &mut offsets[..n_nodes] {
            let end = *offset;
            targets[start..end].sort_unstable();
            *offset = len;
            for i in start..end {
                let t = targets[i];
                if len == *offset || targets[len - 1] != t {
                    targets[len] = t;
                    len += 1;
                }
            }
            start = end;
        }
        offsets[n_nodes] = len;
        // The repeats' slots stay allocated.  Shrinking would reallocate in
        // place and split off the tail; once a small allocation takes that
        // tail, the freed block is too small for the next graph of the same
        // size, and a loop that rebuilds one graph grew its heap by a whole
        // `targets` per build under glibc malloc.
        targets.truncate(len);
        Self { offsets, targets }
    }

    /// Graph with no edges.
    pub fn empty(n_nodes: usize) -> Self {
        Self {
            offsets: vec![0; n_nodes + 1],
            targets: Vec::new(),
        }
    }

    /// Number of nodes `|V|`.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    pub fn n_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Sorted neighbours of `v` (excluding `v` itself).
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v` (number of neighbours, self-loop excluded).
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Symmetrically normalised adjacency with self loops:
    /// `Â = D̃^{-1/2} (A + I) D̃^{-1/2}` — the GCN propagation operator.
    ///
    /// Row `u` holds `1 / d̃_u` at its own column, merged into the sorted
    /// neighbour row, and `1 / √(d̃_u d̃_v)` at each neighbour `v`.
    pub fn normalized_adjacency(&self) -> SparseMatrix {
        let n = self.n_nodes();
        let deg_tilde: Vec<f64> = (0..n).map(|v| self.degree(v) as f64 + 1.0).collect();
        let nnz = self.targets.len() + n;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for u in 0..n {
            let neighbors = self.neighbors(u);
            let split = neighbors.partition_point(|&v| v < u);
            let off_diagonal = |v: usize| 1.0 / (deg_tilde[u] * deg_tilde[v]).sqrt();
            for &v in &neighbors[..split] {
                col_idx.push(v);
                values.push(off_diagonal(v));
            }
            col_idx.push(u);
            values.push(1.0 / deg_tilde[u]);
            for &v in &neighbors[split..] {
                col_idx.push(v);
                values.push(off_diagonal(v));
            }
            row_ptr.push(col_idx.len());
        }
        SparseMatrix::from_csr_parts(n, n, row_ptr, col_idx, values)
    }

    /// Row-normalised *mean aggregation* operator over neighbours only
    /// (no self loop), used by the GraphSAGE mean aggregator.  Isolated nodes
    /// get an all-zero row.
    ///
    /// Its sparsity pattern is the adjacency itself, so the graph's
    /// `offsets` and `targets` become its row pointers and column indices.
    pub fn mean_aggregation(&self) -> SparseMatrix {
        let n = self.n_nodes();
        let mut values = Vec::with_capacity(self.targets.len());
        for u in 0..n {
            let deg = self.degree(u);
            values.extend(std::iter::repeat_n(1.0 / deg as f64, deg));
        }
        SparseMatrix::from_csr_parts(n, n, self.offsets.clone(), self.targets.clone(), values)
    }

    /// Returns a new graph with every edge in `extra` added (self-loops and
    /// duplicates ignored).
    pub fn with_extra_edges(&self, extra: &[(usize, usize)]) -> Graph {
        let mut edges: Vec<(usize, usize)> = self.edges().collect();
        edges.extend_from_slice(extra);
        Graph::from_edges(self.n_nodes(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node path graph 0-1-2-3.
    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn builds_symmetric_adjacency() {
        let g = path4();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn duplicates_and_self_loops_are_ignored() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 2), (0, 1)]);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn normalized_adjacency_rows_of_regular_graph_sum_to_one() {
        // A triangle is 2-regular: D̃ = 3I, Â = (A+I)/3, rows sum to 1.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let a_hat = g.normalized_adjacency();
        for r in 0..3 {
            assert!((a_hat.row_sum(r) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_adjacency_is_symmetric() {
        let g = path4();
        let a_hat = g.normalized_adjacency().to_dense();
        for i in 0..4 {
            for j in 0..4 {
                assert!((a_hat[(i, j)] - a_hat[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mean_aggregation_skips_isolated_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let m = g.mean_aggregation();
        assert_eq!(m.row_sum(2), 0.0);
        assert!((m.row_sum(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_extra_edges_adds_new_edges_only() {
        let g = path4();
        let g2 = g.with_extra_edges(&[(0, 3), (0, 1), (2, 2)]);
        assert_eq!(g2.n_edges(), 4);
        assert!(g2.has_edge(0, 3));
    }
}
