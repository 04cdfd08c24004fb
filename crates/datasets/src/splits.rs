//! Planetoid-style train / validation / test splits.

use rand::Rng;

/// Node-index splits for semi-supervised node classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Splits {
    /// Labelled training nodes `V_l`.
    pub train: Vec<usize>,
    /// Validation nodes.
    pub val: Vec<usize>,
    /// Test nodes.
    pub test: Vec<usize>,
}

impl Splits {
    /// Planetoid-style split: `train_per_class` labelled nodes per class, then
    /// `n_val` validation and `n_test` test nodes drawn from the remainder.
    pub fn planetoid<R: Rng + ?Sized>(
        labels: &[usize],
        n_classes: usize,
        train_per_class: usize,
        n_val: usize,
        n_test: usize,
        rng: &mut R,
    ) -> Self {
        let n = labels.len();
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut per_class_taken = vec![0usize; n_classes];
        let mut train = Vec::with_capacity(n_classes * train_per_class);
        let mut rest = Vec::with_capacity(n);
        for &v in &order {
            let c = labels[v];
            if per_class_taken[c] < train_per_class {
                per_class_taken[c] += 1;
                train.push(v);
            } else {
                rest.push(v);
            }
        }
        let n_val = n_val.min(rest.len());
        let val: Vec<usize> = rest[..n_val].to_vec();
        let n_test = n_test.min(rest.len() - n_val);
        let test: Vec<usize> = rest[n_val..n_val + n_test].to_vec();
        train.sort_unstable();
        Self { train, val, test }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Splits {
        /// Panics unless the three splits are pairwise disjoint, in range
        /// and non-empty: the check of the crate's split tests.
        pub(crate) fn assert_valid(&self, n_nodes: usize) {
            let mut seen = vec![false; n_nodes];
            for (name, split) in [
                ("train", &self.train),
                ("val", &self.val),
                ("test", &self.test),
            ] {
                assert!(!split.is_empty(), "{name} split must not be empty");
                for &v in split {
                    assert!(v < n_nodes, "{name} index {v} out of range");
                    assert!(!seen[v], "node {v} appears in more than one split");
                    seen[v] = true;
                }
            }
        }
    }

    #[test]
    fn planetoid_split_has_requested_sizes() {
        let labels: Vec<usize> = (0..100).map(|i| i % 4).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let s = Splits::planetoid(&labels, 4, 5, 20, 30, &mut rng);
        assert_eq!(s.train.len(), 20);
        assert_eq!(s.val.len(), 20);
        assert_eq!(s.test.len(), 30);
        s.assert_valid(100);
    }

    #[test]
    fn train_split_is_class_balanced() {
        let labels: Vec<usize> = (0..90).map(|i| i % 3).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let s = Splits::planetoid(&labels, 3, 7, 10, 10, &mut rng);
        let mut counts = [0usize; 3];
        for &v in &s.train {
            counts[labels[v]] += 1;
        }
        assert_eq!(counts, [7, 7, 7]);
    }

    #[test]
    fn oversized_requests_are_clamped() {
        let labels: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let s = Splits::planetoid(&labels, 2, 3, 7, 1000, &mut rng);
        assert_eq!(s.train.len(), 6);
        assert_eq!(s.val.len(), 7);
        assert_eq!(s.test.len(), 7);
        s.assert_valid(20);
    }

    #[test]
    #[should_panic(expected = "more than one split")]
    fn assert_valid_rejects_overlap() {
        let s = Splits {
            train: vec![0, 1],
            val: vec![1],
            test: vec![2],
        };
        s.assert_valid(3);
    }
}
