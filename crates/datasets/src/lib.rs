//! Synthetic graph datasets for the PPFR reproduction.
//!
//! The paper evaluates on Cora, Citeseer, Pubmed (high homophily) and
//! Enzymes, Credit (weak homophily).  Those datasets cannot be downloaded in
//! this offline environment, so this crate generates *seeded synthetic
//! analogues* with a degree-corrected stochastic block model (SBM) plus
//! class-conditional sparse binary features.  Each preset matches the paper's
//! reported class count, homophily level, average degree, feature
//! dimensionality (scaled) and label rate; node counts are scaled down so
//! influence-function experiments run in seconds.  PAPER.md (*Design summary
//! of this reproduction*) records the substitution.

#![forbid(unsafe_code)]

mod sbm;
mod shadow;
mod specs;
mod splits;

pub use sbm::{class_features, generate, sparse_sbm, Dataset};
pub use shadow::{shadow_of, sparse_sbm_dataset};
pub use specs::{citeseer, cora, credit, enzymes, pubmed, two_block_synthetic, DatasetSpec};
pub use splits::Splits;

#[cfg(test)]
mod tests {
    use super::*;
    use ppfr_graph::{average_degree, homophily};

    #[test]
    fn all_presets_generate_and_match_their_target_homophily() {
        for (spec, lo, hi) in [
            (cora(), 0.74, 0.88),
            (citeseer(), 0.66, 0.82),
            (pubmed(), 0.72, 0.88),
            (enzymes(), 0.56, 0.74),
            (credit(), 0.52, 0.72),
        ] {
            let ds = generate(&spec, 7);
            let h = homophily(&ds.graph, &ds.labels);
            assert!(
                h > lo && h < hi,
                "{}: homophily {h} outside [{lo},{hi}] (target {})",
                spec.name,
                spec.target_homophily
            );
            assert!(average_degree(&ds.graph) > 1.5, "{} too sparse", spec.name);
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = generate(&cora(), 3);
        let b = generate(&cora(), 3);
        assert_eq!(a.graph.n_edges(), b.graph.n_edges());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        let c = generate(&cora(), 4);
        assert_ne!(a.graph.n_edges(), c.graph.n_edges());
    }
}
