//! Closed-form edge-sensitivity model of §VI-B2 (Eq. 20).
//!
//! For an intra-class node pair `(v_i, v_j)` of a left-normalised GCN layer,
//! the expected change of their embedding distance caused by adding the edge
//! `e_ij` is `E[Δd(v_i, v_j)] = ‖μ₁ − μ₀‖ · |δ|` with
//! `δ = d_i^{y1} / ((d_i+1)(d_i+2)) − d_j^{y1} / ((d_j+1)(d_j+2))`.
//!
//! The model motivates the privacy-aware perturbation: a better-separated
//! model (larger `‖μ₁ − μ₀‖`) leaks more, and injecting heterophilic edges
//! shrinks exactly that separation.

/// Inputs of the edge-sensitivity formula for one intra-class node pair.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSensitivityInputs {
    /// Distance between the two class-mean embeddings `‖μ₁ − μ₀‖`.
    pub class_mean_gap: f64,
    /// Degree of node `v_i`.
    pub degree_i: usize,
    /// Number of class-1 neighbours of `v_i`.
    pub hetero_neighbors_i: usize,
    /// Degree of node `v_j`.
    pub degree_j: usize,
    /// Number of class-1 neighbours of `v_j`.
    pub hetero_neighbors_j: usize,
}

/// Expected embedding-distance sensitivity `E[Δd(v_i, v_j)]` of Eq. (20).
// lint: allow(uncalled-pub) — the Eq. 20 check of tests/integration_tradeoff.rs
pub fn edge_sensitivity(inputs: &EdgeSensitivityInputs) -> f64 {
    assert!(
        inputs.hetero_neighbors_i <= inputs.degree_i
            && inputs.hetero_neighbors_j <= inputs.degree_j,
        "heterophilic neighbour count cannot exceed the degree"
    );
    let term = |hetero: usize, degree: usize| {
        hetero as f64 / ((degree as f64 + 1.0) * (degree as f64 + 2.0))
    };
    let delta = term(inputs.hetero_neighbors_i, inputs.degree_i)
        - term(inputs.hetero_neighbors_j, inputs.degree_j);
    inputs.class_mean_gap * delta.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_scales_linearly_with_class_separation() {
        let base = EdgeSensitivityInputs {
            class_mean_gap: 1.0,
            degree_i: 4,
            hetero_neighbors_i: 1,
            degree_j: 6,
            hetero_neighbors_j: 0,
        };
        let wide = EdgeSensitivityInputs {
            class_mean_gap: 3.0,
            ..base
        };
        let s1 = edge_sensitivity(&base);
        let s3 = edge_sensitivity(&wide);
        assert!(
            (s3 - 3.0 * s1).abs() < 1e-12,
            "Eq. (20) is linear in ‖μ₁ − μ₀‖"
        );
    }

    #[test]
    fn symmetric_pairs_have_zero_sensitivity() {
        // Identical degree profiles ⇒ δ = 0 ⇒ the edge is undetectable in expectation.
        let inputs = EdgeSensitivityInputs {
            class_mean_gap: 2.0,
            degree_i: 5,
            hetero_neighbors_i: 2,
            degree_j: 5,
            hetero_neighbors_j: 2,
        };
        assert_eq!(edge_sensitivity(&inputs), 0.0);
    }

    #[test]
    fn well_separated_models_leak_more() {
        // The paper's reading of Eq. (20): higher-performing GNNs (larger
        // class-mean gap) have higher edge-leakage risk, everything else equal.
        let tight = EdgeSensitivityInputs {
            class_mean_gap: 0.2,
            degree_i: 3,
            hetero_neighbors_i: 1,
            degree_j: 8,
            hetero_neighbors_j: 2,
        };
        let separated = EdgeSensitivityInputs {
            class_mean_gap: 2.0,
            ..tight
        };
        assert!(edge_sensitivity(&separated) > edge_sensitivity(&tight));
    }

    #[test]
    fn adding_heterophilic_neighbors_to_the_low_degree_node_changes_delta() {
        let before = EdgeSensitivityInputs {
            class_mean_gap: 1.0,
            degree_i: 2,
            hetero_neighbors_i: 0,
            degree_j: 10,
            hetero_neighbors_j: 5,
        };
        // Heterophilic perturbation on v_i: degree and hetero count both grow.
        let after = EdgeSensitivityInputs {
            degree_i: 4,
            hetero_neighbors_i: 2,
            ..before
        };
        // The formula stays finite and well-defined; the perturbed value differs.
        assert_ne!(edge_sensitivity(&before), edge_sensitivity(&after));
    }

    #[test]
    #[should_panic(expected = "cannot exceed the degree")]
    fn rejects_inconsistent_neighbour_counts() {
        let bad = EdgeSensitivityInputs {
            class_mean_gap: 1.0,
            degree_i: 2,
            hetero_neighbors_i: 3,
            degree_j: 2,
            hetero_neighbors_j: 0,
        };
        let _ = edge_sensitivity(&bad);
    }
}
