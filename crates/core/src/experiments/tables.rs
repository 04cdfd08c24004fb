//! Driver for Table II — the correlation between the influence of each
//! training node on `f_bias` and on `f_risk`.  Tables III–V are multi-seed
//! views over a scenario run (`ppfr_runner`'s `table3_view` and
//! `MatrixReport::to_table_string`); Table II reports a correlation, not a
//! defence metric, and has no runner view, so this single-seed driver
//! serves it.

use super::common::high_homophily_specs;
use crate::{attack_sample, ExperimentScale, Method};
use ppfr_datasets::generate;
use ppfr_gnn::ModelKind;
use ppfr_graph::{jaccard_similarity, similarity_laplacian};
use ppfr_influence::{bias_grad_wrt_params, compute_influences, pearson, risk_grad_wrt_params};
use serde::{Deserialize, Serialize};

/// Dataset generation seed, so every Table II cell describes the same graphs.
const DATA_SEED: u64 = 7;

/// One cell of Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Model architecture.
    pub model: String,
    /// Pearson correlation between the bias and risk influence vectors.
    pub r: f64,
}

/// Full Table II result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// One row per (dataset, model).
    pub rows: Vec<Table2Row>,
}

impl Table2Result {
    /// Plain-text rendering matching the paper's layout.
    pub fn to_table_string(&self) -> String {
        let mut out = String::from("Table II: Pearson r between I_fbias and I_frisk\n");
        out.push_str("dataset    model      r\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<10} {:+.2}\n",
                row.dataset, row.model, row.r
            ));
        }
        out
    }
}

/// Regenerates Table II: train each model vanilla, compute the influence of
/// every labelled node on `f_bias` and `f_risk`, report their Pearson
/// correlation.
pub fn table2(scale: ExperimentScale) -> Table2Result {
    let cfg = scale.config();
    let mut rows = Vec::new();
    for spec in high_homophily_specs(scale) {
        let dataset = generate(&spec, DATA_SEED);
        let s = jaccard_similarity(&dataset.graph);
        let l_s = similarity_laplacian(&s);
        for kind in ModelKind::ALL {
            let outcome = crate::run_method(&dataset, kind, Method::Vanilla, &cfg);
            let (model, ctx) = (&outcome.model, &outcome.deploy_ctx);
            let sample = attack_sample(&dataset, &cfg);
            let [bias, risk] = compute_influences(
                model,
                ctx,
                &dataset.labels,
                &dataset.splits.train,
                [
                    &bias_grad_wrt_params(model, ctx, &l_s),
                    &risk_grad_wrt_params(model, ctx, &sample),
                ],
                &cfg.influence_config(),
            );
            rows.push(Table2Row {
                dataset: spec.name.to_string(),
                model: kind.name().to_string(),
                r: pearson(&bias, &risk),
            });
        }
    }
    Table2Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renderers_produce_one_line_per_row() {
        let result = Table2Result {
            rows: vec![
                Table2Row {
                    dataset: "cora".into(),
                    model: "GCN".into(),
                    r: -0.5,
                },
                Table2Row {
                    dataset: "cora".into(),
                    model: "GAT".into(),
                    r: 0.2,
                },
            ],
        };
        let text = result.to_table_string();
        assert_eq!(text.lines().count(), 2 + 2, "header + rows");
        assert!(text.contains("-0.50"));
    }

    #[test]
    fn smoke_table2_matches_the_pinned_correlations() {
        // `exp_table2 --smoke`'s values, identical in debug and release and
        // at any thread count; the 1e-3 tolerance allows for libm
        // differences between machines.
        let pinned = [
            ("cora", "GCN", -0.8630383290265082),
            ("cora", "GAT", -0.7864741885624136),
            ("cora", "GraphSage", -0.7846096911414513),
            ("citeseer", "GCN", -0.7464831828120091),
            ("citeseer", "GAT", -0.8550496951190624),
            ("citeseer", "GraphSage", -0.7850726378820853),
            ("pubmed", "GCN", -0.9335870453373467),
            ("pubmed", "GAT", -0.6079650905545694),
            ("pubmed", "GraphSage", -0.9381048630603012),
        ];
        let result = table2(ExperimentScale::Smoke);
        assert_eq!(result.rows.len(), pinned.len());
        for (row, (dataset, model, r)) in result.rows.iter().zip(pinned) {
            assert_eq!((row.dataset.as_str(), row.model.as_str()), (dataset, model));
            assert!(
                (row.r - r).abs() <= 1e-3,
                "{dataset} {model}: r = {} vs pinned {r}",
                row.r
            );
        }
    }
}
