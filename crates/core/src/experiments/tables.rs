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
use ppfr_influence::{compute_influences, pearson};
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
            let sample = attack_sample(&dataset, &cfg);
            let influences = compute_influences(
                &outcome.model,
                &outcome.deploy_ctx,
                &dataset.labels,
                &dataset.splits.train,
                &l_s,
                &sample,
                &cfg.influence_config(),
            );
            rows.push(Table2Row {
                dataset: spec.name.to_string(),
                model: kind.name().to_string(),
                r: pearson(&influences.bias, &influences.risk),
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
}
