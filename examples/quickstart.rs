//! Quickstart: train a GCN on the synthetic Cora analogue, then measure its
//! accuracy, individual fairness (InFoRM bias) and edge-privacy risk
//! (link-stealing AUC).
//!
//! Run with: `cargo run --release --example quickstart`

use ppfr_core::{evaluate, run_method, Method, PpfrConfig};
use ppfr_datasets::{cora, generate};
use ppfr_gnn::ModelKind;
use ppfr_graph::{average_degree, homophily};

fn main() {
    // 1. Generate the seeded synthetic Cora analogue (see PAPER.md, *Design
    //    summary of this reproduction*).
    let dataset = generate(&cora(), 7);
    println!(
        "dataset: {} — {} nodes, {} edges, homophily {:.2}, avg degree {:.2}",
        dataset.name,
        dataset.n_nodes(),
        dataset.graph.n_edges(),
        homophily(&dataset.graph, &dataset.labels),
        average_degree(&dataset.graph),
    );

    // 2. Vanilla-train a GCN (the `w/o` reference of the paper).
    let cfg = PpfrConfig::default();
    let vanilla = run_method(&dataset, ModelKind::Gcn, Method::Vanilla, &cfg);
    let eval = evaluate(&vanilla, &dataset, &cfg);

    // 3. Report the three trustworthiness axes.
    println!("\nvanilla GCN:");
    println!("  test accuracy      : {:.2}%", eval.accuracy * 100.0);
    println!("  InFoRM bias        : {:.4}", eval.bias);
    println!(
        "  link-stealing AUC  : {:.4} (mean over 8 distances)",
        eval.risk_auc
    );
    println!("  distance gap f_risk: {:.4}", eval.risk_gap);
    println!("\nper-distance attack AUC:");
    for (name, auc) in &eval.auc_per_distance {
        println!("  {name:<12} {auc:.4}");
    }

    // 4. And the paper's method, for comparison.
    let ppfr = run_method(&dataset, ModelKind::Gcn, Method::Ppfr, &cfg);
    let ours = evaluate(&ppfr, &dataset, &cfg);
    let d = ppfr_core::deltas(&eval, &ours);
    println!("\nPPFR fine-tuned GCN:");
    println!(
        "  test accuracy      : {:.2}%  (Δacc {:+.2}%)",
        ours.accuracy * 100.0,
        d.d_acc * 100.0
    );
    println!(
        "  InFoRM bias        : {:.4}  (Δbias {:+.2}%)",
        ours.bias,
        d.d_bias * 100.0
    );
    println!(
        "  link-stealing AUC  : {:.4}  (Δrisk {:+.2}%)",
        ours.risk_auc,
        d.d_risk * 100.0
    );
    println!("  combined Δ (Eq.22) : {:+.3}", d.delta);
}
