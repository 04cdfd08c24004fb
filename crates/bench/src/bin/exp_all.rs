//! Runs every table and figure experiment in one go, multi-seed: the
//! high-homophily scenario is executed once through the runner and every
//! table/figure view is derived from that one report, with the artifact
//! cache shared across the derived scenarios.
use ppfr_runner::{
    accuracy_view, fig4_view, fig6_multi, run_scenario, table3_view, ArtifactCache,
    ScenarioRegistry, DEFAULT_SEEDS,
};

fn main() {
    let scale = ppfr_bench::scale_from_args();
    println!("# PPFR full experiment run (scale: {scale:?}, seeds {DEFAULT_SEEDS:?})\n");

    // Table II stays single-seed: it reports an influence-vector correlation,
    // not a defence metric.
    let t2 = ppfr_core::experiments::table2(scale);
    println!("{}", t2.to_table_string());

    // One runner execution of the full high-homophily matrix feeds Tables
    // III & IV and Figs. 4, 5 and 7.
    let cache = ArtifactCache::new();
    let high = ScenarioRegistry::get("tables-high-homophily", scale).expect("stock scenario");
    let high_report = ppfr_bench::report_or_exit(run_scenario(&high, &cache));

    println!("{}", table3_view(&high_report));
    println!("{}", fig4_view(&high_report));
    println!("Table IV: effectiveness of the methods (high-homophily datasets)");
    println!("{}", high_report.to_table_string());
    println!("{}", accuracy_view(&high_report, &["GCN", "GAT"], "Fig. 5"));
    println!("{}", accuracy_view(&high_report, &["GraphSage"], "Fig. 7"));

    let weak = ScenarioRegistry::get("tables-weak-homophily", scale).expect("stock scenario");
    let weak_report = ppfr_bench::report_or_exit(run_scenario(&weak, &cache));
    println!("Table V: GCN on weak-homophily datasets");
    println!("{}", weak_report.to_table_string());

    let f6 = fig6_multi(scale, &DEFAULT_SEEDS);
    println!("{}", f6.to_table_string());
}
