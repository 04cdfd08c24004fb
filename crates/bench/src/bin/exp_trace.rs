//! Runs one scenario with full telemetry on and exports the observability
//! artifacts: a span-tree text report, the artifact-cache and pool counters
//! on stdout, and a chrome://tracing trace-event JSON file.  The committed
//! `telemetry` section of `BENCH_kernels.json` comes from `exp_bench_json`.
//!
//! Usage:
//! `cargo run --release -p ppfr_bench --bin exp_trace -- \
//!     [--smoke] [--scenario NAME] [--out FILE]`
//!
//! `NAME` defaults to `bench-small`; `FILE` defaults to `TRACE_events.json`
//! (load it in `chrome://tracing` or <https://ui.perfetto.dev>).  The binary
//! switches the telemetry and trace gates on itself, and asserts that the
//! recorded tree holds one `runner_cell` span per run, so an empty trace
//! fails the run.  Without a cell budget it also asserts one `reweight`
//! span per `(dataset, model, seed)` that runs DPFR or PPFR: the two FR
//! cells share one re-weighting.

use ppfr_core::{ExperimentScale, Method};
use ppfr_runner::{run_scenario, ArtifactCache, ScenarioRegistry};

fn main() {
    let scale = ppfr_bench::scale_from_args();
    let args: Vec<String> = std::env::args().collect();
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let name = arg_after("--scenario").unwrap_or("bench-small");
    let out_path = arg_after("--out").unwrap_or("TRACE_events.json");

    ppfr_telemetry::set_enabled(true);
    ppfr_telemetry::set_trace_enabled(true);
    ppfr_telemetry::reset();
    rayon::set_pool_stats_enabled(true);
    rayon::reset_pool_stats();

    let Some(spec) = ScenarioRegistry::get(name, scale) else {
        eprintln!(
            "unknown scenario '{name}'; available: {}",
            ScenarioRegistry::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let threads = ppfr_linalg::parallel::current_num_threads();
    println!(
        "tracing scenario '{}' ({} runs) at {threads} thread(s)\n",
        spec.name,
        spec.n_runs(),
    );
    let cache = ArtifactCache::new();
    let report = ppfr_bench::report_or_exit(run_scenario(&spec, &cache));

    // Human-readable span tree and counters, after the run quiesced.
    println!("{}", ppfr_telemetry::report());
    println!("{}", cache.stats().summary_line());
    let pool = rayon::pool_stats();
    println!(
        "pool: {} dispatches, {} serial fallbacks, {} steals, {} local pops, {} parks",
        pool.dispatches, pool.serial_fallbacks, pool.steals, pool.local_pops, pool.parks
    );

    // Chrome trace-event export (drains the captured events).
    let trace = ppfr_telemetry::chrome_trace_json();
    std::fs::write(out_path, &trace).expect("write trace-event JSON");
    println!("\nwrote {out_path} (chrome://tracing trace-event JSON)");

    // Keep the run honest: the report must still aggregate the full matrix,
    // and the trace must hold one cell span per run.
    assert_eq!(
        report.runs.len(),
        spec.n_runs(),
        "scenario must aggregate every run"
    );
    let tree = ppfr_telemetry::span_tree();
    let count = |name: &str| ppfr_telemetry::find_span(&tree, name).map_or(0, |node| node.count);
    assert_eq!(
        count("runner_cell"),
        spec.n_runs() as u64,
        "the trace must record one `runner_cell` span per run"
    );
    // A bounded budget makes every FR cell solve its own re-weighting.
    if spec.cell_budget.is_none() {
        let runs_fr = spec
            .methods
            .iter()
            .any(|&m| matches!(m, Method::DpFr | Method::Ppfr));
        let triples = spec.datasets.len() * spec.models.len() * spec.seeds.len();
        assert_eq!(
            count("reweight"),
            if runs_fr { triples as u64 } else { 0 },
            "the trace must record one `reweight` span per (dataset, model, seed) running FR"
        );
    }
    let scale_label = match scale {
        ExperimentScale::Full => "full",
        ExperimentScale::Smoke => "smoke",
    };
    println!("done ({scale_label} scale)");
}
