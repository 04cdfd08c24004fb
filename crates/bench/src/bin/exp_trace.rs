//! Runs one scenario with full telemetry on and exports the observability
//! artifacts: a span-tree/metrics text report on stdout, a chrome://tracing
//! trace-event JSON file, and a `telemetry` section merged into
//! `BENCH_kernels.json`.
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
use serde::{Serialize, Value};

/// Renders one merged span node (and its children) as a JSON object.
fn span_value(node: &ppfr_telemetry::SpanTree) -> Value {
    Value::Obj(vec![
        ("name".to_string(), node.name.to_value()),
        ("count".to_string(), node.count.to_value()),
        (
            "total_ms".to_string(),
            (node.total_ns as f64 / 1e6).to_value(),
        ),
        (
            "children".to_string(),
            Value::Arr(node.children.iter().map(span_value).collect()),
        ),
    ])
}

/// Renders the metric snapshot as a JSON object in its canonical sorted
/// order.
fn metrics_value(snapshot: &[(String, ppfr_telemetry::MetricValue)]) -> Value {
    use ppfr_telemetry::MetricValue;
    Value::Obj(
        snapshot
            .iter()
            .map(|(name, value)| {
                let v = match value {
                    MetricValue::Counter(n) => n.to_value(),
                    MetricValue::Gauge(g) => g.to_value(),
                    MetricValue::Histogram(h) => Value::Obj(vec![
                        ("count".to_string(), h.count.to_value()),
                        ("sum".to_string(), h.sum.to_value()),
                        (
                            "buckets".to_string(),
                            Value::Arr(
                                h.buckets
                                    .iter()
                                    .map(|&(le, n)| {
                                        Value::Obj(vec![
                                            ("le".to_string(), le.to_value()),
                                            ("n".to_string(), n.to_value()),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                };
                (name.clone(), v)
            })
            .collect(),
    )
}

fn pool_value(stats: &rayon::PoolStats) -> Value {
    Value::Obj(vec![
        ("dispatches".to_string(), stats.dispatches.to_value()),
        (
            "serial_fallbacks".to_string(),
            stats.serial_fallbacks.to_value(),
        ),
        ("joins".to_string(), stats.joins.to_value()),
        ("joins_inline".to_string(), stats.joins_inline.to_value()),
        ("steals".to_string(), stats.steals.to_value()),
        ("local_pops".to_string(), stats.local_pops.to_value()),
        ("parks".to_string(), stats.parks.to_value()),
    ])
}

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

    // Human-readable span tree + metrics, after the run quiesced.
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

    // Merge the canonical aggregates into the shared bench artifact.
    let telemetry_section = Value::Obj(vec![
        ("scenario".to_string(), spec.name.to_value()),
        ("threads".to_string(), threads.to_value()),
        (
            "spans".to_string(),
            Value::Arr(ppfr_telemetry::span_tree().iter().map(span_value).collect()),
        ),
        (
            "metrics".to_string(),
            metrics_value(&ppfr_telemetry::snapshot()),
        ),
        ("pool".to_string(), pool_value(&pool)),
    ]);
    let existing = std::fs::read_to_string("BENCH_kernels.json").ok();
    let json = ppfr_bench::merge_bench_sections(
        existing.as_deref(),
        vec![("telemetry", telemetry_section)],
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("merged telemetry section into BENCH_kernels.json");

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
