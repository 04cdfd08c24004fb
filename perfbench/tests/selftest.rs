//! Reduced-size pass of every workload.  Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! Checks that each workload reports exactly the metrics `BENCHMARK.json`
//! declares, with their units, that the audits' `run_scenario` finds every
//! group pre-built, and that one injected transient cell error raises the
//! failed count by exactly one attempt.

use ppfr_linalg::parallel::with_forced_threads;
use ppfr_perfbench::{audit, run, RunResult, Size, Workload};
use ppfr_resilience::{with_fault_plan, FaultKind, FaultPlan, FaultSpec};
use serde::Value;
use std::sync::Mutex;

/// The fault plan, the resilience counters and the thread-count override
/// are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    json.field(section)
        .as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.field("name").as_str().expect("name").to_string(),
                m.field("unit").as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn reported(result: &RunResult) -> Vec<(String, String)> {
    result
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_reports_the_declared_metrics() {
    let _turn = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for workload in Workload::ALL {
        with_forced_threads(workload.threads(), || {
            let untraced = run(workload, Size::Reduced, 3, 0.0, false);
            assert!(
                untraced.correct,
                "{}: {:?}",
                workload.name(),
                untraced.problems
            );
            assert_eq!(untraced.failed, 0);
            assert_eq!(reported(&untraced), declared("end_to_end"));
            for m in &untraced.metrics {
                assert!(
                    m.value > 0.0,
                    "{} {} is {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }

            let traced = run(workload, Size::Reduced, 3, 0.0, true);
            assert!(traced.correct, "{}: {:?}", workload.name(), traced.problems);
            assert_eq!(reported(&traced), declared("per_layer"));
            assert_eq!(traced.digest, untraced.digest, "{}", workload.name());
            let metric = |name: &str| traced.metric(name).expect("declared metric");
            match workload {
                Workload::ScaleStream => {
                    assert!(metric("fairness.streamed_bias_ms") > 0.0);
                    assert!(metric("gnn.train_sampled_ms") > 0.0);
                    assert_eq!(metric("runner.cache_hits"), 0.0);
                }
                _ => {
                    let groups = audit::spec(workload, Size::Reduced, 3, 0).groups().len();
                    assert_eq!(metric("runner.cache_hits"), groups as f64);
                    assert_eq!(metric("runner.cache_misses"), 0.0);
                    assert!(metric("gnn.epochs") > 0.0);
                    assert!(metric("influence.hvps") > 0.0);
                    assert!(metric("qclp.iters") > 0.0);
                    // Single-threaded: nothing reaches the pool.
                    assert_eq!(metric("pool.dispatches"), 0.0);
                    assert_eq!(metric("pool.joins"), 0.0);
                }
            }
        });
    }
}

#[test]
fn an_injected_transient_cell_error_counts_as_one_failed_attempt() {
    let _turn = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    with_forced_threads(1, || {
        let base = run(Workload::AuditSmall, Size::Reduced, 5, 0.0, false);
        let plan = FaultPlan::empty(0xbe9c).with(FaultSpec::times("cell", "", FaultKind::Error, 1));
        let injected = with_fault_plan(plan, || {
            run(Workload::AuditSmall, Size::Reduced, 5, 0.0, false)
        });
        assert_eq!(injected.failed, base.failed + 1);
        assert_eq!(injected.attempted, base.attempted + 1);
        // The runner's retry recovered the cell, so the outputs still match.
        assert!(injected.correct, "{:?}", injected.problems);
        assert_eq!(injected.digest, base.digest);
        assert!(injected.metric("completed_share").expect("declared") < 1.0);
    });
}
