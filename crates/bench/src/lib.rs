//! Experiment binaries and Criterion benchmarks for the PPFR reproduction.
//!
//! * `src/bin/exp_table{2,3,4,5}.rs`, `src/bin/exp_fig{4,5,6,7}.rs` —
//!   regenerate each table / figure of the paper, multi-seed via
//!   `ppfr_runner`, and print every metric as `mean ± std` (Table II, an
//!   influence correlation, is single-seed; pass `--smoke` for the reduced
//!   scale);
//! * `src/bin/exp_runner.rs` — execute one named scenario matrix and print
//!   the aggregated report (text + stable JSON);
//! * `src/bin/exp_bench_json.rs` — time the kernels at one forced thread and
//!   at the ambient thread count and merge the results into
//!   `BENCH_kernels.json`;
//! * `benches/kernels.rs` — micro-benchmarks of the hot kernels;
//! * `benches/microkernels.rs` — the 4-wide GEMM/SpMM microkernels at one
//!   forced thread, and the persistent pool's dispatch latency;
//! * `benches/tables.rs`, `benches/figures.rs` — smoke-scale end-to-end
//!   benchmarks, one group per table / figure;
//! * `benches/ablations.rs` — design-choice ablations (PP vs DP noise, QCLP
//!   re-weighting vs top-k node deletion).

#![forbid(unsafe_code)]

use ppfr_core::ExperimentScale;
use serde::Value;

/// Parses the experiment scale from command-line arguments: `--smoke` selects
/// the reduced scale, anything else (including nothing) selects full scale.
pub fn scale_from_args() -> ExperimentScale {
    if std::env::args().any(|a| a == "--smoke") {
        ExperimentScale::Smoke
    } else {
        ExperimentScale::Full
    }
}

/// Unwraps a runner result for the `exp_*` binaries: a failed scenario prints
/// the error to stderr and exits non-zero instead of panicking with a
/// backtrace, so shell pipelines and CI see a clean diagnostic + status code.
pub fn report_or_exit<T>(result: Result<T, ppfr_resilience::RunError>) -> T {
    match result {
        Ok(report) => report,
        Err(err) => {
            eprintln!("scenario failed: {err}");
            std::process::exit(1);
        }
    }
}

/// Merges top-level sections into an existing JSON object document and
/// returns the merged pretty JSON: named sections are replaced (or appended
/// in order), every other key is preserved verbatim.  `existing` is the
/// previous file content, if any; unparseable or non-object content starts a
/// fresh object, so a corrupt report never blocks a new run.
///
/// `exp_bench_json` uses this so re-running it (or any future binary owning
/// its own section) updates only its own sections of `BENCH_kernels.json`
/// instead of clobbering the rest of the report.
pub fn merge_bench_sections(existing: Option<&str>, sections: Vec<(&str, Value)>) -> String {
    let mut entries: Vec<(String, Value)> = match existing.map(serde_json::from_str::<Value>) {
        Some(Ok(Value::Obj(entries))) => entries,
        _ => Vec::new(),
    };
    for (key, value) in sections {
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => entries.push((key.to_string(), value)),
        }
    }
    serde_json::to_string_pretty(&Value::Obj(entries)).expect("bench report serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_full() {
        // The test binary has no --smoke flag.
        assert_eq!(scale_from_args(), ExperimentScale::Full);
    }

    #[test]
    fn merging_preserves_foreign_sections_and_replaces_owned_ones() {
        let existing = r#"{"custom": {"kept": true}, "kernels": [1, 2], "threads": 1}"#;
        let merged = merge_bench_sections(
            Some(existing),
            vec![
                ("kernels", Value::Arr(vec![Value::Num(3.0)])),
                ("runner", Value::Str("new".to_string())),
            ],
        );
        let back: Value = serde_json::from_str(&merged).expect("merged JSON parses");
        // Foreign sections survive untouched, owned ones are replaced or
        // appended.
        assert!(matches!(
            back.field("custom").field("kept"),
            Value::Bool(true)
        ));
        assert_eq!(back.field("threads").as_f64().unwrap(), 1.0);
        assert_eq!(back.field("kernels").as_arr().unwrap().len(), 1);
        assert_eq!(back.field("runner").as_str().unwrap(), "new");
    }

    #[test]
    fn merging_starts_fresh_on_missing_or_corrupt_input() {
        for existing in [None, Some("not json"), Some("[1, 2]")] {
            let merged = merge_bench_sections(existing, vec![("runner", Value::Num(1.0))]);
            let back: Value = serde_json::from_str(&merged).expect("parses");
            assert_eq!(back.field("runner").as_f64().unwrap(), 1.0);
        }
    }
}
