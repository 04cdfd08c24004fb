//! Experiment binaries for the PPFR reproduction.
//!
//! * `src/bin/exp_table{2,3,4,5}.rs`, `src/bin/exp_fig{4,5,6,7}.rs` —
//!   regenerate each table / figure of the paper, multi-seed via
//!   `ppfr_runner`, and print every metric as `mean ± std` (Table II, an
//!   influence correlation, is single-seed; pass `--smoke` for the reduced
//!   scale); `src/bin/exp_all.rs` runs them all;
//! * `src/bin/exp_runner.rs` — execute one named scenario matrix and print
//!   the aggregated report (text + stable JSON);
//! * `src/bin/exp_bench_json.rs` — time each kernel at one forced thread and
//!   at forced 2 and 8 threads, plus training, the attack stages, the
//!   runner matrix and the scaling scenario, record the `bench-small` span
//!   tree, and write the results as `BENCH_kernels.json`, of which it is the
//!   one writer;
//! * `src/bin/exp_trace.rs` — run one scenario with telemetry on, print its
//!   span tree and counters, and export a chrome://tracing trace.

#![forbid(unsafe_code)]

use ppfr_core::ExperimentScale;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_full() {
        // The test binary has no --smoke flag.
        assert_eq!(scale_from_args(), ExperimentScale::Full);
    }
}
