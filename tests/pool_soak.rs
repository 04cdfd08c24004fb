//! Soak test of the work-stealing pool's job teardown at two threads.
//!
//! A dispatch frees its job (which lives on the dispatcher's stack) as soon
//! as it sees every participant detached, so a worker must not touch the job
//! after the detach the dispatcher can observe.  A race there shows up only
//! under load and only now and then: as a cell panic the runner retries
//! away, as a report that differs bit for bit, or as a crash.  This test
//! runs the `bench-small` matrix repeatedly at 2 forced worker threads and
//! asserts none of that happens.
//!
//! Ignored by default because it needs a release build to finish in about a
//! minute:
//!
//! ```sh
//! cargo test --release -p ppfr --test pool_soak -- --ignored
//! ```

use ppfr_linalg::parallel::with_forced_threads;
use ppfr_runner::{run_scenario, ArtifactCache, ScenarioSpec};

const RUNS: usize = 60;

#[test]
#[ignore = "release-mode soak; run with --release -- --ignored"]
fn bench_small_matrix_is_stable_over_repeated_two_thread_runs() {
    let spec = ScenarioSpec::bench_small();
    let retries_before = ppfr_resilience::counters().retries;
    let mut reference: Option<String> = None;
    let (mut failed_cells, mut differing) = (0, 0);
    for _ in 0..RUNS {
        let report = with_forced_threads(2, || run_scenario(&spec, &ArtifactCache::new()))
            .expect("bench-small is a valid scenario");
        failed_cells += report.failed_cells.len();
        let json = report.to_json();
        match &reference {
            None => reference = Some(json),
            Some(first) => differing += usize::from(*first != json),
        }
    }
    let retries = ppfr_resilience::counters().retries - retries_before;
    eprintln!(
        "{RUNS} runs at 2 threads: {retries} retried cells, {failed_cells} failed cells, \
         {differing} reports differing from the first"
    );
    assert_eq!(
        (retries, failed_cells, differing),
        (0, 0, 0),
        "the pool must run bench-small at 2 threads without retries, failures or drift"
    );
}
