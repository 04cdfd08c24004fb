//! Metrics-core suite: recording semantics, histogram bucket
//! boundaries, and the canonical-merge determinism contract — the snapshot
//! of a deterministic workload must be identical no matter how many pool
//! threads recorded into the per-thread shards.

use ppfr_telemetry as tel;
use ppfr_telemetry::MetricValue;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Snapshot entries whose name starts with `prefix` (other suites and the
/// instrumented linalg dispatch counters share the global registry).
fn snapshot_with_prefix(prefix: &str) -> Vec<(String, MetricValue)> {
    tel::snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .collect()
}

#[test]
fn counter_gauge_histogram_roundtrip() {
    let _l = lock();
    tel::set_enabled(true);
    tel::reset();
    static COUNTER: tel::Counter = tel::Counter::new("m1.counter");
    static GAUGE: tel::Gauge = tel::Gauge::new("m1.gauge");
    static HIST: tel::Histogram = tel::Histogram::new("m1.hist");
    COUNTER.add(3);
    COUNTER.incr();
    GAUGE.set(1.5);
    GAUGE.set(2.5); // last write wins
    for v in [0, 1, 1, 5] {
        HIST.record(v);
    }
    let got = snapshot_with_prefix("m1.");
    assert_eq!(got.len(), 3, "{got:?}");
    // Sorted-name order is part of the contract.
    assert_eq!(got[0].0, "m1.counter");
    assert_eq!(got[0].1, MetricValue::Counter(4));
    assert_eq!(got[1].0, "m1.gauge");
    assert_eq!(got[1].1, MetricValue::Gauge(2.5));
    assert_eq!(got[2].0, "m1.hist");
    let MetricValue::Histogram(h) = &got[2].1 else {
        panic!("m1.hist must be a histogram: {got:?}");
    };
    assert_eq!(h.count, 4);
    assert_eq!(h.sum, 7);
    // 0 → zero bucket; 1 → [1,1]; 5 → [4,7].
    assert_eq!(h.buckets, vec![(0, 1), (1, 2), (7, 1)]);
}

#[test]
fn histogram_buckets_split_at_powers_of_two() {
    let _l = lock();
    tel::set_enabled(true);
    tel::reset();
    static HIST: tel::Histogram = tel::Histogram::new("m2.bounds");
    // One sample on each side of the 2^10 boundary, plus the extremes.
    for v in [0, 1023, 1024, u64::MAX] {
        HIST.record(v);
    }
    let got = snapshot_with_prefix("m2.");
    let MetricValue::Histogram(h) = &got[0].1 else {
        panic!("m2.bounds must be a histogram: {got:?}");
    };
    assert_eq!(
        h.buckets,
        vec![(0, 1), (1023, 1), (2047, 1), (u64::MAX, 1)],
        "1023 and 1024 must land in adjacent buckets"
    );
    assert_eq!(h.count, 4);
    assert_eq!(h.sum, 0u64.wrapping_add(1023 + 1024).wrapping_add(u64::MAX));
}

#[test]
fn shard_merge_is_identical_across_forced_thread_counts() {
    let _l = lock();
    tel::set_enabled(true);
    static COUNTER: tel::Counter = tel::Counter::new("m3.counter");
    static HIST: tel::Histogram = tel::Histogram::new("m3.hist");
    let run = |threads: usize| {
        tel::reset();
        ppfr_linalg::parallel::with_forced_threads(threads, || {
            ppfr_linalg::parallel::par_rows(64, |i| {
                COUNTER.add(1);
                HIST.record((i % 7) as u64);
                i
            })
        });
        snapshot_with_prefix("m3.")
    };
    let baseline = run(1);
    assert_eq!(
        baseline[0].1,
        MetricValue::Counter(64),
        "sanity: {baseline:?}"
    );
    for threads in [2, 4] {
        let merged = run(threads);
        assert_eq!(
            merged, baseline,
            "snapshot differs at {threads} forced threads"
        );
    }
}

#[test]
fn reset_zeroes_values_but_keeps_handles_usable() {
    let _l = lock();
    tel::set_enabled(true);
    tel::reset();
    static COUNTER: tel::Counter = tel::Counter::new("m4.counter");
    COUNTER.add(9);
    tel::reset();
    let got = snapshot_with_prefix("m4.");
    assert_eq!(got[0].1, MetricValue::Counter(0), "reset must zero values");
    COUNTER.add(2);
    let got = snapshot_with_prefix("m4.");
    assert_eq!(got[0].1, MetricValue::Counter(2), "handle survives reset");
}

#[test]
fn runtime_gate_stops_recording() {
    let _l = lock();
    tel::set_enabled(true);
    tel::reset();
    static COUNTER: tel::Counter = tel::Counter::new("m5.counter");
    COUNTER.incr();
    tel::set_enabled(false);
    COUNTER.incr(); // must not count
    tel::set_enabled(true);
    let got = snapshot_with_prefix("m5.");
    assert_eq!(got[0].1, MetricValue::Counter(1));
}
