//! Span suite: RAII nesting, canonical name-merge across threads
//! (property-tested over random thread assignments), reset safety and the
//! chrome trace-event capture.

use ppfr_telemetry as tel;
use proptest::prelude::*;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The thread-count-invariant part of a span tree: names, counts and
/// structure, with the measured times stripped.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    name: String,
    count: u64,
    children: Vec<Shape>,
}

fn shape(nodes: &[tel::SpanTree]) -> Vec<Shape> {
    nodes
        .iter()
        .map(|n| Shape {
            name: n.name.clone(),
            count: n.count,
            children: shape(&n.children),
        })
        .collect()
}

#[test]
fn spans_nest_and_aggregate_by_name() {
    let _l = lock();
    tel::set_enabled(true);
    tel::reset();
    {
        let _a = tel::span!("s1_outer");
        for _ in 0..3 {
            let _b = tel::span!("s1_inner");
        }
        let _c = tel::span!("s1_other");
    }
    let roots = shape(&tel::span_tree());
    assert_eq!(
        roots,
        vec![Shape {
            name: "s1_outer".into(),
            count: 1,
            children: vec![
                // Children come back in sorted-name order.
                Shape {
                    name: "s1_inner".into(),
                    count: 3,
                    children: vec![],
                },
                Shape {
                    name: "s1_other".into(),
                    count: 1,
                    children: vec![],
                },
            ],
        }]
    );
    let total = tel::span_tree()[0].total_ns;
    assert!(total > 0, "outer span must accumulate wall time");
}

#[test]
fn reset_while_a_span_is_open_is_safe() {
    let _l = lock();
    tel::set_enabled(true);
    tel::reset();
    let guard = tel::span!("s3_orphan");
    tel::reset();
    drop(guard); // must detect the invalidation and record nothing
    assert!(tel::span_tree().is_empty());
}

#[test]
fn trace_events_capture_and_drain() {
    let _l = lock();
    tel::set_enabled(true);
    tel::set_trace_enabled(true);
    tel::reset();
    {
        let _a = tel::span!("s4_outer");
        let _b = tel::span!("s4_inner");
    }
    tel::set_trace_enabled(false);
    let json = tel::chrome_trace_json();
    assert!(json.contains("\"name\":\"s4_outer\""), "{json}");
    assert!(json.contains("\"name\":\"s4_inner\""), "{json}");
    assert!(json.contains("\"ph\":\"X\""));
    // The export drains the buffer: a second export is empty.
    assert!(!tel::chrome_trace_json().contains("s4_outer"));
    // The aggregated tree is unaffected by draining the trace.
    assert_eq!(tel::span_tree().len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Merging is invariant to which thread recorded which span: any
    /// assignment of root spans to 3 threads yields the same aggregated
    /// shape as recording them all on one thread.
    #[test]
    fn span_tree_merge_is_thread_assignment_invariant(
        items in proptest::collection::vec((0usize..4, 0usize..3), 1..40),
    ) {
        const NAMES: [&str; 4] = ["s5_a", "s5_b", "s5_c", "s5_d"];
        let _l = lock();
        tel::set_enabled(true);

        // Baseline: every span recorded on the calling thread.
        tel::reset();
        for &(name, _) in &items {
            let _g = tel::SpanGuard::enter(NAMES[name]);
        }
        let baseline = shape(&tel::span_tree());

        // Same spans, scattered across threads per the random assignment.
        tel::reset();
        let mut per_thread: Vec<Vec<usize>> = vec![Vec::new(); 3];
        for &(name, thread) in &items {
            per_thread[thread].push(name);
        }
        let mut handles = Vec::new();
        for names in per_thread.split_off(1) {
            // lint: allow(wall-clock) — test-only worker threads driving the
            // per-thread span shards; no timing enters any assertion
            handles.push(std::thread::spawn(move || {
                for name in names {
                    let _g = tel::SpanGuard::enter(NAMES[name]);
                }
            }));
        }
        for name in &per_thread[0] {
            let _g = tel::SpanGuard::enter(NAMES[*name]);
        }
        for h in handles {
            h.join().expect("span worker");
        }
        prop_assert_eq!(shape(&tel::span_tree()), baseline);
    }
}
