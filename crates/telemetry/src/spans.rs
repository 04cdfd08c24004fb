//! Hierarchical wall-time spans, aggregated per thread and merged by name.
//!
//! Each thread owns a tree of *aggregation nodes* keyed by span name: the
//! first `span!("x")` under a parent allocates a node, every later one under
//! the same parent just bumps its count and total time.  The hot path is a
//! gate branch, one uncontended mutex lock on the thread's own shard and a
//! linear scan of the current node's children (span trees are shallow and
//! narrow — pipeline stages, not per-element work).
//!
//! [`span_tree`] merges the per-thread trees recursively by name in sorted
//! (BTreeMap) order.  Counts and structure therefore do not depend on which
//! thread ran a span or on registration order; only the measured durations
//! vary between runs.  Spans opened on pool workers root that worker's tree —
//! the instrumented call sites only open spans on the orchestrating thread,
//! so aggregated structure stays identical across `PPFR_NUM_THREADS`.
//!
//! When the trace gate is on (see [`crate::set_trace_enabled`]) every span
//! exit additionally appends a timestamped event for the chrome exporter.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Process-wide time zero for trace timestamps, fixed at first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// One aggregation node in a thread's span tree.
#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
}

/// A timestamped complete event for the chrome exporter.
#[derive(Debug, Clone)]
pub(crate) struct TraceEvent {
    pub name: &'static str,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub tid: u32,
}

/// One thread's span state.  Only the owning thread mutates it (guard
/// enter/exit); [`span_tree`] and `reset` lock it briefly from outside.
#[derive(Debug, Default)]
struct ThreadSpans {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    /// Indices of the currently open spans, innermost last.
    stack: Vec<usize>,
    trace: Vec<TraceEvent>,
}

impl ThreadSpans {
    /// Finds or creates the child named `name` under the innermost open span
    /// (or among the roots), returning its node index.
    fn child_named(&mut self, name: &'static str) -> usize {
        let siblings: &Vec<usize> = match self.stack.last() {
            Some(&parent) => &self.nodes[parent].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
        });
        match self.stack.last() {
            Some(&parent) => self.nodes[parent].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    fn close(&mut self, idx: usize, dur_ns: u64) {
        self.nodes[idx].count += 1;
        self.nodes[idx].total_ns = self.nodes[idx].total_ns.wrapping_add(dur_ns);
    }
}

/// Every thread's span shard, kept alive past thread exit so flushes still
/// see finished workers.
static THREADS: Mutex<Vec<Arc<Mutex<ThreadSpans>>>> = Mutex::new(Vec::new());

/// Display-only thread ids for trace events, in shard-creation order.
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LOCAL: OnceCell<(Arc<Mutex<ThreadSpans>>, u32)> = const { OnceCell::new() };
}

fn with_local<T>(f: impl FnOnce(&mut ThreadSpans, u32) -> T) -> T {
    LOCAL.with(|cell| {
        let (shard, tid) = cell.get_or_init(|| {
            let shard = Arc::new(Mutex::new(ThreadSpans::default()));
            THREADS
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(Arc::clone(&shard));
            (shard, NEXT_TID.fetch_add(1, Ordering::Relaxed))
        });
        f(&mut shard.lock().unwrap_or_else(|p| p.into_inner()), *tid)
    })
}

/// An open span; closes (records duration, pops the stack) on drop.  Create
/// via [`crate::span!`] or [`SpanGuard::enter`] and **bind it to a local**.
#[must_use = "an unbound span guard drops immediately and records nothing"]
pub struct SpanGuard {
    inner: Option<GuardInner>,
}

struct GuardInner {
    name: &'static str,
    node: usize,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span named `name` nested under the calling thread's innermost
    /// open span.  When telemetry is disabled this is a branch on a static:
    /// no clock read, no lock, no allocation.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { inner: None };
        }
        let node = with_local(|spans, _| {
            let idx = spans.child_named(name);
            spans.stack.push(idx);
            idx
        });
        SpanGuard {
            inner: Some(GuardInner {
                name,
                node,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end = Instant::now();
        let dur_ns = u64::try_from(end.duration_since(inner.start).as_nanos()).unwrap_or(u64::MAX);
        let trace = crate::trace_enabled();
        with_local(|spans, tid| {
            // Validate the stack entry before touching it: a `reset()` (or a
            // guard dropped out of order) may have invalidated our index.
            let pos = spans.stack.iter().rposition(|&i| {
                i == inner.node && spans.nodes.get(i).is_some_and(|n| n.name == inner.name)
            });
            let Some(pos) = pos else { return };
            spans.stack.truncate(pos);
            spans.close(inner.node, dur_ns);
            if trace {
                let ts_ns =
                    u64::try_from(inner.start.saturating_duration_since(epoch()).as_nanos())
                        .unwrap_or(u64::MAX);
                spans.trace.push(TraceEvent {
                    name: inner.name,
                    ts_ns,
                    dur_ns,
                    tid,
                });
            }
        });
    }
}

/// One aggregated node of the merged span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// Span name as passed to [`crate::span!`].
    pub name: String,
    /// Times this span was entered (summed over all threads).
    pub count: u64,
    /// Total wall time spent inside, nanoseconds (summed over all threads).
    pub total_ns: u64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanTree>,
}

#[derive(Default)]
struct MergeNode {
    count: u64,
    total_ns: u64,
    children: BTreeMap<&'static str, MergeNode>,
}

fn merge_into(dst: &mut BTreeMap<&'static str, MergeNode>, spans: &ThreadSpans, indices: &[usize]) {
    for &i in indices {
        let node = &spans.nodes[i];
        let entry = dst.entry(node.name).or_default();
        entry.count += node.count;
        entry.total_ns = entry.total_ns.wrapping_add(node.total_ns);
        merge_into(&mut entry.children, spans, &node.children);
    }
}

fn to_tree(map: BTreeMap<&'static str, MergeNode>) -> Vec<SpanTree> {
    map.into_iter()
        .map(|(name, n)| SpanTree {
            name: name.to_string(),
            count: n.count,
            total_ns: n.total_ns,
            children: to_tree(n.children),
        })
        .collect()
}

/// Merges every thread's span tree by name, recursively, in sorted order and
/// returns the roots.  Counts and structure are independent of thread count
/// and merge order; only measured times vary run to run.
pub fn span_tree() -> Vec<SpanTree> {
    let shards: Vec<Arc<Mutex<ThreadSpans>>> =
        THREADS.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut merged = BTreeMap::new();
    for shard in shards {
        let spans = shard.lock().unwrap_or_else(|p| p.into_inner());
        merge_into(&mut merged, &spans, &spans.roots.clone());
    }
    to_tree(merged)
}

/// The first node named `name` in a depth-first, pre-order walk of `nodes`
/// (a merged tree holds each name at most once per parent).
pub fn find_span<'a>(nodes: &'a [SpanTree], name: &str) -> Option<&'a SpanTree> {
    nodes.iter().find_map(|node| {
        (node.name == name)
            .then_some(node)
            .or_else(|| find_span(&node.children, name))
    })
}

/// Drains and returns every thread's trace events (chrome exporter input),
/// sorted by `(tid, ts_ns, name)` for stable output.
pub(crate) fn take_trace_events() -> Vec<TraceEvent> {
    let shards: Vec<Arc<Mutex<ThreadSpans>>> =
        THREADS.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut events = Vec::new();
    for shard in shards {
        events.append(&mut shard.lock().unwrap_or_else(|p| p.into_inner()).trace);
    }
    events.sort_by(|a, b| (a.tid, a.ts_ns, a.name).cmp(&(b.tid, b.ts_ns, b.name)));
    events
}

/// Clears every thread's nodes, roots, open-span stack and trace events.
/// Guards still alive across a reset detect the invalidation on drop and
/// record nothing.
pub(crate) fn reset() {
    let shards: Vec<Arc<Mutex<ThreadSpans>>> =
        THREADS.lock().unwrap_or_else(|p| p.into_inner()).clone();
    for shard in shards {
        let mut spans = shard.lock().unwrap_or_else(|p| p.into_inner());
        *spans = ThreadSpans::default();
    }
}
