//! In-memory span recorder for the traced run.
//!
//! Spans are recorded on the benchmark's own thread, around the calls the
//! benchmark makes into each layer; nothing inside the program is
//! instrumented.  A span's self time is its duration minus the durations of
//! the spans nested directly inside it.  Recording is off unless
//! [`start`] was called, so the untraced run pays one thread-local flag
//! check per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `gnn.train`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since [`start`].
    pub start_ns: u64,
    /// End, in nanoseconds since [`start`].
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            origin: Some(Instant::now()),
            ..Recorder::default()
        }
    });
}

/// Stops recording and returns the spans (in start order) and counts.
pub fn stop() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    RECORDER.with(|r| {
        let rec = std::mem::take(&mut *r.borrow_mut());
        assert!(rec.open.is_empty(), "trace stopped inside an open span");
        (rec.spans, rec.counts)
    })
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<usize>);

/// Opens a span nested in the innermost open one (no-op when not recording).
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let Some(origin) = rec.origin else {
            return Guard(None);
        };
        let start_ns = origin.elapsed().as_nanos() as u64;
        let index = rec.spans.len();
        let parent = rec.open.last().copied();
        rec.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(index);
        Guard(Some(index))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with(|r| {
            let mut rec = r.borrow_mut();
            let Some(origin) = rec.origin else { return };
            rec.spans[index].end_ns = origin.elapsed().as_nanos() as u64;
            if rec.open.last() == Some(&index) {
                rec.open.pop();
            }
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = span(name);
    f()
}

/// Adds `n` to a named count (no-op when not recording).
pub fn count(name: &'static str, n: u64) {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        if rec.origin.is_some() {
            *rec.counts.entry(name).or_insert(0) += n;
        }
    });
}

/// Self time per span name, in milliseconds: each span's duration minus
/// the durations of its direct children.
pub fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (span, &children) in spans.iter().zip(&child_ns) {
        let own = span.duration_ns().saturating_sub(children);
        *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Total duration per span name, in milliseconds.
pub fn total_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for span in spans {
        *out.entry(span.name).or_insert(0.0) += span.duration_ns() as f64 / 1e6;
    }
    out
}

/// Writes the spans as a Chrome trace-event file (`chrome://tracing`,
/// Perfetto), one complete event per span with its parent index.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            )
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("[\n{}\n]\n", events.join(",\n")))
}

/// Writes a traced run's spans to `.bench_trace/<workload>-seed<seed>.json`
/// under the working directory; a write failure is reported, not fatal.
pub fn write_trace(workload: &str, seed: u64, spans: &[Span]) {
    let path = std::path::Path::new(".bench_trace").join(format!("{workload}-seed{seed}.json"));
    match write_chrome_trace(&path, spans) {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(err) => eprintln!("perfbench: could not write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: "a",
                parent: None,
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                name: "b",
                parent: Some(0),
                start_ns: 1_000_000,
                end_ns: 5_000_000,
            },
            Span {
                name: "c",
                parent: Some(1),
                start_ns: 2_000_000,
                end_ns: 3_000_000,
            },
        ];
        let own = self_ms(&spans);
        assert_eq!(own["a"], 6.0);
        assert_eq!(own["b"], 3.0);
        assert_eq!(own["c"], 1.0);
        assert_eq!(total_ms(&spans)["b"], 4.0);
    }

    #[test]
    fn nothing_is_recorded_unless_started() {
        {
            let _g = span("idle");
            count("idle.n", 3);
        }
        start();
        timed("outer", || timed("inner", || count("n", 2)));
        let (spans, counts) = stop();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(counts.get("n"), Some(&2));
        assert!(!counts.contains_key("idle.n"));
    }
}
