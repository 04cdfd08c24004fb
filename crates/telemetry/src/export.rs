//! Exporters: human-readable text report and chrome trace-event JSON.
//!
//! The text report renders the *canonical* merged [`crate::span_tree`], so
//! its structure and counts are identical across thread counts; only
//! measured durations differ run to run.  The JSON is
//! hand-rolled (this crate is dependency-free) against the trace-event
//! format's "complete event" shape — load the file in `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use crate::spans::{span_tree, take_trace_events, SpanTree};
use std::fmt::Write as _;

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

fn render_node(out: &mut String, node: &SpanTree, depth: usize) {
    let indent = "  ".repeat(depth);
    let mean_ns = node.total_ns.checked_div(node.count).unwrap_or(0);
    let _ = writeln!(
        out,
        "{indent}{name}  count={count}  total_ms={total}  mean_ms={mean}",
        name = node.name,
        count = node.count,
        total = fmt_ms(node.total_ns),
        mean = fmt_ms(mean_ns),
    );
    for child in &node.children {
        render_node(out, child, depth + 1);
    }
}

/// Renders the merged span tree as an indented text report (the `exp_trace`
/// stdout format).
pub fn report() -> String {
    let mut out = String::new();
    out.push_str("== spans ==\n");
    let roots = span_tree();
    if roots.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    for root in &roots {
        render_node(&mut out, root, 0);
    }
    out
}

/// Escapes a string for inclusion in a JSON string literal.  Span names are
/// static identifiers, but escape defensively anyway.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Drains the captured trace events (see [`crate::set_trace_enabled`]) and
/// renders them as a chrome://tracing trace-event JSON document of
/// "complete" (`"ph":"X"`) events, timestamps in microseconds.
pub fn chrome_trace_json() -> String {
    let events = take_trace_events();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"name\":\"{name}\",\"cat\":\"ppfr\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{tid}}}",
            name = json_escape(e.name),
            ts = e.ts_ns as f64 / 1e3,
            dur = e.dur_ns as f64 / 1e3,
            tid = e.tid,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
