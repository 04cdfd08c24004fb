//! Zero-overhead observability for the PPFR stack.
//!
//! Three facilities, all std-only and dependency-free:
//!
//! * **Spans** ([`span!`], [`SpanGuard`]) — RAII wall-time regions that nest
//!   into a per-thread span tree; [`span_tree`] merges the per-thread trees
//!   by name in canonical (sorted) order, so the aggregated structure and
//!   counts are bit-stable across thread counts even when spans run inside
//!   pool workers (only the measured times vary).
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) — a lock-free
//!   registry accumulated in per-thread shards of atomic slots; [`snapshot`]
//!   merges the shards in sorted-key order.
//! * **Exporters** ([`report`], [`chrome_trace_json`]) — a human-readable
//!   span-tree/metrics text report and a chrome://tracing trace-event JSON
//!   document (load via `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! # Gating — why instrumentation can live on hot paths
//!
//! Everything funnels through [`enabled`]:
//!
//! * Without the `telemetry` **cargo feature** (the default), `enabled()` is
//!   `cfg!(feature = "telemetry") && …` — a compile-time `false`, so every
//!   instrumentation site in the workspace folds to a dead branch.
//! * With the feature, `enabled()` is a single branch on a static atomic,
//!   initialised once from the `PPFR_TELEMETRY` env var (`0`/`false`/`off`
//!   disable; anything else, or unset, enables) and overridable via
//!   [`set_enabled`].
//!
//! Recording never influences computation: telemetry only reads clocks and
//! bumps counters, so the golden-metric suite and every forced-thread
//! bit-identity test pass unchanged with telemetry on or off (pinned in
//! CI's `obs-layer`).
//!
//! Trace-event capture (per-span timestamps, for the chrome exporter) is a
//! second, off-by-default gate ([`set_trace_enabled`] /
//! `PPFR_TELEMETRY_TRACE=1`) because it allocates per span exit.
//!
//! [`Stopwatch`] and [`time_ms`] are always available (no feature needed):
//! they are the one wall-clock primitive the bench binaries time with, so
//! bench timings and trace spans come from the same code path
//! ([`time_span_ms`]).

#![forbid(unsafe_code)]

mod export;
mod metrics;
mod spans;

pub use export::{chrome_trace_json, report};
pub use metrics::{snapshot, Counter, Gauge, Histogram, HistogramValue, MetricValue};
pub use spans::{span_tree, SpanGuard, SpanTree};

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// Whether the `telemetry` cargo feature was compiled in.
pub const fn compiled() -> bool {
    cfg!(feature = "telemetry")
}

/// Tri-state runtime gate: 0 = not yet read from the env, 1 = off, 2 = on.
static RUNTIME_GATE: AtomicU8 = AtomicU8::new(0);

fn runtime_enabled() -> bool {
    // Relaxed everywhere: the gate value never orders access to other data;
    // shards and registry entries are published by their own locks.
    match RUNTIME_GATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = match std::env::var("PPFR_TELEMETRY") {
                Ok(v) => !matches!(v.trim(), "0" | "false" | "off"),
                Err(_) => true,
            };
            RUNTIME_GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// True when telemetry is recording: the `telemetry` feature is compiled in
/// **and** the runtime gate (env `PPFR_TELEMETRY`, [`set_enabled`]) is on.
///
/// With the feature off this is a compile-time `false`; with it on, a single
/// branch on a static after the first call.
#[inline]
pub fn enabled() -> bool {
    compiled() && runtime_enabled()
}

/// Forces the runtime gate, overriding the `PPFR_TELEMETRY` env var.  A
/// no-op effect-wise when the `telemetry` feature is not compiled in
/// ([`enabled`] stays `false`).
pub fn set_enabled(on: bool) {
    RUNTIME_GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Tri-state trace gate, same encoding as [`RUNTIME_GATE`].
static TRACE_GATE: AtomicU8 = AtomicU8::new(0);

pub(crate) fn trace_enabled() -> bool {
    if !enabled() {
        return false;
    }
    match TRACE_GATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("PPFR_TELEMETRY_TRACE")
                .map(|v| matches!(v.trim(), "1" | "true" | "on"))
                .unwrap_or(false);
            TRACE_GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns per-span trace-event capture (for [`chrome_trace_json`]) on or off;
/// overrides the `PPFR_TELEMETRY_TRACE` env var.  Off by default — events
/// allocate per span exit, which general metric collection must not.
pub fn set_trace_enabled(on: bool) {
    TRACE_GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Clears every recorded metric, span and trace event (the metric registry's
/// name→slot assignments survive, so handles stay valid).  Intended for
/// tests and for exporters that measure one workload at a time.
pub fn reset() {
    metrics::reset();
    spans::reset();
}

/// Opens a hierarchical wall-time span; returns a [`SpanGuard`] that closes
/// it on drop.  **Bind the guard** (`let _span = span!("train");`) — an
/// unbound guard drops immediately and records an empty span.
///
/// When telemetry is disabled this is a branch on a static and no clock read.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// A started wall-clock timer.  Always available — this is the single
/// timing primitive of the workspace (the `wall-clock` lint rule bans raw
/// `Instant` outside this crate and bench code).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds since start (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Elapsed milliseconds since start.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

/// Times `f`, returning its result and the elapsed milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::new();
    let out = f();
    (out, sw.elapsed_ms())
}

/// Times `f` and, when telemetry is enabled, also records the measurement as
/// a closed span named `name` under the current span (one clock pair feeds
/// both the returned milliseconds and the span tree — bench timings and
/// trace spans share this code path).
pub fn time_span_ms<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    if enabled() {
        spans::record_closed_span(name, start, end);
    }
    (out, end.duration_since(start).as_secs_f64() * 1e3)
}
