//! Opt-in observability for the PPFR stack.
//!
//! Two facilities, both std-only and dependency-free:
//!
//! * **Spans** ([`span!`], [`SpanGuard`]) — RAII wall-time regions that nest
//!   into a per-thread span tree; [`span_tree`] merges the per-thread trees
//!   by name in canonical (sorted) order, so the aggregated structure and
//!   counts are bit-stable across thread counts even when spans run inside
//!   pool workers (only the measured times vary).  A span's count is also
//!   how often its stage ran: `train_epoch` counts epochs, `influence_hvp`
//!   Hessian-vector products.
//! * **Exporters** ([`report`], [`chrome_trace_json`]) — a human-readable
//!   span-tree text report and a chrome://tracing trace-event JSON document
//!   (load via `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! Every other count lives with the code that owns it: the always-on
//! `ppfr_resilience::counters()` and runner `ArtifactCache::stats()`, and
//! the vendored pool's opt-in `rayon::pool_stats()`.
//!
//! # Gating — why instrumentation can live on hot paths
//!
//! Everything funnels through [`enabled`], a single relaxed load of a static
//! atomic.  Recording is opt-in: the gate starts off and switches on only
//! when the `PPFR_TELEMETRY` env var is `1`, `true` or `on` (read once, on
//! the first call) or a program calls [`set_enabled`]`(true)`.  While it is
//! off every span site returns after that one load: no clock read, no lock,
//! no allocation.
//!
//! Recording never influences computation: telemetry only reads clocks, so
//! the golden-metric suite and every forced-thread bit-identity test pass
//! unchanged with telemetry on or off (pinned in CI's `obs-layer` and by
//! `crates/runner/tests/span_tree.rs`).
//!
//! Trace-event capture (per-span timestamps, for the chrome exporter) is a
//! second, off-by-default switch ([`set_trace_enabled`]) because it
//! allocates per span exit.
//!
//! [`Stopwatch`] and [`time_ms`] do not depend on the gate: they are the one
//! wall-clock primitive the bench binaries time with.

#![forbid(unsafe_code)]

mod export;
mod spans;

pub use export::{chrome_trace_json, report};
pub use spans::{find_span, span_tree, SpanGuard, SpanTree};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::Instant;

/// Tri-state runtime gate: 0 = not yet read from the env, 1 = off, 2 = on.
static GATE: AtomicU8 = AtomicU8::new(0);

/// Whether a `PPFR_TELEMETRY` value switches recording on: `1`, `true` and
/// `on` do; anything else, or an unset variable, leaves it off.
fn env_enables(value: Option<&str>) -> bool {
    matches!(value.map(str::trim), Some("1" | "true" | "on"))
}

/// First-call path of [`enabled`]: reads `PPFR_TELEMETRY` into the gate.
#[cold]
fn init_gate_from_env() -> bool {
    let on = env_enables(std::env::var("PPFR_TELEMETRY").ok().as_deref());
    set_enabled(on);
    on
}

/// True when telemetry is recording: `PPFR_TELEMETRY` is `1|true|on` or the
/// gate was switched on by [`set_enabled`].  Off by default.
///
/// A single relaxed load after the first call.  Relaxed is enough: the gate
/// value never orders access to other data; span shards are published by
/// their own locks.
#[inline]
pub fn enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_gate_from_env(),
    }
}

/// Switches recording on or off, overriding the `PPFR_TELEMETRY` env var.
pub fn set_enabled(on: bool) {
    GATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Per-span trace-event capture, off until [`set_trace_enabled`].
static TRACE: AtomicBool = AtomicBool::new(false);

pub(crate) fn trace_enabled() -> bool {
    enabled() && TRACE.load(Ordering::Relaxed)
}

/// Turns per-span trace-event capture (for [`chrome_trace_json`]) on or off.
/// Off by default — events allocate per span exit, which span-tree
/// recording alone must not.  Captures only while [`enabled`] is also on.
pub fn set_trace_enabled(on: bool) {
    TRACE.store(on, Ordering::Relaxed);
}

/// Clears every recorded span and trace event.  Intended for tests and for
/// exporters that measure one workload at a time.
pub fn reset() {
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

#[cfg(test)]
mod tests {
    use super::env_enables;

    #[test]
    fn env_var_is_opt_in() {
        for off in [None, Some("0"), Some("off"), Some("false"), Some("")] {
            assert!(!env_enables(off), "{off:?} must leave telemetry off");
        }
        for on in [Some("1"), Some("true"), Some("on"), Some(" on ")] {
            assert!(env_enables(on), "{on:?} must switch telemetry on");
        }
    }
}
