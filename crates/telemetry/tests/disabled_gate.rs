//! The opt-in contract: the gate is off unless `PPFR_TELEMETRY` or
//! `set_enabled(true)` turns it on, and while it is off every recording site
//! is a no-op.  The gate-independent stopwatch API is covered here too.

use ppfr_telemetry as tel;
use std::sync::{Mutex, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The gate's value before any test switched it, read with `PPFR_TELEMETRY`
/// unset.  Every gate test calls this first, so whichever runs first takes
/// the reading.
fn default_gate() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::remove_var("PPFR_TELEMETRY");
        tel::enabled()
    })
}

#[test]
fn stopwatch_and_time_ms_are_always_available() {
    let sw = tel::Stopwatch::new();
    let mut acc = 0u64;
    for i in 0..1000u64 {
        acc = acc.wrapping_add(i * i);
    }
    assert!(std::hint::black_box(acc) > 0);
    let first = sw.elapsed_ms();
    assert!(first >= 0.0);
    assert!(sw.elapsed_ms() >= first, "elapsed must be monotone");

    let (out, ms) = tel::time_ms(|| 21 * 2);
    assert_eq!(out, 42);
    assert!(ms >= 0.0);
}

#[test]
fn gate_is_off_by_default_and_follows_set_enabled() {
    let _l = lock();
    assert!(!default_gate(), "telemetry must be opt-in");
    tel::set_enabled(true);
    assert!(tel::enabled(), "set_enabled(true) must switch recording on");
    tel::set_enabled(false);
    assert!(
        !tel::enabled(),
        "set_enabled(false) must switch it off again"
    );
}

#[test]
fn disabled_recording_is_a_no_op() {
    let _l = lock();
    default_gate();
    tel::set_enabled(false);
    {
        let _span = tel::span!("gate_span");
    }
    assert!(tel::span_tree().is_empty(), "no spans may record when off");
    let report = tel::report();
    assert!(report.contains("(no spans recorded)"), "{report}");
    assert!(tel::chrome_trace_json().contains("\"traceEvents\":["));
}
