//! # `ppfr_resilience` — failure semantics for the audit engine
//!
//! The scenario runner executes long `(dataset, model, method, seed)`
//! matrices; before this crate, a single panic anywhere in a group aborted
//! the whole matrix and lost every completed cell.  This crate provides the
//! service-grade failure vocabulary the runner (and, later, the resident
//! `AuditService`) builds on:
//!
//! * [`RunError`] — the typed error of every fallible runner path, replacing
//!   panics; carries enough identity (cell key, fault site) to land in a
//!   report's `failed_cells` section.
//! * [`Budget`] — a cooperative, *deterministic* work budget measured in
//!   logical units (epochs, solver iterations), never wall-clock time: the
//!   same budget always stops at the same iteration, so degraded runs are
//!   reproducible and thread-count-invariant.  Installed ambiently per cell
//!   via [`with_budget`]; long loops poll [`checkpoint`].
//! * [`RetryPolicy`] / [`run_with_retry`] — bounded attempt-count retry for
//!   transient cell failures.  "Backoff" is attempt-count-based (the closure
//!   receives the attempt number and may degrade per attempt); there is no
//!   sleeping and no clock, by design and by `ppfr_lint`'s wall-clock rule.
//! * [`FaultPlan`] — a seeded, serialisable fault-injection harness (worker
//!   panic, cell error, artifact corruption, budget exhaustion) behind a
//!   zero-overhead gate: when no plan is installed, every query is a single
//!   relaxed atomic load ([`armed`]), mirroring `PPFR_TELEMETRY`'s gating.
//! * [`note_degradation`] / [`collect_degradations`] — the ambient event log
//!   that carries graceful-degradation decisions (dense CG → LiSSA) from
//!   deep library code into the runner's report.
//!
//! Everything is deterministic: budgets count units, retries count attempts,
//! fault probability draws hash `(plan seed, site, key, occurrence)`.  No
//! call in this crate reads a clock or ambient randomness.

#![forbid(unsafe_code)]

mod budget;
mod error;
mod fault;
mod retry;

pub use budget::{
    budget_exhausted, budget_unbounded, checkpoint, collect_degradations, note_degradation,
    with_budget, Budget, DegradationEvent,
};
pub use error::{panic_message, RunError};
pub use fault::{
    armed, clear, fault_at, install, with_fault_plan, FaultKind, FaultPlan, FaultSpec,
};
pub use retry::{run_with_retry, RetryPolicy};

use std::sync::atomic::{AtomicU64, Ordering};

/// Always-on relaxed tallies of resilience events, the one count of each:
/// `exp_bench_json` and the chaos tests read them with no switch to turn
/// on.  All increments sit on failure/degradation paths, never on the
/// fault-free hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Cell attempts re-run after a transient failure.
    pub retries: u64,
    /// Graceful-degradation events recorded via [`note_degradation`].
    pub degradations: u64,
    /// Cell or group panics quarantined by the runner.
    pub cell_panics: u64,
    /// Faults fired by an installed [`FaultPlan`].
    pub faults_injected: u64,
    /// Checkpoints that stopped a loop on an exhausted/cancelled budget.
    pub budget_stops: u64,
}

pub(crate) static RETRIES: AtomicU64 = AtomicU64::new(0);
pub(crate) static DEGRADATIONS: AtomicU64 = AtomicU64::new(0);
pub(crate) static CELL_PANICS: AtomicU64 = AtomicU64::new(0);
pub(crate) static FAULTS_INJECTED: AtomicU64 = AtomicU64::new(0);
pub(crate) static BUDGET_STOPS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide resilience tallies.  Relaxed statistics:
/// read them at quiescence, like the runner's cache stats.
pub fn counters() -> ResilienceCounters {
    ResilienceCounters {
        retries: RETRIES.load(Ordering::Relaxed),
        degradations: DEGRADATIONS.load(Ordering::Relaxed),
        cell_panics: CELL_PANICS.load(Ordering::Relaxed),
        faults_injected: FAULTS_INJECTED.load(Ordering::Relaxed),
        budget_stops: BUDGET_STOPS.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide tallies (for a bench binary that measures one
/// section).
pub fn reset_counters() {
    RETRIES.store(0, Ordering::Relaxed);
    DEGRADATIONS.store(0, Ordering::Relaxed);
    CELL_PANICS.store(0, Ordering::Relaxed);
    FAULTS_INJECTED.store(0, Ordering::Relaxed);
    BUDGET_STOPS.store(0, Ordering::Relaxed);
}

/// Records one quarantined panic (runner-side bookkeeping).
pub fn note_cell_panic() {
    CELL_PANICS.fetch_add(1, Ordering::Relaxed);
}
