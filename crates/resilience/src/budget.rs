//! Cooperative, deterministic work budgets and the ambient degradation log.
//!
//! A [`Budget`] counts **logical work units** — training epochs, CG/LiSSA
//! iterations — never wall-clock time.  Determinism is the point: the same
//! budget always stops the same loop at the same iteration, so a degraded
//! run is bit-reproducible at any thread count, and `ppfr_lint`'s wall-clock
//! rule stays clean.
//!
//! Budgets are installed *ambiently* per cell ([`with_budget`]): the runner
//! wraps each `(model, method)` cell, and the deep library loops (the
//! training epoch loop, the CG and LiSSA iterations) poll [`checkpoint`]
//! without any signature change.  A cell runs synchronously on one thread,
//! so a scoped thread-local carries the budget exactly as far as it should —
//! inner data-parallel kernels on other worker threads never observe it
//! (they contain no checkpoints).
//!
//! The same scoped-thread-local pattern carries the **degradation log**:
//! when library code steps down an estimator under budget pressure, it calls
//! [`note_degradation`]; the runner drains the events per cell via
//! [`collect_degradations`] and records them in the report, so every
//! deviation from the exact protocol is flagged.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel limit meaning "no limit".
const UNLIMITED: u64 = u64::MAX;

struct BudgetInner {
    /// Total units this budget may spend; [`UNLIMITED`] for no limit.
    limit: u64,
    /// Units spent so far.
    spent: AtomicU64,
    /// Cooperative cancellation flag: once set, every checkpoint stops.
    cancelled: AtomicBool,
}

/// A shareable work budget + cancellation token.  Cloning shares the same
/// underlying counter.
#[derive(Clone)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Budget")
            .field("limit", &self.inner.limit)
            .field("spent", &self.spent())
            .field("cancelled", &self.cancelled())
            .finish()
    }
}

impl Budget {
    /// A budget of `units` logical work units.
    pub fn units(units: u64) -> Self {
        Self {
            inner: Arc::new(BudgetInner {
                limit: units,
                spent: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// A budget that never exhausts (but can still be cancelled).
    pub fn unlimited() -> Self {
        Self::units(UNLIMITED)
    }

    /// Spends `units` against the budget.  Returns `true` while the total
    /// stays within the limit and the budget is not cancelled.
    pub fn spend(&self, units: u64) -> bool {
        if self.cancelled() {
            return false;
        }
        if self.inner.limit == UNLIMITED {
            return true;
        }
        // Relaxed: a budget is polled from the one thread running its cell;
        // the counter never orders access to other data.
        let before = self.inner.spent.fetch_add(units, Ordering::Relaxed);
        before.saturating_add(units) <= self.inner.limit
    }

    /// Units spent so far.
    pub fn spent(&self) -> u64 {
        self.inner.spent.load(Ordering::Relaxed)
    }

    /// `true` once more units were spent than the limit allows, or the
    /// budget was cancelled.
    pub fn exhausted(&self) -> bool {
        self.cancelled() || (self.inner.limit != UNLIMITED && self.spent() > self.inner.limit)
    }

    /// Spends the entire remaining budget (used by the fault harness to
    /// simulate exhaustion deterministically).
    pub fn exhaust(&self) {
        if self.inner.limit == UNLIMITED {
            self.cancel();
        } else {
            self.inner
                .spent
                .store(self.inner.limit.saturating_add(1), Ordering::Relaxed);
        }
    }

    /// Requests cooperative cancellation: every later [`Budget::spend`] and
    /// ambient [`checkpoint`] returns `false`.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once [`Budget::cancel`] was called.
    pub fn cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }
}

thread_local! {
    static AMBIENT: RefCell<Option<Budget>> = const { RefCell::new(None) };
    static DEGRADATIONS: RefCell<Option<Vec<DegradationEvent>>> = const { RefCell::new(None) };
}

/// Runs `f` with `budget` installed as the thread's ambient budget; restores
/// the previous ambient budget (if any) on exit, including on unwind.
pub fn with_budget<T>(budget: &Budget, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Budget>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            AMBIENT.with(|slot| *slot.borrow_mut() = prev);
        }
    }
    let prev = AMBIENT.with(|slot| slot.borrow_mut().replace(budget.clone()));
    let _restore = Restore(prev);
    f()
}

/// Polls the ambient budget, spending `units`: returns `true` to keep
/// working, `false` when the budget is exhausted or cancelled.  Without an
/// ambient budget this is always `true` — library loops can poll
/// unconditionally with no behaviour change in unbudgeted runs.
pub fn checkpoint(units: u64) -> bool {
    let ok = AMBIENT.with(|slot| match slot.borrow().as_ref() {
        Some(budget) => budget.spend(units),
        None => true,
    });
    if !ok {
        static STOPS: ppfr_telemetry::Counter =
            ppfr_telemetry::Counter::new("resilience.budget_stops");
        STOPS.incr();
        crate::BUDGET_STOPS.fetch_add(1, Ordering::Relaxed);
    }
    ok
}

/// `true` when an ambient budget is installed and already exhausted — the
/// trigger for the graceful-degradation ladder (dense CG → LiSSA).  `false`
/// when no budget is installed.
pub fn budget_exhausted() -> bool {
    AMBIENT.with(|slot| {
        slot.borrow()
            .as_ref()
            .is_some_and(|budget| budget.exhausted())
    })
}

/// `true` when work done now cannot depend on the ambient budget: none is
/// installed, or the installed one is unlimited and not cancelled.  A
/// result computed under such a budget is the same in every cell, so it
/// may be shared between cells; under a bounded or cancelled budget the
/// result spends or degrades that cell's allowance and must stay its own.
pub fn budget_unbounded() -> bool {
    AMBIENT.with(|slot| {
        slot.borrow()
            .as_ref()
            .is_none_or(|budget| budget.inner.limit == UNLIMITED && !budget.cancelled())
    })
}

/// One graceful-degradation decision: at `site`, the exact `from` path was
/// replaced by the cheaper `to` path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Where the ladder stepped down (e.g. `influence`).
    pub site: String,
    /// The exact estimator that was skipped.
    pub from: String,
    /// The degraded estimator that ran instead.
    pub to: String,
}

/// Records one degradation event into the ambient log (when a collector is
/// installed) and the `resilience.degradations` telemetry counter.  Library
/// code calls this at every ladder step so no downgrade goes unflagged.
pub fn note_degradation(site: &str, from: &str, to: &str) {
    static DEGRADED: ppfr_telemetry::Counter =
        ppfr_telemetry::Counter::new("resilience.degradations");
    DEGRADED.incr();
    crate::DEGRADATIONS.fetch_add(1, Ordering::Relaxed);
    DEGRADATIONS.with(|slot| {
        if let Some(log) = slot.borrow_mut().as_mut() {
            log.push(DegradationEvent {
                site: site.to_string(),
                from: from.to_string(),
                to: to.to_string(),
            });
        }
    });
}

/// Runs `f` with a fresh ambient degradation log and returns its result
/// together with the events recorded during the call.  Nested collectors
/// save and restore the outer log, including on unwind.
pub fn collect_degradations<T>(f: impl FnOnce() -> T) -> (T, Vec<DegradationEvent>) {
    struct Restore(Option<Vec<DegradationEvent>>, bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            if !self.1 {
                let prev = self.0.take();
                DEGRADATIONS.with(|slot| *slot.borrow_mut() = prev);
            }
        }
    }
    let prev = DEGRADATIONS.with(|slot| slot.borrow_mut().replace(Vec::new()));
    let mut restore = Restore(prev, false);
    let out = f();
    let events = DEGRADATIONS
        .with(|slot| slot.borrow_mut().take())
        .unwrap_or_default();
    DEGRADATIONS.with(|slot| *slot.borrow_mut() = restore.0.take());
    restore.1 = true;
    (out, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_spends_to_the_limit_then_stops() {
        let b = Budget::units(3);
        assert!(b.spend(1) && b.spend(1) && b.spend(1));
        assert!(!b.exhausted(), "limit itself is still within budget");
        assert!(!b.spend(1), "fourth unit exceeds the limit");
        assert!(b.exhausted());
        assert_eq!(b.spent(), 4);
    }

    #[test]
    fn unlimited_budget_never_exhausts_but_cancels() {
        let b = Budget::unlimited();
        assert!(b.spend(1_000_000));
        assert!(!b.exhausted());
        b.cancel();
        assert!(!b.spend(1));
        assert!(b.exhausted());
    }

    #[test]
    fn exhaust_forces_immediate_stop() {
        let b = Budget::units(100);
        b.exhaust();
        assert!(b.exhausted());
        assert!(!b.spend(1));
    }

    #[test]
    fn ambient_checkpoint_counts_against_the_installed_budget() {
        assert!(checkpoint(1), "no ambient budget means no limit");
        assert!(!budget_exhausted());
        let budget = Budget::units(2);
        let stopped_at = with_budget(&budget, || {
            let mut iters = 0;
            for _ in 0..10 {
                if !checkpoint(1) {
                    break;
                }
                iters += 1;
            }
            assert!(budget_exhausted());
            iters
        });
        assert_eq!(stopped_at, 2, "budget of 2 permits exactly two iterations");
        assert!(checkpoint(1), "ambient budget restored to none after scope");
    }

    #[test]
    fn only_an_absent_or_live_unlimited_budget_is_unbounded() {
        assert!(budget_unbounded(), "no ambient budget");
        let unlimited = Budget::unlimited();
        with_budget(&unlimited, || {
            assert!(checkpoint(1_000));
            assert!(
                budget_unbounded(),
                "spending never bounds an unlimited budget"
            );
            unlimited.exhaust();
            assert!(
                !budget_unbounded(),
                "exhausting an unlimited budget cancels it"
            );
        });
        with_budget(&Budget::units(u64::MAX - 1), || {
            assert!(!budget_unbounded(), "any finite limit is a bound");
        });
        assert!(budget_unbounded(), "restored to none after scope");
    }

    #[test]
    fn with_budget_restores_the_previous_budget_on_nesting_and_unwind() {
        let outer = Budget::units(100);
        with_budget(&outer, || {
            let inner = Budget::units(1);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_budget(&inner, || panic!("unwind through the scope"))
            }));
            assert!(checkpoint(1), "outer budget is back after the unwind");
            assert_eq!(outer.spent(), 1);
        });
    }

    #[test]
    fn degradation_events_are_collected_per_scope() {
        let ((), outer) = collect_degradations(|| {
            note_degradation("influence", "cg", "lissa");
            let ((), inner) = collect_degradations(|| {
                note_degradation("inner", "exact", "approx");
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].site, "inner");
        });
        assert_eq!(
            outer.len(),
            1,
            "inner events do not leak into the outer log"
        );
        assert_eq!(outer[0].from, "cg");
        // Without a collector, noting is a no-op (counter only).
        note_degradation("nowhere", "a", "b");
    }
}
