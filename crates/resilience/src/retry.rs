//! Bounded, deterministic retry for transient cell failures.
//!
//! There is deliberately **no sleeping and no clock** here: the runner's
//! failures are compute failures (a poisoned lock, an injected transient, a
//! corrupted artifact), not network timeouts, so waiting buys nothing and
//! wall-clock backoff would violate both determinism and `ppfr_lint`'s
//! wall-clock rule.  "Backoff" is *attempt-count-based*: the closure
//! receives the attempt number (1-based) and may itself degrade — rebuild an
//! artifact, shrink an estimator — on later attempts.

use std::sync::atomic::Ordering;

/// How many times a failing operation is attempted in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy of `max_attempts` total attempts (clamped to ≥ 1).
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
        }
    }
}

impl Default for RetryPolicy {
    /// Two attempts: one retry absorbs any single transient fault.
    fn default() -> Self {
        Self::attempts(2)
    }
}

/// Runs `f(attempt)` (attempt is 1-based) until it succeeds or the policy's
/// attempts are spent; returns the first success or the *last* error.  Each
/// re-run bumps the `retries` tally of [`crate::counters`].
pub fn run_with_retry<T, E>(
    policy: RetryPolicy,
    mut f: impl FnMut(u32) -> Result<T, E>,
) -> Result<T, E> {
    let mut attempt = 1;
    loop {
        match f(attempt) {
            Ok(value) => return Ok(value),
            Err(err) => {
                if attempt >= policy.max_attempts {
                    return Err(err);
                }
                crate::RETRIES.fetch_add(1, Ordering::Relaxed);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_returns_immediately() {
        let mut calls = 0;
        let out: Result<i32, &str> = run_with_retry(RetryPolicy::attempts(3), |_| {
            calls += 1;
            Ok(5)
        });
        assert_eq!(out, Ok(5));
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_failure_is_absorbed_by_a_retry() {
        let out: Result<&str, String> = run_with_retry(RetryPolicy::default(), |attempt| {
            if attempt == 1 {
                Err("transient".to_string())
            } else {
                Ok("recovered")
            }
        });
        assert_eq!(out, Ok("recovered"));
    }

    #[test]
    fn attempts_are_bounded_and_the_last_error_is_returned() {
        let mut calls = 0;
        let out: Result<(), u32> = run_with_retry(RetryPolicy::attempts(3), |attempt| {
            calls += 1;
            Err(attempt)
        });
        assert_eq!(out, Err(3), "last attempt's error surfaces");
        assert_eq!(calls, 3);
        let zero_clamped = RetryPolicy::attempts(0);
        assert_eq!(zero_clamped.max_attempts, 1);
    }
}
