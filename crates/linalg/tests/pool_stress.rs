//! Stealing-determinism stress suite for the persistent work-stealing pool.
//!
//! The pool balances *work* dynamically (LIFO local pop, FIFO steal), so the
//! set of chunks each worker executes is racy by design — but every result
//! lands at its own index, so the *outputs* must be bit-identical to the
//! one-thread run for every `parallel::*` entry point, at every thread
//! count, for arbitrarily uneven per-item workloads.  This suite hammers exactly
//! that contract: deterministic-but-skewed workloads under
//! `PPFR_NUM_THREADS ∈ {1, 2, 8}`, panic propagation out of worker-executed
//! chunks (with the pool still serviceable afterwards), and a proptest that
//! raw pool dispatch runs every index exactly once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use ppfr_linalg::parallel::{
    par_chunks, par_fill, par_join, par_row_blocks, par_rows, with_forced_threads,
};
use proptest::prelude::*;

const STRESS_THREADS: [usize; 3] = [1, 2, 8];

/// Deterministic per-index workload weight with a heavy skew: most items are
/// cheap, every 13th costs ~two orders of magnitude more.  This is the shape
/// that defeats static partitioning and forces actual stealing.
fn weight(i: usize) -> usize {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    if i.is_multiple_of(13) {
        500 + (h % 500) as usize
    } else {
        1 + (h % 7) as usize
    }
}

/// Burns `weight(i)` float ops and returns a value that depends on every
/// iteration, so the work cannot be optimised away and the result pins the
/// exact computation.
fn heavy(i: usize) -> f64 {
    let mut acc = i as f64 + 0.5;
    for t in 0..weight(i) {
        acc = (acc * 1.000_001 + t as f64).sin();
    }
    acc
}

#[test]
fn par_chunks_is_bit_identical_across_thread_counts_under_skew() {
    let n_chunks = 301;
    let chunk_len = 3;
    let run = |threads: usize| {
        let mut data = vec![0.0; n_chunks * chunk_len];
        with_forced_threads(threads, || {
            par_chunks(&mut data, chunk_len, |i, chunk| {
                let v = heavy(i);
                for (c, o) in chunk.iter_mut().enumerate() {
                    *o = v + c as f64;
                }
            });
        });
        data
    };
    let serial = run(1);
    for threads in STRESS_THREADS {
        assert_eq!(
            run(threads),
            serial,
            "par_chunks differs at {threads} threads"
        );
    }
}

#[test]
fn par_row_blocks_is_bit_identical_across_thread_counts_under_skew() {
    // 258 rows in blocks of 4: 64 full blocks plus a ragged 2-row tail.
    let n_rows = 258;
    let row_len = 3;
    let run = |threads: usize| {
        let mut data = vec![0.0; n_rows * row_len];
        with_forced_threads(threads, || {
            par_row_blocks(&mut data, row_len, 4, |first_row, block| {
                for (r, row) in block.chunks_mut(row_len).enumerate() {
                    let v = heavy(first_row + r);
                    for (c, o) in row.iter_mut().enumerate() {
                        *o = v - c as f64;
                    }
                }
            });
        });
        data
    };
    let serial = run(1);
    for threads in STRESS_THREADS {
        assert_eq!(
            run(threads),
            serial,
            "par_row_blocks differs at {threads} threads"
        );
    }
}

#[test]
fn par_fill_is_bit_identical_across_thread_counts_under_skew() {
    let n = 513;
    let run = |threads: usize| {
        let mut out = vec![0.0; n];
        with_forced_threads(threads, || par_fill(&mut out, heavy));
        out
    };
    let serial = run(1);
    for threads in STRESS_THREADS {
        assert_eq!(
            run(threads),
            serial,
            "par_fill differs at {threads} threads"
        );
    }
}

#[test]
fn par_rows_is_bit_identical_across_thread_counts_under_skew() {
    let n = 173;
    let run = |threads: usize| {
        with_forced_threads(threads, || par_rows(n, |r| vec![heavy(r), heavy(r) * 2.0]))
    };
    let serial = run(1);
    for threads in STRESS_THREADS {
        assert_eq!(
            run(threads),
            serial,
            "par_rows differs at {threads} threads"
        );
    }
}

#[test]
fn par_join_is_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        with_forced_threads(threads, || {
            par_join(
                || (0..97).map(heavy).sum::<f64>(),
                || (97..211).map(heavy).sum::<f64>(),
            )
        })
    };
    let serial = run(1);
    for threads in STRESS_THREADS {
        let got = run(threads);
        assert_eq!(got, serial, "par_join differs at {threads} threads");
    }
}

#[test]
fn panic_in_worker_chunk_propagates_and_pool_survives() {
    let n_chunks = 300;
    let caught = with_forced_threads(4, || {
        catch_unwind(AssertUnwindSafe(|| {
            let mut data = vec![0.0; n_chunks];
            par_chunks(&mut data, 1, |i, chunk| {
                if i == 217 {
                    panic!("stress chunk panicked on purpose");
                }
                chunk[0] = heavy(i);
            });
        }))
    });
    let payload = caught.expect_err("the chunk panic must reach the dispatching thread");
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("on purpose"), "unexpected payload: {msg}");

    // The pool must keep servicing dispatches after an aborted job.
    let serial = {
        let mut out = vec![0.0; 64];
        with_forced_threads(1, || par_fill(&mut out, heavy));
        out
    };
    let mut out = vec![0.0; 64];
    with_forced_threads(4, || par_fill(&mut out, heavy));
    assert_eq!(out, serial, "pool produced wrong results after a panic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw pool dispatch must run every index exactly once — no drops, no
    /// duplicates — for any item count and requested thread count.
    #[test]
    fn dispatch_covers_every_index_exactly_once(n in 0usize..300, threads in 1usize..9) {
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        rayon::dispatch(n, threads, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "index {} at {} threads", i, threads);
        }
    }
}
