//! The shared parallel-iteration idiom of the PPFR stack.
//!
//! Every hot kernel in the workspace — dense matmul and row-wise softmax
//! here, CSR SpMM and Jaccard similarity in `ppfr_graph`, the
//! Hessian-vector products and per-node influence dot products in
//! `ppfr_influence`, the GAT attention projections in `ppfr_gnn` — funnels
//! through the helpers in this module instead of touching rayon directly:
//!
//! * [`par_chunks`] — partition a flat buffer into equal-length mutable
//!   chunks (matrix rows) and fill each chunk independently;
//! * [`par_row_blocks`] — the cache-blocked variant: fixed-height blocks of
//!   rows, last block ragged;
//! * [`par_fill`] — one scalar per output element;
//! * [`par_rows`] — compute one owned value per row index and collect them
//!   in order;
//! * [`par_join`] — run two independent closures concurrently.
//!
//! All of them route through the persistent work-stealing pool in the
//! vendored rayon ([`rayon::dispatch`]): the calling thread and any idle
//! workers pull chunk ranges from per-participant deques (LIFO locally, FIFO
//! when stealing), so uneven per-item workloads balance dynamically while
//! every result still lands at its own index — bit-identical no matter the
//! thread count or stealing order.  The indexed entry points hand workers
//! raw disjoint sub-slices, so the parallel path allocates nothing per item.
//!
//! Dispatch is gated by [`MIN_ITEMS_PER_WORKER`]: inputs too small to
//! amortise the pool handoff take an allocation-free serial loop instead.
//! The thread count re-reads `PPFR_NUM_THREADS` on every call (see
//! [`with_forced_threads`]); at one thread every entry point runs the
//! kernel in a plain loop on the calling thread.
//!
//! So each kernel has exactly one implementation, and its thread-count
//! invariance is tested by running that implementation under
//! `with_forced_threads(1, ..)` and again at two or more threads (the
//! `twin-kernel` lint rule requires such a test for every kernel that calls
//! a `par_*` entry point).  Centralising the idiom keeps the parallel
//! surface auditable (one module decides how threads are used) and gives
//! later PRs a single seam for swapping the execution backend (thread
//! pools, SIMD blocking, accelerators).

pub use rayon::current_num_threads;

/// Minimum items each worker must have before a fine-grained entry point
/// ([`par_chunks`], [`par_row_blocks`] in rows, [`par_fill`]) dispatches to
/// the pool.  Below this, per-call dispatch overhead outweighs the split —
/// the worker count is capped so tiny inputs (e.g. the per-pair distance
/// rows of a small attack audit) stay on the serial fast path.  [`par_rows`]
/// tasks are whole-row computations, coarse enough to parallelise from two
/// items up, so they bypass this floor.
pub const MIN_ITEMS_PER_WORKER: usize = 16;

/// Worker count for `n_items` fine-grained items: the configured thread
/// count, capped so each worker gets at least [`MIN_ITEMS_PER_WORKER`].
fn plan_workers(n_items: usize) -> usize {
    current_num_threads()
        .min(n_items / MIN_ITEMS_PER_WORKER)
        .max(1)
}

/// A raw pointer that may cross thread boundaries; each pool task derives
/// its own disjoint sub-slice (or slot) from it by index.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Copies the whole wrapper into the capturing closure (edition-2021
    /// disjoint capture would otherwise grab only the raw-pointer field,
    /// which is not `Sync`) and returns the pointer.
    fn get(self) -> *mut T {
        self.0
    }
}

// SAFETY: every dispatch touches each index's disjoint region from exactly
// one task, and the owning buffer outlives the dispatch.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared references to the wrapper only ever copy the pointer out;
// the disjoint-region argument above covers all dereferences.
unsafe impl<T> Sync for SendPtr<T> {}

/// Splits `data` into consecutive `chunk_len`-sized mutable chunks (matrix
/// rows, typically) and applies `f(chunk_index, chunk)` to each in parallel.
///
/// Small inputs (fewer than [`MIN_ITEMS_PER_WORKER`] chunks per worker) are
/// visited by a plain loop, bypassing the pool entirely: the training hot
/// loop calls this helper several times per epoch, so the small-input path
/// must stay allocation-free.  Chunk results are independent, so both paths
/// are bit-identical.
///
/// # Panics
/// Panics when `chunk_len` is zero or does not divide `data.len()`.
pub fn par_chunks(data: &mut [f64], chunk_len: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
    assert!(chunk_len > 0, "chunk length must be positive");
    assert_eq!(
        data.len() % chunk_len,
        0,
        "buffer of {} does not split into {}-element chunks",
        data.len(),
        chunk_len
    );
    let n_chunks = data.len() / chunk_len;
    let threads = plan_workers(n_chunks);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    rayon::dispatch(n_chunks, threads, |i| {
        // SAFETY: chunk `i` is the disjoint range [i*chunk_len, (i+1)*chunk_len)
        // of `data`, each index is dispatched exactly once, and `data`
        // outlives the dispatch.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(i * chunk_len), chunk_len) };
        f(i, chunk);
    });
}

/// Splits `data` into blocks of `rows_per_block` consecutive `row_len`-sized
/// rows (the final block may be shorter) and applies
/// `f(first_row_index, block)` to each in parallel.
///
/// Used by the cache-blocked transpose-free GEMM kernels: one block of output
/// rows shares a single sweep over the packed right-hand operand.  The block
/// size is a fixed constant chosen by the caller — never derived from the
/// worker-thread count — so results are bit-identical across forced
/// `PPFR_NUM_THREADS`.  The dispatch threshold is measured in *rows* (the
/// unit of work), not blocks.
///
/// # Panics
/// Panics when `row_len` or `rows_per_block` is zero, or `row_len` does not
/// divide `data.len()`.
pub fn par_row_blocks(
    data: &mut [f64],
    row_len: usize,
    rows_per_block: usize,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    assert!(row_len > 0, "row length must be positive");
    assert!(rows_per_block > 0, "block height must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "buffer of {} does not split into {}-element rows",
        data.len(),
        row_len
    );
    let n_rows = data.len() / row_len;
    let block_len = rows_per_block * row_len;
    let n_blocks = n_rows.div_ceil(rows_per_block);
    let threads = plan_workers(n_rows).min(n_blocks.max(1));
    if threads <= 1 {
        for (b, block) in data.chunks_mut(block_len).enumerate() {
            f(b * rows_per_block, block);
        }
        return;
    }
    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    rayon::dispatch(n_blocks, threads, |b| {
        let start = b * block_len;
        let this_len = block_len.min(len - start);
        // SAFETY: block `b` is the disjoint range [start, start + this_len)
        // of `data`, each index is dispatched exactly once, and `data`
        // outlives the dispatch.
        let block = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), this_len) };
        f(b * rows_per_block, block);
    });
}

/// Fills `out[i] = f(i)` for every index in parallel (per-node scalar
/// projections, e.g. the GAT attention scores).  Small inputs use a plain
/// allocation-free loop; results are independent per element, so both paths
/// are bit-identical.
pub fn par_fill(out: &mut [f64], f: impl Fn(usize) -> f64 + Sync) {
    let threads = plan_workers(out.len());
    if threads <= 1 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(i);
        }
        return;
    }
    let base = SendPtr(out.as_mut_ptr());
    rayon::dispatch(out.len(), threads, |i| {
        // SAFETY: element `i` is written by exactly one task and `out`
        // outlives the dispatch.
        unsafe { *base.get().add(i) = f(i) };
    });
}

/// Computes `f(row)` for every `row in 0..n_rows` in parallel and returns the
/// results in row order.
///
/// Rows here are coarse tasks (a whole training example, audit pair group,
/// or scenario), so this entry point parallelises from two rows up instead
/// of applying [`MIN_ITEMS_PER_WORKER`].
pub fn par_rows<T: Send>(n_rows: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = current_num_threads().min(n_rows);
    if threads <= 1 {
        return (0..n_rows).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n_rows).map(|_| None).collect();
    let base = SendPtr(out.as_mut_ptr());
    rayon::dispatch(n_rows, threads, |i| {
        // SAFETY: slot `i` is written by exactly one task and `out` outlives
        // the dispatch.
        unsafe { *base.get().add(i) = Some(f(i)) };
    });
    out.into_iter()
        .map(|slot| slot.expect("pool dispatch covered every row"))
        .collect()
}

/// [`par_rows`] with per-row panic quarantine: a panicking row is reported
/// as `Err(panic message)` at its own index instead of aborting the whole
/// dispatch, so every other row still computes.  Built for coarse fallible
/// tasks — the scenario runner's `(dataset, seed)` groups — where one bad
/// row must not lose the rest of the matrix.
///
/// Ordering and determinism match [`par_rows`]: results land by index and
/// the quarantine decision depends only on whether `f(row)` panics, never on
/// thread count or stealing order (pinned by the forced-thread test below).
pub fn par_rows_quarantined<T: Send>(
    n_rows: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Result<T, String>> {
    let threads = current_num_threads().min(n_rows.max(1));
    let mut out: Vec<Option<T>> = (0..n_rows).map(|_| None).collect();
    let base = SendPtr(out.as_mut_ptr());
    let caught = rayon::dispatch_quarantined(n_rows, threads, |i| {
        // SAFETY: slot `i` is written by exactly one task and `out` outlives
        // the dispatch.
        unsafe { *base.get().add(i) = Some(f(i)) };
    });
    let mut results: Vec<Result<T, String>> = out
        .into_iter()
        .map(|slot| slot.ok_or_else(String::new))
        .collect();
    for (i, payload) in caught {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        results[i] = Err(message);
    }
    results
}

/// Runs both closures, potentially concurrently, and returns both results.
///
/// Pool-aware: the second closure is published to the persistent pool as a
/// stealable task; if no worker is idle, the caller runs it inline after the
/// first — no per-call thread spawn either way.
pub fn par_join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    rayon::join(a, b)
}

/// Runs `f` with the worker-thread count forced to `n`.
///
/// Exists for the thread-count equivalence tests — one forced thread
/// against two or more — which must exercise the real multi-threaded
/// partitioning even on single-core CI machines.  Calls must not nest: the
/// lock below is not re-entrant, so a nested call deadlocks.
/// Calls are serialised process-wide; concurrent *other* parallel calls may
/// briefly observe the override, which is harmless because every kernel is
/// required to produce thread-count-independent results — the very property
/// the equivalence tests assert.
pub fn with_forced_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    use std::sync::Mutex;
    static GUARD: Mutex<()> = Mutex::new(());
    let _lock = GUARD
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());

    struct Restore(Option<String>);
    impl Drop for Restore {
        fn drop(&mut self) {
            match self.0.take() {
                Some(prev) => std::env::set_var("PPFR_NUM_THREADS", prev),
                None => std::env::remove_var("PPFR_NUM_THREADS"),
            }
        }
    }
    let _restore = Restore(std::env::var("PPFR_NUM_THREADS").ok());
    std::env::set_var("PPFR_NUM_THREADS", n.to_string());
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_visits_every_chunk_once() {
        let mut data = vec![0.0; 12];
        par_chunks(&mut data, 3, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += (i + 1) as f64;
            }
        });
        assert_eq!(data[0], 1.0);
        assert_eq!(data[3], 2.0);
        assert_eq!(data[11], 4.0);
    }

    #[test]
    #[should_panic(expected = "does not split")]
    fn par_chunks_rejects_ragged_buffers() {
        let mut data = vec![0.0; 10];
        par_chunks(&mut data, 3, |_, _| {});
    }

    #[test]
    fn par_chunks_dispatches_above_the_worker_floor() {
        // 64 chunks at 2 threads = 32 per worker >= MIN_ITEMS_PER_WORKER, so
        // this exercises the pool path; the result must match a plain loop.
        let n_chunks = 4 * MIN_ITEMS_PER_WORKER;
        let serial: Vec<f64> = (0..n_chunks * 2).map(|i| (i as f64).sqrt()).collect();
        for threads in [2, 8] {
            let mut data = vec![0.0; n_chunks * 2];
            with_forced_threads(threads, || {
                par_chunks(&mut data, 2, |i, chunk| {
                    chunk[0] = ((2 * i) as f64).sqrt();
                    chunk[1] = ((2 * i + 1) as f64).sqrt();
                });
            });
            assert_eq!(data, serial, "differs at {threads} threads");
        }
    }

    #[test]
    fn par_row_blocks_covers_ragged_tails_identically() {
        // 10 rows of 3 elements in blocks of 4 rows: blocks of 4, 4, 2 rows.
        let serial = {
            let mut data = vec![0.0; 30];
            with_forced_threads(1, || {
                par_row_blocks(&mut data, 3, 4, |first_row, block| {
                    for (r, row) in block.chunks_mut(3).enumerate() {
                        for (c, v) in row.iter_mut().enumerate() {
                            *v = ((first_row + r) * 10 + c) as f64;
                        }
                    }
                });
            });
            data
        };
        for threads in [2, 4] {
            let mut data = vec![0.0; 30];
            with_forced_threads(threads, || {
                par_row_blocks(&mut data, 3, 4, |first_row, block| {
                    for (r, row) in block.chunks_mut(3).enumerate() {
                        for (c, v) in row.iter_mut().enumerate() {
                            *v = ((first_row + r) * 10 + c) as f64;
                        }
                    }
                });
            });
            assert_eq!(data, serial, "differs at {threads} threads");
        }
        assert_eq!(serial[29], 92.0, "last row/col is row 9 col 2");
    }

    #[test]
    fn par_row_blocks_pool_path_covers_ragged_tail() {
        // Enough rows to clear the dispatch floor at 2 threads, with a
        // ragged final block (101 rows in blocks of 4 = 25 blocks + 1 row).
        let fill = |first_row: usize, block: &mut [f64]| {
            for (r, row) in block.chunks_mut(3).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = ((first_row + r) * 10 + c) as f64;
                }
            }
        };
        let serial = {
            let mut data = vec![0.0; 303];
            with_forced_threads(1, || par_row_blocks(&mut data, 3, 4, fill));
            data
        };
        for threads in [2, 8] {
            let mut data = vec![0.0; 303];
            with_forced_threads(threads, || par_row_blocks(&mut data, 3, 4, fill));
            assert_eq!(data, serial, "differs at {threads} threads");
        }
    }

    #[test]
    fn par_fill_matches_serial_loop() {
        let serial: Vec<f64> = (0..57).map(|i| (i as f64).cos()).collect();
        for threads in [1, 2, 4] {
            let mut out = vec![0.0; 57];
            with_forced_threads(threads, || par_fill(&mut out, |i| (i as f64).cos()));
            assert_eq!(out, serial, "differs at {threads} threads");
        }
    }

    #[test]
    fn par_rows_preserves_order() {
        let squares = par_rows(100, |r| (r * r) as f64);
        assert_eq!(squares.len(), 100);
        for (r, &v) in squares.iter().enumerate() {
            assert_eq!(v, (r * r) as f64);
        }
    }

    #[test]
    fn par_rows_parallelises_coarse_tasks_from_two_rows() {
        // par_rows has no MIN_ITEMS_PER_WORKER floor: two rows at two
        // threads already takes the pool path, and must still land in order.
        for threads in [2, 8] {
            let rows = with_forced_threads(threads, || par_rows(2, |r| vec![r as f64; 3]));
            assert_eq!(rows, vec![vec![0.0; 3], vec![1.0; 3]]);
        }
    }

    #[test]
    fn par_rows_quarantined_isolates_panics_across_thread_counts() {
        for threads in [1, 2, 4] {
            let rows = with_forced_threads(threads, || {
                par_rows_quarantined(10, |r| {
                    if r == 3 {
                        panic!("row {r} exploded");
                    }
                    (r * r) as f64
                })
            });
            assert_eq!(rows.len(), 10);
            for (r, slot) in rows.iter().enumerate() {
                if r == 3 {
                    assert_eq!(
                        slot.as_ref().unwrap_err(),
                        "row 3 exploded",
                        "payload message survives at {threads} threads"
                    );
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &((r * r) as f64));
                }
            }
        }
    }

    #[test]
    fn par_rows_quarantined_matches_par_rows_when_nothing_panics() {
        let plain = par_rows(64, |r| (r as f64).sin());
        for threads in [1, 4] {
            let quarantined =
                with_forced_threads(threads, || par_rows_quarantined(64, |r| (r as f64).sin()));
            let unwrapped: Vec<f64> = quarantined.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(unwrapped, plain, "differs at {threads} threads");
        }
    }

    #[test]
    fn par_join_runs_both_sides() {
        let (a, b) = par_join(|| vec![1.0; 4], || "right");
        assert_eq!(a.len(), 4);
        assert_eq!(b, "right");
    }

    #[test]
    fn forced_threads_cover_multi_threaded_partitioning() {
        let serial: Vec<f64> = (0..1000).map(|r| (r as f64).sin()).collect();
        for threads in [1, 2, 4, 7] {
            let parallel = with_forced_threads(threads, || {
                assert_eq!(current_num_threads(), threads);
                par_rows(1000, |r| (r as f64).sin())
            });
            assert_eq!(parallel, serial, "results differ at {threads} threads");
        }
    }
}
