//! Criterion benchmarks for the 4-wide GEMM/SpMM microkernels and the
//! persistent work-stealing pool.
//!
//! Each GEMM/SpMM group times the production kernel at one forced thread, so
//! the microkernel cost is isolated from threading.  The pool group times a
//! fixed-size trivial dispatch through the persistent pool.  The scalar
//! loops the microkernels replaced, and the per-call scoped-thread spawn the
//! pool replaced, are timed against them in `BENCH_kernels.json` at commit
//! `d431821`; the scalar loops live on as bit-exact test oracles.

use criterion::{criterion_group, criterion_main, Criterion};
use ppfr_datasets::{generate, two_block_synthetic};
use ppfr_linalg::parallel::with_forced_threads;
use ppfr_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const M: usize = 256;
const K: usize = 128;
const N: usize = 64;

fn bench_gemm_microkernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Matrix::gaussian(M, K, 0.0, 1.0, &mut rng);
    let b = Matrix::gaussian(K, N, 0.0, 1.0, &mut rng);
    let at_rhs = Matrix::gaussian(M, N, 0.0, 1.0, &mut rng);
    let bt_rhs = Matrix::gaussian(N, K, 0.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("gemm_microkernels");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    group.bench_function("a_b_micro", |bench| {
        bench.iter(|| with_forced_threads(1, || a.matmul(&b)))
    });
    group.bench_function("at_b_micro", |bench| {
        bench.iter(|| with_forced_threads(1, || a.matmul_at_b(&at_rhs)))
    });
    group.bench_function("a_bt_micro", |bench| {
        bench.iter(|| with_forced_threads(1, || a.matmul_a_bt(&bt_rhs)))
    });
    group.finish();
}

fn bench_spmm_microkernel(c: &mut Criterion) {
    let ds = generate(&two_block_synthetic(), 7);
    let a_hat = ds.graph.normalized_adjacency();

    let mut group = c.benchmark_group("spmm_microkernel");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    group.bench_function("spmm_micro", |bench| {
        bench.iter(|| with_forced_threads(1, || a_hat.matmul_dense(&ds.features)))
    });
    group.finish();
}

fn bench_pool_dispatch(c: &mut Criterion) {
    let items = 1024;
    let cells: Vec<AtomicU64> = (0..items).map(|_| AtomicU64::new(0)).collect();
    let touch = |i: usize| cells[i].store(i as u64 + 1, Ordering::Relaxed);

    let mut group = c.benchmark_group("pool_dispatch");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for threads in [2usize, 8] {
        group.bench_function(format!("persistent_pool_t{threads}"), |bench| {
            bench.iter(|| rayon::dispatch(items, threads, touch))
        });
    }
    group.finish();
}

criterion_group!(
    microkernels,
    bench_gemm_microkernels,
    bench_spmm_microkernel,
    bench_pool_dispatch
);
criterion_main!(microkernels);
