//! Fixture: a parallel kernel with a `_serial` twin but no
//! `with_forced_threads` test.  Only such a test satisfies the rule, so this
//! trips `twin-kernel` (once, on the parallel kernel) and nothing else.

fn scale_rows(n: usize) {
    par_rows(n, |i| {
        let doubled = i * 2;
        let _ = doubled;
    });
}

fn scale_rows_serial(n: usize) {
    for i in 0..n {
        let doubled = i * 2;
        let _ = doubled;
    }
}
