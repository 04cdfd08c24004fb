//! Fixture: a parallel kernel with no `with_forced_threads` test that sits
//! after a `#[cfg(test)]` helper.  Only the helper is test code, so the
//! kernel trips `twin-kernel` (once) and nothing else.

#[cfg(test)]
fn helper_rows() -> usize {
    4
}

fn scale_rows(n: usize) {
    par_rows(n, |i| {
        let doubled = i * 2;
        let _ = doubled;
    });
}
