//! Fixture: compliant code — a parallel kernel pinned by a
//! `with_forced_threads` test and free of reductions, ordered containers at
//! the serialization site, documented `unsafe`.  Trips nothing.

use std::collections::BTreeMap;

pub fn block_fill(n: usize) -> Vec<usize> {
    par_rows(n, |i| i * 2)
}

pub fn to_json(values: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{");
    for (k, v) in values {
        out.push_str(&format!("\"{k}\":{v},"));
    }
    out.push('}');
    out
}

pub fn first(xs: &[f64]) -> f64 {
    // SAFETY: callers guarantee `xs` is non-empty, so the pointer read stays
    // in bounds.
    unsafe { *xs.as_ptr() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_fill_is_thread_count_invariant() {
        let one = with_forced_threads(1, || block_fill(40));
        let four = with_forced_threads(4, || block_fill(40));
        assert_eq!(one, four);
    }
}
