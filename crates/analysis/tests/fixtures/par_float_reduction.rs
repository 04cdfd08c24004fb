//! Fixture: an unblessed float accumulation inside a parallel kernel.  The
//! `with_forced_threads` test satisfies `twin-kernel`, so only
//! `par-float-reduction` trips.

pub fn row_total(n: usize) -> f64 {
    let mut acc = 0.0;
    par_rows(n, |i| {
        acc += i as f64;
    });
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_total_is_thread_count_invariant() {
        let one = with_forced_threads(1, || row_total(40));
        let four = with_forced_threads(4, || row_total(40));
        assert_eq!(one.to_bits(), four.to_bits());
    }
}
