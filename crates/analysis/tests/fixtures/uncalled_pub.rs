//! Fixture: a `pub fn` that only the test module names.  Trips
//! `uncalled-pub` once, unless a caller file names `only_tested`.

pub fn only_tested(x: f64) -> f64 {
    x * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles() {
        assert_eq!(only_tested(2.0), 4.0);
    }
}
