//! Fixture: two uncalled `pub fn`s, one under a justified allow and one
//! under an allow without a reason.  Trips `uncalled-pub` exactly once (the
//! second).

// lint: allow(uncalled-pub) — the oracle of another crate's property tests
pub fn kept_for_tests(x: f64) -> f64 {
    x + 1.0
}

// lint: allow(uncalled-pub)
pub fn unjustified(x: f64) -> f64 {
    x - 1.0
}
