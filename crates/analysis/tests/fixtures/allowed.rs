//! Fixture: a violation suppressed by the justified escape hatch, plus one
//! that an *unjustified* allow fails to suppress.  Trips `wall-clock`
//! exactly once (the second site).

fn budget_guard() -> u128 {
    // lint: allow(wall-clock) — coarse test budget only, never serialized
    let started = std::time::Instant::now();
    started.elapsed().as_millis()
}

fn unjustified() -> u128 {
    // lint: allow(wall-clock)
    let started = std::time::Instant::now();
    started.elapsed().as_millis()
}
