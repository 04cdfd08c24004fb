//! Fixture: wall-clock time outside the sanctioned crates.  Trips
//! `wall-clock` twice (`Instant` and `SystemTime` once each) and nothing
//! else.

fn elapsed_ms() -> u128 {
    let started = std::time::Instant::now();
    started.elapsed().as_millis()
}

fn stamp_secs() -> u64 {
    match std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => d.as_secs(),
        Err(_) => 0,
    }
}
