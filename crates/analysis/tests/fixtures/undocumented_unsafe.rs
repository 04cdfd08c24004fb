//! Fixture: an `unsafe` block whose preceding lines carry no safety
//! justification comment.  Trips `undocumented-unsafe` and nothing else.
//! (This header deliberately avoids the magic marker word itself, which
//! would count as documentation for the first block below.)

fn first(xs: &[f64]) -> f64 {
    unsafe { *xs.as_ptr() }
}
