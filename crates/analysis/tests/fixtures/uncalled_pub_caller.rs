//! Fixture: a caller-only file (an example or `perfbench/src`) that names
//! the fn of `uncalled_pub.rs`.

fn main() {
    println!("{}", fixture::only_tested(1.5));
}
