//! Fixture: a hash container in a file that serializes a report.  Trips
//! `nondet-iteration` (once: the ident appears on one line) and nothing else.

use std::collections::HashMap;

fn to_json(values: &[(String, f64)]) -> String {
    let mut out = String::from("{");
    for (k, v) in values {
        out.push_str(&format!("\"{k}\":{v},"));
    }
    out.push('}');
    out
}
