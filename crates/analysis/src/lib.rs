//! `ppfr_analysis`: the workspace's static-analysis and verification layer.
//!
//! Two halves:
//!
//! * **`ppfr_lint`** (see [`rules`]) — a dependency-free token-level linter
//!   enforcing the determinism invariants the reproduction relies on
//!   (a forced-thread-count test for every parallel kernel, no hash-order in
//!   serialized artifacts, no wall-clock outside the bench crate, documented
//!   `unsafe`, allowlisted float reductions, a non-test caller for every
//!   `pub fn`).  Run it from the repo root:
//!
//!   ```text
//!   cargo run -p ppfr_analysis --bin ppfr_lint -- --root . [--json]
//!   ```
//!
//! * **[`loom_scenarios`]** — exhaustive model checking of the
//!   work-stealing pool's steal protocol (`rayon::steal::StealCore`) over
//!   `loom_lite`'s virtual primitives.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod loom_scenarios;
pub mod rules;

use rules::{Violation, Workspace};
use std::fs;
use std::io;
use std::path::Path;

/// Outcome of a whole-workspace lint run.
pub struct ScanResult {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
}

/// Lints every first-party source tree plus `vendor/rayon` under `root`,
/// reading the examples and `perfbench/` as callers only.
pub fn scan_workspace(root: &Path) -> io::Result<ScanResult> {
    let mut ws = Workspace::new();
    for rel in &workspace_rs_files(root)? {
        ws.add_file(rel, &fs::read_to_string(root.join(rel))?);
    }
    for rel in &caller_rs_files(root)? {
        ws.add_caller_file(rel, &fs::read_to_string(root.join(rel))?);
    }
    Ok(ScanResult {
        files_scanned: ws.files_scanned(),
        violations: ws.run(),
    })
}

/// The repo-relative `.rs` files in scope, sorted: `crates/*/{src,tests}`
/// and `vendor/rayon/src`.  Lint fixtures (deliberately-violating inputs of
/// the linter's own test suite) are excluded.
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_names: Vec<String> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    crate_names.sort();
    for name in crate_names {
        for sub in ["src", "tests"] {
            let dir = crates_dir.join(&name).join(sub);
            if dir.is_dir() {
                walk_rs(&dir, &format!("crates/{name}/{sub}"), &mut out)?;
            }
        }
    }
    walk_rs(&root.join("vendor/rayon/src"), "vendor/rayon/src", &mut out)?;
    out.retain(|p| !p.starts_with("crates/analysis/tests/fixtures"));
    out.sort();
    Ok(out)
}

/// The repo-relative `.rs` files that `uncalled-pub` reads for callers and
/// no rule checks, sorted: `examples` and `perfbench`'s `src` and `tests`.
pub fn caller_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for rel in ["examples", "perfbench/src", "perfbench/tests"] {
        if root.join(rel).is_dir() {
            walk_rs(&root.join(rel), rel, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, rel: &str, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if path.is_dir() {
            walk_rs(&path, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            out.push(format!("{rel}/{name}"));
        }
    }
    Ok(())
}

/// Machine-readable form of a [`ScanResult`], stable across runs: the
/// violation list is already sorted by (file, line, rule).
pub fn to_json(result: &ScanResult) -> String {
    let mut s = String::new();
    s.push_str("{\"files_scanned\":");
    s.push_str(&result.files_scanned.to_string());
    s.push_str(",\"violations\":[");
    for (i, v) in result.violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":\"");
        s.push_str(&json_escape(&v.file));
        s.push_str("\",\"line\":");
        s.push_str(&v.line.to_string());
        s.push_str(",\"rule\":\"");
        s.push_str(&json_escape(&v.rule));
        s.push_str("\",\"message\":\"");
        s.push_str(&json_escape(&v.message));
        s.push_str("\"}");
    }
    s.push_str("]}");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
