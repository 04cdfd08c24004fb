//! Each fixture under `tests/fixtures/` trips exactly one rule (or none):
//! the fixtures are fed to [`Workspace::add_file`] under synthetic
//! `crates/fixture/src/` paths so every path-scoped rule applies (or to
//! [`Workspace::add_caller_file`] as an example or benchmark caller), and are
//! excluded from real scans by `workspace_rs_files`.

use ppfr_analysis::rules::{Violation, Workspace};
use ppfr_analysis::{to_json, ScanResult};

/// The repository root, two levels above this crate.
fn repo_root() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("repo root")
}

/// Lints one fixture in isolation under a synthetic crate-src path.
fn lint_fixture(source: &str) -> Vec<Violation> {
    let mut ws = Workspace::new();
    ws.add_file("crates/fixture/src/lib.rs", source);
    ws.run()
}

/// Asserts every finding is `rule` and returns how many there were.
fn assert_only_rule(violations: &[Violation], rule: &str) -> usize {
    for v in violations {
        assert_eq!(
            v.rule, rule,
            "fixture tripped unexpected rule {} at line {}: {}",
            v.rule, v.line, v.message
        );
    }
    assert!(
        !violations.is_empty(),
        "fixture tripped nothing, want {rule}"
    );
    violations.len()
}

#[test]
fn twin_kernel_fixture_trips_exactly_that_rule() {
    // The fixture's `scale_rows_serial` twin does not satisfy the rule: only
    // a `with_forced_threads` test does.
    let v = lint_fixture(include_str!("fixtures/twin_kernel.rs"));
    assert_eq!(assert_only_rule(&v, "twin-kernel"), 1);
    assert!(v[0].message.contains("`scale_rows`"), "{}", v[0].message);
}

#[test]
fn twin_kernel_after_a_test_helper_trips_that_rule() {
    // Only the `#[cfg(test)]` helper is test code: the kernel after it is
    // production code and needs a forced-thread test like any other.
    let v = lint_fixture(include_str!("fixtures/twin_kernel_after_test_helper.rs"));
    assert_eq!(assert_only_rule(&v, "twin-kernel"), 1);
    assert!(v[0].message.contains("`scale_rows`"), "{}", v[0].message);
}

#[test]
fn nondet_iteration_fixture_trips_exactly_that_rule() {
    let v = lint_fixture(include_str!("fixtures/nondet_iteration.rs"));
    assert_eq!(assert_only_rule(&v, "nondet-iteration"), 1);
    assert!(v[0].message.contains("HashMap"));
}

#[test]
fn wall_clock_fixture_trips_exactly_that_rule() {
    let v = lint_fixture(include_str!("fixtures/wall_clock.rs"));
    assert_eq!(assert_only_rule(&v, "wall-clock"), 2);
    assert!(v[0].message.contains("Instant"));
    assert!(v[1].message.contains("SystemTime"));
}

#[test]
fn wall_clock_exempts_the_telemetry_crate() {
    // `crates/telemetry` is the sanctioned home of wall-clock reads: the
    // same source that trips the rule under a normal crate path is clean
    // there (and under `crates/bench/`, the other exemption).
    for path in ["crates/telemetry/src/lib.rs", "crates/bench/src/lib.rs"] {
        let mut ws = Workspace::new();
        ws.add_file(path, include_str!("fixtures/wall_clock.rs"));
        let v = ws.run();
        assert!(v.is_empty(), "{path} must be exempt, got {v:?}");
    }
}

#[test]
fn undocumented_unsafe_fixture_trips_exactly_that_rule() {
    let v = lint_fixture(include_str!("fixtures/undocumented_unsafe.rs"));
    assert_eq!(assert_only_rule(&v, "undocumented-unsafe"), 1);
}

#[test]
fn par_float_reduction_fixture_trips_exactly_that_rule() {
    // The fixture's `with_forced_threads` test satisfies twin-kernel,
    // isolating the reduction finding.
    let v = lint_fixture(include_str!("fixtures/par_float_reduction.rs"));
    assert_eq!(assert_only_rule(&v, "par-float-reduction"), 1);
    assert!(v[0].message.contains("row_total"));
}

#[test]
fn uncalled_pub_fixture_trips_exactly_that_rule() {
    // The test module's call does not count: only non-test code calls.
    let v = lint_fixture(include_str!("fixtures/uncalled_pub.rs"));
    assert_eq!(assert_only_rule(&v, "uncalled-pub"), 1);
    assert!(
        v[0].message.contains("`pub fn only_tested`"),
        "{}",
        v[0].message
    );
}

#[test]
fn uncalled_pub_counts_examples_and_perfbench_as_callers() {
    for caller in ["examples/demo.rs", "perfbench/src/main.rs"] {
        let mut ws = Workspace::new();
        ws.add_file(
            "crates/fixture/src/lib.rs",
            include_str!("fixtures/uncalled_pub.rs"),
        );
        ws.add_caller_file(caller, include_str!("fixtures/uncalled_pub_caller.rs"));
        // Caller files are read for identifiers only: no rule checks them.
        ws.add_caller_file("examples/clock.rs", include_str!("fixtures/wall_clock.rs"));
        let v = ws.run();
        assert!(v.is_empty(), "{caller} names the fn, got {v:?}");
    }
}

#[test]
fn uncalled_pub_needs_a_justified_allow() {
    let v = lint_fixture(include_str!("fixtures/uncalled_pub_allowed.rs"));
    assert_eq!(assert_only_rule(&v, "uncalled-pub"), 1);
    assert!(
        v[0].message.contains("`pub fn unjustified`"),
        "{}",
        v[0].message
    );
}

#[test]
fn clean_fixture_trips_nothing() {
    let v = lint_fixture(include_str!("fixtures/clean.rs"));
    assert!(v.is_empty(), "clean fixture flagged: {v:?}");
}

#[test]
fn justified_allow_suppresses_but_unjustified_does_not() {
    let v = lint_fixture(include_str!("fixtures/allowed.rs"));
    assert_eq!(assert_only_rule(&v, "wall-clock"), 1);
    let unjustified_line = include_str!("fixtures/allowed.rs")
        .lines()
        .position(|l| l.contains("fn unjustified"))
        .expect("fixture defines fn unjustified")
        + 1;
    assert!(
        v[0].line > unjustified_line,
        "the surviving finding must be the unjustified-allow site \
         (line {} not after fn at line {unjustified_line})",
        v[0].line
    );
}

#[test]
fn json_output_is_stable_and_escaped() {
    let violations = lint_fixture(include_str!("fixtures/wall_clock.rs"));
    let result = ScanResult {
        files_scanned: 1,
        violations,
    };
    let json = to_json(&result);
    assert!(json.starts_with("{\"files_scanned\":1,\"violations\":[{"));
    assert!(json.contains("\"rule\":\"wall-clock\""));
    assert!(json.contains("\"file\":\"crates/fixture/src/lib.rs\""));
    // Messages quote identifiers with backticks, not raw quotes, so the
    // payload must round-trip without bare `"` inside string values.
    let inner = &json[1..json.len() - 1];
    assert!(!inner.replace("\\\"", "").contains("\":\"\""));
}

#[test]
fn fixtures_cover_every_rule_and_are_excluded_from_real_scans() {
    let all = [
        include_str!("fixtures/twin_kernel.rs"),
        include_str!("fixtures/nondet_iteration.rs"),
        include_str!("fixtures/wall_clock.rs"),
        include_str!("fixtures/undocumented_unsafe.rs"),
        include_str!("fixtures/par_float_reduction.rs"),
        include_str!("fixtures/uncalled_pub.rs"),
    ];
    let mut tripped: Vec<String> = all
        .iter()
        .flat_map(|src| lint_fixture(src))
        .map(|v| v.rule)
        .collect();
    tripped.sort();
    tripped.dedup();
    assert_eq!(tripped, {
        let mut rules: Vec<String> = ppfr_analysis::rules::RULES
            .iter()
            .map(|r| r.to_string())
            .collect();
        rules.sort();
        rules
    });

    let root = repo_root();
    let files = ppfr_analysis::workspace_rs_files(root).expect("walk workspace");
    assert!(
        files
            .iter()
            .all(|f| !f.starts_with("crates/analysis/tests/fixtures/")),
        "fixtures leaked into the real scan set"
    );
    assert!(
        files.contains(&"crates/analysis/tests/lint_fixtures.rs".to_string()),
        "the harness itself must stay in scope"
    );
    let callers = ppfr_analysis::caller_rs_files(root).expect("walk caller trees");
    for want in [
        "examples/quickstart.rs",
        "perfbench/src/main.rs",
        "perfbench/tests/selftest.rs",
    ] {
        assert!(callers.iter().any(|f| f == want), "{want} must be a caller");
    }
}

/// The workspace lints clean, so a finding fails `cargo test` as well as the
/// `ppfr_lint` binary.
#[test]
fn the_workspace_has_no_lint_findings() {
    let scan = ppfr_analysis::scan_workspace(repo_root()).expect("scan workspace");
    assert!(scan.files_scanned > 0, "the scan found no source files");
    let findings: Vec<String> = scan
        .violations
        .iter()
        .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        findings.is_empty(),
        "ppfr_lint findings:\n{}",
        findings.join("\n")
    );
}
