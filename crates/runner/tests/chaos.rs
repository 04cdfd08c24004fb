//! Chaos suite: the executor under injected faults.
//!
//! Every test installs a seeded [`FaultPlan`] through `with_fault_plan`
//! (which serialises plans process-wide, so the suite is safe under the
//! default parallel test harness) and pins four properties:
//!
//! * **zero interference** — a run with no plan, and a run with an armed but
//!   empty plan, are bit-identical: the chaos machinery observes, it never
//!   perturbs;
//! * **blast-radius containment** — an injected cell/group panic quarantines
//!   exactly the targeted cells into `failed_cells`, and every surviving
//!   cell is bit-identical to the clean run, at forced thread counts 1
//!   and 4;
//! * **self-healing** — transient errors are retried away, corrupted cached
//!   artifacts are detected by checksum and rebuilt, and budget exhaustion
//!   degrades gracefully with every downgrade flagged in `degraded`;
//! * **no budget leaks** — the re-weighting DPFR and PPFR share is computed
//!   afresh by a cell under an exhausted or bounded budget, so that cell
//!   neither hands its degraded result to its sibling nor borrows theirs.

use ppfr_core::{Method, PpfrConfig};
use ppfr_datasets::two_block_synthetic;
use ppfr_linalg::parallel::with_forced_threads;
use ppfr_resilience::{counters, with_fault_plan, FaultKind, FaultPlan, FaultSpec};
use ppfr_runner::{
    run_scenario, two_block_weak, ArtifactCache, MatrixReport, ScenarioSpec, SeedRun,
};
use std::sync::{Mutex, MutexGuard};

/// The fault plan is process-global, so a "clean" run in one test must not
/// overlap another test's armed plan: every test takes this lock first.
static SUITE: Mutex<()> = Mutex::new(());

fn suite_lock() -> MutexGuard<'static, ()> {
    SUITE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The suite's scenario: 2 small SBM datasets × GCN × {Vanilla, Reg} ×
/// 1 seed — 4 cells in 2 groups, small enough that every test re-runs it
/// from a fresh cache several times.
fn chaos_scenario() -> ScenarioSpec {
    ScenarioSpec::new(
        "chaos",
        vec![two_block_synthetic(), two_block_weak()],
        PpfrConfig {
            vanilla_epochs: 10,
            influence_cg_iters: 3,
            ..PpfrConfig::smoke()
        },
    )
    .with_methods(&[Method::Vanilla, Method::Reg])
    .with_seeds(&[7])
}

/// The clean (fault-free, fresh-cache) report of [`chaos_scenario`].
fn clean_report() -> MatrixReport {
    run_scenario(&chaos_scenario(), &ArtifactCache::new()).expect("chaos scenario is valid")
}

fn run_json(run: &SeedRun) -> String {
    serde_json::to_string(run).expect("runs serialise")
}

/// Asserts `run` is bit-identical to the same `(dataset, model, method,
/// seed)` run of the clean baseline.
fn assert_matches_clean(run: &SeedRun, clean: &MatrixReport) {
    let reference = clean
        .runs
        .iter()
        .find(|r| {
            (&r.dataset, &r.model, &r.method, r.seed)
                == (&run.dataset, &run.model, &run.method, run.seed)
        })
        .expect("surviving cell exists in the clean run");
    assert_eq!(
        run_json(run),
        run_json(reference),
        "{}:{}:{} diverged from the clean run",
        run.dataset,
        run.model,
        run.method
    );
}

/// Asserts every run in `report` is bit-identical to the clean baseline.
fn assert_survivors_match(report: &MatrixReport, clean: &MatrixReport) {
    for run in &report.runs {
        assert_matches_clean(run, clean);
    }
}

#[test]
fn armed_empty_plan_is_bit_identical_to_the_disarmed_run() {
    let _suite = suite_lock();
    let clean = clean_report();
    let armed = with_fault_plan(FaultPlan::empty(0xc0ffee), clean_report);
    assert_eq!(
        clean.to_json(),
        armed.to_json(),
        "an armed-but-empty plan must not perturb the run"
    );
    assert!(clean.failed_cells.is_empty() && clean.degraded.is_empty());
}

#[test]
fn injected_cell_panic_quarantines_only_that_cell() {
    let _suite = suite_lock();
    let clean = clean_report();
    let spec = chaos_scenario();
    let target = "two-block:s7:GCN:Reg";
    let plan = || FaultPlan::empty(11).with(FaultSpec::always("cell", target, FaultKind::Panic));

    let mut reports = Vec::new();
    for threads in [1, 4] {
        let panics_before = counters().cell_panics;
        let report = with_fault_plan(plan(), || {
            with_forced_threads(threads, || {
                run_scenario(&spec, &ArtifactCache::new()).expect("faulted run still reports")
            })
        });
        assert_eq!(
            report.failed_cells.len(),
            1,
            "exactly the targeted cell fails at {threads} threads"
        );
        let failed = &report.failed_cells[0];
        assert_eq!(
            (
                failed.dataset.as_str(),
                failed.model.as_str(),
                failed.method.as_str(),
                failed.seed
            ),
            ("two-block", "GCN", "Reg", 7)
        );
        assert_eq!(failed.attempts, 2, "the always-fault defeats every retry");
        assert!(
            failed.error.contains("injected fault"),
            "panic message preserved: {}",
            failed.error
        );
        assert_eq!(report.runs.len(), 3, "every other cell completed");
        assert_survivors_match(&report, &clean);
        assert!(
            counters().cell_panics > panics_before,
            "quarantined panics are tallied"
        );
        reports.push(report.to_json());
    }
    assert_eq!(
        reports[0], reports[1],
        "the faulted report is thread-count-invariant"
    );
}

#[test]
fn injected_group_panic_quarantines_every_cell_of_the_group() {
    let _suite = suite_lock();
    let clean = clean_report();
    let spec = chaos_scenario();
    let plan =
        FaultPlan::empty(13).with(FaultSpec::always("group", "two-block:s7", FaultKind::Panic));
    let report = with_fault_plan(plan, || {
        run_scenario(&spec, &ArtifactCache::new()).expect("faulted run still reports")
    });
    assert_eq!(
        report.failed_cells.len(),
        2,
        "the whole two-block group is quarantined"
    );
    for failed in &report.failed_cells {
        assert_eq!(failed.dataset, "two-block");
        assert_eq!(failed.attempts, 0, "the group never reached its cells");
        assert!(failed.error.contains("group panicked"), "{}", failed.error);
    }
    assert_eq!(report.runs.len(), 2, "the other group completed");
    assert_survivors_match(&report, &clean);
}

#[test]
fn transient_cell_error_is_retried_away() {
    let _suite = suite_lock();
    let clean = clean_report();
    let spec = chaos_scenario();
    let plan = FaultPlan::empty(17).with(FaultSpec::times(
        "cell",
        "two-block:s7:GCN:Reg",
        FaultKind::Error,
        1,
    ));
    let retries_before = counters().retries;
    let report = with_fault_plan(plan, || {
        run_scenario(&spec, &ArtifactCache::new()).expect("faulted run still reports")
    });
    assert!(
        report.failed_cells.is_empty(),
        "a once-only fault must not survive the retry: {:?}",
        report.failed_cells
    );
    assert!(counters().retries > retries_before, "the retry was taken");
    // The fault fires before any cell work, so the retried run is
    // bit-identical to a never-faulted one.
    assert_eq!(report.to_json(), clean.to_json());
}

#[test]
fn corrupted_cached_artifacts_are_detected_and_rebuilt() {
    let _suite = suite_lock();
    let spec = chaos_scenario();
    let cache = ArtifactCache::new();
    let cold = run_scenario(&spec, &cache).expect("cold run");
    assert_eq!(cache.corruption_rebuilds(), 0);

    // Corrupt every cached bundle the warm run touches: the checksum
    // revalidation must catch each one and rebuild it, leaving the report
    // bit-identical to the cold run.
    let plan = FaultPlan::empty(19).with(FaultSpec::always(
        "artifact",
        "",
        FaultKind::CorruptArtifact,
    ));
    let warm = with_fault_plan(plan, || run_scenario(&spec, &cache).expect("warm run"));
    assert!(
        cache.corruption_rebuilds() >= 2,
        "each corrupted bundle is rebuilt: {}",
        cache.corruption_rebuilds()
    );
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "a detected corruption must never skew the metrics"
    );
}

#[test]
fn budget_exhaustion_fault_walks_the_degradation_ladder() {
    let _suite = suite_lock();
    let spec = chaos_scenario().with_methods(&[Method::Vanilla, Method::Ppfr]);
    let plan = || {
        FaultPlan::empty(23).with(FaultSpec::always(
            "budget",
            "two-block:s7:GCN:PPFR",
            FaultKind::ExhaustBudget,
        ))
    };
    let mut reports = Vec::new();
    for threads in [1, 4] {
        let report = with_fault_plan(plan(), || {
            with_forced_threads(threads, || {
                run_scenario(&spec, &ArtifactCache::new()).expect("faulted run still reports")
            })
        });
        assert!(report.failed_cells.is_empty(), "degradation is not failure");
        assert_eq!(report.runs.len(), 4, "every cell completed");
        let sites: Vec<(&str, &str)> = report
            .degraded
            .iter()
            .map(|d| (d.site.as_str(), d.to.as_str()))
            .collect();
        assert!(
            sites.contains(&("influence", "lissa")),
            "dense CG must fall back to LiSSA: {sites:?}"
        );
        assert!(
            !sites.iter().any(|&(site, _)| site == "pair_sample"),
            "the FR path draws no pair sample, so it has none to degrade: {sites:?}"
        );
        for d in &report.degraded {
            assert_eq!(
                (
                    d.dataset.as_str(),
                    d.model.as_str(),
                    d.method.as_str(),
                    d.seed
                ),
                ("two-block", "GCN", "PPFR", 7),
                "only the targeted cell degrades"
            );
        }
        reports.push(report.to_json());
    }
    assert_eq!(
        reports[0], reports[1],
        "degraded runs are thread-count-invariant"
    );
}

#[test]
fn an_exhausted_budget_never_leaks_between_fr_siblings() {
    let _suite = suite_lock();
    // Per group, DPFR and PPFR re-weight the same vanilla checkpoint, which
    // an unbounded run computes once and shares between the two cells.
    let spec = chaos_scenario().with_methods(&[Method::Vanilla, Method::DpFr, Method::Ppfr]);
    let clean = run_scenario(&spec, &ArtifactCache::new()).expect("clean FR run");
    assert!(clean.failed_cells.is_empty() && clean.degraded.is_empty());
    // Exhausting the first FR cell must not stop the second from computing
    // the exact re-weighting; exhausting the second must not let it reuse
    // the first's exact one.
    for target in ["DPFR", "PPFR"] {
        let cell = format!("two-block:s7:GCN:{target}");
        let plan = || {
            FaultPlan::empty(29).with(FaultSpec::always("budget", &cell, FaultKind::ExhaustBudget))
        };
        let mut reports = Vec::new();
        for threads in [1, 4] {
            let report = with_fault_plan(plan(), || {
                with_forced_threads(threads, || {
                    run_scenario(&spec, &ArtifactCache::new()).expect("faulted run still reports")
                })
            });
            assert!(report.failed_cells.is_empty(), "degradation is not failure");
            assert_eq!(report.runs.len(), 6, "every cell completed");
            let degraded: Vec<_> = report
                .degraded
                .iter()
                .map(|d| {
                    let cell = (
                        d.dataset.as_str(),
                        d.model.as_str(),
                        d.method.as_str(),
                        d.seed,
                    );
                    (cell, (d.site.as_str(), d.from.as_str(), d.to.as_str()))
                })
                .collect();
            assert_eq!(
                degraded,
                [(
                    ("two-block", "GCN", target, 7),
                    ("influence", "cg", "lissa")
                )],
                "only the {target} cell degrades, at {threads} threads"
            );
            let others: Vec<&SeedRun> = report
                .runs
                .iter()
                .filter(|r| (r.dataset.as_str(), r.method.as_str()) != ("two-block", target))
                .collect();
            assert_eq!(others.len(), 5);
            for run in others {
                assert_matches_clean(run, &clean);
            }
            reports.push(report.to_json());
        }
        assert_eq!(
            reports[0], reports[1],
            "the {target}-faulted report is thread-count-invariant"
        );
    }
}

#[test]
fn a_bounded_ppfr_cell_does_not_reuse_its_siblings_reweighting() {
    let _suite = suite_lock();
    // At 7 units the vanilla cell trains 7 of its 10 epochs, and the PPFR
    // cell spends 6 on its two 3-iteration CG solves, then stops its
    // fine-tuning after 1 of 2 epochs.  Had it reused the DPFR sibling's
    // re-weighting, it would skip the solves and fine-tune both epochs.
    const UNITS: u64 = 7;
    let ppfr_runs = |methods: &[Method]| -> (String, u64) {
        let spec = chaos_scenario()
            .with_methods(methods)
            .with_cell_budget(UNITS);
        let stops_before = counters().budget_stops;
        let report = run_scenario(&spec, &ArtifactCache::new()).expect("bounded run reports");
        let stops = counters().budget_stops - stops_before;
        assert!(report.failed_cells.is_empty(), "{:?}", report.failed_cells);
        assert!(
            report.degraded.is_empty(),
            "the exact solves fit the budget: {:?}",
            report.degraded
        );
        let ppfr: Vec<&SeedRun> = report.runs.iter().filter(|r| r.method == "PPFR").collect();
        assert_eq!(ppfr.len(), 2, "one PPFR run per dataset");
        (serde_json::to_string(&ppfr).expect("runs serialise"), stops)
    };
    let (alone, stops) = ppfr_runs(&[Method::Vanilla, Method::Ppfr]);
    assert_eq!(
        stops, 4,
        "per group, the budget stops vanilla training and PPFR's fine-tuning, nothing else"
    );
    let (with_sibling, _) = ppfr_runs(&[Method::Vanilla, Method::DpFr, Method::Ppfr]);
    assert_eq!(
        with_sibling, alone,
        "a bounded PPFR cell must not depend on whether DPFR ran before it"
    );
}
