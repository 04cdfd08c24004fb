//! The pipeline's span tree, pinned: which stage nests under which, how
//! often each stage runs, that the tree's shape does not depend on the
//! thread count, and that recording never changes a result.
//!
//! A single test in a binary of its own: the telemetry gate and the span
//! registry are process-wide, so nothing else may record while it runs.

use ppfr_linalg::parallel::with_forced_threads;
use ppfr_runner::{run_scenario, ArtifactCache, MatrixReport, ScenarioSpec};
use ppfr_telemetry::{find_span, SpanTree};

/// The thread-count-invariant part of a span tree: names, counts and
/// structure, with the measured times stripped.
#[derive(Debug, PartialEq, Eq)]
struct Shape {
    name: String,
    count: u64,
    children: Vec<Shape>,
}

fn shape(nodes: &[SpanTree]) -> Vec<Shape> {
    nodes
        .iter()
        .map(|n| Shape {
            name: n.name.clone(),
            count: n.count,
            children: shape(&n.children),
        })
        .collect()
}

/// Names of the children of the span `parent` (sorted, as merged).
fn children_of<'a>(tree: &'a [SpanTree], parent: &str) -> Vec<&'a str> {
    find_span(tree, parent)
        .unwrap_or_else(|| panic!("no `{parent}` span in {:#?}", shape(tree)))
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect()
}

fn count_of(tree: &[SpanTree], name: &str) -> u64 {
    find_span(tree, name).map_or(0, |n| n.count)
}

#[test]
fn bench_small_span_tree_is_pinned_and_recording_changes_no_result() {
    let spec = ScenarioSpec::bench_small().with_seeds(&[7]);
    let run = || -> MatrixReport {
        run_scenario(&spec, &ArtifactCache::new()).expect("bench-small runs clean")
    };

    ppfr_telemetry::set_enabled(false);
    let untraced = run();
    assert!(
        ppfr_telemetry::span_tree().is_empty(),
        "nothing may record with telemetry off"
    );

    ppfr_telemetry::set_enabled(true);
    let traced = |threads: usize| {
        ppfr_telemetry::reset();
        let report = with_forced_threads(threads, run);
        (report, ppfr_telemetry::span_tree())
    };
    let (report_1, tree_1) = traced(1);
    let (report_2, tree_2) = traced(2);
    ppfr_telemetry::set_enabled(false);

    // Nesting, as listed in the README's *Observability* section.
    let roots: Vec<&str> = tree_1.iter().map(|n| n.name.as_str()).collect();
    assert_eq!(roots, ["aggregate", "runner_group"]);
    for (parent, children) in [
        ("runner_group", &["runner_cell"][..]),
        ("runner_cell", &["evaluate", "run_method"]),
        ("run_method", &["context", "perturb", "reweight", "train"]),
        ("train", &["train_epoch"]),
        ("reweight", &["influence", "influence_grads", "qclp"]),
        ("influence", &["influence_cg", "influence_tail"]),
        ("influence_cg", &["influence_hvp"]),
        ("evaluate", &["attack_grid", "bias", "predict"]),
        (
            "attack_grid",
            &["attack_classifier", "attack_distances", "attack_features"],
        ),
    ] {
        assert_eq!(
            children_of(&tree_1, parent),
            children,
            "children of `{parent}`"
        );
    }

    // Counts: one cell, one `run_method` and one distance pass per run; one
    // re-weighting (two CG adjoints, one shared tail, one QCLP) per
    // (dataset, model, seed) that runs DPFR or PPFR, since its FR cells
    // share it; one perturbation, and one context over its graph, per run
    // that deploys on a perturbed graph.  One HVP per CG iteration: the four
    // solves run 32 iterations, the sum the `influence.cg_iters` histogram
    // recorded for this run before the HVP span replaced it.  24 attack
    // fits: two per run for the partial-knowledge settings (2 · 10), plus
    // one per shadow entry of each (dataset, seed) group's auditor, which
    // the group's runs share (2 · 2).  A broken shadow-attack cache or an
    // extra fit in the audit moves this count.
    let n_runs = spec.n_runs() as u64;
    let n_perturbed = untraced
        .runs
        .iter()
        .filter(|r| matches!(r.method.as_str(), "DPReg" | "DPFR" | "PPFR"))
        .count() as u64;
    let fr_triples = untraced
        .runs
        .iter()
        .filter(|r| r.method == "DPFR" || r.method == "PPFR")
        .map(|r| (&r.dataset, &r.model, r.seed))
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    assert_eq!(
        (n_runs, fr_triples, n_perturbed),
        (10, 2, 6),
        "bench-small at one seed"
    );
    for (name, expected) in [
        ("runner_cell", n_runs),
        ("run_method", n_runs),
        ("context", n_runs + n_perturbed),
        ("perturb", n_perturbed),
        ("attack_distances", n_runs),
        ("reweight", fr_triples),
        ("influence", fr_triples),
        ("influence_tail", fr_triples),
        ("qclp", fr_triples),
        ("influence_cg", 2 * fr_triples),
        ("influence_hvp", 32),
        ("attack_classifier", 24),
    ] {
        assert_eq!(count_of(&tree_1, name), expected, "count of `{name}`");
    }

    assert_eq!(
        shape(&tree_1),
        shape(&tree_2),
        "span tree shape must not depend on the thread count"
    );
    let untraced = untraced.to_json();
    assert_eq!(report_1.to_json(), untraced, "recording changed a result");
    assert_eq!(report_2.to_json(), untraced, "recording changed a result");
}
