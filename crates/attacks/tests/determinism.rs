//! Determinism of the supervised attack grid: the same seed must produce
//! identical attack AUCs across repeated runs and across forced worker-thread
//! counts (the parallel kernels underneath are pinned bit-identical across
//! forced thread counts, so nothing in the grid may depend on scheduling).

use ppfr_attacks::{AttackTrainConfig, ThreatAuditor};
use ppfr_datasets::sparse_sbm_dataset;
use ppfr_linalg::parallel::with_forced_threads;
use ppfr_linalg::{row_softmax, Matrix};
use ppfr_privacy::PairSample;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn grid_aucs(seed: u64) -> Vec<f64> {
    let ds = sparse_sbm_dataset(600, 2, 7.0, 1.5, 16, 31);
    let mut rng = StdRng::seed_from_u64(seed);
    let sample = PairSample::balanced(&ds.graph, &mut rng);
    let mut auditor =
        ThreatAuditor::for_dataset(&ds, sample, AttackTrainConfig::default(), seed ^ 0xbeef);
    let mut logits = Matrix::zeros(ds.n_nodes(), 2);
    for v in 0..ds.n_nodes() {
        logits[(v, ds.labels[v])] = 2.0 + (v % 17) as f64 * 0.02;
    }
    let probs = row_softmax(&logits);
    let report = auditor.audit(&probs);
    let mut aucs: Vec<f64> = report.outcomes.iter().map(|o| o.auc).collect();
    aucs.push(report.worst_case_auc);
    aucs.push(report.unsupervised.average_auc);
    aucs
}

#[test]
fn same_seed_means_identical_attack_aucs_across_runs() {
    let first = grid_aucs(7);
    let second = grid_aucs(7);
    assert_eq!(first, second, "repeated runs drifted");
    let other_seed = grid_aucs(8);
    assert_ne!(
        first, other_seed,
        "different seeds should draw different samples"
    );
}

#[test]
fn attack_aucs_are_independent_of_the_worker_thread_count() {
    let baseline = with_forced_threads(1, || grid_aucs(7));
    for threads in [2, 4, 7] {
        let parallel = with_forced_threads(threads, || grid_aucs(7));
        assert_eq!(
            parallel, baseline,
            "attack AUCs differ at {threads} threads"
        );
    }
}
