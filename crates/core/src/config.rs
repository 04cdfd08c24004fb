//! Hyper-parameter configuration for the PPFR pipeline and the experiments.

use ppfr_gnn::TrainConfig;
use ppfr_influence::{InfluenceConfig, LissaConfig};
use serde::{Deserialize, Serialize};

/// All hyper-parameters of the PPFR pipeline and its baselines.
///
/// Defaults follow the paper's setup (§VII-B1): hidden width 16, Adam,
/// `α = 0.9`, `β = 0.1`, fine-tuning budget `e_re = s · e_va` with
/// `s ∈ [0.1, 0.25]`, and ε-edge-DP for the DP baselines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpfrConfig {
    /// Hidden-layer width of every GNN.
    pub hidden: usize,
    /// Vanilla-training epochs `e_va`.
    pub vanilla_epochs: usize,
    /// Fine-tuning fraction `s` (`e_re = s · e_va`).
    pub finetune_fraction: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Strength λ of the InFoRM fairness regulariser (Reg / DPReg baselines).
    pub fairness_lambda: f64,
    /// Ratio γ of heterophilic noise edges per node (`|N(i)_Δ| = γ|N(i)|`).
    pub perturb_ratio: f64,
    /// Edge-DP budget ε for EdgeRand / LapGraph.
    pub dp_epsilon: f64,
    /// QCLP re-weighting budget α.
    pub qclp_alpha: f64,
    /// QCLP utility-cost budget β.
    pub qclp_beta: f64,
    /// Damping of the influence-function Hessian.
    pub influence_damping: f64,
    /// Conjugate-gradient iterations for influence solves.
    pub influence_cg_iters: usize,
    /// Per-node neighbour fanout for sampled training; `0` disables sampling
    /// and trains full-batch on the exact operators (the paper's protocol).
    pub train_sample_fanout: usize,
    /// Neumann truncation depth of the stochastic LiSSA influence estimator;
    /// `0` keeps the exact dense-CG engine (the paper's protocol).
    pub lissa_depth: usize,
    /// LiSSA spectral scale `c`; `0.0` selects it by power iteration.
    pub lissa_scale: f64,
    /// LiSSA mini-batch size per HVP; `0` uses the full training set.
    pub lissa_batch: usize,
    /// Independent LiSSA chains averaged into the estimate.
    pub lissa_samples: usize,
    /// Master RNG seed (models, DP noise, perturbation sampling, pair sampling).
    pub seed: u64,
}

impl Default for PpfrConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            vanilla_epochs: 200,
            finetune_fraction: 0.2,
            lr: 0.01,
            weight_decay: 5e-4,
            fairness_lambda: 4.0,
            perturb_ratio: 1.0,
            dp_epsilon: 4.0,
            qclp_alpha: 0.9,
            qclp_beta: 0.1,
            influence_damping: 0.01,
            influence_cg_iters: 25,
            train_sample_fanout: 0,
            lissa_depth: 0,
            lissa_scale: 0.0,
            lissa_batch: 0,
            lissa_samples: 1,
            seed: 7,
        }
    }
}

impl PpfrConfig {
    /// Number of fine-tuning epochs `e_re = max(1, s · e_va)`.
    pub fn finetune_epochs(&self) -> usize {
        ((self.finetune_fraction * self.vanilla_epochs as f64).round() as usize).max(1)
    }

    /// Training configuration for the vanilla phase.
    pub fn vanilla_train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.vanilla_epochs,
            lr: self.lr,
            weight_decay: self.weight_decay,
            seed: self.seed,
        }
    }

    /// Training configuration for the fine-tuning phase.
    pub fn finetune_train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.finetune_epochs(),
            lr: self.lr,
            weight_decay: self.weight_decay,
            seed: self.seed.wrapping_add(1),
        }
    }

    /// Influence-function configuration derived from this config.
    pub fn influence_config(&self) -> InfluenceConfig {
        InfluenceConfig {
            damping: self.influence_damping,
            cg_iters: self.influence_cg_iters,
            cg_tol: 1e-6,
            fd_step: 1e-4,
        }
    }

    /// Stochastic-estimator configuration derived from this config, used when
    /// [`PpfrConfig::lissa_depth`] is non-zero.  Shares the exact engine's
    /// damping and FD step so the two estimators solve the same damped system.
    pub fn lissa_config(&self) -> LissaConfig {
        LissaConfig {
            damping: self.influence_damping,
            fd_step: 1e-4,
            depth: self.lissa_depth.max(1),
            scale: self.lissa_scale,
            batch: self.lissa_batch,
            samples: self.lissa_samples.max(1),
            seed: self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// A cheaper configuration for smoke tests and Criterion benches: fewer
    /// epochs and CG iterations, same structure.
    pub fn smoke() -> Self {
        Self {
            vanilla_epochs: 60,
            influence_cg_iters: 10,
            ..Self::default()
        }
    }
}

/// Scale knob shared by the experiment drivers so the same code serves the
/// full reproduction (paper scale) and the fast benchmark/CI variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentScale {
    /// Full paper scale (the `exp_*` binaries without `--smoke`).
    Full,
    /// Reduced scale used by Criterion benches and smoke tests.
    Smoke,
}

impl ExperimentScale {
    /// Convenience constructor mirroring [`PpfrConfig::smoke`].
    pub fn smoke() -> Self {
        ExperimentScale::Smoke
    }

    /// The pipeline configuration matching this scale.
    pub fn config(self) -> PpfrConfig {
        match self {
            ExperimentScale::Full => PpfrConfig::default(),
            ExperimentScale::Smoke => PpfrConfig::smoke(),
        }
    }

    /// Scales a dataset node count: the smoke variant shrinks every dataset.
    pub fn scale_nodes(self, n: usize) -> usize {
        match self {
            ExperimentScale::Full => n,
            ExperimentScale::Smoke => (n / 4).max(120),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finetune_epochs_follow_the_fraction() {
        let cfg = PpfrConfig {
            vanilla_epochs: 200,
            finetune_fraction: 0.2,
            ..Default::default()
        };
        assert_eq!(cfg.finetune_epochs(), 40);
        let tiny = PpfrConfig {
            vanilla_epochs: 2,
            finetune_fraction: 0.1,
            ..Default::default()
        };
        assert_eq!(
            tiny.finetune_epochs(),
            1,
            "fine-tuning always runs at least one epoch"
        );
    }

    #[test]
    fn smoke_config_is_cheaper_than_full() {
        let full = PpfrConfig::default();
        let smoke = PpfrConfig::smoke();
        assert!(smoke.vanilla_epochs < full.vanilla_epochs);
        assert!(smoke.influence_cg_iters < full.influence_cg_iters);
    }

    #[test]
    fn scale_shrinks_nodes_only_in_smoke_mode() {
        assert_eq!(ExperimentScale::Full.scale_nodes(1400), 1400);
        assert!(ExperimentScale::Smoke.scale_nodes(1400) < 1400);
        assert!(ExperimentScale::Smoke.scale_nodes(100) >= 100);
    }

    #[test]
    fn config_serialises_roundtrip() {
        let cfg = PpfrConfig::default();
        let json = serde_json::to_string(&cfg).expect("serialise");
        let back: PpfrConfig = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.hidden, cfg.hidden);
        assert_eq!(back.vanilla_epochs, cfg.vanilla_epochs);
        assert_eq!(back.train_sample_fanout, cfg.train_sample_fanout);
        assert_eq!(back.lissa_depth, cfg.lissa_depth);
    }

    #[test]
    fn defaults_keep_the_exact_full_batch_protocol() {
        let cfg = PpfrConfig::default();
        assert_eq!(cfg.train_sample_fanout, 0, "sampling must be opt-in");
        assert_eq!(cfg.lissa_depth, 0, "LiSSA must be opt-in");
    }

    #[test]
    fn lissa_config_shares_the_exact_engines_damped_system() {
        let cfg = PpfrConfig {
            lissa_depth: 150,
            lissa_batch: 8,
            lissa_samples: 3,
            ..Default::default()
        };
        let lissa = cfg.lissa_config();
        assert_eq!(lissa.damping, cfg.influence_config().damping);
        assert_eq!(lissa.fd_step, cfg.influence_config().fd_step);
        assert_eq!(lissa.depth, 150);
        assert_eq!(lissa.batch, 8);
        assert_eq!(lissa.samples, 3);
        // Degenerate values are clamped to runnable ones.
        let zero = PpfrConfig {
            lissa_samples: 0,
            ..Default::default()
        };
        assert_eq!(zero.lissa_config().depth, 1);
        assert_eq!(zero.lissa_config().samples, 1);
    }
}
