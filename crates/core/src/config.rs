//! CSL training hyperparameters.

use tcsl_error::{TcslError, TcslResult};
use tcsl_shapelet::diff_transform::DiffPath;
use tcsl_shapelet::BankPrecision;

/// Configuration of unsupervised contrastive shapelet learning.
#[derive(Clone, Debug)]
pub struct CslConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Series per minibatch (each contributes two views per grain).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// NT-Xent softmax temperature τ.
    pub temperature: f32,
    /// Weight λ of the multi-scale alignment term.
    pub alignment_weight: f32,
    /// Crop-length fractions (the "grains" of multi-grained contrasting).
    pub grains: Vec<f32>,
    /// Minimum crop length in steps.
    pub min_crop: usize,
    /// Candidate-pool oversampling factor for shapelet initialization.
    pub init_oversample: usize,
    /// Fraction of series held out for a per-epoch validation loss
    /// (0 disables validation — the default). The demo's GUI plots this
    /// curve to diagnose over/under-fitting (§3, step 2).
    pub validation_frac: f32,
    /// RNG seed controlling initialization, batching and view sampling.
    pub seed: u64,
    /// Which differentiable-transform implementation training runs:
    /// the fused custom-op kernel (default) or the eager-graph oracle
    /// (parity tests and old-vs-new benchmarking).
    pub diff_path: DiffPath,
    /// Inference precision of the trained bank: with [`BankPrecision::F16`],
    /// pre-training finishes with an automatic
    /// [`tcsl_shapelet::ShapeletBank::quantize`] step, so the returned model
    /// serves (and saves) at half tap width. Training itself always runs in
    /// f32 — only the post-training bank is affected.
    pub bank_precision: BankPrecision,
}

impl Default for CslConfig {
    fn default() -> Self {
        CslConfig {
            epochs: 20,
            batch_size: 16,
            learning_rate: 0.02,
            temperature: 0.2,
            alignment_weight: 0.5,
            grains: vec![0.5, 0.75, 1.0],
            min_crop: 8,
            init_oversample: 4,
            validation_frac: 0.0,
            seed: 0,
            diff_path: DiffPath::default(),
            bank_precision: BankPrecision::Full,
        }
    }
}

impl CslConfig {
    /// A reduced-budget configuration for unit tests and smoke runs.
    pub fn fast() -> Self {
        CslConfig {
            epochs: 4,
            batch_size: 8,
            grains: vec![0.6, 1.0],
            ..Default::default()
        }
    }

    /// Validates invariants; called by the trainer. Each violation is a
    /// [`TcslError::Config`] naming the offending field.
    pub fn validate(&self) -> TcslResult<()> {
        let bad = |msg: &str| Err(TcslError::config(msg.to_string()));
        if self.epochs < 1 {
            return bad("epochs: need at least one epoch");
        }
        if self.batch_size < 2 {
            return bad("batch_size: contrastive learning needs batch_size >= 2");
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return bad("learning_rate must be positive and finite");
        }
        if !(self.temperature.is_finite() && self.temperature > 0.0) {
            return bad("temperature must be positive");
        }
        if !(self.alignment_weight.is_finite() && self.alignment_weight >= 0.0) {
            return bad("alignment_weight must be non-negative");
        }
        if self.grains.is_empty() {
            return bad("grains: need at least one grain");
        }
        if !self.grains.iter().all(|&g| g > 0.0 && g <= 1.0) {
            return bad("grains must be in (0, 1]");
        }
        if self.min_crop < 1 {
            return bad(
                "min_crop must be at least 1 — a zero minimum lets tiny grains \
                 round crops down to zero-length views",
            );
        }
        if !(0.0..0.9).contains(&self.validation_frac) {
            return bad("validation_frac must be in [0, 0.9)");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CslConfig::default().validate().unwrap();
        CslConfig::fast().validate().unwrap();
    }

    fn rejected_with(cfg: CslConfig, needle: &str) {
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::Config);
        assert!(err.to_string().contains(needle), "{err}");
    }

    #[test]
    fn tiny_batch_rejected() {
        rejected_with(
            CslConfig {
                batch_size: 1,
                ..Default::default()
            },
            "batch_size",
        );
    }

    #[test]
    fn bad_grain_rejected() {
        rejected_with(
            CslConfig {
                grains: vec![1.5],
                ..Default::default()
            },
            "grains",
        );
    }

    #[test]
    fn zero_min_crop_rejected() {
        rejected_with(
            CslConfig {
                min_crop: 0,
                ..Default::default()
            },
            "min_crop",
        );
    }

    #[test]
    fn nan_learning_rate_rejected() {
        rejected_with(
            CslConfig {
                learning_rate: f32::NAN,
                ..Default::default()
            },
            "learning_rate",
        );
    }
}
