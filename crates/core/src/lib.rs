#![warn(missing_docs)]
// The error wall (clippy.toml) exempts test builds: tests assert on values
// and unwrap() freely.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]
//! # tcsl-core
//!
//! **Contrastive Shapelet Learning (CSL)** and the TimeCSL unified pipeline
//! (paper §2).
//!
//! The crate trains the Shapelet Transformer `f` from `tcsl-shapelet`
//! without labels, by jointly optimizing:
//!
//! * **Multi-Grained Contrasting** ([`loss::nt_xent`]): two random crops of
//!   the same series — sampled at several *grains* (crop-length fractions)
//!   — are positives, crops of other series in the batch are negatives;
//!   NT-Xent is applied per grain and averaged.
//! * **Multi-Scale Alignment** ([`loss::multi_scale_alignment`]): the
//!   per-scale sub-embeddings of one series are pulled toward consistent
//!   geometry across scales.
//!
//! After pre-training, [`pipeline::TimeCsl`] exposes the paper's two modes:
//! *freezing* (extract features, hand them to any analyzer) and
//! *fine-tuning* ([`finetune`]: a linear head `g` stacked on `f`, both
//! updated by backpropagation — the semi-supervised configuration of §2.2).

pub mod config;
pub mod finetune;
pub mod loss;
pub mod pipeline;
#[cfg(test)]
mod proptests;
pub mod trainer;
pub mod views;

pub use config::CslConfig;
pub use finetune::{FineTuneConfig, LinearHead};
pub use pipeline::TimeCsl;
pub use tcsl_shapelet::diff_transform::DiffPath;
pub use trainer::{pretrain, TrainingReport};

#[cfg(test)]
pub(crate) mod testlock {
    //! Trace state is process-global, so tests that switch tracing on and
    //! off around a run serialize on this lock.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}
