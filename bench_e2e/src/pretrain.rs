//! `pretrain`: unsupervised pre-training of the default adaptive bank, as
//! `timecsl pretrain` runs it, saved to model text.
//!
//! The only workload where the autodiff tape, the fused kernels' backward
//! pass and the trainer's per-grain fan-out do the work; parsing, the
//! quantized kernels, `pairdist` and the explore layers sit idle.

use crate::common::{self, derive, gestures, same_bank, Quality, N_CLASSES};
use crate::harness::{OpTrace, RunArgs, Workload};
use crate::timing::{median, Recorder};
use tcsl_autodiff::{Adam, Graph, Optimizer, ParamStore};
use tcsl_core::loss::{multi_scale_alignment, nt_xent};
use tcsl_core::views::sample_views;
use tcsl_core::{CslConfig, TimeCsl};
use tcsl_data::normalize::{normalize_dataset, Normalization};
use tcsl_data::Dataset;
use tcsl_shapelet::diff_transform::{diff_features_batch_via, BoundBank, WindowCache};
use tcsl_tensor::rng::seeded;

/// Input sizes of the workload.
struct Sizes {
    /// Training gestures per class.
    train_per_class: usize,
    /// Held-out gestures per class, for each of the SVM-train and test
    /// splits that score the trained model.
    score_per_class: usize,
    /// Epochs of one pre-training run.
    epochs: usize,
}

const FULL: Sizes = Sizes {
    train_per_class: 8,
    score_per_class: 16,
    epochs: 3,
};

const SMOKE: Sizes = Sizes {
    train_per_class: 2,
    score_per_class: 2,
    epochs: 1,
};

pub struct Pretrain {
    sizes: &'static Sizes,
    train: Dataset,
    score_train: Dataset,
    score_test: Dataset,
    cfg: CslConfig,
    /// The first operation's model and text: every later one must match.
    reference: Option<(TimeCsl, String)>,
    /// The z-normalized training set the trainer sees, for replays.
    normed: Option<Dataset>,
}

impl Workload for Pretrain {
    type Out = (TimeCsl, String);

    fn setup(args: &RunArgs) -> Result<Self, String> {
        let sizes = if args.smoke { &SMOKE } else { &FULL };
        // The training set reaches the trainer through the long-CSV
        // format, as a user's file does.
        let train = common::via_csv(&gestures(derive(args.seed, 1), sizes.train_per_class))?;
        Ok(Pretrain {
            sizes,
            train,
            score_train: gestures(derive(args.seed, 2), sizes.score_per_class),
            score_test: gestures(derive(args.seed, 3), sizes.score_per_class),
            cfg: CslConfig {
                epochs: sizes.epochs,
                seed: derive(args.seed, 4),
                ..Default::default()
            },
            reference: None,
            normed: None,
        })
    }

    fn run_op(&mut self, _i: usize, rec: &mut Recorder) -> Result<Self::Out, String> {
        let (model, _report) = rec.time("core.pipeline.pretrain", || {
            TimeCsl::pretrain(&self.train, None, &self.cfg)
        });
        let text = rec.time("core.pipeline.model_write", || model.to_text());
        Ok((model, text))
    }

    fn check(&mut self, _i: usize, (model, text): Self::Out) -> Result<(), String> {
        match &self.reference {
            None => {
                self.reference = Some((model, text));
                Ok(())
            }
            Some((m, t)) if same_bank(m.bank(), model.bank()) && *t == text => Ok(()),
            Some(_) => Err("pre-training from the same seed gave a different model".into()),
        }
    }

    fn after_traced_op(&mut self, i: usize, rec: &mut Recorder) -> Result<(), String> {
        replay_batch(self, i, rec);
        Ok(())
    }

    fn finish(&mut self, errors: &mut Vec<String>) -> Quality {
        let (model, text) = self
            .reference
            .clone()
            .expect("the warm-up operation set the reference model");
        // One worker trains the same bank as `nproc` workers.
        let threads = std::env::var("TCSL_THREADS").unwrap_or_default();
        std::env::set_var("TCSL_THREADS", "1");
        let (serial, _) = TimeCsl::pretrain(&self.train, None, &self.cfg);
        std::env::set_var("TCSL_THREADS", threads);
        if !same_bank(serial.bank(), model.bank()) {
            errors.push("one worker and nproc workers trained different banks".into());
        }
        // The model text round-trips.
        match TimeCsl::from_text(&text) {
            Ok(back) if same_bank(back.bank(), model.bank()) && back.to_text() == text => {}
            Ok(_) => errors.push("model text does not round-trip to the same bank".into()),
            Err(e) => errors.push(format!("model text does not parse: {e}")),
        }
        let q = score(&model, &self.score_train, &self.score_test);
        if let Err(e) = q.check("pretrain") {
            errors.push(e);
        }
        q
    }

    fn layer_metrics(&self, rec: &Recorder, ops: &[OpTrace]) -> Vec<(&'static str, f64)> {
        let pretrain_ms = rec.per_op_ms("core.pipeline.pretrain");
        let pairs_per_s: Vec<f64> = ops
            .iter()
            .zip(&pretrain_ms)
            .map(|(t, ms)| t.counter("trainer.pairs") as f64 / (ms * 1e-3))
            .collect();
        vec![
            ("core.trainer.pairs_per_s", median(&pairs_per_s)),
            ("core.views.sample_ms", rec.median_ms("core.views.sample")),
            (
                "shapelet.diff_op.forward_ms",
                rec.median_ms("shapelet.diff_op.forward"),
            ),
            ("core.loss.ms", rec.median_ms("core.loss")),
            (
                "autodiff.graph.backward_ms",
                rec.median_ms("autodiff.graph.backward"),
            ),
            (
                "autodiff.optim.step_ms",
                rec.median_ms("autodiff.optim.step"),
            ),
            (
                "core.pipeline.model_write_ms",
                rec.median_ms("core.pipeline.model_write"),
            ),
        ]
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        let s = self.sizes;
        vec![
            ("family", "UWave-style gestures".into()),
            ("classes", N_CLASSES.to_string()),
            ("d", "3".into()),
            ("t", "315".into()),
            ("train_series", self.train.len().to_string()),
            (
                "score_series",
                format!("{} + {}", self.score_train.len(), self.score_test.len()),
            ),
            (
                "bank",
                "adaptive: 4 scales x 3 measures x 10 shapelets".into(),
            ),
            ("epochs", s.epochs.to_string()),
            ("batch_size", self.cfg.batch_size.to_string()),
            ("grains", format!("{:?}", self.cfg.grains)),
        ]
    }
}

/// Freeze-mode quality of `model`: SVM trained on `train`, scored on
/// `test`; KMeans on `test`.
fn score(model: &TimeCsl, train: &Dataset, test: &Dataset) -> Quality {
    let ftr = model.transform(train).expect("generated series are valid");
    let fte = model.transform(test).expect("generated series are valid");
    let ytr = train.labels().expect("gestures are labeled");
    let yte = test.labels().expect("gestures are labeled");
    let pred = common::svm_predict(&ftr, ytr, &fte);
    let assign = common::kmeans(&fte, N_CLASSES);
    common::quality(&pred, &assign, yte)
}

/// Replays one training batch through the public functions the trainer is
/// built from, on the calling thread, splitting a step across its layers:
/// view sampling, the differentiable shapelet forward, the losses, the
/// tape's backward pass and the optimizer step.
fn replay_batch(w: &mut Pretrain, i: usize, rec: &mut Recorder) {
    let cfg = &w.cfg;
    let normed = w
        .normed
        .get_or_insert_with(|| normalize_dataset(&w.train.without_labels(), Normalization::ZScore));
    let (model, _) = w.reference.as_ref().expect("reference model is set");
    let bank = model.bank();
    let mut ps = ParamStore::new();
    for (gi, grp) in bank.groups().iter().enumerate() {
        ps.register(format!("group{gi}"), grp.shapelets.clone());
    }
    let mut opt = Adam::new(cfg.learning_rate);
    let batch: Vec<usize> = (0..cfg.batch_size.min(normed.len()))
        .map(|j| (j * 5 + i) % normed.len())
        .collect();
    let mut rng = seeded(derive(cfg.seed, i as u64));
    let pairs = rec.time("core.views.sample", || {
        sample_views(normed, &batch, &cfg.grains, cfg.min_crop, &mut rng)
    });
    let mut acc = ps.grad_accumulator();
    for pair in &pairs {
        let mut g = Graph::new();
        let bound = BoundBank {
            group_vars: ps.bind(&mut g),
        };
        let mut cache = WindowCache::new();
        let (za, zb) = rec.time("shapelet.diff_op.forward", || {
            let za = diff_features_batch_via(
                cfg.diff_path,
                &mut g,
                bank,
                &bound,
                &pair.views_a,
                &mut cache,
            );
            let zb = diff_features_batch_via(
                cfg.diff_path,
                &mut g,
                bank,
                &bound,
                &pair.views_b,
                &mut cache,
            );
            (za, zb)
        });
        let loss = rec.time("core.loss", || {
            let contrast = nt_xent(&mut g, za, zb, cfg.temperature);
            let align = multi_scale_alignment(&mut g, bank, za);
            let weighted = g.mul_scalar(align, cfg.alignment_weight);
            g.add(contrast, weighted)
        });
        let mut grads = rec.time("autodiff.graph.backward", || g.backward(loss));
        acc.accumulate(&ps.collect_grads(&mut grads, &bound.group_vars));
    }
    let mean = acc.into_mean();
    rec.time("autodiff.optim.step", || opt.step(&mut ps, &mean));
}
