//! Fine-tuning mode (paper §2.2): a task-specific linear head `g` appended
//! to the pre-trained Shapelet Transformer `f`, with `ŷ = g(f(x))`, trained
//! by cross-entropy backpropagation. The shapelets can be updated jointly
//! (the advanced mode) or frozen (linear probing).
//!
//! Like the pre-trainer, each batch runs data-parallel: the cross-entropy
//! of one example is independent of the others given the current
//! parameters, so every example's forward/backward is its own worker
//! subgraph and the main thread reduces the gradients in fixed example
//! order (bit-for-bit identical at any `TCSL_THREADS`,
//! `fine_tuning_is_thread_count_invariant`). An example's features take the
//! pre-trainer's path: its series is pooled in place as one whole-series
//! crop ([`pool_series_crops`]) against the shapelet values packed once per
//! batch, and [`diff_features_pooled`] puts the poolings on its tape. The
//! pre-trainer's guard against non-finite training state runs every batch.

// Training/experiment path — panics on internal bugs are policy here
// (DESIGN.md, "Error taxonomy & panic policy"), so the request-path error
// wall (clippy.toml) is lifted for this module.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::trainer::guarded_batch;
use std::time::{Duration, Instant};
use tcsl_autodiff::{Adam, Graph, Optimizer, ParamStore, VarId};
use tcsl_data::Dataset;
use tcsl_shapelet::diff_transform::{
    bind_frozen, diff_features_pooled, pool_series_crops, write_back, BoundBank, WindowCache,
};
use tcsl_shapelet::{GroupPrecomp, ShapeletBank};
use tcsl_tensor::matmul::matmul_transb;
use tcsl_tensor::parallel::parallel_map;
use tcsl_tensor::rng::{permutation, seeded};
use tcsl_tensor::Tensor;

/// Fine-tuning hyperparameters.
#[derive(Clone, Debug)]
pub struct FineTuneConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Series per minibatch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// When `true`, only the head trains (linear probing); when `false`,
    /// shapelets are updated jointly — the paper's fine-tuning mode.
    pub freeze_shapelets: bool,
    /// RNG seed for batching and head initialization.
    pub seed: u64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epochs: 30,
            batch_size: 16,
            learning_rate: 0.02,
            freeze_shapelets: false,
            seed: 0,
        }
    }
}

/// The trained linear analyzer `g`: `logits = z·Wᵀ + b`.
#[derive(Clone, Debug)]
pub struct LinearHead {
    /// `(C, F)` weight matrix.
    pub w: Tensor,
    /// `(C)` bias vector.
    pub b: Tensor,
}

impl LinearHead {
    /// Class-logit matrix `(N, C)` for a feature matrix `(N, F)`.
    pub fn logits(&self, feats: &Tensor) -> Tensor {
        let raw = matmul_transb(feats, &self.w);
        raw.add_row_vector(&self.b)
    }

    /// Predicted class per row.
    pub fn predict(&self, feats: &Tensor) -> Vec<usize> {
        let l = self.logits(feats);
        (0..l.rows())
            .map(|i| {
                let row = l.row(i);
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }
}

/// Loss curve of one fine-tuning run.
#[derive(Clone, Debug)]
pub struct FineTuneReport {
    /// Mean cross-entropy per epoch.
    pub epoch_loss: Vec<f32>,
    /// Wall-clock time.
    pub wall_time: Duration,
}

/// Fine-tunes `bank` (unless frozen) and a fresh linear head on a labeled
/// dataset. Returns the head and the loss curve; the bank is updated in
/// place when `freeze_shapelets` is false.
///
/// # Panics
///
/// Panics, before the optimizer step, when a batch's loss or gradient is
/// not finite (for example a series whose values overflow the distances),
/// naming the epoch and batch.
pub fn fine_tune(
    bank: &mut ShapeletBank,
    ds: &Dataset,
    cfg: &FineTuneConfig,
) -> (LinearHead, FineTuneReport) {
    assert!(ds.labels().is_some(), "fine-tuning requires labels");
    assert!(ds.len() >= 2, "need at least two labeled series");
    let n_classes = ds.n_classes();
    assert!(n_classes >= 2, "need at least two classes");
    let f_dim = bank.repr_dim();

    let mut rng = seeded(cfg.seed);
    let mut ps = ParamStore::new();
    let n_groups = bank.groups().len();
    if !cfg.freeze_shapelets {
        for (i, grp) in bank.groups().iter().enumerate() {
            ps.register(format!("group{i}"), grp.shapelets.clone());
        }
    }
    let head_w_idx = ps.register(
        "head_w",
        Tensor::randn([n_classes, f_dim], &mut rng).scale(0.05),
    );
    let head_b_idx = ps.register("head_b", Tensor::zeros([n_classes]));
    let mut opt = Adam::new(cfg.learning_rate);

    let _run_span = tcsl_obs::spans::span("fine_tune");
    let start = Instant::now();
    let mut epoch_loss = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let _epoch_span = tcsl_obs::spans::span("epoch");
        let epoch_start = Instant::now();
        let order = permutation(&mut rng, ds.len());
        let mut sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let _batch_span = tcsl_obs::spans::span("batch");
            let targets: Vec<usize> = chunk.iter().map(|&i| ds.label(i)).collect();
            tcsl_obs::counters::FINETUNE_EXAMPLES.add(chunk.len() as u64);
            // The shapelet values every example binds, packed once: the
            // trained ones, or the bank's own when frozen.
            let pre: Vec<GroupPrecomp> = if cfg.freeze_shapelets {
                bank.groups()
                    .iter()
                    .map(|grp| GroupPrecomp::of(&grp.shapelets, bank.d))
                    .collect()
            } else {
                (0..n_groups)
                    .map(|i| GroupPrecomp::of(ps.get(i), bank.d))
                    .collect()
            };

            // Fan out: one pool-worker subgraph per example. The batch
            // loss is the mean of per-example cross-entropies, so
            // per-example gradients reduce to the batch gradient by
            // averaging, in fixed example order.
            let ([batch_loss], gvec, _) = guarded_batch(epoch, batches, ["loss"], || {
                let results = parallel_map(chunk.len(), |i| {
                    let mut g = Graph::new();
                    let bound_all = ps.bind(&mut g);
                    let bound = if cfg.freeze_shapelets {
                        bind_frozen(&mut g, bank)
                    } else {
                        BoundBank {
                            group_vars: bound_all[..n_groups].to_vec(),
                        }
                    };
                    let (w_var, b_var): (VarId, VarId) =
                        (bound_all[head_w_idx], bound_all[head_b_idx]);
                    let series = ds.series(chunk[i]).values();
                    let crop = [(0, series.cols())];
                    let ops = pool_series_crops(bank, &pre, series, &crop, &mut WindowCache::new());
                    let feats = diff_features_pooled(&mut g, &bound, &ops[0]);
                    let raw = g.matmul_transb(feats, w_var);
                    let logits = g.add_row_vec(raw, b_var);
                    let loss = g.cross_entropy_logits(logits, &targets[i..i + 1]);
                    let loss_val = g.value(loss).item();
                    let mut grads = g.backward(loss);
                    (loss_val, ps.collect_grads(&mut grads, &bound_all))
                });
                let mut acc = ps.grad_accumulator();
                let mut batch_loss = 0.0f32;
                for (loss_val, grads) in &results {
                    acc.accumulate(grads);
                    batch_loss += loss_val;
                }
                ([batch_loss / results.len() as f32], acc.into_mean())
            });
            sum += batch_loss as f64;
            batches += 1;
            opt.step(&mut ps, &gvec);
        }
        epoch_loss.push((sum / batches.max(1) as f64) as f32);
        if tcsl_obs::enabled() {
            let secs = epoch_start.elapsed().as_secs_f64();
            tcsl_obs::trace::emit(
                tcsl_obs::trace::Event::new("finetune_epoch")
                    .u64("epoch", epoch as u64)
                    .f32("loss", *epoch_loss.last().unwrap())
                    .u64("n_series", ds.len() as u64)
                    .f64("secs", secs)
                    .f64("series_per_sec", ds.len() as f64 / secs.max(1e-12)),
            );
        }
    }

    if !cfg.freeze_shapelets {
        let values: Vec<_> = (0..n_groups).map(|i| ps.get(i).clone()).collect();
        write_back(bank, &values);
    }
    let head = LinearHead {
        w: ps.get(head_w_idx).clone(),
        b: ps.get(head_b_idx).clone(),
    };
    (
        head,
        FineTuneReport {
            epoch_loss,
            wall_time: start.elapsed(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_data::archive;
    use tcsl_shapelet::{
        init::init_from_data, transform::transform_dataset, Measure, ShapeletConfig,
    };

    fn setup() -> (ShapeletBank, Dataset, Dataset) {
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, test) = archive::generate_split(&entry, 11);
        let (train, test) = (train.znormed(), test.znormed());
        let cfg = ShapeletConfig {
            lengths: vec![8, 16],
            k_per_group: 4,
            measures: vec![Measure::Euclidean, Measure::Cosine],
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, 1);
        init_from_data(&mut bank, &train, 4, &mut seeded(1));
        (bank, train, test)
    }

    fn accuracy(pred: &[usize], ds: &Dataset) -> f32 {
        let hit = pred
            .iter()
            .enumerate()
            .filter(|(i, &p)| p == ds.label(*i))
            .count();
        hit as f32 / ds.len() as f32
    }

    #[test]
    fn fine_tuning_beats_chance_on_motif_data() {
        let (mut bank, train, test) = setup();
        let cfg = FineTuneConfig {
            epochs: 15,
            batch_size: 10,
            seed: 3,
            ..Default::default()
        };
        let (head, report) = fine_tune(&mut bank, &train, &cfg);
        assert_eq!(report.epoch_loss.len(), 15);
        assert!(
            report.epoch_loss.last().unwrap() < &report.epoch_loss[0],
            "loss did not decrease"
        );
        let test_feats = transform_dataset(&bank, &test).unwrap();
        let pred = head.predict(&test_feats);
        let acc = accuracy(&pred, &test);
        assert!(acc > 0.7, "fine-tuned accuracy only {acc}");
    }

    #[test]
    fn frozen_mode_leaves_shapelets_untouched() {
        let (mut bank, train, _) = setup();
        let before: Vec<_> = bank.groups().iter().map(|g| g.shapelets.clone()).collect();
        let cfg = FineTuneConfig {
            epochs: 3,
            freeze_shapelets: true,
            seed: 4,
            ..Default::default()
        };
        let (_head, _) = fine_tune(&mut bank, &train, &cfg);
        for (g, b) in bank.groups().iter().zip(&before) {
            assert_eq!(&g.shapelets, b, "frozen shapelets changed");
        }
    }

    #[test]
    fn joint_mode_updates_shapelets() {
        let (mut bank, train, _) = setup();
        let before: Vec<_> = bank.groups().iter().map(|g| g.shapelets.clone()).collect();
        let cfg = FineTuneConfig {
            epochs: 3,
            freeze_shapelets: false,
            seed: 5,
            ..Default::default()
        };
        fine_tune(&mut bank, &train, &cfg);
        let moved = bank
            .groups()
            .iter()
            .zip(&before)
            .any(|(g, b)| g.shapelets.max_abs_diff(b) > 1e-5);
        assert!(moved);
    }

    #[test]
    fn head_predict_shapes() {
        let head = LinearHead {
            w: Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]),
            b: Tensor::zeros([2]),
        };
        let feats = Tensor::from_vec(vec![3.0, 1.0, 0.0, 2.0], [2, 2]);
        assert_eq!(head.predict(&feats), vec![0, 1]);
        assert_eq!(head.logits(&feats).shape().dims(), &[2, 2]);
    }

    #[test]
    fn fine_tuning_is_thread_count_invariant() {
        // Examples reduce in fixed order, so serial (TCSL_THREADS=1),
        // oversubscribed and default runs are bit-for-bit identical, joint
        // and frozen. Every run happens inside this one test so the env
        // var is never left set for others.
        let (bank0, train, _) = setup();
        for freeze_shapelets in [false, true] {
            let cfg = FineTuneConfig {
                epochs: 2,
                batch_size: 8,
                freeze_shapelets,
                seed: 12,
                ..Default::default()
            };
            let run = |threads: Option<&str>| {
                match threads {
                    Some(t) => std::env::set_var("TCSL_THREADS", t),
                    None => std::env::remove_var("TCSL_THREADS"),
                }
                let mut b = bank0.clone();
                let (head, report) = fine_tune(&mut b, &train, &cfg);
                std::env::remove_var("TCSL_THREADS");
                (b, head, report)
            };
            let (b1, h1, r1) = run(Some("1"));
            for (b, h, r) in [run(Some("4")), run(None)] {
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let loss_bits = |r: &FineTuneReport| {
                    r.epoch_loss.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(
                    loss_bits(&r),
                    loss_bits(&r1),
                    "frozen={freeze_shapelets} losses"
                );
                assert_eq!(
                    bits(&h.w),
                    bits(&h1.w),
                    "frozen={freeze_shapelets} head weights"
                );
                assert_eq!(
                    bits(&h.b),
                    bits(&h1.b),
                    "frozen={freeze_shapelets} head bias"
                );
                for (g, g1) in b.groups().iter().zip(b1.groups()) {
                    assert_eq!(
                        bits(&g.shapelets),
                        bits(&g1.shapelets),
                        "frozen={freeze_shapelets} shapelets"
                    );
                }
            }
        }
    }

    /// Six labeled sine series, one of them replaced by values that
    /// overflow the squared distances to +inf, and a bank initialized on
    /// the clean ones.
    fn poisoned_setup() -> (ShapeletBank, Dataset, FineTuneConfig) {
        use tcsl_data::TimeSeries;
        let mut series: Vec<TimeSeries> = (0..6)
            .map(|s| {
                TimeSeries::univariate((0..32).map(|t| ((s + t) as f32 * 0.37).sin()).collect())
            })
            .collect();
        let labels: Vec<usize> = (0..6).map(|i| i % 2).collect();
        let clean = Dataset::labeled("clean", series.clone(), labels.clone());
        let cfg = ShapeletConfig {
            lengths: vec![8],
            k_per_group: 2,
            measures: vec![Measure::Euclidean],
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, 1);
        init_from_data(&mut bank, &clean, 2, &mut seeded(1));
        series[1] = TimeSeries::univariate(vec![1.0e20; 32]);
        let ds = Dataset::labeled("poisoned", series, labels);
        let ft = FineTuneConfig {
            epochs: 2,
            batch_size: 6,
            seed: 3,
            ..Default::default()
        };
        (bank, ds, ft)
    }

    #[test]
    #[should_panic(expected = "non-finite training state at epoch 0, batch 0")]
    fn fine_tune_poisoned_input_panics_with_epoch_and_batch() {
        let (mut bank, ds, cfg) = poisoned_setup();
        fine_tune(&mut bank, &ds, &cfg);
    }

    #[test]
    fn fine_tune_poisoned_input_emits_non_finite_event() {
        let (mut bank, ds, cfg) = poisoned_setup();
        let before: Vec<_> = bank.groups().iter().map(|g| g.shapelets.clone()).collect();
        let _lock = crate::testlock::hold();
        // Memory sink first, then enable: no trace file must appear.
        tcsl_obs::trace::use_memory_sink();
        tcsl_obs::set_enabled(true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fine_tune(&mut bank, &ds, &cfg)
        }));
        tcsl_obs::set_enabled(false);
        let events = tcsl_obs::trace::take_events();
        tcsl_obs::trace::reset_sink();
        assert!(result.is_err(), "poisoned input must abort fine-tuning");
        for (g, b) in bank.groups().iter().zip(&before) {
            assert_eq!(&g.shapelets, b, "an aborted run wrote shapelets back");
        }
        // Concurrent tests may have emitted their own events while tracing
        // was on; filter by kind.
        let ev = events
            .iter()
            .find(|e| e.kind == "non_finite_loss")
            .expect("no non_finite_loss event emitted");
        use tcsl_obs::trace::Value;
        assert_eq!(ev.field("epoch"), Some(&Value::U64(0)));
        assert_eq!(ev.field("batch"), Some(&Value::U64(0)));
        // The event carries the failure detail: either the caught tape
        // panic (debug builds) or the non-finite loss and gradient norm
        // (release builds, where the tape's debug_assert is compiled out).
        let has_context = match (ev.field("detail"), ev.field("loss"), ev.field("grad_norm")) {
            (Some(Value::Str(d)), _, _) => d.contains("non-finite"),
            (None, Some(Value::F64(l)), Some(Value::F64(n))) => !l.is_finite() || !n.is_finite(),
            _ => false,
        };
        assert!(has_context, "event lacks failure context: {ev:?}");
    }

    #[test]
    #[should_panic(expected = "labels")]
    fn unlabeled_dataset_rejected() {
        let (mut bank, train, _) = setup();
        fine_tune(
            &mut bank,
            &train.without_labels(),
            &FineTuneConfig::default(),
        );
    }
}
