//! The unsupervised contrastive pre-training loop (paper §2.1).
//!
//! Each step samples a minibatch, draws two crops per series per grain,
//! pushes all views through the differentiable shapelet transform, and
//! minimizes `L = L_contrast + λ·L_align` with Adam. The learning curve is
//! recorded per epoch — the demo plots it so users can "diagnose the model
//! performance" (§3, step 2).
//!
//! # Data-parallel execution
//!
//! Each batch is two fan-outs on the persistent worker pool
//! ([`tcsl_tensor::parallel::parallel_map`] — parked workers woken per
//! dispatch rather than OS threads spawned per batch; thread count
//! overridable via `TCSL_THREADS`, re-read each dispatch), both against one
//! read-only parameter snapshot:
//!
//! 1. **Per series** — every crop of the series, at every grain, is pooled
//!    by every group from one scan of the series' windows per group
//!    ([`pool_series_crops`]). Each series fills its own slot.
//! 2. **Per view pair** — each grain's pair builds a private [`Graph`],
//!    inserts its crops' finished poolings in the order the per-view path
//!    builds them (all first crops, then all second crops, groups in bank
//!    order), and returns its losses and gradients.
//!
//! The main thread then reduces the gradients **in fixed pair order** and
//! takes one optimizer step. View sampling stays on the main-thread RNG and
//! neither the slots nor the reduction order depend on the schedule, so
//! training is bit-for-bit identical at any thread count
//! (`training_is_thread_count_invariant`). A pooling shared across crops
//! equals the crop's own ([`tcsl_shapelet::fused::pool_crops`]) and the
//! tape sums the same nodes in the same order, so training is also
//! bit-identical to building every view on its own
//! (`two_fan_outs_match_per_view_gradients`). [`DiffPath::Oracle`] keeps
//! the per-view eager path.

// Training/experiment path — panics on internal bugs are policy here
// (DESIGN.md, "Error taxonomy & panic policy"), so the request-path error
// wall (clippy.toml) is lifted for this module.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::config::CslConfig;
use crate::loss::{multi_scale_alignment, nt_xent};
use crate::views::{sample_views, ViewPair};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcsl_autodiff::{Adam, Graph, Optimizer, ParamStore, VarId};
use tcsl_data::Dataset;
use tcsl_shapelet::diff_op::ShapeletDistanceOp;
use tcsl_shapelet::diff_transform::oracle::diff_features_batch_oracle;
use tcsl_shapelet::diff_transform::{
    diff_features_pooled, pool_series_crops, write_back, BoundBank, DiffPath, WindowCache,
};
use tcsl_shapelet::{GroupPrecomp, ShapeletBank};
use tcsl_tensor::parallel::parallel_map;
use tcsl_tensor::rng::{permutation, seeded};
use tcsl_tensor::Tensor;

/// Learning-curve record of one pre-training run.
#[derive(Clone, Debug)]
pub struct TrainingReport {
    /// Mean contrastive loss per epoch.
    pub epoch_contrast: Vec<f32>,
    /// Mean alignment loss per epoch.
    pub epoch_align: Vec<f32>,
    /// Mean total loss per epoch.
    pub epoch_total: Vec<f32>,
    /// Validation contrastive loss per epoch (empty when
    /// `validation_frac == 0`).
    pub epoch_validation: Vec<f32>,
    /// Number of optimizer steps taken.
    pub n_steps: usize,
    /// Wall-clock training time.
    pub wall_time: Duration,
}

impl TrainingReport {
    /// Renders the learning curve as a small ASCII chart (one line per
    /// epoch) — the headless stand-in for the GUI's loss plot. When the
    /// validation hold-out was enabled, each line also carries the
    /// held-out contrastive loss (`val` column); without it the layout is
    /// unchanged.
    pub fn learning_curve_ascii(&self) -> String {
        let max = self
            .epoch_total
            .iter()
            .copied()
            .fold(f32::MIN, f32::max)
            .max(1e-9);
        let has_val = self.epoch_validation.len() == self.epoch_total.len();
        let mut out = String::new();
        for (e, &l) in self.epoch_total.iter().enumerate() {
            let bar = "#".repeat(((l / max) * 40.0).round() as usize);
            if has_val {
                let v = self.epoch_validation[e];
                out.push_str(&format!(
                    "epoch {e:>3}  total {l:>8.4}  val {v:>8.4}  {bar}\n"
                ));
            } else {
                out.push_str(&format!("epoch {e:>3}  total {l:>8.4}  {bar}\n"));
            }
        }
        out
    }
}

/// Splits a shuffled index order into training batches. Plain
/// `chunks(batch_size)` can leave a trailing singleton that NT-Xent cannot
/// use (it needs at least one negative), which would silently drop that
/// series from every epoch — instead the leftover is folded into the
/// previous batch, so every series trains every epoch.
fn epoch_batches(order: &[usize], batch_size: usize) -> Vec<Vec<usize>> {
    let mut chunks: Vec<Vec<usize>> = order.chunks(batch_size).map(<[usize]>::to_vec).collect();
    if chunks.len() >= 2 && chunks.last().is_some_and(|c| c.len() < 2) {
        let tail = chunks.pop().unwrap();
        chunks.last_mut().unwrap().extend(tail);
    }
    chunks
}

/// The forward pass of one batch's view pairs, up to the pair graphs.
enum BatchPoolings {
    /// Every crop's finished poolings, `[series][2·pair + view][group]`,
    /// pooled once per series against the parameter snapshot.
    Fused(Vec<Vec<Vec<Arc<ShapeletDistanceOp>>>>),
    /// [`DiffPath::Oracle`]: each pair builds its views itself.
    Oracle,
}

impl BatchPoolings {
    /// Fan-out 1: pools every crop of every series of `indices` (the
    /// series `pairs` was sampled from), one series per work item.
    fn new(
        ps: &ParamStore,
        bank: &ShapeletBank,
        cfg: &CslConfig,
        ds: &Dataset,
        indices: &[usize],
        pairs: &[ViewPair],
    ) -> BatchPoolings {
        if cfg.diff_path == DiffPath::Oracle {
            return BatchPoolings::Oracle;
        }
        let pre: Vec<_> = (0..ps.len())
            .map(|i| GroupPrecomp::of(ps.get(i), bank.d))
            .collect();
        BatchPoolings::Fused(parallel_map(indices.len(), |i| {
            let series = ds.series(indices[i]).values();
            let crops: Vec<(usize, &Tensor)> = pairs
                .iter()
                .flat_map(|p| {
                    [
                        (p.starts_a[i], &p.views_a[i]),
                        (p.starts_b[i], &p.views_b[i]),
                    ]
                })
                .collect();
            // One cache spans every crop of the series, so identical crops
            // (the full-grain pair) share their window state.
            let mut cache = WindowCache::new();
            pool_series_crops(bank, &pre, series, &crops, &mut cache)
        }))
    }

    /// Both views of pair `p` as `(B, D_repr)` feature nodes of `g`: all
    /// first views, then all second views, each row one series' groups in
    /// bank order — the node order of the per-view path, so the tape sums
    /// gradients in the same order.
    fn views(
        &self,
        g: &mut Graph,
        bank: &ShapeletBank,
        bound: &BoundBank,
        pairs: &[ViewPair],
        p: usize,
    ) -> (VarId, VarId) {
        match self {
            BatchPoolings::Fused(series) => {
                let mut side = |view: usize| {
                    let rows: Vec<VarId> = series
                        .iter()
                        .map(|crops| diff_features_pooled(g, bound, &crops[2 * p + view]))
                        .collect();
                    g.concat_rows(&rows)
                };
                let za = side(0);
                let zb = side(1);
                (za, zb)
            }
            BatchPoolings::Oracle => {
                let za = diff_features_batch_oracle(g, bank, bound, &pairs[p].views_a);
                let zb = diff_features_batch_oracle(g, bank, bound, &pairs[p].views_b);
                (za, zb)
            }
        }
    }
}

/// One worker unit of data-parallel pre-training: a single view pair's
/// losses and gradients against a shared read-only parameter snapshot,
/// from its own tape, so any number of these run concurrently.
pub(crate) struct PairGrad {
    pub(crate) contrast: f32,
    pub(crate) align: f32,
    pub(crate) grads: Vec<Tensor>,
}

/// Every pair's losses and gradients, in pair order: fan-out 1 pools the
/// batch's crops, fan-out 2 runs one [`pair_forward_backward`] per pair.
pub(crate) fn batch_pair_grads(
    ps: &ParamStore,
    bank: &ShapeletBank,
    cfg: &CslConfig,
    ds: &Dataset,
    indices: &[usize],
    pairs: &[ViewPair],
) -> Vec<PairGrad> {
    let pooled = BatchPoolings::new(ps, bank, cfg, ds, indices, pairs);
    parallel_map(pairs.len(), |p| {
        pair_forward_backward(ps, bank, cfg, &pooled, pairs, p)
    })
}

fn pair_forward_backward(
    ps: &ParamStore,
    bank: &ShapeletBank,
    cfg: &CslConfig,
    pooled: &BatchPoolings,
    pairs: &[ViewPair],
    p: usize,
) -> PairGrad {
    let mut g = Graph::new();
    let bound = BoundBank {
        group_vars: ps.bind(&mut g),
    };
    let (za, zb) = pooled.views(&mut g, bank, &bound, pairs, p);
    let contrast = nt_xent(&mut g, za, zb, cfg.temperature);
    let (align_val, loss) = if cfg.alignment_weight > 0.0 {
        let align = multi_scale_alignment(&mut g, bank, za);
        let weighted = g.mul_scalar(align, cfg.alignment_weight);
        let loss = g.add(contrast, weighted);
        (g.value(align).item(), loss)
    } else {
        (0.0, contrast)
    };
    let contrast_val = g.value(contrast).item();
    let mut grads = g.backward(loss);
    let gvec = ps.collect_grads(&mut grads, &bound.group_vars);
    PairGrad {
        contrast: contrast_val,
        align: align_val,
        grads: gvec,
    }
}

/// Runs CSL pre-training, updating `bank` in place. The bank must already
/// be initialized (see [`tcsl_shapelet::init::init_from_data`]); the
/// high-level entry point [`crate::pipeline::TimeCsl::pretrain`] does both.
///
/// # Panics
///
/// Panics when the dataset has fewer than two series, when
/// `validation_frac` holds out so much that fewer than two series remain to
/// train on, or — as a backstop — when an epoch completes without a single
/// optimizer step (training would otherwise silently no-op and report
/// `0.0` losses).
pub fn pretrain(bank: &mut ShapeletBank, ds: &Dataset, cfg: &CslConfig) -> TrainingReport {
    // Training is a panicking layer (see DESIGN.md "Error taxonomy & panic
    // policy"): surface the typed config error as a loud invariant failure.
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    assert!(
        ds.len() >= 2,
        "contrastive pre-training needs at least two series"
    );
    assert_eq!(ds.n_vars(), bank.d, "dataset/bank variable count mismatch");

    let mut rng = seeded(cfg.seed);

    // Optional validation hold-out: the last series of a fixed shuffle.
    // Whenever validation is requested the hold-out must have at least two
    // series (the validation NT-Xent needs a negative), and at least two
    // must remain to train on — otherwise the curve would silently stay
    // empty (or training would no-op), so reject the configuration loudly.
    let n_val = if cfg.validation_frac > 0.0 {
        (((ds.len() as f32) * cfg.validation_frac).round() as usize).max(2)
    } else {
        0
    };
    assert!(
        ds.len() >= n_val + 2,
        "validation_frac {} holds out {n_val} of {} series, leaving fewer than two to train \
         on — use a larger dataset or disable validation",
        cfg.validation_frac,
        ds.len()
    );
    let split = permutation(&mut rng, ds.len());
    let (train_idx, val_idx) = split.split_at(ds.len() - n_val);
    let train_idx: Vec<usize> = train_idx.to_vec();
    let val_idx: Vec<usize> = val_idx.to_vec();

    let mut ps = ParamStore::new();
    for (i, grp) in bank.groups().iter().enumerate() {
        ps.register(format!("group{i}"), grp.shapelets.clone());
    }
    let mut opt = Adam::new(cfg.learning_rate);

    let run_span = tcsl_obs::spans::span("pretrain");
    let start = Instant::now();
    // Baseline for per-epoch peak-alloc reporting. Read-only: resetting the
    // shared counters here would clobber an enclosing `alloc_profile` (the
    // bench binaries profile whole pretrain calls).
    let live0 = tcsl_obs::alloc_track::live_bytes();
    let mut report = TrainingReport {
        epoch_contrast: Vec::with_capacity(cfg.epochs),
        epoch_align: Vec::with_capacity(cfg.epochs),
        epoch_total: Vec::with_capacity(cfg.epochs),
        epoch_validation: Vec::new(),
        n_steps: 0,
        wall_time: Duration::ZERO,
    };

    for epoch in 0..cfg.epochs {
        let epoch_span = tcsl_obs::spans::span("epoch");
        let epoch_start = Instant::now();
        // Parameter snapshot for the update-magnitude telemetry — only
        // cloned when tracing is on.
        let params_before: Option<Vec<Tensor>> =
            tcsl_obs::enabled().then(|| (0..ps.len()).map(|i| ps.get(i).clone()).collect());
        let order: Vec<usize> = {
            let p = permutation(&mut rng, train_idx.len());
            p.into_iter().map(|i| train_idx[i]).collect()
        };
        let mut sums = (0.0f64, 0.0f64, 0.0f64);
        let mut batches = 0usize;
        let mut epoch_pairs = 0usize;
        let mut grad_norm_sum = 0.0f64;
        for chunk in epoch_batches(&order, cfg.batch_size) {
            if chunk.len() < 2 {
                continue; // NT-Xent needs at least one negative.
            }
            let _batch_span = tcsl_obs::spans::span("batch");
            // Batch latency (host-class) and batch-size (deterministic —
            // the sampled pair count is a function of the epoch partition
            // alone) distributions for the run summary.
            let _batch_timer = tcsl_obs::hist::TRAINER_BATCH_NS.start_timer();
            // View sampling stays on the main-thread RNG — the sampled
            // crops are identical at any thread count.
            let pairs = sample_views(ds, &chunk, &cfg.grains, cfg.min_crop, &mut rng);
            tcsl_obs::counters::TRAINER_PAIRS.add(pairs.len() as u64);
            tcsl_obs::hist::TRAINER_BATCH_PAIRS.record(pairs.len() as u64);
            epoch_pairs += pairs.len();

            // Fan out twice on the shared persistent pool: pool every
            // series' crops, then one independent subgraph per pair.
            // `parallel_map` returns results in item order whatever the
            // schedule, and a worker panic re-raises here without killing
            // the pool for the next batch.
            //
            // A non-finite feature value trips the tape's finiteness check
            // deep inside a worker, where the panic names the op but not
            // *when* training derailed. Catch it here to attach the
            // epoch/batch context (and the structured event) before
            // re-raising; unrelated panics resume untouched.
            let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                batch_pair_grads(&ps, bank, cfg, ds, &chunk, &pairs)
            }));
            let results = match forward {
                Ok(r) => r,
                Err(payload) => {
                    let detail = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("unknown panic");
                    if detail.contains("non-finite") {
                        tcsl_obs::trace::emit(
                            tcsl_obs::trace::Event::new("non_finite_loss")
                                .u64("epoch", epoch as u64)
                                .u64("batch", batches as u64)
                                .str("detail", detail),
                        );
                        panic!(
                            "non-finite training state at epoch {epoch}, batch {batches}: \
                             {detail} — check the input series for NaN/inf values or lower \
                             the learning rate"
                        );
                    }
                    std::panic::resume_unwind(payload);
                }
            };

            // Reduce in fixed pair order (f32 addition is not associative;
            // a fixed order is what keeps training deterministic).
            let inv = 1.0 / results.len() as f32;
            let mut acc = ps.grad_accumulator();
            let (mut csum, mut asum) = (0.0f32, 0.0f32);
            for r in &results {
                acc.accumulate(&r.grads);
                csum += r.contrast;
                asum += r.align;
            }
            let contrast_mean = csum * inv;
            let align_mean = asum * inv;
            let total = contrast_mean + align_mean * cfg.alignment_weight;

            let gvec = acc.into_mean();
            // Guard *before* the optimizer step: once a NaN/inf loss or
            // gradient reaches Adam every parameter is poisoned, and the
            // old failure mode was a contextless downstream panic. The
            // fixed-order f64 sum keeps the reported norm deterministic.
            let grad_norm = gvec
                .iter()
                .flat_map(|t| t.as_slice())
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
                .sqrt();
            if !total.is_finite() || !grad_norm.is_finite() {
                tcsl_obs::trace::emit(
                    tcsl_obs::trace::Event::new("non_finite_loss")
                        .u64("epoch", epoch as u64)
                        .u64("batch", batches as u64)
                        .f32("contrast", contrast_mean)
                        .f32("align", align_mean)
                        .f32("total", total)
                        .f64("grad_norm", grad_norm),
                );
                panic!(
                    "non-finite training state at epoch {epoch}, batch {batches}: \
                     loss total={total} (contrast={contrast_mean}, align={align_mean}), \
                     gradient norm={grad_norm} — check the input series for NaN/inf values \
                     or lower the learning rate"
                );
            }
            grad_norm_sum += grad_norm;

            sums.0 += contrast_mean as f64;
            if cfg.alignment_weight > 0.0 {
                sums.1 += align_mean as f64;
            }
            sums.2 += total as f64;
            batches += 1;

            opt.step(&mut ps, &gvec);
            report.n_steps += 1;
        }
        assert!(
            batches > 0,
            "pre-training epoch took zero optimizer steps ({} training series, batch_size {}) \
             — the run would silently no-op",
            train_idx.len(),
            cfg.batch_size
        );
        let n = batches as f64;
        report.epoch_contrast.push((sums.0 / n) as f32);
        report.epoch_align.push((sums.1 / n) as f32);
        report.epoch_total.push((sums.2 / n) as f32);

        // Validation: contrastive loss on held-out series, fixed sampling
        // per epoch, no gradient step. Pairs are scored on worker threads
        // (values only), mean taken in pair order on the main thread.
        if !val_idx.is_empty() {
            let _val_span = tcsl_obs::spans::span("validate");
            let mut vrng = seeded(cfg.seed ^ 0xA11DA7); // fixed validation stream
            let pairs = sample_views(ds, &val_idx, &cfg.grains, cfg.min_crop, &mut vrng);
            tcsl_obs::counters::TRAINER_PAIRS.add(pairs.len() as u64);
            let pooled = BatchPoolings::new(&ps, bank, cfg, ds, &val_idx, &pairs);
            let vals = parallel_map(pairs.len(), |p| {
                let mut g = Graph::new();
                let bound = BoundBank {
                    group_vars: ps.bind(&mut g),
                };
                let (za, zb) = pooled.views(&mut g, bank, &bound, &pairs, p);
                let v = nt_xent(&mut g, za, zb, cfg.temperature);
                g.value(v).item()
            });
            let mean = vals.iter().sum::<f32>() * (1.0 / vals.len() as f32);
            report.epoch_validation.push(mean);
        }

        // Per-epoch structured event. Losses, gradient norm, update
        // magnitude and counts are deterministic (fixed-order reductions
        // over input-determined work); `secs`, `series_per_sec` and
        // `peak_alloc_mb` are wall-clock/host quantities — the determinism
        // test excludes exactly those field names.
        if tcsl_obs::enabled() {
            let update_mag = params_before
                .map(|before| {
                    let mut sq = 0.0f64;
                    for (i, old) in before.iter().enumerate() {
                        sq += old
                            .as_slice()
                            .iter()
                            .zip(ps.get(i).as_slice())
                            .map(|(&a, &b)| f64::from(b - a) * f64::from(b - a))
                            .sum::<f64>();
                    }
                    sq.sqrt()
                })
                .unwrap_or(0.0);
            let secs = epoch_start.elapsed().as_secs_f64();
            let peak_mb = tcsl_obs::alloc_track::peak_bytes().saturating_sub(live0) as f64
                / (1024.0 * 1024.0);
            let mut ev = tcsl_obs::trace::Event::new("epoch")
                .u64("epoch", epoch as u64)
                .f32("contrast", *report.epoch_contrast.last().unwrap())
                .f32("align", *report.epoch_align.last().unwrap())
                .f32("total", *report.epoch_total.last().unwrap());
            if let Some(&v) = report.epoch_validation.last() {
                ev = ev.f32("validation", v);
            }
            tcsl_obs::trace::emit(
                ev.f64("grad_norm", grad_norm_sum / n)
                    .f64("update_mag", update_mag)
                    .u64("n_series", train_idx.len() as u64)
                    .u64("n_pairs", epoch_pairs as u64)
                    .f64("secs", secs)
                    .f64("series_per_sec", train_idx.len() as f64 / secs.max(1e-12))
                    .f64("peak_alloc_mb", peak_mb),
            );
        }
        drop(epoch_span);
    }
    drop(run_span);

    // Persist learned shapelets back into the bank.
    let values: Vec<_> = (0..ps.len()).map(|i| ps.get(i).clone()).collect();
    write_back(bank, &values);
    report.wall_time = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_data::archive;
    use tcsl_shapelet::{init::init_from_data, Measure, ShapeletConfig};

    fn small_setup() -> (ShapeletBank, Dataset) {
        let entry = archive::by_name("MotifEasy").unwrap();
        let (train, _) = archive::generate_split(&entry, 3);
        let train = train.znormed();
        let cfg = ShapeletConfig {
            lengths: vec![8, 16],
            k_per_group: 4,
            measures: vec![Measure::Euclidean, Measure::Cosine],
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, 1);
        init_from_data(&mut bank, &train, 4, &mut seeded(1));
        (bank, train)
    }

    #[test]
    fn loss_decreases_over_training() {
        let (mut bank, train) = small_setup();
        let cfg = CslConfig {
            epochs: 6,
            batch_size: 10,
            grains: vec![0.7, 1.0],
            learning_rate: 0.05,
            seed: 5,
            ..Default::default()
        };
        let report = pretrain(&mut bank, &train, &cfg);
        assert_eq!(report.epoch_total.len(), 6);
        let first = report.epoch_total[0];
        let last = *report.epoch_total.last().unwrap();
        assert!(
            last < first,
            "training did not reduce the loss: {first} → {last}"
        );
        assert!(report.n_steps > 0);
        assert!(report.wall_time.as_nanos() > 0);
    }

    #[test]
    fn shapelets_actually_move() {
        let (mut bank, train) = small_setup();
        let before: Vec<_> = bank.groups().iter().map(|g| g.shapelets.clone()).collect();
        let cfg = CslConfig {
            epochs: 2,
            batch_size: 8,
            grains: vec![1.0],
            seed: 2,
            ..Default::default()
        };
        pretrain(&mut bank, &train, &cfg);
        let moved = bank
            .groups()
            .iter()
            .zip(&before)
            .any(|(g, b)| g.shapelets.max_abs_diff(b) > 1e-4);
        assert!(moved, "no shapelet changed during training");
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let (bank0, train) = small_setup();
        let cfg = CslConfig {
            epochs: 2,
            batch_size: 8,
            seed: 7,
            ..CslConfig::fast()
        };
        let mut b1 = bank0.clone();
        let mut b2 = bank0.clone();
        let r1 = pretrain(&mut b1, &train, &cfg);
        let r2 = pretrain(&mut b2, &train, &cfg);
        assert_eq!(r1.epoch_total, r2.epoch_total);
        for (g1, g2) in b1.groups().iter().zip(b2.groups()) {
            assert!(g1.shapelets.max_abs_diff(&g2.shapelets) < 1e-6);
        }
    }

    #[test]
    fn epoch_batches_folds_trailing_singleton() {
        // Regression: a trailing chunk of one series was skipped every
        // epoch, so the last series under misaligned splits never trained.
        let order: Vec<usize> = (0..9).collect();
        let batches = epoch_batches(&order, 4);
        assert_eq!(batches, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7, 8]]);
        // Aligned splits are untouched.
        let order: Vec<usize> = (0..8).collect();
        assert_eq!(epoch_batches(&order, 4).len(), 2);
        assert!(epoch_batches(&order, 4).iter().all(|b| b.len() == 4));
        // A single undersized chunk cannot be folded anywhere.
        assert_eq!(epoch_batches(&[7], 4), vec![vec![7]]);
        // Exactly batch_size + 1 becomes one larger batch.
        let order: Vec<usize> = (0..5).collect();
        assert_eq!(epoch_batches(&order, 4), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn misaligned_split_trains_every_series_and_steps_every_batch() {
        let (mut bank, train) = small_setup();
        // Pick a batch size so that len % batch_size == 1 (the old code's
        // dropped-series case) — and assert the step count matches the
        // folded batch layout exactly.
        let n = train.len();
        let batch_size = n - 1; // chunks: [n-1, 1] → folded: [n]
        let cfg = CslConfig {
            epochs: 2,
            batch_size,
            grains: vec![1.0],
            seed: 9,
            ..Default::default()
        };
        let report = pretrain(&mut bank, &train, &cfg);
        assert_eq!(report.n_steps, 2, "one folded batch per epoch expected");
        assert!(report.epoch_total.iter().all(|l| *l != 0.0));
    }

    #[test]
    #[should_panic(expected = "leaving fewer than two to train")]
    fn validation_that_starves_training_is_rejected() {
        // Regression: ds.len() == 3 with a small validation_frac used to
        // yield a 1-series hold-out that failed the >= 2 guard silently —
        // now the configuration is rejected loudly.
        let (mut bank, train) = small_setup();
        let three = train.subset(&[0, 1, 2], "three");
        let cfg = CslConfig {
            epochs: 1,
            validation_frac: 0.2,
            ..CslConfig::fast()
        };
        pretrain(&mut bank, &three, &cfg);
    }

    #[test]
    fn tiny_validation_fraction_still_holds_out_two() {
        // Regression: round(len * frac) could be 0, silently disabling the
        // requested validation curve.
        let (mut bank, train) = small_setup();
        let cfg = CslConfig {
            epochs: 2,
            batch_size: 8,
            grains: vec![1.0],
            validation_frac: 0.01, // rounds to 0 series on this dataset
            seed: 6,
            ..Default::default()
        };
        let report = pretrain(&mut bank, &train, &cfg);
        assert_eq!(report.epoch_validation.len(), 2);
        assert!(report.epoch_validation.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn training_is_thread_count_invariant() {
        // The determinism contract of the data-parallel trainer: view
        // sampling stays on the main-thread RNG and gradients reduce in
        // fixed pair order, so serial (TCSL_THREADS=1) and oversubscribed
        // multi-threaded runs are bit-for-bit identical. Both runs happen
        // inside one test so the env var is never left set for others.
        let (bank0, train) = small_setup();
        let cfg = CslConfig {
            epochs: 2,
            batch_size: 8,
            validation_frac: 0.2,
            seed: 11,
            ..CslConfig::fast()
        };
        let run = |threads: Option<&str>| {
            match threads {
                Some(t) => std::env::set_var("TCSL_THREADS", t),
                None => std::env::remove_var("TCSL_THREADS"),
            }
            let mut b = bank0.clone();
            let r = pretrain(&mut b, &train, &cfg);
            std::env::remove_var("TCSL_THREADS");
            (b, r)
        };
        let (b1, r1) = run(Some("1"));
        let (b4, r4) = run(Some("4"));
        let (bd, rd) = run(None);
        assert_eq!(r1.epoch_total, r4.epoch_total);
        assert_eq!(r1.epoch_contrast, r4.epoch_contrast);
        assert_eq!(r1.epoch_align, r4.epoch_align);
        assert_eq!(r1.epoch_validation, r4.epoch_validation);
        assert_eq!(r1.epoch_total, rd.epoch_total);
        assert_eq!(r1.epoch_validation, rd.epoch_validation);
        for (g1, g4) in b1.groups().iter().zip(b4.groups()) {
            assert_eq!(
                g1.shapelets, g4.shapelets,
                "shapelets differ across thread counts"
            );
        }
        for (g1, gd) in b1.groups().iter().zip(bd.groups()) {
            assert_eq!(g1.shapelets, gd.shapelets);
        }
    }

    #[test]
    fn fused_and_oracle_training_paths_agree() {
        // Training through the custom-op kernel and through the eager
        // oracle graph follows the same optimization trajectory: the
        // gradients agree to float tolerance, so short runs must produce
        // near-identical learning curves and shapelets.
        use tcsl_shapelet::diff_transform::DiffPath;
        let (bank0, train) = small_setup();
        let mk = |path| CslConfig {
            epochs: 2,
            batch_size: 8,
            grains: vec![0.7, 1.0],
            seed: 13,
            diff_path: path,
            ..Default::default()
        };
        let mut bf = bank0.clone();
        let rf = pretrain(&mut bf, &train, &mk(DiffPath::Fused));
        let mut bo = bank0.clone();
        let ro = pretrain(&mut bo, &train, &mk(DiffPath::Oracle));
        for (f, o) in rf.epoch_total.iter().zip(&ro.epoch_total) {
            assert!((f - o).abs() < 1e-3, "epoch loss diverged: {f} vs {o}");
        }
        for (gf, go) in bf.groups().iter().zip(bo.groups()) {
            assert!(
                gf.shapelets.max_abs_diff(&go.shapelets) < 1e-3,
                "trained shapelets diverged across diff paths"
            );
        }
    }

    #[test]
    fn validation_curve_is_tracked_when_requested() {
        let (mut bank, train) = small_setup();
        let cfg = CslConfig {
            epochs: 3,
            batch_size: 8,
            grains: vec![1.0],
            validation_frac: 0.2,
            seed: 4,
            ..Default::default()
        };
        let report = pretrain(&mut bank, &train, &cfg);
        assert_eq!(report.epoch_validation.len(), 3);
        assert!(report.epoch_validation.iter().all(|l| l.is_finite()));
        // Without validation the curve stays empty.
        let (mut bank2, _) = small_setup();
        let cfg0 = CslConfig {
            validation_frac: 0.0,
            ..cfg
        };
        let report = pretrain(&mut bank2, &train, &cfg0);
        assert!(report.epoch_validation.is_empty());
    }

    #[test]
    fn learning_curve_renders() {
        let report = TrainingReport {
            epoch_contrast: vec![1.0, 0.5],
            epoch_align: vec![0.1, 0.05],
            epoch_total: vec![1.05, 0.525],
            epoch_validation: vec![],
            n_steps: 10,
            wall_time: Duration::from_millis(5),
        };
        let chart = report.learning_curve_ascii();
        assert!(chart.contains("epoch   0"));
        assert!(chart.lines().count() == 2);
        // No hold-out: no validation column (the pre-fix layout).
        assert!(!chart.contains("val "));
    }

    #[test]
    fn learning_curve_renders_validation_column() {
        // Regression: the chart silently ignored epoch_validation, so a
        // run with the hold-out enabled plotted only the training loss.
        let report = TrainingReport {
            epoch_contrast: vec![1.0, 0.5],
            epoch_align: vec![0.1, 0.05],
            epoch_total: vec![1.05, 0.525],
            epoch_validation: vec![1.2, 0.9],
            n_steps: 10,
            wall_time: Duration::from_millis(5),
        };
        let chart = report.learning_curve_ascii();
        assert_eq!(chart.lines().count(), 2);
        // Pin the exact line shape: epoch, total, val, then the bar.
        let first = chart.lines().next().unwrap();
        assert!(
            first.starts_with("epoch   0  total   1.0500  val   1.2000  "),
            "unexpected layout: {first:?}"
        );
        assert!(first.ends_with(&"#".repeat(40)), "bar lost: {first:?}");
        assert!(chart.lines().all(|l| l.contains("  val ")));
    }

    fn poisoned_setup() -> (ShapeletBank, Dataset, CslConfig) {
        use tcsl_data::TimeSeries;
        // Clean data to initialize a sane bank, then a NaN-poisoned series
        // in the training set itself.
        let mut series: Vec<TimeSeries> = (0..4)
            .map(|s| {
                TimeSeries::univariate((0..32).map(|t| ((s + t) as f32 * 0.37).sin()).collect())
            })
            .collect();
        let clean = Dataset::unlabeled("clean", series.clone());
        let cfg = ShapeletConfig {
            lengths: vec![8],
            k_per_group: 2,
            measures: vec![Measure::Euclidean],
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, 1);
        init_from_data(&mut bank, &clean, 2, &mut seeded(1));
        // Values this large overflow the squared-distance computation to
        // +inf, which survives the Euclidean pooling (raw NaN inputs are
        // absorbed by an `f32::max` in the kernel and come out as the
        // epsilon floor instead — overflow is the poison that actually
        // propagates to the features).
        series[1] = TimeSeries::univariate(vec![1.0e20; 32]);
        let ds = Dataset::unlabeled("poisoned", series);
        let train_cfg = CslConfig {
            epochs: 1,
            batch_size: 4,
            grains: vec![1.0],
            seed: 3,
            ..CslConfig::fast()
        };
        (bank, ds, train_cfg)
    }

    #[test]
    #[should_panic(expected = "non-finite training state at epoch 0, batch 0")]
    fn poisoned_input_panics_with_epoch_and_batch() {
        let (mut bank, ds, cfg) = poisoned_setup();
        pretrain(&mut bank, &ds, &cfg);
    }

    #[test]
    fn poisoned_input_emits_non_finite_event() {
        let (mut bank, ds, cfg) = poisoned_setup();
        // Memory sink first, then enable: no trace file must appear.
        tcsl_obs::trace::use_memory_sink();
        tcsl_obs::set_enabled(true);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pretrain(&mut bank, &ds, &cfg)
        }));
        tcsl_obs::set_enabled(false);
        let events = tcsl_obs::trace::take_events();
        tcsl_obs::trace::reset_sink();
        assert!(result.is_err(), "poisoned input must abort training");
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
        // panic (debug builds) or the non-finite loss/grad values (release
        // builds, where the tape's debug_assert is compiled out).
        let has_context = match (ev.field("detail"), ev.field("total")) {
            (Some(Value::Str(d)), _) => d.contains("non-finite"),
            (None, Some(Value::F64(v))) => !v.is_finite(),
            _ => false,
        };
        assert!(has_context, "event lacks failure context: {ev:?}");
    }

    #[test]
    #[should_panic(expected = "at least two series")]
    fn single_series_rejected() {
        let (mut bank, train) = small_setup();
        let one = train.subset(&[0], "one");
        pretrain(&mut bank, &one, &CslConfig::fast());
    }
}
