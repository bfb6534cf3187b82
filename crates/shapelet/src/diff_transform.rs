//! Differentiable shapelet transform for training.
//!
//! Gradients only flow to the *shapelets* (and any head stacked on top) —
//! never to the input series — so each (series, group) feature block is one
//! [`ShapeletDistanceOp`] tape node built from a finished pooling: the same
//! fused streaming kernel as inference computes the pooled values and best
//! windows, and the node's backward applies an arg-routed analytic rule to
//! the best windows, so training never materializes the `(N_w × D·len)`
//! window matrix. There are two ways to get the poolings:
//!
//! * **per view** — [`diff_features_cached`] and its batch forms pool each
//!   series against the values bound in the graph, sharing window state
//!   through a [`WindowCache`];
//! * **per series, for many crops** — [`pool_series_crops`] pools every
//!   crop of one series with one scan of the series' time-major buffer per
//!   group ([`pool_crops`](crate::fused::pool_crops)), against a
//!   precomputation of the parameter values the ops will be bound to;
//!   [`diff_features_pooled`] then inserts one crop's ops as a feature row.
//!   The trainer runs the first per series on the worker pool and the
//!   second per view pair. Both ways give the same bits.
//!
//! The original eager-graph formulation — windows materialized into a
//! constant leaf, distances assembled from `matmul`/`relu`/`min_axis` ops —
//! survives unchanged as the [`oracle`] module. It is the reference the
//! fused path's values and gradients are pinned against in tests, and
//! stays selectable at runtime via [`DiffPath`] so benchmarks can compare
//! the two.
//!
//! The numerics match [`crate::transform`] exactly (verified by tests): the
//! same features come out of both paths, so a bank trained here can be used
//! by the fast path directly.

use std::sync::Arc;

use crate::bank::{GroupPrecomp, ShapeletBank};
use crate::diff_op::ShapeletDistanceOp;
use crate::fused::{pool_crops_in, ScaleWindows};
use tcsl_autodiff::{Graph, VarId};
use tcsl_tensor::window::time_major;
use tcsl_tensor::Tensor;

/// Which implementation of the differentiable transform to run.
///
/// Both produce matching features and gradients (pinned by proptests);
/// they differ in cost: [`DiffPath::Fused`] streams windows through the
/// custom op, [`DiffPath::Oracle`] materializes an `(N_w × D·len)` window
/// matrix per scale per series. The oracle exists for parity testing and
/// old-vs-new benchmarking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DiffPath {
    /// Custom-op path over the fused streaming kernel (the default).
    #[default]
    Fused,
    /// Reference eager-graph path (`unfold` + matmul leaves).
    Oracle,
}

/// Shapelet parameters bound into a graph: one `VarId` per group, in bank
/// order.
pub struct BoundBank {
    /// Group parameter nodes.
    pub group_vars: Vec<VarId>,
}

/// Binds every group's shapelet matrix as a trainable parameter.
pub fn bind_trainable(g: &mut Graph, bank: &ShapeletBank) -> BoundBank {
    BoundBank {
        group_vars: bank
            .groups()
            .iter()
            .map(|grp| g.param(grp.shapelets.clone()))
            .collect(),
    }
}

/// Binds a snapshot of shapelet values (one tensor per group, in bank
/// order) as trainable parameters. This is the worker-side entry point of
/// data-parallel training: each worker thread owns its own [`Graph`] and
/// binds the same shared read-only snapshot (e.g. a `ParamStore`'s current
/// values), so all workers differentiate against identical parameters.
pub fn bind_values(g: &mut Graph, values: &[Tensor]) -> BoundBank {
    BoundBank {
        group_vars: values.iter().map(|v| g.param(v.clone())).collect(),
    }
}

/// Binds every group's shapelet matrix as a frozen constant (freezing mode
/// with a differentiable head on top).
pub fn bind_frozen(g: &mut Graph, bank: &ShapeletBank) -> BoundBank {
    BoundBank {
        group_vars: bank
            .groups()
            .iter()
            .map(|grp| g.leaf(grp.shapelets.clone()))
            .collect(),
    }
}

/// Cache of series-side window state, shared across poolings.
///
/// One [`ScaleWindows`] is an `O(D·T)` pass (time-major padded copy +
/// prefix-sum norms); every (scale, measure) group of the bank needs one,
/// and the *same* series value recurs: the groups of one scale share it,
/// and in contrastive training full-grain crops of a series are
/// bit-identical. The caller picks the scope, for example a batch of
/// views. Entries are keyed by `(len, stride)` plus value equality of the
/// series, so a hit requires the cached buffer to start with exactly the
/// series' values (the [`ScaleWindows`] is a pure function of those three,
/// so equal keys mean an equal result).
///
/// The cache hands out `Arc`s; a [`ShapeletDistanceOp`] keeps only the
/// window buffer alive, never the norms.
#[derive(Default)]
pub struct WindowCache {
    entries: Vec<Arc<ScaleWindows>>,
    hits: usize,
    misses: usize,
}

impl WindowCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the window state for `(series, len, stride)`, computing and
    /// retaining it on first use.
    pub fn get(&mut self, series: &Tensor, len: usize, stride: usize) -> Arc<ScaleWindows> {
        self.lookup(
            |sw| holds(sw, series, len, stride),
            || ScaleWindows::new(series, len, stride),
        )
    }

    fn lookup(
        &mut self,
        hit: impl Fn(&ScaleWindows) -> bool,
        make: impl FnOnce() -> ScaleWindows,
    ) -> Arc<ScaleWindows> {
        if let Some(sw) = self.entries.iter().find(|sw| hit(sw)) {
            self.hits += 1;
            tcsl_obs::counters::WINDOW_CACHE_HIT.add(1);
            return Arc::clone(sw);
        }
        self.misses += 1;
        tcsl_obs::counters::WINDOW_CACHE_MISS.add(1);
        let sw = Arc::new(make());
        self.entries.push(Arc::clone(&sw));
        sw
    }

    /// Cache hits so far (same series value, scale and stride seen before).
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache misses so far (each one computed a fresh [`ScaleWindows`]).
    pub fn misses(&self) -> usize {
        self.misses
    }
}

/// Whether `sw` is the window state of `series` at `(len, stride)`.
fn holds(sw: &ScaleWindows, series: &Tensor, len: usize, stride: usize) -> bool {
    // The buffer zero-extends the series at the tail, so equality over its
    // first `cols` steps is value equality of the series itself.
    let d = series.rows();
    let steps = || sw.series.as_slice()[sw.start * d..(sw.start + sw.cols) * d].chunks_exact(d);
    sw.matches(len, stride)
        && sw.cols == series.cols()
        && sw.d() == d
        && (0..d).all(|v| steps().map(|s| s[v]).eq(series.row(v).iter().copied()))
}

/// Builds the feature row `(1, D_repr)` of one series against the bound
/// bank, sharing window state through `cache`. Pass the same cache across
/// the series of a batch (and across the views of a contrastive pair) to
/// reuse padded buffers and prefix-sum norms wherever series values repeat.
pub fn diff_features_cached(
    g: &mut Graph,
    bank: &ShapeletBank,
    bound: &BoundBank,
    series: &Tensor,
    cache: &mut WindowCache,
) -> VarId {
    assert_eq!(series.rows(), bank.d, "series/bank variable count mismatch");
    let mut parts: Vec<VarId> = Vec::with_capacity(bank.groups().len());
    for (gi, grp) in bank.groups().iter().enumerate() {
        let sw = cache.get(series, grp.len, grp.stride);
        let pre = GroupPrecomp::of(g.value(bound.group_vars[gi]), bank.d);
        let op = Arc::new(ShapeletDistanceOp::pool(grp.measure, &sw, &pre));
        let pooled = g.custom(op, &[bound.group_vars[gi]]);
        parts.push(pooled);
    }
    g.concat_cols(&parts)
}

/// Builds the feature row `(1, D_repr)` of one series against the bound
/// bank. `series` is the raw `(D, T)` value tensor.
pub fn diff_features(
    g: &mut Graph,
    bank: &ShapeletBank,
    bound: &BoundBank,
    series: &Tensor,
) -> VarId {
    let mut cache = WindowCache::new();
    diff_features_cached(g, bank, bound, series, &mut cache)
}

/// Builds the `(B, D_repr)` feature matrix of a batch of series, sharing
/// window state through `cache`.
pub fn diff_features_batch_cached(
    g: &mut Graph,
    bank: &ShapeletBank,
    bound: &BoundBank,
    batch: &[Tensor],
    cache: &mut WindowCache,
) -> VarId {
    assert!(!batch.is_empty(), "empty batch");
    let rows: Vec<VarId> = batch
        .iter()
        .map(|s| diff_features_cached(g, bank, bound, s, cache))
        .collect();
    g.concat_rows(&rows)
}

/// Builds the `(B, D_repr)` feature matrix of a batch of series.
pub fn diff_features_batch(
    g: &mut Graph,
    bank: &ShapeletBank,
    bound: &BoundBank,
    batch: &[Tensor],
) -> VarId {
    let mut cache = WindowCache::new();
    diff_features_batch_cached(g, bank, bound, batch, &mut cache)
}

/// Batch features via the selected [`DiffPath`]. The cache is only
/// consulted on the fused path (the oracle builds its own leaves).
pub fn diff_features_batch_via(
    path: DiffPath,
    g: &mut Graph,
    bank: &ShapeletBank,
    bound: &BoundBank,
    batch: &[Tensor],
    cache: &mut WindowCache,
) -> VarId {
    match path {
        DiffPath::Fused => diff_features_batch_cached(g, bank, bound, batch, cache),
        DiffPath::Oracle => oracle::diff_features_batch_oracle(g, bank, bound, batch),
    }
}

/// Every group's finished pooling of every crop of one `(D, T)` series,
/// as ops ready to insert: `out[c][gi]` is crop `c`'s op for group `gi`.
/// `crops[c]` is where crop `c` starts in `series` and its values; `pre`
/// is the precomputation of the parameter values the ops will be bound to
/// (one per group, in bank order). The series is copied once, time-major;
/// each group scores its windows once for all its crops
/// ([`pool_crops`](crate::fused::pool_crops)), and every op reads its best
/// windows back from that copy. A crop at least one window long takes its
/// window norms from its own slice of the copy ([`ScaleWindows::view`]); a
/// shorter one, zero-padded, gets window state of its own. Both come from
/// `cache`, so equal crops share their state, and no window state outlives
/// the cache.
pub fn pool_series_crops(
    bank: &ShapeletBank,
    pre: &[GroupPrecomp],
    series: &Tensor,
    crops: &[(usize, &Tensor)],
    cache: &mut WindowCache,
) -> Vec<Vec<Arc<ShapeletDistanceOp>>> {
    assert_eq!(series.rows(), bank.d, "series/bank variable count mismatch");
    let buffer = Arc::new(time_major(series, 0));
    let mut out: Vec<Vec<Arc<ShapeletDistanceOp>>> = crops
        .iter()
        .map(|_| Vec::with_capacity(bank.groups().len()))
        .collect();
    for (grp, pre) in bank.groups().iter().zip(pre) {
        let (len, stride) = (grp.len, grp.stride);
        // A crop view is keyed by the buffer's identity and its place in
        // it, so no values are compared.
        let sws: Vec<Arc<ScaleWindows>> = crops
            .iter()
            .map(|&(start, values)| match values.cols() {
                cols if cols >= len => cache.lookup(
                    |sw| {
                        Arc::ptr_eq(&sw.series, &buffer)
                            && (sw.start, sw.cols) == (start, cols)
                            && sw.matches(len, stride)
                    },
                    || ScaleWindows::view(Arc::clone(&buffer), start, cols, len, stride),
                ),
                _ => cache.get(values, len, stride),
            })
            .collect();
        let views: Vec<(usize, &ScaleWindows)> = crops
            .iter()
            .zip(&sws)
            .map(|(&(start, _), sw)| (start, &**sw))
            .collect();
        let pooled = pool_crops_in(&buffer, &views, grp.measure, pre);
        for ((ops, p), (start, sw)) in out.iter_mut().zip(pooled).zip(views) {
            let op = ShapeletDistanceOp::new(grp.measure, sw, Arc::clone(&buffer), start, p);
            ops.push(Arc::new(op));
        }
    }
    out
}

/// Inserts one series' finished poolings (one op per group, in bank order,
/// from [`pool_series_crops`]) as its `(1, D_repr)` feature row against
/// the bound bank. The bound values must be the ones the ops were pooled
/// from.
pub fn diff_features_pooled(
    g: &mut Graph,
    bound: &BoundBank,
    ops: &[Arc<ShapeletDistanceOp>],
) -> VarId {
    assert_eq!(ops.len(), bound.group_vars.len(), "one op per group");
    let parts: Vec<VarId> = ops
        .iter()
        .zip(&bound.group_vars)
        .map(|(op, &var)| g.custom(op.clone(), &[var]))
        .collect();
    g.concat_cols(&parts)
}

/// Writes updated parameter values (from an optimizer step) back into the
/// bank, in group order.
pub fn write_back(bank: &mut ShapeletBank, new_values: &[Tensor]) {
    assert_eq!(
        bank.groups().len(),
        new_values.len(),
        "group count mismatch"
    );
    for (g, v) in bank.groups_mut().iter_mut().zip(new_values) {
        assert!(
            g.shapelets.shape().same_as(v.shape()),
            "shapelet shape changed"
        );
        g.shapelets = v.clone();
    }
}

/// Reference implementation of the differentiable transform as an eager
/// tape-op graph over materialized window matrices.
///
/// This is the formulation the fused custom-op path replaced: per scale it
/// `unfold`s the series into an `(N_w × D·len)` constant leaf and builds
/// each measure from generic tape ops (`matmul_transb`, `relu`,
/// `min_axis`/`max_axis`, …), whose composed backward rules define the
/// gradients the fused path's analytic backward must reproduce. Kept for
/// parity tests and old-vs-new benchmarking — not used by training
/// defaults.
pub mod oracle {
    use super::BoundBank;
    use crate::bank::ShapeletBank;
    use crate::measure::Measure;
    use crate::transform::pad_to_len;
    use tcsl_autodiff::{Graph, VarId};
    use tcsl_tensor::reduce::Axis;
    use tcsl_tensor::window::{time_major, unfold, window_sq_norms};
    use tcsl_tensor::Tensor;

    /// Oracle counterpart of [`super::diff_features`].
    pub fn diff_features_oracle(
        g: &mut Graph,
        bank: &ShapeletBank,
        bound: &BoundBank,
        series: &Tensor,
    ) -> VarId {
        assert_eq!(series.rows(), bank.d, "series/bank variable count mismatch");
        let mut parts: Vec<VarId> = Vec::with_capacity(bank.groups().len());
        // Cache per-scale window leaves: measures of one scale share windows.
        let mut cached: Option<(usize, VarId, Vec<f32>)> = None;
        for (gi, grp) in bank.groups().iter().enumerate() {
            let (w_leaf, w_sq_norms) = match &cached {
                Some((len, id, norms)) if *len == grp.len => (*id, norms.clone()),
                _ => {
                    // Same prefix-sum window-norm machinery as the fused
                    // inference kernel — one O(T) pass instead of a pass over
                    // the materialized rows.
                    let tm = time_major(series, grp.len);
                    let norms = window_sq_norms(tm.as_slice(), bank.d, grp.len, grp.stride);
                    let id = g.leaf(unfold(&pad_to_len(series, grp.len), grp.len, grp.stride));
                    cached = Some((grp.len, id, norms.clone()));
                    (id, norms)
                }
            };
            let s_var = bound.group_vars[gi];
            let k = grp.k();
            let width = (bank.d * grp.len) as f32;
            let pooled = match grp.measure {
                Measure::Euclidean => {
                    // d² = ‖w‖² − 2·W·Sᵀ + ‖s‖², clamped at 0, normalized, √.
                    let cross = g.matmul_transb(w_leaf, s_var);
                    let neg2 = g.mul_scalar(cross, -2.0);
                    let wn = g.leaf(Tensor::from_vec(w_sq_norms.clone(), [w_sq_norms.len()]));
                    let with_w = g.add_col_vec(neg2, wn);
                    let s_sq = g.square(s_var);
                    let sn = g.sum_axis(s_sq, Axis::Cols);
                    let d2 = g.add_row_vec(with_w, sn);
                    let clamped = g.relu(d2);
                    let normed = g.mul_scalar(clamped, 1.0 / width);
                    let dist = g.sqrt_eps(normed, 1e-8);
                    g.min_axis(dist, Axis::Rows)
                }
                Measure::Cosine => {
                    // Window rows normalized eagerly (no grad through them).
                    let wn_val = {
                        let w = g.value(w_leaf).clone();
                        let mut out = w;
                        for i in 0..out.rows() {
                            let n = (out.row(i).iter().map(|&x| x * x).sum::<f32>() + 1e-12).sqrt();
                            for x in out.row_mut(i) {
                                *x /= n;
                            }
                        }
                        out
                    };
                    let wn_leaf = g.leaf(wn_val);
                    let sn = g.row_normalize(s_var, 1e-12);
                    let sim = g.matmul_transb(wn_leaf, sn);
                    g.max_axis(sim, Axis::Rows)
                }
                Measure::CrossCorrelation => {
                    let cross = g.matmul_transb(w_leaf, s_var);
                    let sim = g.mul_scalar(cross, 1.0 / width);
                    g.max_axis(sim, Axis::Rows)
                }
            };
            parts.push(g.reshape(pooled, [1, k]));
        }
        g.concat_cols(&parts)
    }

    /// Oracle counterpart of [`super::diff_features_batch`].
    pub fn diff_features_batch_oracle(
        g: &mut Graph,
        bank: &ShapeletBank,
        bound: &BoundBank,
        batch: &[Tensor],
    ) -> VarId {
        assert!(!batch.is_empty(), "empty batch");
        let rows: Vec<VarId> = batch
            .iter()
            .map(|s| diff_features_oracle(g, bank, bound, s))
            .collect();
        g.concat_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{diff_features_batch_oracle, diff_features_oracle};
    use super::*;
    use crate::config::ShapeletConfig;
    use crate::measure::Measure;
    use crate::transform::transform_series;
    use tcsl_data::TimeSeries;
    use tcsl_tensor::rng::seeded;

    fn bank(d: usize) -> ShapeletBank {
        let cfg = ShapeletConfig {
            lengths: vec![3, 6],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut b = ShapeletBank::new(&cfg, d);
        b.randomize(&mut seeded(3));
        b
    }

    #[test]
    fn diff_path_matches_fast_path() {
        let b = bank(2);
        let mut rng = seeded(4);
        let series = TimeSeries::new(Tensor::randn([2, 20], &mut rng));
        let fast = transform_series(&b, &series).unwrap();

        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let feats = diff_features(&mut g, &b, &bound, series.values());
        let slow = g.value(feats);
        assert_eq!(slow.shape().dims(), &[1, b.repr_dim()]);
        for (i, (&f, &s)) in fast.iter().zip(slow.as_slice()).enumerate() {
            assert!((f - s).abs() < 1e-4, "feature {i}: fast={f} diff={s}");
        }
    }

    #[test]
    fn diff_path_matches_fast_path_on_short_series() {
        let b = bank(1);
        let series = TimeSeries::univariate(vec![0.4, -0.2]); // shorter than both scales
        let fast = transform_series(&b, &series).unwrap();
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let feats = diff_features(&mut g, &b, &bound, series.values());
        for (&f, &s) in fast.iter().zip(g.value(feats).as_slice()) {
            assert!((f - s).abs() < 1e-4);
        }
    }

    #[test]
    fn fused_path_matches_oracle_path() {
        // Same bound parameters, same series → same features from the
        // custom-op path and the eager-graph oracle.
        for d in [1, 2] {
            let b = bank(d);
            let mut rng = seeded(14 + d as u64);
            let series = Tensor::randn([d, 22], &mut rng);

            let mut g = Graph::new();
            let bound = bind_trainable(&mut g, &b);
            let fused = diff_features(&mut g, &b, &bound, &series);
            let oracle = diff_features_oracle(&mut g, &b, &bound, &series);
            let (fv, ov) = (g.value(fused).clone(), g.value(oracle).clone());
            assert_eq!(fv.shape().dims(), ov.shape().dims());
            for (i, (&f, &o)) in fv.as_slice().iter().zip(ov.as_slice()).enumerate() {
                assert!((f - o).abs() < 1e-4, "feature {i}: fused={f} oracle={o}");
            }
        }
    }

    #[test]
    fn window_cache_reuses_state_across_identical_series() {
        let b = bank(1);
        let mut rng = seeded(15);
        let series = Tensor::randn([1, 30], &mut rng);
        let other = Tensor::randn([1, 30], &mut rng);
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let mut cache = WindowCache::new();
        // Bank has 2 scales × 3 measures: 6 lookups per series, 2 distinct
        // (len, stride) keys per distinct series value.
        diff_features_cached(&mut g, &b, &bound, &series, &mut cache);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 4);
        // The same series value again: all lookups hit.
        diff_features_cached(&mut g, &b, &bound, &series, &mut cache);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 10);
        // A different series value misses.
        diff_features_cached(&mut g, &b, &bound, &other, &mut cache);
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn diff_path_selector_routes_both_paths() {
        let b = bank(1);
        let mut rng = seeded(16);
        let batch = [
            Tensor::randn([1, 18], &mut rng),
            Tensor::randn([1, 18], &mut rng),
        ];
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let mut cache = WindowCache::new();
        let fused =
            diff_features_batch_via(DiffPath::Fused, &mut g, &b, &bound, &batch, &mut cache);
        let oracle =
            diff_features_batch_via(DiffPath::Oracle, &mut g, &b, &bound, &batch, &mut cache);
        let (fv, ov) = (g.value(fused).clone(), g.value(oracle).clone());
        for (&f, &o) in fv.as_slice().iter().zip(ov.as_slice()) {
            assert!((f - o).abs() < 1e-4);
        }
        assert_eq!(DiffPath::default(), DiffPath::Fused);
    }

    #[test]
    fn gradients_reach_every_group() {
        let b = bank(1);
        let mut rng = seeded(5);
        let series = TimeSeries::new(Tensor::randn([1, 24], &mut rng));
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let feats = diff_features(&mut g, &b, &bound, series.values());
        let sq = g.square(feats);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        for (gi, &id) in bound.group_vars.iter().enumerate() {
            let grad = grads
                .get(id)
                .unwrap_or_else(|| panic!("no grad for group {gi}"));
            assert!(grad.norm_sq() > 0.0, "zero grad for group {gi}");
        }
    }

    #[test]
    fn frozen_bank_gets_no_gradients() {
        let b = bank(1);
        let mut rng = seeded(6);
        let series = TimeSeries::new(Tensor::randn([1, 24], &mut rng));
        let mut g = Graph::new();
        let bound = bind_frozen(&mut g, &b);
        let feats = diff_features(&mut g, &b, &bound, series.values());
        let loss = g.mean_all(feats);
        let grads = g.backward(loss);
        assert!(grads.get(bound.group_vars[0]).is_none());
    }

    #[test]
    fn shapelet_gradcheck_through_full_transform() {
        // Finite-difference check of d(loss)/d(shapelets) through the whole
        // euclidean+cosine+xcorr pipeline (fused custom-op path).
        let cfg = ShapeletConfig {
            lengths: vec![3],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut b = ShapeletBank::new(&cfg, 1);
        b.randomize(&mut seeded(7));
        let mut rng = seeded(8);
        let series = Tensor::randn([1, 10], &mut rng);

        let inputs: Vec<Tensor> = b.groups().iter().map(|g| g.shapelets.clone()).collect();
        let report = tcsl_autodiff::gradcheck::gradcheck(&inputs, 1e-3, |g, xs| {
            let bound = BoundBank {
                group_vars: xs.iter().map(|x| g.param(x.clone())).collect(),
            };
            let feats = diff_features(g, &b, &bound, &series);
            let sq = g.square(feats);
            let loss = g.mean_all(sq);
            (bound.group_vars.clone(), loss)
        });
        assert!(
            report.passes(3e-2),
            "gradcheck failed: abs={} rel={}",
            report.max_abs_err,
            report.max_rel_err
        );
    }

    #[test]
    fn fused_gradients_match_oracle_gradients() {
        // Same loss through both paths → same parameter gradients (the
        // custom op's analytic backward vs the oracle graph's composed
        // backward rules).
        let b = bank(2);
        let mut rng = seeded(17);
        let batch = [
            Tensor::randn([2, 21], &mut rng),
            Tensor::randn([2, 17], &mut rng),
        ];
        let grads_of = |use_oracle: bool| {
            let mut g = Graph::new();
            let bound = bind_trainable(&mut g, &b);
            let feats = if use_oracle {
                diff_features_batch_oracle(&mut g, &b, &bound, &batch)
            } else {
                diff_features_batch(&mut g, &b, &bound, &batch)
            };
            let sq = g.square(feats);
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            bound
                .group_vars
                .iter()
                .map(|&id| grads.get(id).unwrap().clone())
                .collect::<Vec<_>>()
        };
        let fused = grads_of(false);
        let oracle = grads_of(true);
        for (gi, (f, o)) in fused.iter().zip(&oracle).enumerate() {
            for (i, (&fv, &ov)) in f.as_slice().iter().zip(o.as_slice()).enumerate() {
                assert!(
                    (fv - ov).abs() < 1e-4,
                    "group {gi} grad {i}: fused={fv} oracle={ov}"
                );
            }
        }
    }

    #[test]
    fn batch_features_stack_rows() {
        let b = bank(1);
        let mut rng = seeded(9);
        let s1 = Tensor::randn([1, 15], &mut rng);
        let s2 = Tensor::randn([1, 18], &mut rng);
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let feats = diff_features_batch(&mut g, &b, &bound, &[s1.clone(), s2]);
        assert_eq!(g.value(feats).rows(), 2);
        // Row 0 equals the single-series features of s1.
        let mut g2 = Graph::new();
        let bound2 = bind_trainable(&mut g2, &b);
        let f1 = diff_features(&mut g2, &b, &bound2, &s1);
        for (a, bv) in g.value(feats).row(0).iter().zip(g2.value(f1).as_slice()) {
            assert!((a - bv).abs() < 1e-6);
        }
    }

    #[test]
    fn bind_values_matches_bind_trainable() {
        let b = bank(1);
        let mut rng = seeded(10);
        let series = TimeSeries::new(Tensor::randn([1, 20], &mut rng));
        let snapshot: Vec<Tensor> = b.groups().iter().map(|g| g.shapelets.clone()).collect();

        let mut g1 = Graph::new();
        let bound1 = bind_trainable(&mut g1, &b);
        let f1 = diff_features(&mut g1, &b, &bound1, series.values());

        let mut g2 = Graph::new();
        let bound2 = bind_values(&mut g2, &snapshot);
        let f2 = diff_features(&mut g2, &b, &bound2, series.values());

        assert_eq!(g1.value(f1), g2.value(f2));
        // Snapshot-bound parameters still receive gradients.
        let sq = g2.square(f2);
        let loss = g2.mean_all(sq);
        let grads = g2.backward(loss);
        assert!(grads.get(bound2.group_vars[0]).is_some());
    }

    #[test]
    fn write_back_updates_bank() {
        let mut b = bank(1);
        let new: Vec<Tensor> = b
            .groups()
            .iter()
            .map(|g| Tensor::full(g.shapelets.shape().clone(), 0.25))
            .collect();
        write_back(&mut b, &new);
        assert!(b
            .groups()
            .iter()
            .all(|g| g.shapelets.as_slice().iter().all(|&x| x == 0.25)));
    }
}
