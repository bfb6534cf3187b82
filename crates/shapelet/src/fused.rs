//! The fused streaming shapelet-transform kernel.
//!
//! The unfold-based formulation ([`Measure::score_matrix`]) materializes an
//! `(N_w × D·len)` window matrix per scale — for stride-1 windows a ~`len`×
//! memory blowup — then re-derives shapelet norms per series. This module
//! replaces it on the hot path:
//!
//! * **Zero-materialization windows** — per-shapelet dot products read the
//!   overlapping windows directly out of the original contiguous series
//!   buffer ([`tcsl_tensor::window::window_dots`]).
//! * **Prefix-sum window norms** — one O(T) pass per scale
//!   ([`tcsl_tensor::window::window_sq_norms`]) yields `‖w‖²` in O(1) per
//!   window, shared by all shapelets and measures of the scale
//!   ([`ScaleWindows`]).
//! * **Bank-side precomputation** — shapelet row norms and repacked tap
//!   rows come from
//!   [`ShapeletBank::precomputed`](crate::ShapeletBank::precomputed), once
//!   per bank instead of once per series.
//! * **One block loop for every tap width and engine** — the loops are
//!   generic over [`TapElem`], so an f16 bank's binary16 groups run the
//!   same blocking, tiling and argmin tie-breaking as f32 groups; only the
//!   dot kernel's tap load differs.
//! * **Blocked engine for large series** — when the series is too large to
//!   stay cache resident across the per-block passes, each window is copied
//!   once into a reused scratch row and scored against every shapelet block
//!   while it sits in L1.
//! * **One pass for many crops** — [`pool_crops`] pools several crops of
//!   one series (training's views) from one scan of the series' windows:
//!   each window is scored once per tap block and handed to every crop
//!   that contains it, which scores it against its own norms.
//!
//! A kernel entry never depends on which rows share its block
//! ([`tcsl_tensor::dot`]), and the engine depends on the series alone
//! (blocked above [`BLOCKED_SERIES_BYTES`]). So a shapelet's feature, its
//! localization scores and its column in any subset of the bank are the
//! same bits.
//!
//! Peak per-series allocation is O(D·T + N_w + K) — no term proportional
//! to `N_w × D·len`. All engines funnel scoring through
//! [`Measure::finish`], and agree with the unfold oracle to f32 round-off
//! (property-tested in `crate::proptests`).

use crate::bank::{GroupPrecomp, GroupTaps, ShapeletGroup, TapRows};
use crate::measure::Measure;
use crate::transform::pad_to_len;
use std::ops::Range;
use std::sync::Arc;
use tcsl_tensor::dot::{TapElem, Tier};
use tcsl_tensor::window::{count_windows, window_dots, window_row_into, window_sq_norms};
use tcsl_tensor::Tensor;

/// Series-side state for one (scale, stride): the padded series plus the
/// prefix-sum-derived per-window norms every measure of the scale shares.
pub struct ScaleWindows {
    /// Window length (= shapelet length of the scale).
    pub len: usize,
    /// Window stride.
    pub stride: usize,
    /// Number of windows.
    pub n: usize,
    /// Column count `T` of the series before padding.
    pub cols: usize,
    /// The `(D, max(T, len))` series buffer windows are read from (equal to
    /// the raw series whenever it is at least `len` long). Shared, so a
    /// training op can read its best windows back without a copy.
    pub padded: Arc<Tensor>,
    /// `‖w‖²` per window, from the O(T) prefix-sum pass.
    pub sq_norms: Vec<f32>,
    /// `1 / √(‖w‖² + 1e-12)` per window (cosine's window-side factor).
    pub inv_norms: Vec<f32>,
}

impl ScaleWindows {
    /// Builds the per-scale state for a `(D, T)` series: zero-pads short
    /// series (so every scale yields at least one window, matching
    /// [`crate::transform::windows_for`]) and runs the prefix-sum norm
    /// pass.
    pub fn new(values: &Tensor, len: usize, stride: usize) -> ScaleWindows {
        let padded = Arc::new(pad_to_len(values, len));
        let n = count_windows(padded.cols(), len, stride);
        let sq_norms = window_sq_norms(&padded, len, stride);
        let inv_norms = sq_norms.iter().map(|&w| 1.0 / (w + 1e-12).sqrt()).collect();
        ScaleWindows {
            len,
            stride,
            n,
            cols: values.cols(),
            padded,
            sq_norms,
            inv_norms,
        }
    }

    /// Whether this state serves groups of the given scale/stride.
    pub fn matches(&self, len: usize, stride: usize) -> bool {
        self.len == len && self.stride == stride
    }
}

/// Series bytes above which the blocked engine takes over: beyond ~1 MiB
/// the per-shapelet-block streaming passes fall out of L2, and copying
/// each window once (one pass over the series, K dots per copied window)
/// wins.
pub const BLOCKED_SERIES_BYTES: usize = 1 << 20;

/// Row length (in elements) above which the fused engine streams taps in
/// 2-row × 4-window instead of 4-row × 1-window blocks. A 4-row half-width
/// block of a longer row (> 4 · 3072 · 2 B = 24 KiB) no longer fits in a
/// 32 KiB L1d alongside the window stream, so every window pass would spill
/// the taps it just read; halving the block keeps the hot tap set resident,
/// and four windows share each tap load instead. Applied on the 512-bit
/// tier only ([`TapElem::tier`]), where the pair block keeps its sixteen
/// accumulator chains in registers.
pub const PAIR_BLOCK_MIN_ROW: usize = 3072;

/// The two pooling engines. Both run every (row, window) dot through the
/// same block loop and kernel family. They associate a window's sum
/// differently (per-variable dots added in variable order, against one dot
/// over the copied `D·len` row), so they agree to rounding only, and which
/// one runs must not depend on anything but the series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Engine {
    /// Shapelet-block-major streaming passes over the series in place.
    Fused,
    /// Window by window: each copied into one scratch row, then scanned by
    /// every shapelet block.
    Blocked,
}

impl Engine {
    /// The engine a series takes: blocked above [`BLOCKED_SERIES_BYTES`],
    /// else fused. A function of the series alone, shared by pooling and
    /// localization, so a group, each of its subsets and each localization
    /// of one of its shapelets all take the same engine.
    pub(crate) fn of(sw: &ScaleWindows) -> Engine {
        if sw.padded.numel() * core::mem::size_of::<f32>() > BLOCKED_SERIES_BYTES {
            Engine::Blocked
        } else {
            Engine::Fused
        }
    }
}

/// Pools one group over a series: the per-shapelet best score plus the
/// best window index, computed without materializing the window matrix.
/// Equivalent to `score_matrix` + `pool` (the property-tested contract).
pub fn pool_group(
    sw: &ScaleWindows,
    g: &ShapeletGroup,
    pre: &GroupPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    debug_assert!(sw.matches(g.len, g.stride));
    debug_assert_eq!(pre.sq_norms.len(), g.k());
    pool_measure(sw, g.measure, pre)
}

/// [`pool_group`] addressed by measure alone: the shapelet side is fully
/// described by the precomputation (tap rows + norms), so callers that hold
/// shapelet values outside a [`ShapeletGroup`] — the training-path custom
/// op differentiates graph-bound parameter tensors — pool through here.
pub fn pool_measure(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    let engine = Engine::of(sw);
    match engine {
        Engine::Fused => tcsl_obs::counters::SHAPELET_POOL_FUSED.add(1),
        Engine::Blocked => tcsl_obs::counters::SHAPELET_POOL_BLOCKED.add(1),
    }
    pool_on(sw, measure, pre, engine)
}

/// [`pool_measure`] on a given engine.
pub(crate) fn pool_on(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
    engine: Engine,
) -> (Vec<f32>, Vec<usize>) {
    let k = pre.k();
    let width = (sw.padded.rows() * sw.len) as f32;
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    scan(&Windows::of(sw), pre, engine, 0..k, |kk, w, cross| {
        let s = score(
            measure,
            cross,
            sw,
            w,
            pre.sq_norms[kk],
            pre.inv_norms[kk],
            width,
        );
        if w == 0 || measure.better(s, pooled[kk]) {
            pooled[kk] = s;
            args[kk] = w;
        }
    });
    (pooled, args)
}

/// Pools one group over several crops of `series`: `crops[c]` is where crop
/// `c` starts in the series and the crop's own window state
/// ([`ScaleWindows::new`] of its values), all at the group's scale and
/// stride. Returns each crop's [`pool_measure`] result, bit for bit.
///
/// Every contiguous run of the union of the crops' window ranges is scanned
/// once through the block loop, in place in the series. Each window's dot
/// products go to every crop that contains it, and each crop scores them
/// against its own norms, visiting its windows in increasing order. The
/// bits match a crop pooled alone because a crop's window is the same f32
/// slice of the same series, the kernel tier depends on the length alone,
/// and a block entry equals its tier's one-row value. A crop pools alone,
/// through [`pool_measure`], when it is zero-padded (shorter than the
/// scale), when its own engine is the blocked one, or when its start is off
/// the series' stride grid.
pub fn pool_crops(
    series: &Tensor,
    crops: &[(usize, &ScaleWindows)],
    measure: Measure,
    pre: &GroupPrecomp,
) -> Vec<(Vec<f32>, Vec<usize>)> {
    let k = pre.k();
    let mut out = Vec::with_capacity(crops.len());
    // (crop, its series window range) for every crop the shared scan serves.
    let mut shared: Vec<(usize, Range<usize>)> = Vec::new();
    for (c, &(start, sw)) in crops.iter().enumerate() {
        debug_assert!(start + sw.cols <= series.cols() && sw.padded.rows() == series.rows());
        if sw.cols >= sw.len && start % sw.stride == 0 && Engine::of(sw) == Engine::Fused {
            let j0 = start / sw.stride;
            shared.push((c, j0..j0 + sw.n));
            out.push((vec![f32::NAN; k], vec![0usize; k]));
        } else {
            out.push(pool_measure(sw, measure, pre));
        }
    }
    let Some(&(first, _)) = shared.first() else {
        return out;
    };
    tcsl_obs::counters::SHAPELET_POOL_FUSED.add(shared.len() as u64);
    let (len, stride) = (crops[first].1.len, crops[first].1.stride);
    let width = (series.rows() * len) as f32;
    shared.sort_by_key(|(_, r)| r.start);
    let mut i = 0;
    while i < shared.len() {
        // One run: the crops whose ranges overlap or abut the first one's.
        let mut run = shared[i].1.clone();
        let mut end = i + 1;
        while end < shared.len() && shared[end].1.start <= run.end {
            run.end = run.end.max(shared[end].1.end);
            end += 1;
        }
        let members = &shared[i..end];
        let view = Windows {
            series,
            offset: run.start * stride,
            len,
            stride,
            n: run.len(),
        };
        scan(&view, pre, Engine::Fused, 0..k, |kk, w, cross| {
            let j = run.start + w;
            for (c, r) in members {
                if !r.contains(&j) {
                    continue;
                }
                let sw = crops[*c].1;
                let wc = j - r.start;
                let s = score(
                    measure,
                    cross,
                    sw,
                    wc,
                    pre.sq_norms[kk],
                    pre.inv_norms[kk],
                    width,
                );
                let (pooled, args) = &mut out[*c];
                if wc == 0 || measure.better(s, pooled[kk]) {
                    pooled[kk] = s;
                    args[kk] = wc;
                }
            }
        });
        i = end;
    }
    out
}

/// Per-window scores of a single shapelet of the group — the streaming
/// replacement for one `score_matrix` column, used by best-match
/// localization (which needs every window's score, not just the pooled
/// one).
///
/// One row through the same engine and kernels as [`pool_group`]: a
/// kernel entry does not depend on the rows sharing its block, so the
/// score of shapelet `k` here is bit-identical to the one pooling saw, and
/// localization explains the feature value exactly at every tap width.
pub fn shapelet_scores(
    sw: &ScaleWindows,
    g: &ShapeletGroup,
    pre: &GroupPrecomp,
    k: usize,
) -> Vec<f32> {
    assert!(
        k < g.k(),
        "shapelet {k} out of range for group of {}",
        g.k()
    );
    let width = (sw.padded.rows() * sw.len) as f32;
    let (s_sq, s_inv) = (pre.sq_norms[k], pre.inv_norms[k]);
    let mut scores = vec![0.0f32; sw.n];
    scan(
        &Windows::of(sw),
        pre,
        Engine::of(sw),
        k..k + 1,
        |_, w, cross| {
            scores[w] = score(g.measure, cross, sw, w, s_sq, s_inv, width);
        },
    );
    scores
}

/// One (window, shapelet) score. Mirrors [`Measure::finish`] exactly —
/// cosine uses the cached inverse norms, which are bit-identical to the
/// ones `finish` derives — so every engine produces the same value for the
/// same raw dot product.
#[inline]
fn score(
    m: Measure,
    cross: f32,
    sw: &ScaleWindows,
    w: usize,
    s_sq: f32,
    s_inv: f32,
    width: f32,
) -> f32 {
    match m {
        Measure::Euclidean => (((sw.sq_norms[w] - 2.0 * cross + s_sq).max(0.0)) / width).sqrt(),
        Measure::Cosine => cross * sw.inv_norms[w] * s_inv,
        Measure::CrossCorrelation => cross / width,
    }
}

/// Hands the raw dot product of every (tap row in `rows`, window of `view`)
/// pair to `f(row, window, cross)`, each row's windows in increasing order,
/// through `engine`.
fn scan(
    view: &Windows,
    pre: &GroupPrecomp,
    engine: Engine,
    rows: Range<usize>,
    f: impl FnMut(usize, usize, f32),
) {
    match &pre.taps {
        GroupTaps::F32(taps) => scan_taps(view, taps, engine, rows, f),
        GroupTaps::F16(taps) => scan_taps(view, taps, engine, rows, f),
    }
}

fn scan_taps<T: TapElem>(
    view: &Windows,
    taps: &TapRows<T>,
    engine: Engine,
    rows: Range<usize>,
    mut f: impl FnMut(usize, usize, f32),
) {
    let d = view.series.rows();
    match engine {
        Engine::Fused => {
            // One gate check for the whole scan: one length-only dispatch
            // decision shared by every per-variable dot.
            T::count_dispatch(view.len, (rows.len() * d * view.n) as u64);
            scan_view(view, taps, rows, &mut f);
        }
        Engine::Blocked => {
            // A copied window is one row of d·len, so dispatch is on that.
            let row_w = d * view.len;
            T::count_dispatch(row_w, (rows.len() * view.n) as u64);
            let mut row = Tensor::zeros([1, row_w]);
            for w in 0..view.n {
                let start = view.offset + w * view.stride;
                window_row_into(view.series, start, view.len, row.as_mut_slice());
                let one = Windows {
                    series: &row,
                    offset: 0,
                    len: row_w,
                    stride: row_w,
                    n: 1,
                };
                scan_view(&one, taps, rows.clone(), &mut |k, _, c| f(k, w, c));
            }
        }
    }
}

/// `n` windows of `len` steps, `stride` apart from `offset` on, read in
/// place from `series`: a padded series, a run of a crop-sharing series
/// ([`pool_crops`]) or one copied window as a single variable of `D·len`
/// steps (blocked engine).
struct Windows<'a> {
    series: &'a Tensor,
    offset: usize,
    len: usize,
    stride: usize,
    n: usize,
}

impl<'a> Windows<'a> {
    /// Every window of a window state's padded series.
    fn of(sw: &'a ScaleWindows) -> Windows<'a> {
        Windows {
            series: &sw.padded,
            offset: 0,
            len: sw.len,
            stride: sw.stride,
            n: sw.n,
        }
    }
}

/// Scans tap rows `rows` over every window of `view` in blocks of the
/// group's shape: 2 rows × 4 windows for rows longer than
/// [`PAIR_BLOCK_MIN_ROW`] on the 512-bit tier, else 4 rows × 1 window.
fn scan_view<T: TapElem>(
    view: &Windows,
    taps: &TapRows<T>,
    rows: Range<usize>,
    f: &mut impl FnMut(usize, usize, f32),
) {
    if taps.row_len > PAIR_BLOCK_MIN_ROW && T::tier(view.len) == Tier::Avx512 {
        scan_rows::<T, 2, 4>(view, taps, rows, f);
    } else {
        scan_rows::<T, 4, 1>(view, taps, rows, f);
    }
}

/// Full blocks of `R` rows, then one block of the `rows.len() % R` rows
/// left over (at most 3).
fn scan_rows<T: TapElem, const R: usize, const W: usize>(
    view: &Windows,
    taps: &TapRows<T>,
    rows: Range<usize>,
    f: &mut impl FnMut(usize, usize, f32),
) {
    debug_assert!(R <= 4);
    let mut kb = rows.start;
    while kb + R <= rows.end {
        scan_block::<T, R, W>(view, taps, kb, f);
        kb += R;
    }
    match rows.end - kb {
        0 => {}
        1 => scan_block::<T, 1, W>(view, taps, kb, f),
        2 => scan_block::<T, 2, W>(view, taps, kb, f),
        _ => scan_block::<T, 3, W>(view, taps, kb, f),
    }
}

/// Tap rows `kb..kb + R` against every window of `view`, `W` windows per
/// kernel call and the trailing `n % W` windows one per call.
fn scan_block<T: TapElem, const R: usize, const W: usize>(
    view: &Windows,
    taps: &TapRows<T>,
    kb: usize,
    f: &mut impl FnMut(usize, usize, f32),
) {
    let rows: [&[T]; R] = std::array::from_fn(|j| taps.row(kb + j));
    let mut w = 0usize;
    while w + W <= view.n {
        let starts: [usize; W] = std::array::from_fn(|i| view.offset + (w + i) * view.stride);
        let cross = window_dots(view.series, rows, starts, view.len);
        for (j, c) in cross.iter().enumerate() {
            for (i, &x) in c.iter().enumerate() {
                f(kb + j, w + i, x);
            }
        }
        w += W;
    }
    for w in w..view.n {
        let cross = window_dots(view.series, rows, [view.offset + w * view.stride], view.len);
        for (j, [x]) in cross.iter().enumerate() {
            f(kb + j, w, *x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShapeletConfig;
    use crate::transform::windows_for;
    use crate::ShapeletBank;
    use tcsl_tensor::rng::seeded;

    fn setup(d: usize, t: usize, len: usize, stride: usize, k: usize) -> (ShapeletBank, Tensor) {
        let cfg = ShapeletConfig {
            lengths: vec![len],
            k_per_group: k,
            measures: Measure::ALL.to_vec(),
            stride,
        };
        let mut rng = seeded(11);
        let mut bank = ShapeletBank::new(&cfg, d);
        bank.randomize(&mut rng);
        let series = Tensor::randn([d, t], &mut rng);
        (bank, series)
    }

    fn oracle(g: &ShapeletGroup, series: &Tensor) -> (Vec<f32>, Vec<usize>) {
        let windows = windows_for(series, g.len, g.stride);
        let scores = g.measure.score_matrix(&windows, &g.shapelets);
        let (pooled, a) = g.measure.pool(&scores);
        (pooled.as_slice().to_vec(), a)
    }

    fn assert_engines_match(bank: &ShapeletBank, series: &Tensor) {
        let pre = bank.precomputed();
        for (gi, g) in bank.groups().iter().enumerate() {
            let sw = ScaleWindows::new(series, g.len, g.stride);
            let (want, want_args) = oracle(g, series);
            for (pooled, a) in [
                pool_on(&sw, g.measure, &pre[gi], Engine::Fused),
                pool_on(&sw, g.measure, &pre[gi], Engine::Blocked),
            ] {
                for j in 0..g.k() {
                    assert!(
                        (pooled[j] - want[j]).abs() < 1e-4,
                        "{:?} k={j}: fused {} vs oracle {}",
                        g.measure,
                        pooled[j],
                        want[j]
                    );
                    assert_eq!(a[j], want_args[j], "{:?} k={j} argmin", g.measure);
                }
            }
        }
    }

    #[test]
    fn engines_agree_with_oracle() {
        let (bank, series) = setup(2, 40, 5, 1, 3);
        assert_engines_match(&bank, &series);
    }

    #[test]
    fn engines_agree_with_stride_and_many_tiles() {
        // Many windows at stride 2, through both engines.
        let (bank, series) = setup(1, 300, 7, 2, 4);
        assert_engines_match(&bank, &series);
    }

    #[test]
    fn short_series_pad_to_one_window() {
        let (bank, series) = setup(1, 3, 8, 1, 2);
        let g = &bank.groups()[0];
        let sw = ScaleWindows::new(&series, g.len, g.stride);
        assert_eq!(sw.n, 1);
        assert_engines_match(&bank, &series);
    }

    #[test]
    fn shapelet_scores_match_score_matrix_column() {
        let (bank, series) = setup(2, 30, 4, 1, 3);
        let pre = bank.precomputed();
        for (gi, g) in bank.groups().iter().enumerate() {
            let sw = ScaleWindows::new(&series, g.len, g.stride);
            let windows = windows_for(&series, g.len, g.stride);
            let scores = g.measure.score_matrix(&windows, &g.shapelets);
            for k in 0..g.k() {
                let col = shapelet_scores(&sw, g, &pre[gi], k);
                assert_eq!(col.len(), scores.rows());
                for (w, &s) in col.iter().enumerate() {
                    assert!((s - scores.at2(w, k)).abs() < 1e-4, "w={w} k={k}");
                }
            }
        }
    }

    #[test]
    fn blocked_path_engages_on_large_series() {
        // 2 vars × 200k steps = 1.6 MB > BLOCKED_SERIES_BYTES.
        let (bank, series) = setup(2, 200_000, 16, 512, 2);
        let g = &bank.groups()[0];
        assert!(series.numel() * 4 > BLOCKED_SERIES_BYTES);
        let pre = bank.precomputed();
        let sw = ScaleWindows::new(&series, g.len, g.stride);
        let (via_dispatch, _) = pool_group(&sw, g, &pre[0]);
        let (via_blocked, _) = pool_on(&sw, g.measure, &pre[0], Engine::Blocked);
        assert_eq!(via_dispatch, via_blocked);
    }
}
