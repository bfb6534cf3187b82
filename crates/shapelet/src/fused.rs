//! The fused streaming shapelet-transform kernel.
//!
//! The unfold-based formulation ([`Measure::score_matrix`]) materializes an
//! `(N_w × D·len)` window matrix per scale — for stride-1 windows a ~`len`×
//! memory blowup — then re-derives shapelet norms per series. This module
//! replaces it on the hot path:
//!
//! * **One dot per window, read in place** — the series is stored
//!   time-major (`x[t·D + v]`, [`tcsl_tensor::window::time_major`]) and
//!   each group's taps the same way, so the window at step `s` is the
//!   contiguous slice `[s·D, (s + len)·D)` of the series buffer, and one
//!   [`dots`] call of length `D·len` scores it against a tap row. No window
//!   is copied.
//! * **Prefix-sum window norms** — one O(D·T) pass per scale over the
//!   interleaved buffer ([`tcsl_tensor::window::window_sq_norms`]) yields
//!   `‖w‖²` in O(1) per window, shared by all shapelets and measures of the
//!   scale ([`ScaleWindows`]).
//! * **Bank-side precomputation** — shapelet row norms and repacked tap
//!   rows come from
//!   [`ShapeletBank::precomputed`](crate::ShapeletBank::precomputed), once
//!   per bank instead of once per series.
//! * **One block loop for every tap width** — the loop is generic over
//!   [`TapElem`], so an f16 bank's binary16 groups run the same blocking
//!   and argmin tie-breaking as f32 groups; only the dot kernel's tap load
//!   differs.
//! * **One pass for many crops** — [`pool_crops`] pools several crops of
//!   one series (training's views) from one scan of the series' windows:
//!   each window is scored once per tap block and handed to every crop
//!   that contains it, which scores it against its own norms.
//!
//! There is one engine. Every window is one dot summed in one order,
//! whatever the size of the series, and a kernel entry never depends on
//! which rows share its block ([`tcsl_tensor::dot`]). So a shapelet's
//! feature, its localization scores and its column in any subset of the
//! bank are the same bits.
//!
//! Peak per-series allocation is O(D·T + N_w + K) — no term proportional
//! to `N_w × D·len`. Pooling and localization funnel scoring through
//! [`Measure::finish`]'s arithmetic, and agree with the unfold oracle to
//! f32 round-off (property-tested in `crate::proptests`).

use crate::bank::{GroupPrecomp, GroupTaps, ShapeletGroup, TapRows};
use crate::measure::Measure;
use std::ops::Range;
use std::sync::Arc;
use tcsl_tensor::dot::{dots, TapElem, Tier};
use tcsl_tensor::window::{time_major, window_sq_norms};
use tcsl_tensor::Tensor;

/// Series-side state for one (scale, stride): the time-major series
/// buffer plus the prefix-sum-derived per-window norms every measure of the
/// scale shares.
pub struct ScaleWindows {
    /// Window length (= shapelet length of the scale).
    pub len: usize,
    /// Window stride.
    pub stride: usize,
    /// Number of windows.
    pub n: usize,
    /// Step count `T` of the series (or crop) before padding.
    pub cols: usize,
    /// The time-major `(steps, D)` buffer windows are read from, step `t`
    /// of variable `v` at `t·D + v`: this state's own copy of the series,
    /// zero-padded to at least `len` steps, or the whole series a crop view
    /// lies in ([`Self::view`]). Shared, so a training op can read its best
    /// windows back without a copy.
    pub series: Arc<Tensor>,
    /// Step of `series` at which window 0 starts (0 unless a crop view).
    pub start: usize,
    /// `‖w‖²` per window, from the O(D·T) prefix-sum pass.
    pub sq_norms: Vec<f32>,
    /// `1 / √(‖w‖² + 1e-12)` per window (cosine's window-side factor).
    pub inv_norms: Vec<f32>,
}

impl ScaleWindows {
    /// Builds the per-scale state for a `(D, T)` series: a time-major copy,
    /// zero-padded so every scale yields at least one window (matching
    /// [`crate::transform::windows_for`]), and the prefix-sum norm pass.
    pub fn new(values: &Tensor, len: usize, stride: usize) -> ScaleWindows {
        let series = Arc::new(time_major(values, len));
        ScaleWindows::view(series, 0, values.cols(), len, stride)
    }

    /// The state of the `cols` steps from step `start` of a time-major
    /// `series` ([`time_major`]), read in place. For a crop at least `len`
    /// steps long these are the norms of [`Self::new`] on the crop's values,
    /// bit for bit and without a copy, as they sum the same values in the
    /// same order. A shorter crop's windows run past it, so it needs a
    /// zero-padded copy of its own.
    pub fn view(
        series: Arc<Tensor>,
        start: usize,
        cols: usize,
        len: usize,
        stride: usize,
    ) -> ScaleWindows {
        let d = series.cols();
        let steps = &series.as_slice()[start * d..(start + cols.max(len)) * d];
        let sq_norms = window_sq_norms(steps, d, len, stride);
        let inv_norms = sq_norms.iter().map(|&w| 1.0 / (w + 1e-12).sqrt()).collect();
        ScaleWindows {
            len,
            stride,
            n: sq_norms.len(),
            cols,
            series,
            start,
            sq_norms,
            inv_norms,
        }
    }

    /// Number of variables `D`.
    pub fn d(&self) -> usize {
        self.series.cols()
    }

    /// Whether this state serves groups of the given scale/stride.
    pub fn matches(&self, len: usize, stride: usize) -> bool {
        self.len == len && self.stride == stride
    }
}

/// Row length (in elements) above which the engine streams taps in
/// 2-row × 4-window instead of 4-row × 1-window blocks. A 4-row half-width
/// block of a longer row (> 4 · 3072 · 2 B = 24 KiB) no longer fits in a
/// 32 KiB L1d alongside the window stream, so every window pass would spill
/// the taps it just read; halving the block keeps the hot tap set resident,
/// and four windows share each tap load instead. Applied on the 512-bit
/// tier only ([`TapElem::tier`]), where the pair block keeps its sixteen
/// accumulator chains in registers.
pub const PAIR_BLOCK_MIN_ROW: usize = 3072;

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
    tcsl_obs::counters::SHAPELET_POOL_FUSED.add(1);
    let k = pre.k();
    let width = (sw.d() * sw.len) as f32;
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    scan(
        &Windows::of(sw),
        pre,
        0..k,
        #[inline(always)]
        |kk, w, cross| {
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
        },
    );
    (pooled, args)
}

/// Pools one group over several crops of a `(D, T)` `series`: `crops[c]`
/// is where crop `c` starts in the series and the crop's window state, all
/// at the group's scale and stride. Returns each crop's [`pool_measure`]
/// result, bit for bit. Makes one time-major copy of the series; a caller
/// that already holds one (the trainer's [`pool_series_crops`]) scans it
/// in place.
///
/// [`pool_series_crops`]: crate::diff_transform::pool_series_crops
pub fn pool_crops(
    series: &Tensor,
    crops: &[(usize, &ScaleWindows)],
    measure: Measure,
    pre: &GroupPrecomp,
) -> Vec<(Vec<f32>, Vec<usize>)> {
    pool_crops_in(&time_major(series, 0), crops, measure, pre)
}

/// [`pool_crops`] over the time-major `(T, D)` buffer of the series.
///
/// Every contiguous run of the union of the crops' window ranges is scanned
/// once through the block loop, in place in the series. Each window's dot
/// products go to every crop that contains it, and each crop scores them
/// against its own norms, visiting its windows in increasing order. The
/// bits match a crop pooled alone because a crop's window is the same f32
/// slice of the same series, the kernel tier depends on the length alone,
/// and a block entry equals its tier's one-row value. A crop pools alone,
/// through [`pool_measure`], when it is zero-padded (shorter than the
/// scale) or when its start is off the series' stride grid.
pub(crate) fn pool_crops_in(
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
        debug_assert!(start + sw.cols <= series.rows() && sw.d() == series.cols());
        if sw.cols >= sw.len && start % sw.stride == 0 {
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
    let width = (series.cols() * len) as f32;
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
        scan(
            &view,
            pre,
            0..k,
            #[inline(always)]
            |kk, w, cross| {
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
            },
        );
        i = end;
    }
    out
}

/// Per-window scores of a single shapelet of the group — the streaming
/// replacement for one `score_matrix` column, used by best-match
/// localization (which needs every window's score, not just the pooled
/// one).
///
/// One row through the same block loop and kernels as [`pool_group`]: a
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
    let width = (sw.d() * sw.len) as f32;
    let (s_sq, s_inv) = (pre.sq_norms[k], pre.inv_norms[k]);
    let mut scores = vec![0.0f32; sw.n];
    scan(
        &Windows::of(sw),
        pre,
        k..k + 1,
        #[inline(always)]
        |_, w, cross| {
            scores[w] = score(g.measure, cross, sw, w, s_sq, s_inv, width);
        },
    );
    scores
}

/// One (window, shapelet) score. Mirrors [`Measure::finish`] exactly —
/// cosine uses the cached inverse norms, which are bit-identical to the
/// ones `finish` derives — so pooling, localization and the crop scan
/// produce the same value for the same raw dot product.
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

/// `n` windows of `len` steps, `stride` steps apart from step `offset` on,
/// read in place from a time-major `(steps, D)` buffer: a window state's
/// own series or crop view, or a run of a crop-sharing series
/// ([`pool_crops`]).
struct Windows<'a> {
    series: &'a Tensor,
    offset: usize,
    len: usize,
    stride: usize,
    n: usize,
}

impl<'a> Windows<'a> {
    /// Every window of a window state.
    fn of(sw: &'a ScaleWindows) -> Windows<'a> {
        Windows {
            series: &sw.series,
            offset: sw.start,
            len: sw.len,
            stride: sw.stride,
            n: sw.n,
        }
    }

    /// Window `w`: the contiguous `D·len` slice of its steps.
    #[inline(always)]
    fn window(&self, w: usize) -> &'a [f32] {
        let d = self.series.cols();
        let at = (self.offset + w * self.stride) * d;
        &self.series.as_slice()[at..at + d * self.len]
    }
}

/// Hands the raw dot product of every (tap row in `rows`, window of `view`)
/// pair to `f(row, window, cross)`, each row's windows in increasing order.
fn scan(view: &Windows, pre: &GroupPrecomp, rows: Range<usize>, f: impl FnMut(usize, usize, f32)) {
    match &pre.taps {
        GroupTaps::F32(taps) => scan_taps(view, taps, rows, f),
        GroupTaps::F16(taps) => scan_taps(view, taps, rows, f),
    }
}

/// [`scan`] over one tap width, in blocks of the group's shape: 2 rows × 4
/// windows for rows longer than [`PAIR_BLOCK_MIN_ROW`] on the 512-bit tier,
/// else 4 rows × 1 window.
fn scan_taps<T: TapElem>(
    view: &Windows,
    taps: &TapRows<T>,
    rows: Range<usize>,
    mut f: impl FnMut(usize, usize, f32),
) {
    let width = taps.row_len;
    debug_assert_eq!(width, view.series.cols() * view.len, "tap row is D·len");
    // One gate check for the whole scan: every window is one dot of `width`.
    T::count_dispatch(width, (rows.len() * view.n) as u64);
    if width > PAIR_BLOCK_MIN_ROW && T::tier(width) == Tier::Avx512 {
        scan_rows::<T, 2, 4>(view, taps, rows, &mut f);
    } else {
        scan_rows::<T, 4, 1>(view, taps, rows, &mut f);
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
/// kernel call and the trailing `n % W` windows one per call; each window
/// is one [`dots`] operand.
fn scan_block<T: TapElem, const R: usize, const W: usize>(
    view: &Windows,
    taps: &TapRows<T>,
    kb: usize,
    f: &mut impl FnMut(usize, usize, f32),
) {
    let rows: [&[T]; R] = std::array::from_fn(|j| taps.row(kb + j));
    let mut w = 0usize;
    while w + W <= view.n {
        let cross = dots::<T, R, W>(std::array::from_fn(|i| view.window(w + i)), rows);
        for (j, c) in cross.iter().enumerate() {
            for (i, &x) in c.iter().enumerate() {
                f(kb + j, w + i, x);
            }
        }
        w += W;
    }
    for w in w..view.n {
        let cross = dots([view.window(w)], rows);
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
    use tcsl_tensor::dot::SIMD_MIN_LEN;
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
            let (pooled, a) = pool_measure(&sw, g.measure, &pre[gi]);
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

    #[test]
    fn engines_agree_with_oracle() {
        let (bank, series) = setup(2, 40, 5, 1, 3);
        assert_engines_match(&bank, &series);
    }

    #[test]
    fn engines_agree_with_stride_and_many_tiles() {
        // Many windows at stride 2.
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

    /// Every localization score is one dot over the window's contiguous
    /// time-major slice against the shapelet's row transposed to the same
    /// layout, finished by [`Measure::finish`], bit for bit: at `D = 3` and
    /// len 32 only `D·len` reaches the SIMD tiers, and the dot still covers
    /// the whole window.
    #[test]
    fn shapelet_scores_are_one_dot_per_window() {
        use tcsl_tensor::quant::QuantScheme;
        for (d, len, stride) in [
            (1usize, 70usize, 1usize),
            (2, 20, 2),
            (2, 64, 3),
            (3, 32, 1),
            (3, 63, 2),
            (3, 80, 3),
            (5, 13, 1),
            (5, 66, 2),
        ] {
            for half in [false, true] {
                let (mut bank, series) = setup(d, 3 * len + 7, len, stride, 5);
                if half {
                    bank.quantize(QuantScheme::F16).unwrap();
                }
                let x = tcsl_tensor::window::time_major(&series, 0);
                let pre = bank.precomputed();
                for (gi, g) in bank.groups().iter().enumerate() {
                    let sw = ScaleWindows::new(&series, g.len, g.stride);
                    let width = (d * len) as f32;
                    for k in 0..g.k() {
                        let row = g.shapelets.row(k);
                        let tm: Vec<f32> =
                            (0..d * len).map(|j| row[(j % d) * len + j / d]).collect();
                        let scores = shapelet_scores(&sw, g, &pre[gi], k);
                        for (w, &got) in scores.iter().enumerate() {
                            let win = &x.as_slice()[w * stride * d..(w * stride + len) * d];
                            let cross = if half && len >= SIMD_MIN_LEN {
                                let h: Vec<u16> = tm.iter().map(|&v| u16::from_f32(v)).collect();
                                dots::<u16, 1, 1>([win], [&h[..]])[0][0]
                            } else {
                                dots::<f32, 1, 1>([win], [&tm[..]])[0][0]
                            };
                            let want =
                                g.measure
                                    .finish(cross, sw.sq_norms[w], pre[gi].sq_norms[k], width);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "D={d} len={len} stride={stride} f16={half} {:?} k={k} w={w}",
                                g.measure
                            );
                        }
                    }
                }
            }
        }
    }
}
