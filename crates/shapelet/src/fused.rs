//! The fused streaming shapelet-transform kernel.
//!
//! The unfold-based formulation ([`Measure::score_matrix`]) materializes an
//! `(N_w × D·len)` window matrix per scale — for stride-1 windows a ~`len`×
//! memory blowup — then re-derives shapelet norms per series. This module
//! replaces it on the hot path:
//!
//! * **Zero-materialization windows** — per-shapelet dot products read the
//!   overlapping windows directly out of the original contiguous series
//!   buffer ([`tcsl_tensor::window::window_dot`]).
//! * **Prefix-sum window norms** — one O(T) pass per scale
//!   ([`tcsl_tensor::window::window_sq_norms`]) yields `‖w‖²` in O(1) per
//!   window, shared by all shapelets and measures of the scale
//!   ([`ScaleWindows`]).
//! * **Bank-side precomputation** — shapelet row norms and repacked tap
//!   rows come from
//!   [`ShapeletBank::precomputed`](crate::ShapeletBank::precomputed), once
//!   per bank instead of once per series.
//! * **One engine for every tap width** — the loops are generic over
//!   [`TapElem`], so an f16 bank's binary16 groups run the same blocking,
//!   tiling and argmin tie-breaking as f32 groups; only the dot kernel
//!   differs.
//! * **Blocked fallback** — when the series is too large to stay cache
//!   resident across the per-shapelet passes, windows are copied in small
//!   tiles (a bounded scratch buffer, reused across tiles) and scored
//!   matmul-style ([`TILE_WINDOWS`]).
//!
//! Peak per-series allocation is O(D·T + N_w + K) — no term proportional
//! to `N_w × D·len`. All engines funnel scoring through
//! [`Measure::finish`], and agree with the unfold oracle to f32 round-off
//! (property-tested in `crate::proptests`).

use crate::bank::{GroupPrecomp, GroupTaps, ShapeletGroup, TapRows};
use crate::measure::Measure;
use crate::transform::pad_to_len;
use tcsl_tensor::quant::TapElem;
use tcsl_tensor::window::{
    count_windows, window_dot, window_dot2, window_dot2x4, window_dot4, window_sq_norms,
};
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
    /// The `(D, max(T, len))` series buffer windows are read from (equal to
    /// the raw series whenever it is at least `len` long).
    pub padded: Tensor,
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
        let padded = pad_to_len(values, len);
        let n = count_windows(padded.cols(), len, stride);
        let sq_norms = window_sq_norms(&padded, len, stride);
        let inv_norms = sq_norms.iter().map(|&w| 1.0 / (w + 1e-12).sqrt()).collect();
        ScaleWindows {
            len,
            stride,
            n,
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

/// Windows per tile of the blocked fallback path: 64 windows × D·len f32
/// keeps the scratch tile in L1/L2 while amortizing each window copy over
/// all `K` shapelets of the group.
pub const TILE_WINDOWS: usize = 64;

/// Series bytes above which the blocked path takes over: beyond ~1 MiB the
/// per-shapelet streaming passes fall out of L2 and re-copying windows
/// tile-by-tile (one pass over the series, K dots per copied window) wins.
pub const BLOCKED_SERIES_BYTES: usize = 1 << 20;

/// Row length (in elements) above which the fused engine streams taps in
/// 2-row instead of 4-row blocks. A 4-row half-width block of a longer row
/// (> 4 · 3072 · 2 B = 24 KiB) no longer fits in a 32 KiB L1d alongside the
/// window stream, so every window pass spills the taps it just read;
/// halving the block keeps the hot tap set resident. Only applied when the
/// pair kernels still share window loads
/// ([`TapElem::paired_kernel_available`]; never for f32 taps).
pub const PAIR_BLOCK_MIN_ROW: usize = 3072;

/// Shapelets per block of one group's streaming pass: 2 for wide rows with
/// a load-sharing pair kernel, else 4. One deterministic decision per
/// (group, machine): pooling and localization both derive their blocking
/// from it, which is what keeps localization scores bit-identical to pooled
/// values.
fn block_width<T: TapElem>(taps: &TapRows<T>, span_len: usize) -> usize {
    if taps.row_len > PAIR_BLOCK_MIN_ROW && T::paired_kernel_available(span_len) {
        2
    } else {
        4
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
    let series_bytes = sw.padded.numel() * core::mem::size_of::<f32>();
    if pre.k() > 1 && series_bytes > BLOCKED_SERIES_BYTES {
        tcsl_obs::counters::SHAPELET_POOL_BLOCKED.add(1);
        pool_group_blocked(sw, measure, pre)
    } else {
        tcsl_obs::counters::SHAPELET_POOL_FUSED.add(1);
        pool_group_fused(sw, measure, pre)
    }
}

/// Per-window scores of a single shapelet of the group — the streaming
/// replacement for one `score_matrix` column, used by best-match
/// localization (which needs every window's score, not just the pooled
/// one).
///
/// Mirrors the fused pooling engine's shapelet blocking ([`block_width`]
/// rows via the same window kernels, remainder via [`window_dot`]), so the
/// score of shapelet `k` here is bit-identical to the one
/// [`pool_group_fused`] pooled over — localization provably explains the
/// feature value, at every tap width.
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
    match &pre.taps {
        GroupTaps::F32(taps) => scores_of(sw, g.measure, pre, taps, k),
        GroupTaps::F16(taps) => scores_of(sw, g.measure, pre, taps, k),
    }
}

fn scores_of<T: TapElem>(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
    taps: &TapRows<T>,
    k: usize,
) -> Vec<f32> {
    let d = sw.padded.rows();
    let width = (d * sw.len) as f32;
    let (s_sq, s_inv) = (pre.sq_norms[k], pre.inv_norms[k]);
    let bw = block_width(taps, sw.len);
    let blocked = k < pre.k() - pre.k() % bw;
    let (kb, j) = (k / bw * bw, k % bw);
    T::count_dispatch(sw.len, ((if blocked { bw } else { 1 }) * d * sw.n) as u64);
    let score_at = |w: usize, cross: f32| score(measure, cross, sw, w, s_sq, s_inv, width);
    if blocked && bw == 2 {
        let rows = [taps.row(kb), taps.row(kb + 1)];
        (0..sw.n)
            .map(|w| score_at(w, window_dot2(&sw.padded, rows, w * sw.stride, sw.len)[j]))
            .collect()
    } else if blocked {
        let rows = [0, 1, 2, 3].map(|i| taps.row(kb + i));
        (0..sw.n)
            .map(|w| score_at(w, window_dot4(&sw.padded, rows, w * sw.stride, sw.len)[j]))
            .collect()
    } else {
        let row = taps.row(k);
        (0..sw.n)
            .map(|w| score_at(w, window_dot(&sw.padded, row, w * sw.stride, sw.len)))
            .collect()
    }
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

/// Fully fused engine: shapelet-major, one streaming pass over the series
/// per block of shapelets (the load-sharing [`window_dot4`] kernel keeps
/// the window in registers across the block), O(1) extra memory. Best when
/// the series fits in cache (the common case — a 4k-step univariate series
/// is 16 KiB).
pub(crate) fn pool_group_fused(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    match &pre.taps {
        GroupTaps::F32(taps) => fused_rows(sw, measure, pre, taps),
        GroupTaps::F16(taps) => fused_rows(sw, measure, pre, taps),
    }
}

fn fused_rows<T: TapElem>(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
    taps: &TapRows<T>,
) -> (Vec<f32>, Vec<usize>) {
    let d = sw.padded.rows();
    let width = (d * sw.len) as f32;
    let k = pre.k();
    // One gate check for the whole pool call: k dots per window, one
    // length-only dispatch decision shared by every one of them.
    T::count_dispatch(sw.len, (k * d * sw.n) as u64);
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    let mut update = |kk: usize, w: usize, cross: f32| {
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
    };
    let bw = block_width(taps, sw.len);
    let full = k - k % bw;
    for kb in (0..full).step_by(bw) {
        if bw == 2 {
            // Window quads share tap loads and conversions; trailing
            // windows fall back to the single-window pair kernel
            // (bit-identical per-dot values).
            let rows = [taps.row(kb), taps.row(kb + 1)];
            let mut w = 0usize;
            while w + 4 <= sw.n {
                let starts = [w, w + 1, w + 2, w + 3].map(|x| x * sw.stride);
                let cross = window_dot2x4(&sw.padded, rows, starts, sw.len);
                for (wi, cw) in cross.iter().enumerate() {
                    for (j, &c) in cw.iter().enumerate() {
                        update(kb + j, w + wi, c);
                    }
                }
                w += 4;
            }
            for w in w..sw.n {
                let cross = window_dot2(&sw.padded, rows, w * sw.stride, sw.len);
                for (j, &c) in cross.iter().enumerate() {
                    update(kb + j, w, c);
                }
            }
        } else {
            let rows = [0, 1, 2, 3].map(|i| taps.row(kb + i));
            for w in 0..sw.n {
                let cross = window_dot4(&sw.padded, rows, w * sw.stride, sw.len);
                for (j, &c) in cross.iter().enumerate() {
                    update(kb + j, w, c);
                }
            }
        }
    }
    for kk in full..k {
        let row = taps.row(kk);
        for w in 0..sw.n {
            update(kk, w, window_dot(&sw.padded, row, w * sw.stride, sw.len));
        }
    }
    (pooled, args)
}

/// Blocked fallback engine: copies windows into a bounded scratch tile
/// (reused across tiles, never `N_w` rows at once) and scores each copied
/// row against all `K` shapelets before moving on — one pass over the
/// series total, which wins once the series no longer stays cache resident
/// across `K` streaming passes.
pub(crate) fn pool_group_blocked(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    match &pre.taps {
        GroupTaps::F32(taps) => blocked_rows(sw, measure, pre, taps),
        GroupTaps::F16(taps) => blocked_rows(sw, measure, pre, taps),
    }
}

fn blocked_rows<T: TapElem>(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
    taps: &TapRows<T>,
) -> (Vec<f32>, Vec<usize>) {
    let d = sw.padded.rows();
    let len = sw.len;
    let row_w = d * len;
    let width = row_w as f32;
    let k = pre.k();
    // Blocked rows are the full d·len window, so dispatch is on row_w.
    T::count_dispatch(row_w, (k * sw.n) as u64);
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    let mut tile = vec![0.0f32; TILE_WINDOWS.min(sw.n) * row_w];
    let mut tile_start = 0usize;
    while tile_start < sw.n {
        let tile_n = TILE_WINDOWS.min(sw.n - tile_start);
        for (r, buf) in tile.chunks_mut(row_w).take(tile_n).enumerate() {
            let start = (tile_start + r) * sw.stride;
            for v in 0..d {
                buf[v * len..(v + 1) * len].copy_from_slice(&sw.padded.row(v)[start..start + len]);
            }
        }
        for r in 0..tile_n {
            let w = tile_start + r;
            let row = &tile[r * row_w..(r + 1) * row_w];
            for (j, (p, a)) in pooled.iter_mut().zip(args.iter_mut()).enumerate() {
                let cross = T::dot(row, taps.row(j));
                let s = score(
                    measure,
                    cross,
                    sw,
                    w,
                    pre.sq_norms[j],
                    pre.inv_norms[j],
                    width,
                );
                if w == 0 || measure.better(s, *p) {
                    *p = s;
                    *a = w;
                }
            }
        }
        tile_start += tile_n;
    }
    (pooled, args)
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
                pool_group_fused(&sw, g.measure, &pre[gi]),
                pool_group_blocked(&sw, g.measure, &pre[gi]),
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
        // > TILE_WINDOWS windows so the blocked path crosses tiles.
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
        let (via_blocked, _) = pool_group_blocked(&sw, g.measure, &pre[0]);
        assert_eq!(via_dispatch, via_blocked);
    }
}
