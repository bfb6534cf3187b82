//! Sliding-window unfolding of (multivariate) time series.
//!
//! The shapelet transform compares every learnable shapelet against every
//! length-`L` window of a series. `unfold` materializes those windows as the
//! rows of a matrix so the comparison becomes one `matmul_transb` against the
//! shapelet bank.

use crate::quant::TapElem;
use crate::tensor::Tensor;

/// Number of stride-`stride` windows of length `len` in a series of length
/// `t` (0 if the series is shorter than the window).
pub fn count_windows(t: usize, len: usize, stride: usize) -> usize {
    count_windows_dilated(t, len, stride, 1)
}

/// Window count when taps are spread `dilation` samples apart: a dilated
/// window of length `len` spans `(len − 1)·dilation + 1` samples.
pub fn count_windows_dilated(t: usize, len: usize, stride: usize, dilation: usize) -> usize {
    assert!(
        len > 0 && stride > 0 && dilation > 0,
        "window length, stride and dilation must be positive"
    );
    let span = (len - 1) * dilation + 1;
    if t < span {
        0
    } else {
        (t - span) / stride + 1
    }
}

/// Unfolds a multivariate series stored as a rank-2 tensor `(D, T)` into a
/// window matrix `(N_w, D·len)`.
///
/// Row `w` holds the window starting at time `w·stride`, with the `D`
/// variables concatenated channel-major: `[var0[t..t+len], var1[..], ...]` —
/// the same layout shapelets are stored in, so a dot product between a row
/// and a flattened shapelet compares corresponding samples.
pub fn unfold(series: &Tensor, len: usize, stride: usize) -> Tensor {
    unfold_dilated(series, len, stride, 1)
}

/// [`unfold`] with dilated taps: window `w`, variable `v`, tap `i` reads the
/// sample at time `w·stride + i·dilation`. Used by the dilated causal CNN
/// baselines.
pub fn unfold_dilated(series: &Tensor, len: usize, stride: usize, dilation: usize) -> Tensor {
    let (d, t) = (series.rows(), series.cols());
    let n = count_windows_dilated(t, len, stride, dilation);
    assert!(
        n > 0,
        "series of length {t} has no windows of length {len} (dilation {dilation})"
    );
    let mut out = Tensor::zeros([n, d * len]);
    let src = series.as_slice();
    let dst = out.as_mut_slice();
    for w in 0..n {
        let start = w * stride;
        for v in 0..d {
            let src_off = v * t + start;
            let dst_off = w * d * len + v * len;
            if dilation == 1 {
                dst[dst_off..dst_off + len].copy_from_slice(&src[src_off..src_off + len]);
            } else {
                for i in 0..len {
                    dst[dst_off + i] = src[src_off + i * dilation];
                }
            }
        }
    }
    out
}

/// Scatters gradients flowing into the unfolded window matrix back onto the
/// original `(D, T)` layout (the adjoint of [`unfold`]). Overlapping windows
/// accumulate.
pub fn unfold_backward(
    grad_windows: &Tensor,
    d: usize,
    t: usize,
    len: usize,
    stride: usize,
) -> Tensor {
    unfold_dilated_backward(grad_windows, d, t, len, stride, 1)
}

/// Adjoint of [`unfold_dilated`]; overlapping taps accumulate.
pub fn unfold_dilated_backward(
    grad_windows: &Tensor,
    d: usize,
    t: usize,
    len: usize,
    stride: usize,
    dilation: usize,
) -> Tensor {
    let n = count_windows_dilated(t, len, stride, dilation);
    assert_eq!(
        grad_windows.rows(),
        n,
        "window-count mismatch in unfold_backward"
    );
    assert_eq!(
        grad_windows.cols(),
        d * len,
        "window-width mismatch in unfold_backward"
    );
    let mut out = Tensor::zeros([d, t]);
    let src = grad_windows.as_slice();
    let dst = out.as_mut_slice();
    for w in 0..n {
        let start = w * stride;
        for v in 0..d {
            let src_off = w * d * len + v * len;
            let dst_off = v * t + start;
            for i in 0..len {
                dst[dst_off + i * dilation] += src[src_off + i];
            }
        }
    }
    out
}

/// Squared Euclidean norm `‖w‖²` of every stride-`stride` window of length
/// `len`, without materializing the windows: one O(T) prefix-sum-of-squares
/// pass per variable (f64 accumulators, see
/// [`crate::stats::prefix_sq_sums`]), then O(1) per window. All measures of
/// a scale share this vector — it is the backbone of the fused shapelet
/// transform.
pub fn window_sq_norms(series: &Tensor, len: usize, stride: usize) -> Vec<f32> {
    let (d, t) = (series.rows(), series.cols());
    let n = count_windows(t, len, stride);
    let mut acc = vec![0.0f64; n];
    for v in 0..d {
        let ps = crate::stats::prefix_sq_sums(series.row(v));
        for (w, a) in acc.iter_mut().enumerate() {
            let start = w * stride;
            *a += ps[start + len] - ps[start];
        }
    }
    acc.into_iter().map(|x| x as f32).collect()
}

/// Dot product of a flattened channel-major shapelet (layout
/// `[var0[0..len], var1[0..len], ...]`, matching [`unfold`] rows) against
/// the window starting at `start`, reading the series in place. Generic over
/// the tap element: `f32` taps run [`crate::matmul::dot`], binary16 taps the
/// mixed-precision kernels of [`crate::quant`].
///
/// Dispatch telemetry is the caller's job (batch one
/// [`TapElem::count_dispatch`] per window loop): this kernel runs once per
/// window, and even a disabled gate check here would be measurable.
#[inline]
pub fn window_dot<T: TapElem>(series: &Tensor, shapelet: &[T], start: usize, len: usize) -> f32 {
    let d = series.rows();
    debug_assert_eq!(shapelet.len(), d * len, "shapelet width mismatch");
    let mut cross = 0.0f32;
    for v in 0..d {
        let row = series.row(v);
        cross += T::dot(&row[start..start + len], &shapelet[v * len..(v + 1) * len]);
    }
    cross
}

/// [`window_dot`] for four shapelets at once, via the load-sharing
/// [`TapElem::dot4`] kernel: the window is streamed through the registers
/// once and FMA-ed against all four tap rows. Backbone of the fused
/// transform's shapelet-blocked inner loop.
#[inline]
pub fn window_dot4<T: TapElem>(
    series: &Tensor,
    taps: [&[T]; 4],
    start: usize,
    len: usize,
) -> [f32; 4] {
    let d = series.rows();
    debug_assert!(
        taps.iter().all(|t| t.len() == d * len),
        "shapelet width mismatch"
    );
    let mut cross = [0.0f32; 4];
    for v in 0..d {
        let span = v * len..(v + 1) * len;
        let r = T::dot4(
            &series.row(v)[start..start + len],
            taps.map(|t| &t[span.clone()]),
        );
        for (c, x) in cross.iter_mut().zip(r) {
            *c += x;
        }
    }
    cross
}

/// [`window_dot4`] with a 2-row tap block ([`TapElem::dot2`]).
#[inline]
pub fn window_dot2<T: TapElem>(
    series: &Tensor,
    taps: [&[T]; 2],
    start: usize,
    len: usize,
) -> [f32; 2] {
    let d = series.rows();
    debug_assert!(
        taps.iter().all(|t| t.len() == d * len),
        "shapelet width mismatch"
    );
    let mut cross = [0.0f32; 2];
    for v in 0..d {
        let span = v * len..(v + 1) * len;
        let r = T::dot2(
            &series.row(v)[start..start + len],
            taps.map(|t| &t[span.clone()]),
        );
        for (c, x) in cross.iter_mut().zip(r) {
            *c += x;
        }
    }
    cross
}

/// [`window_dot2`] against four window positions at once, sharing every tap
/// load across them ([`TapElem::dot2x4`]). Returns `cross[w][row]`; each
/// entry is bit-identical to the corresponding single-window
/// [`window_dot2`] value.
#[inline]
pub fn window_dot2x4<T: TapElem>(
    series: &Tensor,
    taps: [&[T]; 2],
    starts: [usize; 4],
    len: usize,
) -> [[f32; 2]; 4] {
    let d = series.rows();
    debug_assert!(
        taps.iter().all(|t| t.len() == d * len),
        "shapelet width mismatch"
    );
    let mut cross = [[0.0f32; 2]; 4];
    for v in 0..d {
        let row = series.row(v);
        let span = v * len..(v + 1) * len;
        let r = T::dot2x4(
            starts.map(|s| &row[s..s + len]),
            taps.map(|t| &t[span.clone()]),
        );
        for (c, x) in cross.iter_mut().zip(r) {
            for (cc, xx) in c.iter_mut().zip(x) {
                *cc += xx;
            }
        }
    }
    cross
}

/// Dot products of a flattened channel-major shapelet against **every**
/// stride-`stride` window, streaming over the original series buffer — the
/// zero-materialization replacement for `unfold` + one `matmul_transb`
/// column. Appends `count_windows` values to `out`.
pub fn sliding_dots(
    series: &Tensor,
    shapelet: &[f32],
    len: usize,
    stride: usize,
    out: &mut Vec<f32>,
) {
    let (d, t) = (series.rows(), series.cols());
    assert_eq!(shapelet.len(), d * len, "shapelet width mismatch");
    let n = count_windows(t, len, stride);
    crate::matmul::count_dot_dispatch(len, (d * n) as u64);
    let base = out.len();
    out.resize(base + n, 0.0);
    let dst = &mut out[base..];
    for v in 0..d {
        let row = series.row(v);
        let taps = &shapelet[v * len..(v + 1) * len];
        for (w, o) in dst.iter_mut().enumerate() {
            let start = w * stride;
            *o += crate::matmul::dot(&row[start..start + len], taps);
        }
    }
}

/// Extracts a single window `(D, len)` starting at `start` from a `(D, T)`
/// series.
pub fn window_at(series: &Tensor, start: usize, len: usize) -> Tensor {
    let (d, t) = (series.rows(), series.cols());
    assert!(
        start + len <= t,
        "window [{start}, {}) exceeds series length {t}",
        start + len
    );
    let mut out = Tensor::zeros([d, len]);
    for v in 0..d {
        let row = series.row(v);
        out.row_mut(v).copy_from_slice(&row[start..start + len]);
    }
    out
}

/// Writes one window's values channel-major (`[var0 | var1 | ...]` — the
/// flattened shapelet-row layout) into `dst`, which must have length
/// `D·len`. The no-allocation sibling of [`window_at`]: analytic backward
/// passes call it once per shapelet into a reused scratch row.
pub fn window_row_into(series: &Tensor, start: usize, len: usize, dst: &mut [f32]) {
    let (d, t) = (series.rows(), series.cols());
    assert!(
        start + len <= t,
        "window [{start}, {}) exceeds series length {t}",
        start + len
    );
    assert_eq!(dst.len(), d * len, "dst must hold D·len values");
    for v in 0..d {
        dst[v * len..(v + 1) * len].copy_from_slice(&series.row(v)[start..start + len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(count_windows(10, 3, 1), 8);
        assert_eq!(count_windows(10, 3, 2), 4);
        assert_eq!(count_windows(10, 10, 1), 1);
        assert_eq!(count_windows(5, 6, 1), 0);
    }

    #[test]
    fn unfold_univariate() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0], [1, 5]);
        let w = unfold(&s, 3, 1);
        assert_eq!(w.shape().dims(), &[3, 3]);
        assert_eq!(w.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(w.row(2), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn unfold_multivariate_channel_major() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0], [2, 3]);
        let w = unfold(&s, 2, 1);
        assert_eq!(w.shape().dims(), &[2, 4]);
        assert_eq!(w.row(0), &[0.0, 1.0, 10.0, 11.0]);
        assert_eq!(w.row(1), &[1.0, 2.0, 11.0, 12.0]);
    }

    #[test]
    fn unfold_with_stride() {
        let s = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [1, 8]);
        let w = unfold(&s, 2, 3);
        assert_eq!(w.shape().dims(), &[3, 2]);
        assert_eq!(w.row(1), &[3.0, 4.0]);
        assert_eq!(w.row(2), &[6.0, 7.0]);
    }

    #[test]
    fn backward_accumulates_overlaps() {
        // Series length 4, windows of length 2, stride 1 → 3 windows.
        // Put gradient 1 on every window element; interior timesteps are
        // covered twice, the ends once.
        let g = Tensor::ones([3, 2]);
        let back = unfold_backward(&g, 1, 4, 2, 1);
        assert_eq!(back.as_slice(), &[1.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn backward_is_adjoint_of_forward() {
        // <unfold(x), g> == <x, unfold_backward(g)> for random x, g.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Tensor::randn([2, 9], &mut rng);
        let (len, stride) = (3, 2);
        let w = unfold(&x, len, stride);
        let g = Tensor::randn([w.rows(), w.cols()], &mut rng);
        let lhs: f32 = w.dot(&g);
        let back = unfold_backward(&g, 2, 9, len, stride);
        let rhs: f32 = x.dot(&back);
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn dilated_unfold_and_adjoint() {
        let s = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [1, 8]);
        let w = unfold_dilated(&s, 3, 1, 2); // taps at offsets 0, 2, 4
        assert_eq!(w.shape().dims(), &[4, 3]);
        assert_eq!(w.row(0), &[0.0, 2.0, 4.0]);
        assert_eq!(w.row(3), &[3.0, 5.0, 7.0]);

        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = Tensor::randn([4, 3], &mut rng);
        let lhs = w.dot(&g);
        let rhs = s.dot(&unfold_dilated_backward(&g, 1, 8, 3, 1, 2));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn window_sq_norms_match_materialized_rows() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for &(d, t, len, stride) in &[
            (1usize, 16usize, 4usize, 1usize),
            (3, 33, 5, 2),
            (2, 8, 8, 3),
        ] {
            let s = Tensor::randn([d, t], &mut rng);
            let norms = window_sq_norms(&s, len, stride);
            let w = unfold(&s, len, stride);
            assert_eq!(norms.len(), w.rows());
            for (i, &norm) in norms.iter().enumerate() {
                let direct: f32 = w.row(i).iter().map(|&x| x * x).sum();
                assert!(
                    (norm - direct).abs() < 1e-4 * (1.0 + direct),
                    "window {i}: prefix {norm} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn sliding_dots_match_unfold_matmul() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for &(d, t, len, stride) in &[(1usize, 20usize, 3usize, 1usize), (2, 17, 4, 2)] {
            let s = Tensor::randn([d, t], &mut rng);
            let shapelet = Tensor::randn([1, d * len], &mut rng);
            let mut got = Vec::new();
            sliding_dots(&s, shapelet.as_slice(), len, stride, &mut got);
            let w = unfold(&s, len, stride);
            let want = crate::matmul::matmul_transb(&w, &shapelet);
            assert_eq!(got.len(), want.rows());
            for (i, &g) in got.iter().enumerate() {
                assert!((g - want.at2(i, 0)).abs() < 1e-4, "window {i}");
            }
            // window_dot agrees with the vectorized variant bit-for-bit.
            for (i, &g) in got.iter().enumerate() {
                assert_eq!(g, window_dot(&s, shapelet.as_slice(), i * stride, len));
            }
        }
    }

    #[test]
    fn window_dot4_matches_single_window_dots() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for &(d, t, len, stride) in &[(1usize, 30usize, 5usize, 1usize), (3, 90, 70, 2)] {
            let s = Tensor::randn([d, t], &mut rng);
            let bank = Tensor::randn([4, d * len], &mut rng);
            let taps = [bank.row(0), bank.row(1), bank.row(2), bank.row(3)];
            for w in 0..count_windows(t, len, stride) {
                let got = window_dot4(&s, taps, w * stride, len);
                for (j, &tap_row) in taps.iter().enumerate() {
                    let want = window_dot(&s, tap_row, w * stride, len);
                    assert!(
                        (got[j] - want).abs() < 1e-4 * (1.0 + want.abs()),
                        "w={w} j={j}: {} vs {want}",
                        got[j]
                    );
                }
            }
        }
    }

    #[test]
    fn window_extraction() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0], [2, 4]);
        let w = window_at(&s, 1, 2);
        assert_eq!(w.shape().dims(), &[2, 2]);
        assert_eq!(w.row(0), &[1.0, 2.0]);
        assert_eq!(w.row(1), &[11.0, 12.0]);
    }

    #[test]
    fn window_row_matches_window_at_flattened() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0], [2, 4]);
        let mut row = [0.0f32; 4];
        window_row_into(&s, 1, 2, &mut row);
        assert_eq!(row, [1.0, 2.0, 11.0, 12.0]);
        assert_eq!(window_at(&s, 1, 2).as_slice(), &row);
    }

    #[test]
    #[should_panic(expected = "D·len")]
    fn window_row_rejects_wrong_dst_length() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], [1, 4]);
        let mut row = [0.0f32; 3];
        window_row_into(&s, 0, 2, &mut row);
    }
}
