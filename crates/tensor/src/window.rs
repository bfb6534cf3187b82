//! Sliding-window unfolding of (multivariate) time series.
//!
//! The shapelet transform compares every learnable shapelet against every
//! length-`L` window of a series. `unfold` materializes those windows as the
//! rows of a matrix so the comparison becomes one `matmul_transb` against the
//! shapelet bank.

use crate::dot::{dots, TapElem};
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

/// Dot products of `R` flattened channel-major tap rows (layout
/// `[var0[0..len], var1[0..len], ...]`, matching [`unfold`] rows) against
/// the `W` windows starting at `starts`, reading the series in place:
/// `out[r][w]` sums, in variable order, the per-variable [`dots`] values.
/// Every entry therefore equals the one-row `window_dots::<T, 1, 1>` value
/// bit for bit, whatever the block shape.
///
/// Dispatch telemetry is the caller's job (batch one
/// [`TapElem::count_dispatch`] per window loop): this kernel runs once per
/// window block, and even a disabled gate check here would be measurable.
#[inline(always)]
pub fn window_dots<T: TapElem, const R: usize, const W: usize>(
    series: &Tensor,
    taps: [&[T]; R],
    starts: [usize; W],
    len: usize,
) -> [[f32; W]; R] {
    let d = series.rows();
    debug_assert!(
        taps.iter().all(|t| t.len() == d * len),
        "shapelet width mismatch"
    );
    let mut cross = [[0.0f32; W]; R];
    for v in 0..d {
        let row = series.row(v);
        let span = v * len..(v + 1) * len;
        let r = dots(
            starts.map(|s| &row[s..s + len]),
            taps.map(|t| &t[span.clone()]),
        );
        for (c, x) in cross.iter_mut().zip(r) {
            for (c, x) in c.iter_mut().zip(x) {
                *c += x;
            }
        }
    }
    cross
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

    /// Scoring every window with `window_dots` matches the unfold-then-
    /// matmul route, and each score is the in-order sum of the
    /// per-variable one-row dots, bit for bit.
    #[test]
    fn sliding_dots_match_unfold_matmul() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for &(d, t, len, stride) in &[(1usize, 20usize, 3usize, 1usize), (2, 17, 4, 2)] {
            let s = Tensor::randn([d, t], &mut rng);
            let shapelet = Tensor::randn([1, d * len], &mut rng);
            let taps = shapelet.as_slice();
            let want = crate::matmul::matmul_transb(&unfold(&s, len, stride), &shapelet);
            assert_eq!(count_windows(t, len, stride), want.rows());
            for i in 0..want.rows() {
                let start = i * stride;
                let got = window_dots(&s, [taps], [start], len)[0][0];
                assert!((got - want.at2(i, 0)).abs() < 1e-4, "window {i}");
                let mut sum = 0.0f32;
                for v in 0..d {
                    let span = v * len..(v + 1) * len;
                    sum += crate::matmul::dot(&s.row(v)[start..start + len], &taps[span]);
                }
                assert_eq!(got.to_bits(), sum.to_bits(), "window {i}");
            }
        }
    }

    /// A 4-row block gives each row the one-row `window_dots` bits.
    #[test]
    fn window_dot4_matches_single_window_dots() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for &(d, t, len, stride) in &[(1usize, 30usize, 5usize, 1usize), (3, 90, 70, 2)] {
            let s = Tensor::randn([d, t], &mut rng);
            let bank = Tensor::randn([4, d * len], &mut rng);
            let taps = [bank.row(0), bank.row(1), bank.row(2), bank.row(3)];
            for w in 0..count_windows(t, len, stride) {
                let got = window_dots(&s, taps, [w * stride], len);
                for (j, &tap_row) in taps.iter().enumerate() {
                    let want = window_dots(&s, [tap_row], [w * stride], len)[0][0];
                    assert_eq!(
                        got[j][0].to_bits(),
                        want.to_bits(),
                        "w={w} j={j}: {} vs {want}",
                        got[j][0]
                    );
                }
            }
        }
    }

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
