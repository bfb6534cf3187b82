//! Sliding windows over (multivariate) time series.
//!
//! The shapelet transform compares every learnable shapelet against every
//! length-`L` window of a series. `unfold` materializes those windows as the
//! rows of a matrix so the comparison becomes one `matmul_transb` against the
//! shapelet bank: the reference formulation. The fused engine instead reads
//! the windows in place from a [`time_major`] copy of the series, where each
//! window is one contiguous slice, and takes their norms from
//! [`window_sq_norms`].

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

/// The time-major copy of a `(D, T)` series, zero-padded on the right to at
/// least `min_len` steps: a `(max(T, min_len), D)` tensor holding step `t`
/// of variable `v` at `t·D + v`. In this layout the window of `len` steps
/// starting at step `s` is the contiguous slice `[s·D, (s + len)·D)`, so one
/// dot product of length `D·len` scores it against a tap row stored the same
/// way.
pub fn time_major(series: &Tensor, min_len: usize) -> Tensor {
    let (d, t) = (series.rows(), series.cols());
    let mut out = Tensor::zeros([t.max(min_len), d]);
    let dst = out.as_mut_slice();
    for v in 0..d {
        for (i, &x) in series.row(v).iter().enumerate() {
            dst[i * d + v] = x;
        }
    }
    out
}

/// Squared Euclidean norm `‖w‖²` of every stride-`stride` window of `len`
/// steps of a time-major buffer `x` of `D`-variable steps (layout of
/// [`time_major`]), without materializing the windows: one O(D·T)
/// prefix-sum-of-squares pass over the interleaved buffer, kept at step
/// boundaries (f64 accumulators, see [`crate::stats::prefix_sq_sums`]),
/// then O(1) per window. All measures of a scale share this vector — it is
/// the backbone of the fused shapelet transform. A window's norm depends
/// only on its own values and on the values before it in `x`, so a crop's
/// norms read from its slice of a longer buffer equal those of its own
/// copy.
pub fn window_sq_norms(x: &[f32], d: usize, len: usize, stride: usize) -> Vec<f32> {
    let ps = crate::stats::prefix_sq_sums(x, d);
    (0..count_windows(ps.len() - 1, len, stride))
        .map(|w| (ps[w * stride + len] - ps[w * stride]) as f32)
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dot::dots;

    /// One `dots` call over a window's contiguous time-major slice against
    /// the time-major tap row matches the unfold-then-matmul route.
    #[test]
    fn sliding_dots_match_unfold_matmul() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for &(d, t, len, stride) in &[(1usize, 20usize, 3usize, 1usize), (2, 17, 4, 2)] {
            let s = Tensor::randn([d, t], &mut rng);
            let shapelet = Tensor::randn([1, d * len], &mut rng);
            let want = crate::matmul::matmul_transb(&unfold(&s, len, stride), &shapelet);
            assert_eq!(count_windows(t, len, stride), want.rows());
            let x = time_major(&s, 0);
            let taps = time_major(&shapelet.reshape([d, len]), 0);
            for i in 0..want.rows() {
                let at = i * stride * d;
                let got = dots([&x.as_slice()[at..at + d * len]], [taps.as_slice()])[0][0];
                assert!((got - want.at2(i, 0)).abs() < 1e-4, "window {i}");
            }
        }
    }

    /// A 4-row block over contiguous window slices gives each row the
    /// one-row bits.
    #[test]
    fn window_dot4_matches_single_window_dots() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for &(d, t, len, stride) in &[(1usize, 30usize, 5usize, 1usize), (3, 90, 70, 2)] {
            let x = time_major(&Tensor::randn([d, t], &mut rng), 0);
            let bank = Tensor::randn([4, d * len], &mut rng);
            let taps = [bank.row(0), bank.row(1), bank.row(2), bank.row(3)];
            for w in 0..count_windows(t, len, stride) {
                let at = w * stride * d;
                let win = &x.as_slice()[at..at + d * len];
                let got = dots([win], taps);
                for (j, &tap_row) in taps.iter().enumerate() {
                    let want = dots([win], [tap_row])[0][0];
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
    fn time_major_interleaves_and_pads() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0], [2, 3]);
        let x = time_major(&s, 4);
        assert_eq!(x.shape().dims(), &[4, 2]);
        assert_eq!(x.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0, 0.0, 0.0]);
        assert_eq!(time_major(&s, 2).transpose2(), s);
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
            let norms = window_sq_norms(time_major(&s, 0).as_slice(), d, len, stride);
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
}
