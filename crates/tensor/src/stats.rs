//! Descriptive statistics over slices — the primitives behind dataset
//! normalization, synthetic-data generation and classical feature baselines.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Population standard deviation.
pub fn std_dev(xs: &[f32]) -> f32 {
    variance(xs).sqrt()
}

/// Population variance.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / xs.len() as f32
}

/// Z-normalizes in place: zero mean, unit variance. Slices with (near-)zero
/// variance are centred only, which keeps constant segments finite.
pub fn znorm_inplace(xs: &mut [f32]) {
    let m = mean(xs);
    let s = std_dev(xs);
    if s > 1e-8 {
        for x in xs.iter_mut() {
            *x = (*x - m) / s;
        }
    } else {
        for x in xs.iter_mut() {
            *x -= m;
        }
    }
}

/// Z-normalized copy of a slice.
pub fn znorm(xs: &[f32]) -> Vec<f32> {
    let mut v = xs.to_vec();
    znorm_inplace(&mut v);
    v
}

/// Exclusive prefix sums of squares in f64, summed in order and kept at
/// every `step`-th element: `out[i] = Σ_{j<i·step} xs[j]²`,
/// `out.len() == xs.len() / step + 1` (`xs` holds whole steps). The f64
/// accumulation keeps the windowed differences `out[b] − out[a]` accurate
/// to f32 round-off even over very long series — this is the O(D·T) pass
/// behind the O(1)-per-window Euclidean norms of the fused shapelet
/// transform, one step being the `D` values of a time-major time step.
pub fn prefix_sq_sums(xs: &[f32], step: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(xs.len() / step + 1);
    let mut acc = 0.0f64;
    out.push(acc);
    for chunk in xs.chunks_exact(step) {
        for &x in chunk {
            acc += (x as f64) * (x as f64);
        }
        out.push(acc);
    }
    out
}

/// Pearson correlation coefficient of two equal-length slices
/// (0 when either side is constant).
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "pearson requires equal lengths");
    let (ma, mb) = (mean(a), mean(b));
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        num += (x - ma) * (y - mb);
        da += (x - ma) * (x - ma);
        db += (y - mb) * (y - mb);
    }
    let den = (da * db).sqrt();
    if den < 1e-12 {
        0.0
    } else {
        num / den
    }
}

/// Skewness (third standardized moment; 0 for constant or empty data).
pub fn skewness(xs: &[f32]) -> f32 {
    let s = std_dev(xs);
    if s < 1e-8 || xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| ((x - m) / s).powi(3)).sum::<f32>() / xs.len() as f32
}

/// Excess kurtosis (fourth standardized moment − 3; 0 for constant data).
pub fn kurtosis(xs: &[f32]) -> f32 {
    let s = std_dev(xs);
    if s < 1e-8 || xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| ((x - m) / s).powi(4)).sum::<f32>() / xs.len() as f32 - 3.0
}

/// Lag-`k` autocorrelation (0 when out of range or constant).
pub fn autocorr(xs: &[f32], k: usize) -> f32 {
    if k >= xs.len() {
        return 0.0;
    }
    let m = mean(xs);
    let var: f32 = xs.iter().map(|&x| (x - m) * (x - m)).sum();
    if var < 1e-12 {
        return 0.0;
    }
    let num: f32 = (0..xs.len() - k)
        .map(|i| (xs[i] - m) * (xs[i + k] - m))
        .sum();
    num / var
}

/// `q`-th percentile (linear interpolation, `q ∈ [0, 1]`). Panics on empty
/// input.
pub fn percentile(xs: &[f32], q: f32) -> f32 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile q must be in [0,1], got {q}"
    );
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (v.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f32;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f32]) -> f32 {
    percentile(xs, 0.5)
}

/// Number of mean-crossings in the slice — a cheap shape descriptor used by
/// the classical-feature baseline.
pub fn mean_crossings(xs: &[f32]) -> usize {
    if xs.len() < 2 {
        return 0;
    }
    let m = mean(xs);
    xs.windows(2)
        .filter(|w| (w[0] - m) * (w[1] - m) < 0.0)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-6);
        assert!((variance(&xs) - 1.25).abs() < 1e-6);
    }

    #[test]
    fn znorm_properties() {
        let mut xs = vec![2.0, 4.0, 6.0, 8.0];
        znorm_inplace(&mut xs);
        assert!(mean(&xs).abs() < 1e-6);
        assert!((std_dev(&xs) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn znorm_constant_centres_without_nan() {
        let mut xs = vec![5.0; 4];
        znorm_inplace(&mut xs);
        assert!(xs.iter().all(|x| x.abs() < 1e-6 && x.is_finite()));
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-6);
        let c = [3.0, 2.0, 1.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-6);
        let d = [7.0, 7.0, 7.0];
        assert_eq!(pearson(&a, &d), 0.0);
    }

    #[test]
    fn percentiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn autocorr_of_periodic_signal() {
        let xs: Vec<f32> = (0..64)
            .map(|i| (i as f32 * std::f32::consts::PI / 4.0).sin())
            .collect();
        // Period 8 → lag-8 autocorrelation near +1, lag-4 near −1.
        assert!(autocorr(&xs, 8) > 0.8);
        assert!(autocorr(&xs, 4) < -0.8);
    }

    #[test]
    fn crossings() {
        let xs = [1.0, -1.0, 1.0, -1.0];
        assert_eq!(mean_crossings(&xs), 3);
        assert_eq!(mean_crossings(&[1.0]), 0);
    }

    #[test]
    fn prefix_sq_sums_window_differences() {
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        let ps = prefix_sq_sums(&xs, 1);
        assert_eq!(ps.len(), 5);
        assert_eq!(ps[0], 0.0);
        // Window [1, 3) = 2² + 3² = 13.
        assert!((ps[3] - ps[1] - 13.0).abs() < 1e-9);
        assert!((ps[4] - 30.0).abs() < 1e-9);
        assert!(prefix_sq_sums(&[], 1).len() == 1);
        // Two-value steps keep every other boundary of the same sums.
        let pairs = prefix_sq_sums(&xs, 2);
        assert_eq!(pairs, vec![ps[0], ps[2], ps[4]]);
    }

    #[test]
    fn skew_and_kurt_of_symmetric_data() {
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&xs).abs() < 1e-6);
        assert!(kurtosis(&xs) < 0.0); // platykurtic uniform-ish sample
    }
}
