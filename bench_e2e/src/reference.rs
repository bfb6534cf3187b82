//! An f64 re-implementation of one shapelet feature, written from the
//! measure definitions alone, against which the program's f32 and f16
//! kernels are checked.
//!
//! A feature cell `(series i, column c)` is the best score of shapelet `c`
//! over every window of the normalized series. Only the stored taps (the
//! bank's f32 view, which for a quantized bank holds the dequantized
//! values) and the raw series come from the program.

use tcsl_data::normalize::Normalization;
use tcsl_data::TimeSeries;
use tcsl_shapelet::{Measure, ShapeletBank};

/// Absolute tolerance, scaled by `1 + |reference|`, between an f32 kernel
/// result and the f64 reference. The kernels round every product and norm
/// to f32; a wrong normalization, window or tap moves features by orders
/// of magnitude more.
pub const TOLERANCE: f64 = 2e-4;

/// Whether `got` agrees with `want` within [`TOLERANCE`].
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOLERANCE * (1.0 + want.abs())
}

/// The series normalized in f64, one row per variable, following the
/// definitions of `Normalization`: per-variable z-score with the
/// population deviation (centred only below 1e-8), per-variable min-max to
/// `[0, 1]` (zero below a span of 1e-8), or unchanged.
pub fn normalize(series: &TimeSeries, how: Normalization) -> Vec<Vec<f64>> {
    (0..series.n_vars())
        .map(|v| {
            let xs: Vec<f64> = series.variable(v).iter().map(|&x| f64::from(x)).collect();
            let n = xs.len() as f64;
            match how {
                Normalization::None => xs,
                Normalization::ZScore => {
                    let m = xs.iter().sum::<f64>() / n;
                    let s = (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n).sqrt();
                    if s > 1e-8 {
                        xs.iter().map(|x| (x - m) / s).collect()
                    } else {
                        xs.iter().map(|x| x - m).collect()
                    }
                }
                Normalization::MinMax => {
                    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    if hi - lo > 1e-8 {
                        xs.iter().map(|x| (x - lo) / (hi - lo)).collect()
                    } else {
                        vec![0.0; xs.len()]
                    }
                }
            }
        })
        .collect()
}

/// Scores of feature column `col` against every window of the normalized
/// series `x` (zero-padded on the right to the shapelet length, windows
/// every `stride` steps).
pub fn window_scores(bank: &ShapeletBank, col: usize, x: &[Vec<f64>]) -> Vec<f64> {
    let (gi, k) = bank
        .feature_to_shapelet(col)
        .expect("sampled columns lie inside the bank");
    let g = &bank.groups()[gi];
    let taps: Vec<f64> = g.shapelets.row(k).iter().map(|&s| f64::from(s)).collect();
    let (len, d) = (g.len, bank.d);
    let t = x[0].len().max(len);
    let at = |v: usize, i: usize| x[v].get(i).copied().unwrap_or(0.0);
    let width = (d * len) as f64;
    let s_sq: f64 = taps.iter().map(|s| s * s).sum();
    (0..=t - len)
        .step_by(g.stride)
        .map(|start| {
            let (mut cross, mut w_sq, mut diff_sq) = (0.0f64, 0.0f64, 0.0f64);
            for v in 0..d {
                for j in 0..len {
                    let w = at(v, start + j);
                    let s = taps[v * len + j];
                    cross += w * s;
                    w_sq += w * w;
                    diff_sq += (w - s) * (w - s);
                }
            }
            match g.measure {
                Measure::Euclidean => (diff_sq / width).sqrt(),
                Measure::Cosine => cross / ((w_sq + 1e-12).sqrt() * (s_sq + 1e-12).sqrt()),
                Measure::CrossCorrelation => cross / width,
            }
        })
        .collect()
}

/// The measure's pooled best score over `scores`: the minimum distance or
/// the maximum similarity.
pub fn best(bank: &ShapeletBank, col: usize, scores: &[f64]) -> f64 {
    let (gi, _) = bank
        .feature_to_shapelet(col)
        .expect("sampled columns lie inside the bank");
    let fold = |f: fn(f64, f64) -> f64, init| scores.iter().copied().fold(init, f);
    if bank.groups()[gi].measure.higher_is_better() {
        fold(f64::max, f64::NEG_INFINITY)
    } else {
        fold(f64::min, f64::INFINITY)
    }
}

/// Checks `features[i][col]` for the sampled `(i, col)` cells against the
/// f64 reference under normalization `how`.
pub fn check_cells(
    bank: &ShapeletBank,
    how: Normalization,
    series: &[TimeSeries],
    cells: &[(usize, usize)],
    feature: impl Fn(usize, usize) -> f32,
) -> Result<(), String> {
    for &(i, col) in cells {
        let x = normalize(&series[i], how);
        let want = best(bank, col, &window_scores(bank, col, &x));
        let got = f64::from(feature(i, col));
        if !close(got, want) {
            return Err(format!(
                "feature ({i}, {col}) = {got} but the f64 reference gives {want}"
            ));
        }
    }
    Ok(())
}

/// `n` feature cells spread over `rows × cols`, shifted by `salt` so that
/// successive operations sample different cells.
pub fn sample_cells(rows: usize, cols: usize, n: usize, salt: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|j| {
            let k = j + salt * n;
            ((k * 7919) % rows, (k * 104_729 + k / cols) % cols)
        })
        .collect()
}
