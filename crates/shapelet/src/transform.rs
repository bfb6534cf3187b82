//! Fast (gradient-free) shapelet transform: series → feature vector.
//!
//! This is the inference path used by the freezing mode, the exploration
//! component and the experiment harnesses. It shares its numerics with
//! [`crate::diff_transform`] (tested for agreement), runs groups serially
//! and series in parallel.
//!
//! [`transform_series`] runs the fused streaming kernel of [`crate::fused`]:
//! no window matrix is materialized, window norms come from one prefix-sum
//! pass per scale, and shapelet norms and taps (at the bank's precision)
//! from the bank's cached [`precomputation`](ShapeletBank::precomputed).
//! [`transform_series_oracle`] keeps the original unfold-based formulation
//! as the reference the fused path is property-tested against (and as the
//! naive baseline of the benchmark trajectory).

use crate::bank::ShapeletBank;
use crate::fused::{pool_measure, ScaleWindows};
use tcsl_data::{Dataset, TimeSeries};
use tcsl_error::{TcslError, TcslResult};
use tcsl_tensor::parallel::parallel_map;
use tcsl_tensor::window::unfold;
use tcsl_tensor::Tensor;

/// Zero-pads a `(D, T)` series on the right to at least `min_len` steps.
/// Series at least `min_len` long are returned as-is.
pub fn pad_to_len(values: &Tensor, min_len: usize) -> Tensor {
    let (d, t) = (values.rows(), values.cols());
    if t >= min_len {
        return values.clone();
    }
    let mut out = Tensor::zeros([d, min_len]);
    for v in 0..d {
        out.row_mut(v)[..t].copy_from_slice(values.row(v));
    }
    out
}

/// Window matrix for one scale of the bank, padding short series so every
/// scale always yields at least one window.
pub fn windows_for(values: &Tensor, len: usize, stride: usize) -> Tensor {
    let padded = pad_to_len(values, len);
    unfold(&padded, len, stride)
}

/// Validates one request series against the bank: the variable count must
/// match and every sample must be finite. `label` names the series in the
/// error (e.g. `"series 3"`).
pub fn check_series(bank: &ShapeletBank, series: &TimeSeries, label: &str) -> TcslResult<()> {
    if series.n_vars() != bank.d {
        return Err(TcslError::shape_mismatch(
            format!("{label} variables"),
            bank.d,
            series.n_vars(),
        ));
    }
    if series.is_empty() {
        return Err(TcslError::empty(label.to_string()));
    }
    if !series.values().as_slice().iter().all(|x| x.is_finite()) {
        return Err(TcslError::non_finite(label.to_string()));
    }
    Ok(())
}

/// Transforms one series into its `D_repr`-dimensional representation via
/// the fused streaming kernel.
///
/// Dimension mismatches, empty series and non-finite samples are request
/// errors, not panics.
pub fn transform_series(bank: &ShapeletBank, series: &TimeSeries) -> TcslResult<Vec<f32>> {
    check_series(bank, series, "series")?;
    Ok(transform_series_unchecked(bank, series))
}

/// [`transform_series`] without the request validation — the training and
/// benchmark hot paths call this on data they already validated. A
/// mismatched series is an internal invariant violation here (panics).
pub fn transform_series_unchecked(bank: &ShapeletBank, series: &TimeSeries) -> Vec<f32> {
    assert_eq!(
        series.n_vars(),
        bank.d,
        "series has {} variables, bank was built for {}",
        series.n_vars(),
        bank.d
    );
    // The serving-path unit of work: one series in, one feature row out.
    // Host-class latency distribution; a disabled timer never reads the
    // clock.
    let _t = tcsl_obs::hist::TRANSFORM_SERIES_NS.start_timer();
    let mut features = Vec::with_capacity(bank.repr_dim());
    // The per-scale window state (padded buffer + prefix-sum norms) is
    // shared between the measures of one scale.
    let mut cached: Option<ScaleWindows> = None;
    let pre = bank.precomputed();
    for (gi, g) in bank.groups().iter().enumerate() {
        if !cached
            .as_ref()
            .is_some_and(|sw| sw.matches(g.len, g.stride))
        {
            cached = Some(ScaleWindows::new(series.values(), g.len, g.stride));
        }
        #[allow(clippy::disallowed_methods)] // populated on the previous line
        let sw = cached.as_ref().expect("just populated");
        let (pooled, _args) = pool_measure(sw, g.measure, &pre[gi]);
        features.extend_from_slice(&pooled);
    }
    features
}

/// [`transform_series`] via the unfold-based reference path: materializes
/// the window matrix per scale and scores it with
/// [`Measure::score_matrix`](crate::Measure::score_matrix). Kept as the
/// oracle the fused kernel must agree with, and as the "before" side of the
/// transform benchmark.
pub fn transform_series_oracle(bank: &ShapeletBank, series: &TimeSeries) -> Vec<f32> {
    assert_eq!(
        series.n_vars(),
        bank.d,
        "series has {} variables, bank was built for {}",
        series.n_vars(),
        bank.d
    );
    let mut features = Vec::with_capacity(bank.repr_dim());
    // Window matrices are shared between the measures of one scale.
    let mut cached: Option<(usize, Tensor)> = None;
    for g in bank.groups() {
        if cached.as_ref().is_none_or(|(len, _)| *len != g.len) {
            cached = Some((g.len, windows_for(series.values(), g.len, g.stride)));
        }
        #[allow(clippy::disallowed_methods)] // populated on the previous line
        let windows = &cached.as_ref().expect("just populated").1;
        let scores = g.measure.score_matrix(windows, &g.shapelets);
        let (pooled, _args) = g.measure.pool(&scores);
        features.extend_from_slice(pooled.as_slice());
    }
    features
}

/// Transforms a whole dataset into an `(N, D_repr)` feature matrix,
/// parallel over series on the persistent pool. The bank-side
/// precomputation is forced once up front so the pool workers share it
/// instead of racing to build it.
pub fn transform_dataset(bank: &ShapeletBank, ds: &Dataset) -> TcslResult<Tensor> {
    if ds.is_empty() {
        return Err(TcslError::empty(format!("dataset {}", ds.name)));
    }
    // Validate every series up front so the parallel fan-out below only
    // ever sees clean data (worker panics are internal bugs, not inputs).
    for i in 0..ds.len() {
        check_series(bank, ds.series(i), &format!("series {i}"))?;
    }
    Ok(transform_dataset_unchecked(bank, ds))
}

/// [`transform_dataset`] without the request validation — for data the
/// caller already validated (training loops, benchmarks).
pub fn transform_dataset_unchecked(bank: &ShapeletBank, ds: &Dataset) -> Tensor {
    let dim = bank.repr_dim();
    let _ = bank.precomputed();
    let rows = parallel_map(ds.len(), |i| transform_series_unchecked(bank, ds.series(i)));
    let mut out = Tensor::zeros([ds.len(), dim]);
    for (i, row) in rows.into_iter().enumerate() {
        out.row_mut(i).copy_from_slice(&row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShapeletConfig;
    use crate::measure::Measure;
    use tcsl_tensor::rng::seeded;

    fn small_bank(d: usize) -> ShapeletBank {
        let cfg = ShapeletConfig {
            lengths: vec![3, 5],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut bank = ShapeletBank::new(&cfg, d);
        bank.randomize(&mut seeded(1));
        bank
    }

    #[test]
    fn feature_vector_has_bank_dimension() {
        let bank = small_bank(2);
        let s = TimeSeries::multivariate(vec![vec![0.0; 16], vec![1.0; 16]]);
        let f = transform_series(&bank, &s).unwrap();
        assert_eq!(f.len(), bank.repr_dim());
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn exact_shapelet_occurrence_gives_zero_euclidean() {
        // Plant group-0 shapelet 0 into a noise-free series; the euclidean
        // feature must be ~0 and cosine ~1.
        let bank = small_bank(1);
        let g0 = &bank.groups()[0];
        let planted = g0.shapelet(0, 1); // (1, 3)
        let mut vals = vec![5.0f32; 12];
        vals[4..7].copy_from_slice(planted.as_slice());
        let s = TimeSeries::univariate(vals);
        let f = transform_series(&bank, &s).unwrap();
        // Column 0 = group 0 (euclidean, len 3), shapelet 0.
        assert!(f[0] < 1e-3, "euclidean feature should be ~0, got {}", f[0]);
    }

    #[test]
    fn fused_agrees_with_oracle_path() {
        let bank = small_bank(2);
        let mut rng = seeded(8);
        for t in [2usize, 7, 30, 64] {
            let vals = Tensor::randn([2, t], &mut rng);
            let s =
                TimeSeries::multivariate((0..2).map(|v| vals.row(v).to_vec()).collect::<Vec<_>>());
            let fast = transform_series(&bank, &s).unwrap();
            let slow = transform_series_oracle(&bank, &s);
            assert_eq!(fast.len(), slow.len());
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-4, "T={t}: fused {a} vs oracle {b}");
            }
        }
    }

    #[test]
    fn short_series_are_padded_not_rejected() {
        let bank = small_bank(1);
        let s = TimeSeries::univariate(vec![1.0, 2.0]); // shorter than len 3 and 5
        let f = transform_series(&bank, &s).unwrap();
        assert_eq!(f.len(), bank.repr_dim());
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn dataset_transform_matches_per_series() {
        let bank = small_bank(1);
        let series: Vec<TimeSeries> = (0..5)
            .map(|i| {
                TimeSeries::univariate((0..20).map(|t| ((t + i) as f32 * 0.3).sin()).collect())
            })
            .collect();
        let ds = Dataset::unlabeled("x", series);
        let m = transform_dataset(&bank, &ds).unwrap();
        assert_eq!(m.rows(), 5);
        for i in 0..5 {
            let f = transform_series(&bank, ds.series(i)).unwrap();
            assert_eq!(m.row(i), &f[..]);
        }
    }

    #[test]
    fn features_are_length_invariant_dimension() {
        // Different-length series map to the same feature space — the
        // property the unified pipeline exploits.
        let bank = small_bank(1);
        let a = transform_series(&bank, &TimeSeries::univariate(vec![0.5; 10])).unwrap();
        let b = transform_series(&bank, &TimeSeries::univariate(vec![0.5; 50])).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn variable_mismatch_is_a_shape_error() {
        let bank = small_bank(2);
        let err = transform_series(&bank, &TimeSeries::univariate(vec![0.0; 10])).unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::ShapeMismatch);
        assert!(err.to_string().contains("expected 2, got 1"), "{err}");
    }

    #[test]
    fn non_finite_series_is_a_typed_error() {
        let bank = small_bank(1);
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = transform_series(&bank, &TimeSeries::univariate(vec![0.0, poison, 1.0]))
                .unwrap_err();
            assert_eq!(err.class(), tcsl_error::ErrorClass::NonFiniteInput);
        }
    }

    #[test]
    fn dataset_transform_reports_the_offending_series() {
        let bank = small_bank(1);
        let ds = Dataset::unlabeled(
            "x",
            vec![
                TimeSeries::univariate(vec![1.0; 8]),
                TimeSeries::univariate(vec![1.0, f32::NAN, 3.0]),
            ],
        );
        let err = transform_dataset(&bank, &ds).unwrap_err();
        assert_eq!(err.class(), tcsl_error::ErrorClass::NonFiniteInput);
        assert!(err.to_string().contains("series 1"), "{err}");
    }
}
