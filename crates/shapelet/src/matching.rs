//! Best-match localization: which subsequence of a series a shapelet
//! matched.
//!
//! This powers the demo's "Match" button (Fig. 3b): given a series and a
//! shapelet, find the window whose (dis)similarity defines the feature
//! value, so the match can be displayed/aligned against the raw series.

use crate::bank::ShapeletBank;
use crate::fused::{shapelet_scores, ScaleWindows};
use crate::measure::Measure;
use tcsl_data::TimeSeries;

/// The best-matching window of a shapelet in a series.
#[derive(Clone, Debug, PartialEq)]
pub struct ShapeletMatch {
    /// Group index in the bank.
    pub group: usize,
    /// Shapelet index within the group.
    pub shapelet: usize,
    /// Start position of the best window (in padded coordinates; equal to
    /// raw coordinates whenever the series is at least as long as the
    /// shapelet).
    pub start: usize,
    /// Window length (= shapelet length).
    pub len: usize,
    /// The feature value: the pooled (dis)similarity at that window.
    pub score: f32,
    /// The measure the score is expressed in.
    pub measure: Measure,
}

/// Scores of one shapelet against every window of a series.
///
/// Routed through the same streaming machinery as the fused transform
/// ([`crate::fused::shapelet_scores`], on the same precomputed taps): the
/// scores here are bit-identical to the ones the transform pooled over, at
/// every precision, so the localized window provably explains the feature
/// value.
pub fn window_scores(
    bank: &ShapeletBank,
    group: usize,
    shapelet: usize,
    series: &TimeSeries,
) -> Vec<f32> {
    let g = &bank.groups()[group];
    let sw = ScaleWindows::new(series.values(), g.len, g.stride);
    shapelet_scores(&sw, g, &bank.precomputed()[group], shapelet)
}

/// Finds the best-matching window of `(group, shapelet)` in `series`.
pub fn best_match(
    bank: &ShapeletBank,
    group: usize,
    shapelet: usize,
    series: &TimeSeries,
) -> ShapeletMatch {
    let g = &bank.groups()[group];
    let scores = window_scores(bank, group, shapelet, series);
    let (mut best_w, mut best_s) = (0usize, scores[0]);
    for (w, &s) in scores.iter().enumerate().skip(1) {
        if g.measure.better(s, best_s) {
            best_s = s;
            best_w = w;
        }
    }
    ShapeletMatch {
        group,
        shapelet,
        start: best_w * g.stride,
        len: g.len,
        score: best_s,
        measure: g.measure,
    }
}

/// Finds the best match for a *feature column* (the layout analyzers see).
/// An out-of-range column is a request error, not a panic.
pub fn best_match_for_feature(
    bank: &ShapeletBank,
    feature_column: usize,
    series: &TimeSeries,
) -> tcsl_error::TcslResult<ShapeletMatch> {
    let (group, shapelet) = bank.feature_to_shapelet(feature_column)?;
    Ok(best_match(bank, group, shapelet, series))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShapeletConfig;
    use crate::transform::transform_series;
    use tcsl_tensor::rng::seeded;

    fn bank() -> ShapeletBank {
        let cfg = ShapeletConfig {
            lengths: vec![4],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut b = ShapeletBank::new(&cfg, 1);
        b.randomize(&mut seeded(1));
        b
    }

    #[test]
    fn planted_shapelet_is_located() {
        let b = bank();
        let planted: Vec<f32> = b.groups()[0].shapelets.row(0).to_vec();
        let mut vals = vec![9.0f32; 20];
        vals[11..15].copy_from_slice(&planted);
        let s = TimeSeries::univariate(vals);
        let m = best_match(&b, 0, 0, &s);
        assert_eq!(m.start, 11);
        assert_eq!(m.len, 4);
        assert!(
            m.score < 1e-3,
            "planted match should be ~exact, got {}",
            m.score
        );
    }

    #[test]
    fn match_score_equals_feature_value() {
        let b = bank();
        let s = TimeSeries::univariate((0..25).map(|i| (i as f32 * 0.7).sin()).collect());
        let feats = transform_series(&b, &s).unwrap();
        for col in 0..b.repr_dim() {
            let m = best_match_for_feature(&b, col, &s).unwrap();
            assert!(
                (m.score - feats[col]).abs() < 1e-5,
                "column {col}: match {} vs feature {}",
                m.score,
                feats[col]
            );
        }
    }

    #[test]
    fn large_series_localization_and_subsets_equal_features() {
        // 3 × 100 000 steps = 1.2 MB, a series that outgrows L2: match
        // scores and single-shapelet subset columns are the features bit
        // for bit.
        let cfg = ShapeletConfig {
            lengths: vec![32, 128],
            k_per_group: 10,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut rng = seeded(5);
        let mut b = ShapeletBank::new(&cfg, 3);
        b.randomize(&mut rng);
        let s = TimeSeries::new(tcsl_tensor::Tensor::randn([3, 100_000], &mut rng));
        let feats = transform_series(&b, &s).unwrap();
        for (col, &f) in feats.iter().enumerate() {
            let m = best_match_for_feature(&b, col, &s).unwrap();
            assert_eq!(m.score.to_bits(), f.to_bits(), "column {col} localization");
            let sub = transform_series(&b.subset_columns(&[col]).unwrap(), &s).unwrap();
            assert_eq!(sub[0].to_bits(), f.to_bits(), "column {col} subset");
        }
    }

    #[test]
    fn window_scores_cover_all_positions() {
        let b = bank();
        let s = TimeSeries::univariate(vec![0.0; 12]);
        let scores = window_scores(&b, 0, 0, &s);
        assert_eq!(scores.len(), 12 - 4 + 1);
    }

    #[test]
    fn best_match_index_agrees_with_fused_pooling() {
        let b = bank();
        let s = TimeSeries::univariate((0..40).map(|i| (i as f32 * 0.37).cos()).collect());
        let pre = b.precomputed();
        for (gi, g) in b.groups().iter().enumerate() {
            let sw = ScaleWindows::new(s.values(), g.len, g.stride);
            let (pooled, args) = crate::fused::pool_group(&sw, g, &pre[gi]);
            for k in 0..g.k() {
                let m = best_match(&b, gi, k, &s);
                assert_eq!(m.start, args[k] * g.stride, "group {gi} shapelet {k}");
                assert_eq!(m.score, pooled[k], "group {gi} shapelet {k}");
            }
        }
    }

    #[test]
    fn cosine_match_prefers_direction() {
        // Shapelet = rising ramp; series has a rising ramp at a known spot.
        let cfg = ShapeletConfig {
            lengths: vec![4],
            k_per_group: 1,
            measures: vec![Measure::Cosine],
            stride: 1,
        };
        let mut b = ShapeletBank::new(&cfg, 1);
        b.groups_mut()[0].shapelets =
            tcsl_tensor::Tensor::from_vec(vec![-1.0, -0.3, 0.3, 1.0], [1, 4]);
        let mut vals = vec![0.1f32; 16];
        vals[6..10].copy_from_slice(&[-2.0, -0.6, 0.6, 2.0]); // scaled copy
        let s = TimeSeries::univariate(vals);
        let m = best_match(&b, 0, 0, &s);
        assert_eq!(m.start, 6);
        assert!(m.score > 0.99);
    }
}
