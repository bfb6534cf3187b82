//! Multi-grained view sampling.
//!
//! For each grain `g` (a crop-length fraction), every series in the batch
//! yields two independent random crops. The two crops of one series form a
//! positive pair; all other crops in the batch are negatives. Crops of
//! different grains have different lengths, but the shapelet transform maps
//! them all into the same feature space — the property CSL exploits to
//! contrast across granularities.

use rand::Rng;
use tcsl_data::augment::random_crop_start;
use tcsl_data::Dataset;
use tcsl_tensor::window::window_at;
use tcsl_tensor::Tensor;

/// A pair of view batches at one grain: `views_a[i]` and `views_b[i]` are
/// crops of the same underlying series, starting at `starts_a[i]` and
/// `starts_b[i]` of it.
pub struct ViewPair {
    /// Crop-length fraction this pair was sampled at.
    pub grain: f32,
    /// First view of each series, as raw `(D, T_crop)` tensors.
    pub views_a: Vec<Tensor>,
    /// Second view of each series.
    pub views_b: Vec<Tensor>,
    /// Where each first view starts in its series.
    pub starts_a: Vec<usize>,
    /// Where each second view starts in its series.
    pub starts_b: Vec<usize>,
}

/// Samples a [`ViewPair`] per grain for the series at `indices`.
pub fn sample_views(
    ds: &Dataset,
    indices: &[usize],
    grains: &[f32],
    min_crop: usize,
    rng: &mut impl Rng,
) -> Vec<ViewPair> {
    grains
        .iter()
        .map(|&grain| {
            let mut views_a = Vec::with_capacity(indices.len());
            let mut views_b = Vec::with_capacity(indices.len());
            let mut starts_a = Vec::with_capacity(indices.len());
            let mut starts_b = Vec::with_capacity(indices.len());
            for &i in indices {
                let s = ds.series(i);
                // Lower bound clamps to at least 1: with `min_crop == 0` a
                // tiny grain rounds the target length down to zero, and a
                // zero-length crop would feed an empty view into the fused
                // kernel (no windows to pool — downstream panic or NaN
                // features). `CslConfig::validate` rejects `min_crop == 0`
                // loudly; this guard keeps direct callers safe too.
                let len = ((s.len() as f32 * grain).round() as usize)
                    .clamp(min_crop.clamp(1, s.len()), s.len());
                for (views, starts) in
                    [(&mut views_a, &mut starts_a), (&mut views_b, &mut starts_b)]
                {
                    let start = random_crop_start(s.len(), len, rng);
                    views.push(window_at(s.values(), start, len));
                    starts.push(start);
                }
            }
            ViewPair {
                grain,
                views_a,
                views_b,
                starts_a,
                starts_b,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_data::TimeSeries;
    use tcsl_tensor::rng::seeded;

    fn ds() -> Dataset {
        let series = (0..5)
            .map(|i| TimeSeries::univariate((0..40).map(|t| (t * i) as f32).collect()))
            .collect();
        Dataset::unlabeled("v", series)
    }

    #[test]
    fn one_pair_per_grain_with_matched_counts() {
        let ds = ds();
        let mut rng = seeded(1);
        let pairs = sample_views(&ds, &[0, 2, 4], &[0.5, 1.0], 4, &mut rng);
        assert_eq!(pairs.len(), 2);
        for p in &pairs {
            assert_eq!(p.views_a.len(), 3);
            assert_eq!(p.views_b.len(), 3);
        }
    }

    #[test]
    fn crop_lengths_follow_grain() {
        let ds = ds();
        let mut rng = seeded(2);
        let pairs = sample_views(&ds, &[1], &[0.5, 1.0], 4, &mut rng);
        assert_eq!(pairs[0].views_a[0].cols(), 20);
        assert_eq!(pairs[1].views_a[0].cols(), 40);
    }

    #[test]
    fn min_crop_clamps_tiny_grains() {
        let ds = ds();
        let mut rng = seeded(3);
        let pairs = sample_views(&ds, &[1], &[0.01], 6, &mut rng);
        assert_eq!(pairs[0].views_a[0].cols(), 6);
    }

    #[test]
    fn tiny_grain_with_zero_min_crop_never_yields_empty_views() {
        // Regression: grain 0.01 over length-40 series rounds to 0, and
        // min_crop == 0 used to let that through as a zero-length crop.
        let ds = ds();
        let mut rng = seeded(5);
        let pairs = sample_views(&ds, &[0, 1, 2], &[0.01], 0, &mut rng);
        for p in &pairs {
            for v in p.views_a.iter().chain(&p.views_b) {
                assert!(v.cols() >= 1, "sampled a zero-length view");
            }
        }
    }

    #[test]
    fn views_are_crops_at_their_recorded_starts() {
        // Each view is its series cropped at the recorded start, and a
        // fixed seed gives the crops it gave before starts were recorded.
        let ds = ds();
        let indices = [1, 3, 4];
        let pairs = sample_views(&ds, &indices, &[0.5, 0.75, 1.0], 4, &mut seeded(21));
        let want: [([usize; 3], [usize; 3]); 3] = [
            ([2, 4, 14], [16, 11, 10]),
            ([1, 6, 7], [9, 8, 9]),
            ([0, 0, 0], [0, 0, 0]),
        ];
        for (p, (starts_a, starts_b)) in pairs.iter().zip(want) {
            assert_eq!(p.starts_a, starts_a, "grain {}", p.grain);
            assert_eq!(p.starts_b, starts_b, "grain {}", p.grain);
            for (views, starts) in [(&p.views_a, &p.starts_a), (&p.views_b, &p.starts_b)] {
                for ((view, &start), &i) in views.iter().zip(starts).zip(&indices) {
                    let crop = ds.series(i).crop(start, view.cols());
                    assert_eq!(view, crop.values(), "grain {} series {i}", p.grain);
                }
            }
        }
    }

    #[test]
    fn views_of_same_series_usually_differ() {
        let ds = ds();
        let mut rng = seeded(4);
        let pairs = sample_views(&ds, &[3], &[0.5], 4, &mut rng);
        // With grain 0.5 over length 40 there are 21 possible offsets; the
        // two views of one series should not always be identical.
        assert_ne!(pairs[0].views_a[0], pairs[0].views_b[0]);
    }
}
