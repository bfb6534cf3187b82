//! The (dis)similarity measures between a shapelet and a window.
//!
//! The paper's recommended configuration learns shapelets under three
//! measures simultaneously (§3, step 1): Euclidean norm, cosine similarity
//! and cross-correlation. Distances are *minimized* over windows,
//! similarities *maximized*; [`Measure::better`] abstracts the direction.

use tcsl_tensor::matmul::matmul_transb;
use tcsl_tensor::reduce::Axis;
use tcsl_tensor::Tensor;

/// A (dis)similarity measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Length-normalized Euclidean distance (dissimilarity; lower is
    /// better, pooled with `min`).
    Euclidean,
    /// Cosine similarity (higher is better, pooled with `max`).
    Cosine,
    /// Length-normalized cross-correlation, i.e. mean pointwise product
    /// (higher is better, pooled with `max`).
    CrossCorrelation,
}

impl Measure {
    /// All measures, in the bank's canonical order.
    pub const ALL: [Measure; 3] = [
        Measure::Euclidean,
        Measure::Cosine,
        Measure::CrossCorrelation,
    ];

    /// Whether larger scores indicate a better match.
    pub fn higher_is_better(self) -> bool {
        !matches!(self, Measure::Euclidean)
    }

    /// Whether `a` is a better match score than `b` under this measure.
    pub fn better(self, a: f32, b: f32) -> bool {
        if self.higher_is_better() {
            a > b
        } else {
            a < b
        }
    }

    /// Short stable name (used in feature names and model files).
    pub fn name(self) -> &'static str {
        match self {
            Measure::Euclidean => "euc",
            Measure::Cosine => "cos",
            Measure::CrossCorrelation => "xcorr",
        }
    }

    /// Parses the short name.
    pub fn parse(name: &str) -> Option<Measure> {
        match name {
            "euc" => Some(Measure::Euclidean),
            "cos" => Some(Measure::Cosine),
            "xcorr" => Some(Measure::CrossCorrelation),
            _ => None,
        }
    }

    /// Finishes a raw window·shapelet dot product into this measure's
    /// score, given the squared norms of both sides and the flattened
    /// width `D·len`. Both scoring paths — the unfold-based oracle and the
    /// fused streaming kernel — funnel through this one function, so they
    /// can only differ by the rounding of their inputs, never by formula.
    #[inline]
    pub fn finish(self, cross: f32, w_sq: f32, s_sq: f32, width: f32) -> f32 {
        match self {
            // d(w, s) = sqrt(max(‖w‖² − 2·w·s + ‖s‖², 0) / width)
            Measure::Euclidean => (((w_sq - 2.0 * cross + s_sq).max(0.0)) / width).sqrt(),
            // cos(w, s) = w·s / (‖w‖·‖s‖), with the same 1e-12 floor the
            // normalized-copy formulation used.
            Measure::Cosine => cross * inv_norm(w_sq) * inv_norm(s_sq),
            Measure::CrossCorrelation => cross / width,
        }
    }

    /// Score matrix `(N_w × K)` between window rows and shapelet rows, both
    /// flattened to `D·len` columns.
    ///
    /// This is the unfold-based formulation (`matmul_transb` over a
    /// materialized window matrix). The fused streaming kernel in
    /// [`crate::fused`] replaces it on the hot path; this stays as the
    /// reference oracle the fused kernel is property-tested against, and
    /// as the naive baseline in the benchmark trajectory.
    pub fn score_matrix(self, windows: &Tensor, shapelets: &Tensor) -> Tensor {
        self.score_matrix_with(windows, shapelets, &row_sq_norms(shapelets))
    }

    /// [`Self::score_matrix`] with the shapelet-side squared row norms
    /// supplied by the caller (e.g. from
    /// `ShapeletBank::precomputed`), so they are not re-derived per series.
    /// Euclidean and cosine share the single window-side row-norm pass.
    pub fn score_matrix_with(self, windows: &Tensor, shapelets: &Tensor, sn: &[f32]) -> Tensor {
        let width = windows.cols() as f32;
        assert_eq!(
            windows.cols(),
            shapelets.cols(),
            "window width {} != shapelet width {}",
            windows.cols(),
            shapelets.cols()
        );
        assert_eq!(sn.len(), shapelets.rows(), "shapelet norm count mismatch");
        let mut out = matmul_transb(windows, shapelets);
        match self {
            Measure::Euclidean | Measure::Cosine => {
                let wn = row_sq_norms(windows);
                for i in 0..wn.len() {
                    let wni = wn[i];
                    for (j, x) in out.row_mut(i).iter_mut().enumerate() {
                        *x = self.finish(*x, wni, sn[j], width);
                    }
                }
                out
            }
            Measure::CrossCorrelation => out.scale(1.0 / width),
        }
    }

    /// Pools the score matrix over windows: one feature per shapelet, plus
    /// the index of the best-matching window.
    pub fn pool(self, scores: &Tensor) -> (Tensor, Vec<usize>) {
        if self.higher_is_better() {
            tcsl_tensor::reduce::max_axis(scores, Axis::Rows)
        } else {
            tcsl_tensor::reduce::min_axis(scores, Axis::Rows)
        }
    }
}

/// `1 / √(x + 1e-12)` — the epsilon-floored inverse norm shared by the
/// cosine formulations.
#[inline]
fn inv_norm(sq: f32) -> f32 {
    1.0 / (sq + 1e-12).sqrt()
}

/// Squared Euclidean norm of every row.
pub(crate) fn row_sq_norms(m: &Tensor) -> Vec<f32> {
    (0..m.rows())
        .map(|i| m.row(i).iter().map(|&x| x * x).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows() -> Tensor {
        Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, -1.0, 0.0], [3, 2])
    }

    #[test]
    fn euclidean_exact_match_is_zero() {
        let w = windows();
        let s = Tensor::from_vec(vec![1.0, 0.0], [1, 2]);
        let scores = Measure::Euclidean.score_matrix(&w, &s);
        assert!(scores.at2(0, 0).abs() < 1e-6);
        assert!(scores.at2(2, 0) > 0.0);
        let (pooled, args) = Measure::Euclidean.pool(&scores);
        assert!(pooled.as_slice()[0].abs() < 1e-6);
        assert_eq!(args, vec![0]);
    }

    #[test]
    fn euclidean_is_length_normalized() {
        // Same per-sample deviation at two widths → same normalized distance.
        let w2 = Tensor::from_vec(vec![0.0, 0.0], [1, 2]);
        let s2 = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let w4 = Tensor::from_vec(vec![0.0; 4], [1, 4]);
        let s4 = Tensor::from_vec(vec![1.0; 4], [1, 4]);
        let d2 = Measure::Euclidean.score_matrix(&w2, &s2).item();
        let d4 = Measure::Euclidean.score_matrix(&w4, &s4).item();
        assert!((d2 - d4).abs() < 1e-6);
        assert!((d2 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_bounds_and_direction() {
        let w = windows();
        let s = Tensor::from_vec(vec![2.0, 0.0], [1, 2]); // same direction as row 0
        let scores = Measure::Cosine.score_matrix(&w, &s);
        assert!((scores.at2(0, 0) - 1.0).abs() < 1e-5);
        assert!((scores.at2(2, 0) + 1.0).abs() < 1e-5);
        let (pooled, args) = Measure::Cosine.pool(&scores);
        assert!((pooled.as_slice()[0] - 1.0).abs() < 1e-5);
        assert_eq!(args, vec![0]);
    }

    #[test]
    fn cross_correlation_scales_with_amplitude() {
        let w = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let s1 = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let s2 = Tensor::from_vec(vec![2.0, 2.0], [1, 2]);
        let a = Measure::CrossCorrelation.score_matrix(&w, &s1).item();
        let b = Measure::CrossCorrelation.score_matrix(&w, &s2).item();
        assert!((a - 1.0).abs() < 1e-6);
        assert!((b - 2.0).abs() < 1e-6);
    }

    #[test]
    fn better_respects_direction() {
        assert!(Measure::Euclidean.better(0.1, 0.5));
        assert!(Measure::Cosine.better(0.9, 0.1));
        assert!(Measure::CrossCorrelation.better(2.0, 1.0));
    }

    #[test]
    fn names_round_trip() {
        for m in Measure::ALL {
            assert_eq!(Measure::parse(m.name()), Some(m));
        }
        assert_eq!(Measure::parse("nope"), None);
    }
}
