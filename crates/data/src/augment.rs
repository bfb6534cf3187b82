//! Stochastic augmentations used to form contrastive views.
//!
//! CSL's Multi-Grained Contrasting builds positive pairs from random crops
//! of the same series at several *grains* (crop-length fractions); the
//! remaining transforms (jitter, scaling, masking) are standard view
//! perturbations that leave class identity intact.

use crate::dataset::TimeSeries;
use rand::Rng;
use tcsl_tensor::rng::gauss;

/// A random contiguous crop of exactly `len` steps.
pub fn random_crop(s: &TimeSeries, len: usize, rng: &mut impl Rng) -> TimeSeries {
    s.crop(random_crop_start(s.len(), len, rng), len)
}

/// The start of a random crop of `len` steps out of `t`: uniform over every
/// valid offset, and 0 without drawing when the crop is the whole series.
pub fn random_crop_start(t: usize, len: usize, rng: &mut impl Rng) -> usize {
    assert!(
        len >= 1 && len <= t,
        "crop length {len} invalid for series of length {t}"
    );
    if len == t {
        0
    } else {
        rng.gen_range(0..=t - len)
    }
}

/// A random crop whose length is `frac` of the series (at least `min_len`).
pub fn random_crop_frac(
    s: &TimeSeries,
    frac: f32,
    min_len: usize,
    rng: &mut impl Rng,
) -> TimeSeries {
    assert!(frac > 0.0 && frac <= 1.0, "crop fraction must be in (0, 1]");
    let len = ((s.len() as f32 * frac).round() as usize).clamp(min_len.min(s.len()), s.len());
    random_crop(s, len, rng)
}

/// Adds iid Gaussian noise of standard deviation `sigma`.
pub fn jitter(s: &TimeSeries, sigma: f32, rng: &mut impl Rng) -> TimeSeries {
    let mut t = s.values().clone();
    for x in t.as_mut_slice() {
        *x += sigma * gauss(rng);
    }
    TimeSeries::new(t)
}

/// Multiplies each variable by an independent random factor from
/// `N(1, sigma²)` (magnitude scaling).
pub fn scaling(s: &TimeSeries, sigma: f32, rng: &mut impl Rng) -> TimeSeries {
    let mut t = s.values().clone();
    for v in 0..s.n_vars() {
        let factor = 1.0 + sigma * gauss(rng);
        for x in t.row_mut(v) {
            *x *= factor;
        }
    }
    TimeSeries::new(t)
}

/// Zeroes a random contiguous time span of `frac` of the series on all
/// variables (time masking).
pub fn time_mask(s: &TimeSeries, frac: f32, rng: &mut impl Rng) -> TimeSeries {
    assert!(
        (0.0..1.0).contains(&frac),
        "mask fraction must be in [0, 1)"
    );
    let t = s.len();
    let span = ((t as f32) * frac).round() as usize;
    if span == 0 {
        return s.clone();
    }
    let start = rng.gen_range(0..=t - span);
    let mut out = s.values().clone();
    for v in 0..s.n_vars() {
        for x in &mut out.row_mut(v)[start..start + span] {
            *x = 0.0;
        }
    }
    TimeSeries::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_tensor::rng::seeded;

    fn series() -> TimeSeries {
        TimeSeries::multivariate(vec![
            (0..32).map(|i| i as f32).collect(),
            (0..32).map(|i| -(i as f32)).collect(),
        ])
    }

    #[test]
    fn crop_has_requested_length() {
        let s = series();
        let mut rng = seeded(1);
        for _ in 0..10 {
            let c = random_crop(&s, 7, &mut rng);
            assert_eq!(c.len(), 7);
            assert_eq!(c.n_vars(), 2);
            // Crop content is a contiguous run of the source.
            let start = c.variable(0)[0] as usize;
            let expect: Vec<f32> = (start..start + 7).map(|i| i as f32).collect();
            assert_eq!(c.variable(0), &expect[..]);
        }
    }

    #[test]
    fn full_length_crop_is_identity() {
        let s = series();
        let mut rng = seeded(2);
        let c = random_crop(&s, 32, &mut rng);
        assert_eq!(&c, &s);
    }

    #[test]
    fn crop_frac_clamps_to_min_len() {
        let s = series();
        let mut rng = seeded(3);
        let c = random_crop_frac(&s, 0.01, 5, &mut rng);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn jitter_changes_but_stays_close() {
        let s = series();
        let mut rng = seeded(4);
        let j = jitter(&s, 0.1, &mut rng);
        assert_ne!(j, s);
        let max_dev = s.values().max_abs_diff(j.values());
        assert!(max_dev < 1.0, "jitter too large: {max_dev}");
    }

    #[test]
    fn scaling_preserves_zero_crossings() {
        let s = TimeSeries::univariate(vec![1.0, -1.0, 2.0, -2.0]);
        let mut rng = seeded(5);
        let sc = scaling(&s, 0.2, &mut rng);
        for (a, b) in s.variable(0).iter().zip(sc.variable(0)) {
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn time_mask_zeroes_one_span() {
        let s = series();
        let mut rng = seeded(6);
        let m = time_mask(&s, 0.25, &mut rng);
        let zeros = m.variable(0).iter().filter(|&&x| x == 0.0).count();
        assert!(zeros >= 8, "expected a masked span, found {zeros} zeros");
    }

    #[test]
    fn zero_mask_fraction_is_identity() {
        let s = series();
        let mut rng = seeded(7);
        assert_eq!(time_mask(&s, 0.0, &mut rng), s);
    }
}
