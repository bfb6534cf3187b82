//! Quantized inference bank: half-width taps for the fused transform.
//!
//! The fused transform is memory-traffic-bound at serving shapes — the hot
//! stream is the repacked tap rows, re-read once per window. A quantized
//! bank stores that stream as IEEE 754 binary16 and pools through the same
//! engine as an f32 bank ([`crate::fused`], generic over
//! [`tcsl_tensor::dot::TapElem`]), whose kernels convert binary16 taps
//! in register and accumulate in f32.
//!
//! Contract with the rest of the stack:
//!
//! * **Quantization is an explicit post-training step**
//!   ([`crate::ShapeletBank::quantize`]). Training, autodiff and the unfold
//!   oracle stay pure f32.
//! * **The bank's f32 view is the dequantized view.** After quantization,
//!   `group.shapelets` holds the *dequantized* values — so the oracle path,
//!   best-match localization and any norm derived from the f32 tensor are
//!   consistent with what the f16 kernels compute. Precision is lost
//!   exactly once, at quantization time; the binary16 taps are re-derived
//!   from that view on demand (exactly, since re-quantizing a dequantized
//!   value is the identity).
//! * **One tap-width decision.** [`crate::ShapeletBank::precomputed`]
//!   stores a group's taps as binary16 only when its per-variable span
//!   reaches [`tcsl_tensor::dot::SIMD_MIN_LEN`]; shorter groups keep f32
//!   taps of the dequantized rows.

use tcsl_tensor::quant::QuantScheme;

/// Inference precision of a [`crate::ShapeletBank`]: full f32, or binary16
/// taps. Threaded from `CslConfig` so a pipeline can request quantization as
/// part of training, and persisted by model format v3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BankPrecision {
    /// Full-precision f32 taps (the training representation; default).
    #[default]
    Full,
    /// IEEE 754 binary16 taps.
    F16,
}

impl BankPrecision {
    /// Stable lowercase name used by config parsing, the model format and
    /// bench JSON (`"f32"`, `"f16"`).
    pub fn name(self) -> &'static str {
        match self {
            BankPrecision::Full => "f32",
            BankPrecision::F16 => "f16",
        }
    }

    /// Parses [`Self::name`] output; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(BankPrecision::Full),
            "f16" => Some(BankPrecision::F16),
            _ => None,
        }
    }

    /// The quantization scheme this precision stores taps in (`None` for
    /// full precision).
    pub fn scheme(self) -> Option<QuantScheme> {
        match self {
            BankPrecision::Full => None,
            BankPrecision::F16 => Some(QuantScheme::F16),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShapeletConfig;
    use crate::fused::PAIR_BLOCK_MIN_ROW;
    use crate::fused::{pool_measure, shapelet_scores, ScaleWindows};
    use crate::transform::transform_series;
    use crate::{Measure, ShapeletBank};
    use tcsl_data::TimeSeries;
    use tcsl_tensor::dot::{TapElem, Tier, SIMD_MIN_LEN};
    use tcsl_tensor::rng::seeded;
    use tcsl_tensor::Tensor;

    /// A random f16 bank of one scale and the f32 bank of its dequantized
    /// taps — the reference every quantized engine result is held to.
    fn banks(d: usize, len: usize, k: usize) -> (ShapeletBank, ShapeletBank) {
        let cfg = ShapeletConfig {
            lengths: vec![len],
            k_per_group: k,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut q = ShapeletBank::new(&cfg, d);
        q.randomize(&mut seeded(31));
        q.quantize(QuantScheme::F16).unwrap();
        let deq = ShapeletBank::from_text(&q.to_text()).unwrap();
        assert_eq!(deq.precision(), BankPrecision::Full);
        (q, deq)
    }

    #[test]
    fn precision_name_parse_round_trip() {
        for p in [BankPrecision::Full, BankPrecision::F16] {
            assert_eq!(BankPrecision::parse(p.name()), Some(p));
        }
        assert_eq!(BankPrecision::parse("f64"), None);
        assert_eq!(BankPrecision::parse("i16"), None);
        assert_eq!(BankPrecision::Full.scheme(), None);
        assert_eq!(BankPrecision::F16.scheme(), Some(QuantScheme::F16));
        assert_eq!(BankPrecision::default(), BankPrecision::Full);
    }

    #[test]
    fn quant_pooling_matches_f32_pooling_on_dequantized_taps() {
        // The engine over binary16 taps vs the engine over f32 taps of the
        // *dequantized* bank: the same values stream through (just
        // narrower storage), so the scores agree to kernel round-off and
        // argmins agree exactly.
        let mut rng = seeded(32);
        for &(d, t, len, k) in &[(1usize, 120usize, 64usize, 5usize), (2, 200, 70, 4)] {
            let (q, deq) = banks(d, len, k);
            let series = Tensor::randn([d, t], &mut rng);
            for (gi, g) in q.groups().iter().enumerate() {
                let sw = ScaleWindows::new(&series, g.len, g.stride);
                let (want, want_args) = pool_measure(&sw, g.measure, &deq.precomputed()[gi]);
                let (got, got_args) = pool_measure(&sw, g.measure, &q.precomputed()[gi]);
                for j in 0..k {
                    assert!(
                        (got[j] - want[j]).abs() < 1e-4 * (1.0 + want[j].abs()),
                        "{:?} k={j}: f16 {} vs f32-on-deq {}",
                        g.measure,
                        got[j],
                        want[j]
                    );
                    assert_eq!(got_args[j], want_args[j], "{:?} k={j}", g.measure);
                }
            }
        }
    }

    #[test]
    fn short_scale_f16_pooling_is_bit_identical_to_f32_on_deq() {
        // Below SIMD_MIN_LEN the f16 bank keeps f32 taps of its dequantized
        // rows, so pooling and localization are the f32 engine on the
        // dequantized bank, bit for bit. At the threshold the binary16
        // kernels take over: values within round-off, argmins exact.
        let series = Tensor::randn([3, 160], &mut seeded(33));
        for len in [32usize, 63, 64] {
            let (q, deq) = banks(3, len, 5);
            for (gi, g) in q.groups().iter().enumerate() {
                let sw = ScaleWindows::new(&series, g.len, g.stride);
                let (qp, dp) = (&q.precomputed()[gi], &deq.precomputed()[gi]);
                let (got, got_args) = pool_measure(&sw, g.measure, qp);
                let (want, want_args) = pool_measure(&sw, g.measure, dp);
                assert_eq!(got_args, want_args, "len={len} {:?}", g.measure);
                for kk in 0..g.k() {
                    let (gs, ws) = (
                        shapelet_scores(&sw, g, qp, kk),
                        shapelet_scores(&sw, g, dp, kk),
                    );
                    if len < SIMD_MIN_LEN {
                        assert_eq!(got[kk].to_bits(), want[kk].to_bits(), "len={len}");
                        assert!(gs.iter().zip(&ws).all(|(a, b)| a.to_bits() == b.to_bits()));
                    } else {
                        let tol = 1e-4 * (1.0 + want[kk].abs());
                        assert!((got[kk] - want[kk]).abs() < tol, "len={len} k={kk}");
                    }
                    assert_eq!(gs[got_args[kk]].to_bits(), got[kk].to_bits(), "len={len}");
                }
            }
        }
    }

    #[test]
    fn wide_rows_pool_and_localize_consistently() {
        // Rows past PAIR_BLOCK_MIN_ROW take the 2-row × 4-window block on
        // the 512-bit tier (and 4-row blocks elsewhere); k = 3 adds a
        // leftover one-row block and n = 98 trailing single windows.
        // Localization and every single-shapelet subset reproduce the
        // pooled value bit for bit, and the scores stay inside the same
        // error envelope as the f32 engine on the dequantized bank.
        let len = PAIR_BLOCK_MIN_ROW + 29;
        if Tier::Avx512.available() {
            assert_eq!(u16::tier(len), Tier::Avx512);
        }
        let (q, deq) = banks(1, len, 3);
        let series = Tensor::randn([1, len + 97], &mut seeded(35));
        for (gi, g) in q.groups().iter().enumerate() {
            let sw = ScaleWindows::new(&series, g.len, g.stride);
            let (want, _) = pool_measure(&sw, g.measure, &deq.precomputed()[gi]);
            let (pooled, args) = pool_measure(&sw, g.measure, &q.precomputed()[gi]);
            for k in 0..g.k() {
                assert!(
                    (pooled[k] - want[k]).abs() < 1e-3 * (1.0 + want[k].abs()),
                    "{:?} k={k}: f16 {} vs f32-on-deq {}",
                    g.measure,
                    pooled[k],
                    want[k]
                );
                let col = shapelet_scores(&sw, g, &q.precomputed()[gi], k);
                assert_eq!(col.len(), sw.n);
                assert_eq!(col[args[k]].to_bits(), pooled[k].to_bits(), "k={k}");
            }
        }
        let s = TimeSeries::new(series);
        let feats = transform_series(&q, &s).unwrap();
        for (c, &f) in feats.iter().enumerate() {
            let sub = transform_series(&q.subset_columns(&[c]).unwrap(), &s).unwrap();
            assert_eq!(sub[0].to_bits(), f.to_bits(), "column {c}");
        }
    }

    #[test]
    fn scores_column_matches_pooled_value() {
        let (q, _) = banks(2, 66, 5);
        let series = Tensor::randn([2, 150], &mut seeded(34));
        for (gi, g) in q.groups().iter().enumerate() {
            let sw = ScaleWindows::new(&series, g.len, g.stride);
            let (pooled, args) = pool_measure(&sw, g.measure, &q.precomputed()[gi]);
            for k in 0..g.k() {
                let col = shapelet_scores(&sw, g, &q.precomputed()[gi], k);
                assert_eq!(col.len(), sw.n);
                assert_eq!(col[args[k]], pooled[k], "{:?} k={k}", g.measure);
            }
        }
    }
}
