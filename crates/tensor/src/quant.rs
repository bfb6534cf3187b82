//! Half-precision tap storage: the binary16 format and its conversions.
//!
//! The fused shapelet transform is memory-traffic-bound at serving shapes:
//! the hot stream is the repacked tap rows, re-read once per window. Storing
//! those taps as IEEE 754 binary16 halves the bytes streamed. The kernels of
//! [`crate::dot`] convert them to f32 in register and accumulate in f32, so
//! precision is only lost at the one rounding step when the bank is
//! quantized, never in the accumulation.

/// How a quantized tap row is stored: IEEE 754 binary16 (1 sign, 5
/// exponent, 10 mantissa bits), half the f32 stream. Relative error ≤ 2⁻¹¹
/// per tap over the normal range; values of magnitude above [`F16_MAX`] are
/// not representable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuantScheme {
    /// IEEE 754 binary16 taps.
    F16,
}

impl QuantScheme {
    /// Bytes each stored tap occupies.
    pub fn bytes_per_tap(self) -> usize {
        2
    }
}

/// Largest finite value representable in IEEE 754 binary16.
pub const F16_MAX: f32 = 65504.0;

// ---------------------------------------------------------------------------
// binary16 conversions
// ---------------------------------------------------------------------------

/// Converts an f32 to IEEE 754 binary16 bits with round-to-nearest-even.
///
/// Overflow (finite `|x| > 65504`) rounds to signed infinity and NaN maps to
/// a quiet NaN — callers that need to *reject* those cases (bank
/// quantization does) must validate before converting. Subnormal halves are
/// produced exactly, with the same tie-to-even rule.
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x7f_ffff;
    if exp == 0xff {
        // Inf stays inf; every NaN maps to one quiet NaN payload.
        return sign | 0x7c00 | if frac != 0 { 0x200 } else { 0 };
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00; // overflow → inf
    }
    if e <= 0 {
        if e < -10 {
            return sign; // underflow → signed zero
        }
        // Subnormal half: shift the (implicit-1) mantissa into place and
        // round the dropped bits to nearest, ties to even.
        let m = frac | 0x80_0000;
        let shift = (14 - e) as u32;
        let half = m >> shift;
        let rem = m & ((1 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = if rem > halfway || (rem == halfway && half & 1 == 1) {
            half + 1
        } else {
            half
        };
        return sign | rounded as u16;
    }
    let half = (frac >> 13) | ((e as u32) << 10);
    let rem = frac & 0x1fff;
    let rounded = if rem > 0x1000 || (rem == 0x1000 && half & 1 == 1) {
        half + 1
    } else {
        half
    };
    sign | rounded as u16
}

/// Converts IEEE 754 binary16 bits to f32. Exact: every binary16 value
/// (including subnormals) is representable in f32.
pub fn f16_to_f32(bits: u16) -> f32 {
    let sign = (bits >> 15) as u32;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let frac = (bits & 0x3ff) as u32;
    let out = if exp == 0 {
        if frac == 0 {
            sign << 31
        } else {
            // Subnormal half: renormalize the mantissa into an f32 normal.
            let mut e: i32 = 127 - 15 + 1;
            let mut f = frac;
            while f & 0x400 == 0 {
                f <<= 1;
                e -= 1;
            }
            (sign << 31) | ((e as u32) << 23) | ((f & 0x3ff) << 13)
        }
    } else if exp == 0x1f {
        (sign << 31) | 0x7f80_0000 | (frac << 13)
    } else {
        (sign << 31) | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dot::tests::{check_block, host_tiers, random};
    use crate::dot::{dots, TapElem, Tier, SIMD_MIN_LEN};
    use crate::tensor::Tensor;
    use crate::window::time_major;
    use rand::{Rng, SeedableRng};

    #[test]
    fn f16_known_values_round_trip_exactly() {
        // Values exactly representable in binary16 must survive unchanged.
        for &x in &[
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            65504.0,
            -65504.0,
            0.25,
            1.5,
            1024.0,
            6.103_515_6e-5, // smallest normal half
            5.960_464_5e-8, // smallest subnormal half
            6.097_555e-5,   // largest subnormal half
        ] {
            let back = f16_to_f32(f32_to_f16(x));
            assert_eq!(back.to_bits(), x.to_bits(), "{x} → {back}");
        }
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1 + 2⁻¹¹ is exactly halfway between 1.0 and the next half
        // (1 + 2⁻¹⁰); ties go to the even mantissa, i.e. down to 1.0.
        assert_eq!(f16_to_f32(f32_to_f16(1.0 + 0.000_488_281_25)), 1.0);
        // 1 + 3·2⁻¹¹ is halfway between 1+2⁻¹⁰ and 1+2·2⁻¹⁰; even is up.
        let up = f16_to_f32(f32_to_f16(1.0 + 3.0 * 0.000_488_281_25));
        assert_eq!(up, 1.0 + 2.0 * 0.000_976_562_5);
    }

    #[test]
    fn f16_overflow_and_nan() {
        assert_eq!(f16_to_f32(f32_to_f16(1e6)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(-1e6)), f32::NEG_INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // Tiny values flush to signed zero.
        assert_eq!(f16_to_f32(f32_to_f16(1e-10)), 0.0);
        assert_eq!(
            f16_to_f32(f32_to_f16(-1e-10)).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn f16_relative_error_within_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = (rng.gen::<f32>() - 0.5) * 100.0;
            let back = f16_to_f32(f32_to_f16(x));
            // RTNE over the normal range: relative error ≤ 2⁻¹¹.
            assert!(
                (back - x).abs() <= x.abs() * 4.883e-4 + 1e-9,
                "{x} → {back}"
            );
        }
    }

    fn quantize(src: &[f32]) -> Vec<u16> {
        src.iter().map(|&x| f32_to_f16(x)).collect()
    }

    fn dequantize(src: &[u16]) -> Vec<f32> {
        src.iter().map(|&b| f16_to_f32(b)).collect()
    }

    /// A binary16 dot is within 1e-5 relative of the scalar f32 body on
    /// the dequantized taps, and gives exactly the f32 body's bits on the
    /// tier its length picks (the scalar body's below `SIMD_MIN_LEN`).
    #[test]
    fn dot_f16_matches_dequantized_scalar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for n in [
            0usize, 1, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 1023, 1024, 1025,
        ] {
            let a = vec![random(&mut rng, n)];
            let bq = quantize(&random(&mut rng, n));
            let deq = vec![dequantize(&bq)];
            let got = dots::<u16, 1, 1>([&a[0]], [&bq])[0][0];
            let want = check_block::<f32, 1, 1>(Tier::Scalar, &a, &deq)[0][0];
            let scale = 1.0f32.max(want.abs());
            assert!(
                (got - want).abs() / scale < 1e-5,
                "n={n}: f16 dot {got} vs dequantized scalar {want}"
            );
            let same_tier = check_block::<f32, 1, 1>(u16::tier(n), &a, &deq)[0][0];
            assert_eq!(got.to_bits(), same_tier.to_bits(), "n={n}");
            if n < SIMD_MIN_LEN {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            }
        }
    }

    /// A 4-row block of binary16 taps gives each row the one-row bits,
    /// within 1e-5 relative of the scalar body, on every tier this host
    /// runs.
    #[test]
    fn dot4_f16_matches_four_dots() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for n in [0usize, 3, 15, 16, 17, 63, 64, 65, 200, 1031] {
            let w = vec![random(&mut rng, n)];
            let ts: Vec<Vec<u16>> = (0..4).map(|_| quantize(&random(&mut rng, n))).collect();
            let got = dots::<u16, 4, 1>([&w[0]], [&ts[0], &ts[1], &ts[2], &ts[3]]);
            for (j, t) in ts.iter().enumerate() {
                let one = dots::<u16, 1, 1>([&w[0]], [t])[0][0];
                assert_eq!(got[j][0].to_bits(), one.to_bits(), "n={n} j={j}");
                let want =
                    check_block::<u16, 1, 1>(Tier::Scalar, &w, std::slice::from_ref(t))[0][0];
                let scale = 1.0f32.max(want.abs());
                assert!(
                    (got[j][0] - want).abs() / scale < 1e-5,
                    "n={n} j={j}: f16 4-row block {} vs scalar {want}",
                    got[j][0]
                );
            }
            for tier in host_tiers() {
                check_block::<u16, 4, 1>(tier, &w, &ts);
            }
        }
    }

    /// Dots over contiguous time-major window slices with binary16 taps
    /// agree with the same calls on the dequantized f32 taps (bit for bit
    /// when both widths take one tier), and a 4-row block gives each row
    /// the one-row bits.
    #[test]
    fn window_wrappers_match_plain_window_dot_on_dequantized_taps() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for &(d, t, len) in &[(1usize, 40usize, 5usize), (3, 300, 80)] {
            let x = time_major(&Tensor::randn([d, t], &mut rng), 0);
            let bank = Tensor::randn([4, d * len], &mut rng);
            let rows: Vec<Vec<u16>> = (0..4).map(|j| quantize(bank.row(j))).collect();
            let deq: Vec<Vec<f32>> = rows.iter().map(|r| dequantize(r)).collect();
            let same_tier = u16::tier(d * len) == f32::tier(d * len);
            for w in 0..(t - len + 1) {
                let win = &x.as_slice()[w * d..(w + len) * d];
                let g4 = dots(
                    [win],
                    [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]],
                );
                for j in 0..4 {
                    let want = dots([win], [&deq[j][..]])[0][0];
                    let single = dots([win], [&rows[j][..]])[0][0];
                    let tol = 1e-4 * (1.0 + want.abs());
                    assert!((g4[j][0] - want).abs() < tol, "w={w} j={j}");
                    assert!((single - want).abs() < tol, "single w={w} j={j}");
                    assert_eq!(g4[j][0].to_bits(), single.to_bits(), "w={w} j={j}");
                    if same_tier {
                        assert_eq!(single.to_bits(), want.to_bits(), "w={w} j={j}");
                    }
                }
            }
        }
    }

    /// The 2-row and 2-row × 4-window blocks of binary16 taps — the shapes
    /// the shapelet engine pairs wide groups into — give every (row,
    /// window) entry the one-row bits, so narrow blocking never changes a
    /// value. Lengths straddle both tier thresholds (64 and 1024).
    #[test]
    fn pair_and_quad_kernels_are_bit_identical_to_single_dots() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for n in [64usize, 1023, 1024, 1100, 3277] {
            let rows: Vec<Vec<u16>> = (0..2).map(|_| quantize(&random(&mut rng, n))).collect();
            let t = [&rows[0][..], &rows[1][..]];
            let wins: Vec<Vec<f32>> = (0..4).map(|_| random(&mut rng, n)).collect();
            let ws = [&wins[0][..], &wins[1][..], &wins[2][..], &wins[3][..]];
            let quad = dots::<u16, 2, 4>(ws, t);
            for (wi, w) in ws.iter().enumerate() {
                let pair = dots::<u16, 2, 1>([w], t);
                for j in 0..2 {
                    let one = dots::<u16, 1, 1>([w], [t[j]])[0][0];
                    assert_eq!(pair[j][0].to_bits(), one.to_bits(), "n={n}");
                    assert_eq!(quad[j][wi].to_bits(), pair[j][0].to_bits(), "n={n} w={wi}");
                }
            }
        }
    }

    /// The engine pairs binary16 rows only on the 512-bit tier. Whatever
    /// this machine supports, a longer span never loses that tier once a
    /// shorter one has it, and f32 taps never take it (so never pair).
    #[test]
    fn paired_kernel_availability_is_length_monotone() {
        let mut seen = false;
        for len in [8usize, 64, 1024, 4096] {
            let avail = u16::tier(len) == Tier::Avx512;
            assert!(avail || !seen, "lost the 512-bit tier at {len}");
            seen = avail;
            assert_ne!(f32::tier(len), Tier::Avx512, "len={len}");
        }
        assert_eq!(seen, Tier::Avx512.available());
    }

    #[test]
    fn dispatch_counting_smoke() {
        // Exercise both widths at both sides of the threshold; the counters
        // are process-global so we only check it doesn't panic.
        for len in [8usize, 4096] {
            u16::count_dispatch(len, 3);
            f32::count_dispatch(len, 3);
        }
        u16::count_dispatch(4096, 0);
        assert_eq!(QuantScheme::F16.bytes_per_tap(), 2);
    }
}
