//! Half-precision tap storage and the tap-element trait of the fused
//! shapelet engine.
//!
//! The fused shapelet transform is memory-traffic-bound at serving shapes:
//! the hot stream is the repacked tap rows, re-read once per window. Storing
//! those taps as IEEE 754 binary16 halves the bytes streamed; the kernels
//! here dequantize **in-register** and accumulate in f32, so precision is
//! only lost at the one rounding step when the bank is quantized — never in
//! the accumulation.
//!
//! [`TapElem`] is the one seam between the engine and the tap width: it is
//! implemented for `f32` (the [`crate::matmul`] kernels, unchanged) and for
//! `u16` holding binary16 bits (the mixed-precision kernels below), and the
//! window-level loops of [`crate::window`] are written once, generic over it.
//!
//! Two invariants every kernel maintains:
//!
//! * **f32 accumulation.** Products and sums are computed in f32 exactly like
//!   the [`crate::matmul`] kernels; only the stored taps are narrow.
//! * **Length-only dispatch.** Like [`crate::matmul::dot`], the SIMD/scalar
//!   decision depends only on the operand length and the host CPU, so the
//!   same operands give bit-identical results at every call site and for any
//!   `TCSL_THREADS`.

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

/// Below this per-variable span the call into the runtime-detected
/// intrinsics path costs more than it saves (same rationale and value as the
/// f32 kernels' `FMA_MIN_LEN`, so the quantized and full-precision paths flip
/// between SIMD and scalar at the same operand length). Half-width taps only
/// pay from this length on: the scalar fallback pays a per-element software
/// conversion that the f32 scalar kernel does not, and a shorter span is
/// cache-resident anyway, so storing it at half width saves no traffic. The
/// bank therefore stores shorter groups at f32 (see
/// `tcsl_shapelet::ShapeletBank::precomputed`).
pub const QUANT_MIN_LEN: usize = 64;

/// Operand length above which the 512-bit f16 kernel takes over from the
/// AVX2+F16C one. The wide kernel has the lowest µop count per element but
/// 512-bit FMAs run at reduced throughput on single-FMA-unit hosts, which
/// makes it a net loss while the operands are L1-resident and the kernel is
/// FMA-bound; as the tap rows grow past L1 the kernels turn load-bound and
/// the wide path's halved load/convert µop count wins decisively (measured
/// crossover between 820 and 1639 elements on an AVX-512 Xeon).
pub const QUANT_AVX512_F16_MIN_LEN: usize = 1024;

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

// ---------------------------------------------------------------------------
// the tap-element trait
// ---------------------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u16 {}
}

/// An element the fused shapelet engine can store tap rows in: `f32`, or
/// `u16` holding IEEE 754 binary16 bits. Each implementation supplies the
/// dot kernels for its width and the `dot.dispatch.*` accounting that
/// mirrors their length-only dispatch, so one generic engine serves both
/// precisions without changing either's accumulation order.
///
/// Sealed: the engine's bit-exactness contracts (pair and quad blocks
/// bit-identical to single dots, localization equal to pooling) are proven
/// for these two kernel families only.
pub trait TapElem: sealed::Sealed + Copy + Default + Send + Sync + 'static {
    /// Stores one f32 tap (exact for `f32`; round-to-nearest-even to
    /// binary16 for `u16`).
    fn from_f32(x: f32) -> Self;

    /// Dot product of an f32 window against a tap row, accumulated in f32.
    fn dot(a: &[f32], b: &[Self]) -> f32;

    /// Four dot products sharing the window operand `w`.
    fn dot4(w: &[f32], t: [&[Self]; 4]) -> [f32; 4];

    /// Whether [`Self::dot2`] / [`Self::dot2x4`] have a fused shared-load
    /// kernel for per-variable spans of `len` on the running CPU. Narrow
    /// (2-row) tap blocking only pays when the pair kernel still shares
    /// every window load across both rows — otherwise it degenerates to two
    /// single-row dots, which re-stream the window and lose to the 4-row
    /// block. Callers must derive their block width from this once per
    /// group, so pooling and localization agree.
    fn paired_kernel_available(len: usize) -> bool {
        let _ = len;
        false
    }

    /// Two dot products sharing the window operand; each row's value is
    /// bit-identical to [`Self::dot`]'s whichever block width streams it.
    fn dot2(w: &[f32], t: [&[Self]; 2]) -> [f32; 2] {
        [Self::dot(w, t[0]), Self::dot(w, t[1])]
    }

    /// [`Self::dot2`] against four windows at once; returns `out[w][row]`,
    /// each entry bit-identical to the per-window [`Self::dot2`] value.
    fn dot2x4(ws: [&[f32]; 4], t: [&[Self]; 2]) -> [[f32; 2]; 4] {
        ws.map(|w| Self::dot2(w, t))
    }

    /// Records `n` dot products of operand length `len` against the
    /// `dot.dispatch.*` counters — the same length-only decision the
    /// kernels make, hoisted out so hot loops pay one enabled-gate check per
    /// batch.
    fn count_dispatch(len: usize, n: u64);
}

impl TapElem for f32 {
    #[inline]
    fn from_f32(x: f32) -> f32 {
        x
    }

    #[inline]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        crate::matmul::dot(a, b)
    }

    #[inline]
    fn dot4(w: &[f32], t: [&[f32]; 4]) -> [f32; 4] {
        crate::matmul::dot4(w, t[0], t[1], t[2], t[3])
    }

    #[inline]
    fn count_dispatch(len: usize, n: u64) {
        crate::matmul::count_dot_dispatch(len, n);
    }
}

/// Binary16 taps. `dot` and `dot4` dispatch to the AVX-512F
/// `vcvtph2ps`-to-16-lanes kernels first (one 32-byte load + one convert +
/// one FMA per 16 taps — the lowest µop count per element of any path), then
/// the AVX2+F16C kernels (one 32-byte load carries 16 taps — half the tap
/// load µops of the f32 path), else to the portable scalar kernel. The pair
/// kernels exist on the AVX-512 tier only.
impl TapElem for u16 {
    #[inline]
    fn from_f32(x: f32) -> u16 {
        f32_to_f16(x)
    }

    #[inline]
    fn dot(a: &[f32], b: &[u16]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        #[cfg(target_arch = "x86_64")]
        {
            if a.len() >= QUANT_AVX512_F16_MIN_LEN && x86::avx512_f16_available() {
                // SAFETY: gated on runtime detection of avx512f+f16c.
                return unsafe { x86::dot_f16_avx512(a, b) };
            }
            if a.len() >= QUANT_MIN_LEN && x86::f16c_available() {
                // SAFETY: gated on runtime detection of avx2+fma+f16c.
                return unsafe { x86::dot_f16_f16c(a, b) };
            }
        }
        dot_f16_scalar(a, b)
    }

    #[inline]
    fn dot4(w: &[f32], t: [&[u16]; 4]) -> [f32; 4] {
        debug_assert!(t.iter().all(|r| r.len() == w.len()));
        #[cfg(target_arch = "x86_64")]
        {
            if w.len() >= QUANT_AVX512_F16_MIN_LEN && x86::avx512_f16_available() {
                // SAFETY: gated on runtime detection of avx512f+f16c.
                return unsafe { x86::dot4_f16_avx512(w, t) };
            }
            if w.len() >= QUANT_MIN_LEN && x86::f16c_available() {
                // SAFETY: gated on runtime detection of avx2+fma+f16c.
                return unsafe { x86::dot4_f16_f16c(w, t) };
            }
        }
        t.map(|r| dot_f16_scalar(w, r))
    }

    #[inline]
    fn paired_kernel_available(len: usize) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            len >= QUANT_AVX512_F16_MIN_LEN && x86::avx512_f16_available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = len;
            false
        }
    }

    /// Per-row accumulation structure matches [`Self::dot4`]'s AVX-512 path
    /// exactly, so a row's dot product is bit-identical whichever block
    /// width streams it.
    #[inline]
    fn dot2(w: &[f32], t: [&[u16]; 2]) -> [f32; 2] {
        debug_assert!(t.iter().all(|r| r.len() == w.len()));
        #[cfg(target_arch = "x86_64")]
        if w.len() >= QUANT_AVX512_F16_MIN_LEN && x86::avx512_f16_available() {
            // SAFETY: gated on runtime detection of avx512f+f16c.
            return unsafe { x86::dot2_f16_avx512(w, t) };
        }
        [Self::dot(w, t[0]), Self::dot(w, t[1])]
    }

    /// Shares every tap load and f16→f32 conversion across the four
    /// windows, cutting the non-FMA µop count per MAC to a quarter — the
    /// lever that matters once the tap set is L1-resident and the kernel is
    /// µop-throughput-bound. Each of the eight (window, row) dots keeps the
    /// exact accumulation order of [`Self::dot2`]'s AVX-512 path.
    #[inline]
    fn dot2x4(ws: [&[f32]; 4], t: [&[u16]; 2]) -> [[f32; 2]; 4] {
        debug_assert!(ws.iter().all(|w| w.len() == t[0].len()) && t[1].len() == t[0].len());
        #[cfg(target_arch = "x86_64")]
        if t[0].len() >= QUANT_AVX512_F16_MIN_LEN && x86::avx512_f16_available() {
            // SAFETY: gated on runtime detection of avx512f+f16c.
            return unsafe { x86::dot2x4_f16_avx512(ws, t) };
        }
        ws.map(|w| Self::dot2(w, t))
    }

    #[inline]
    fn count_dispatch(len: usize, n: u64) {
        if n == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if len >= QUANT_AVX512_F16_MIN_LEN && x86::avx512_f16_available() {
                tcsl_obs::counters::DOT_DISPATCH_F16_AVX512.add(n);
                return;
            }
            if len >= QUANT_MIN_LEN && x86::f16c_available() {
                tcsl_obs::counters::DOT_DISPATCH_F16C.add(n);
                return;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = len;
        tcsl_obs::counters::DOT_DISPATCH_F16_SCALAR.add(n);
    }
}

/// Portable f16 dot product mirroring [`crate::matmul::dot_scalar`]'s
/// eight-accumulator shape, so for short operands the quantized path
/// produces **bit-identical** results to `dot_scalar` run on the
/// dequantized taps.
#[inline]
fn dot_f16_scalar(a: &[f32], b: &[u16]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let (x, y) = (&a[c * 8..c * 8 + 8], &b[c * 8..c * 8 + 8]);
        for l in 0..8 {
            acc[l] += x[l] * f16_to_f32(y[l]);
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * 8..a.len() {
        tail += a[i] * f16_to_f32(b[i]);
    }
    acc.iter().sum::<f32>() + tail
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::f16_to_f32;
    use std::arch::x86_64::*;

    /// Cached runtime check for the avx2+fma+f16c f16 path.
    #[inline]
    pub fn f16c_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("f16c")
    }

    /// Cached runtime check for the avx512f+f16c f16 path (`vcvtph2ps`
    /// with a 512-bit destination needs AVX-512F; the scalar tail uses the
    /// same bit-exact software conversion as every other path).
    #[inline]
    pub fn avx512_f16_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("f16c")
    }

    /// AVX2+F16C f16 dot product: four 8-lane chains; each 32-byte tap load
    /// carries 16 halves, converted in-register with `vcvtph2ps`.
    ///
    /// # Safety
    ///
    /// Requires the `avx2`, `fma` and `f16c` target features at runtime
    /// ([`f16c_available`]); `a` and `b` must be the same length.
    #[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
    pub unsafe fn dot_f16_f16c(a: &[f32], b: &[u16]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        unsafe {
            let mut acc = [_mm256_setzero_ps(); 4];
            let mut i = 0usize;
            while i + 32 <= n {
                for c in 0..2 {
                    let off = i + c * 16;
                    let h = _mm256_loadu_si256(pb.add(off) as *const __m256i);
                    let lo = _mm256_cvtph_ps(_mm256_castsi256_si128(h));
                    let hi = _mm256_cvtph_ps(_mm256_extracti128_si256(h, 1));
                    acc[c * 2] = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(off)), lo, acc[c * 2]);
                    acc[c * 2 + 1] =
                        _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(off + 8)), hi, acc[c * 2 + 1]);
                }
                i += 32;
            }
            while i + 16 <= n {
                let h = _mm256_loadu_si256(pb.add(i) as *const __m256i);
                let lo = _mm256_cvtph_ps(_mm256_castsi256_si128(h));
                let hi = _mm256_cvtph_ps(_mm256_extracti128_si256(h, 1));
                acc[0] = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), lo, acc[0]);
                acc[1] = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i + 8)), hi, acc[1]);
                i += 16;
            }
            let sum = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
            let mut s: f32 = lanes.iter().sum();
            while i < n {
                s += *pa.add(i) * f16_to_f32(*pb.add(i));
                i += 1;
            }
            s
        }
    }

    /// Four AVX2+F16C f16 dot products sharing the `w` operand: the window
    /// chunk is loaded once and FMA-ed against all four tap rows (two
    /// 8-lane chains per row).
    ///
    /// # Safety
    ///
    /// Requires the `avx2`, `fma` and `f16c` target features at runtime
    /// ([`f16c_available`]); all five slices must be the same length.
    #[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
    pub unsafe fn dot4_f16_f16c(w: &[f32], t: [&[u16]; 4]) -> [f32; 4] {
        let n = w.len();
        let pw = w.as_ptr();
        let pts = t.map(<[u16]>::as_ptr);
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); 2]; 4];
            let mut i = 0usize;
            while i + 16 <= n {
                let w0 = _mm256_loadu_ps(pw.add(i));
                let w1 = _mm256_loadu_ps(pw.add(i + 8));
                for (j, a) in acc.iter_mut().enumerate() {
                    // One 32-byte load carries 16 taps; halves convert
                    // in-register instead of through a second load port µop.
                    let h = _mm256_loadu_si256(pts[j].add(i) as *const __m256i);
                    let lo = _mm256_cvtph_ps(_mm256_castsi256_si128(h));
                    let hi = _mm256_cvtph_ps(_mm256_extracti128_si256(h, 1));
                    a[0] = _mm256_fmadd_ps(w0, lo, a[0]);
                    a[1] = _mm256_fmadd_ps(w1, hi, a[1]);
                }
                i += 16;
            }
            let mut out = [0.0f32; 4];
            for (j, a) in acc.iter().enumerate() {
                let s8 = _mm256_add_ps(a[0], a[1]);
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), s8);
                let mut s: f32 = lanes.iter().sum();
                let mut k = i;
                while k < n {
                    s += *pw.add(k) * f16_to_f32(*pts[j].add(k));
                    k += 1;
                }
                out[j] = s;
            }
            out
        }
    }

    /// AVX-512F f16 dot product: one 32-byte tap load + one `vcvtph2ps` to
    /// a full 512-bit lane + one FMA per 16 taps — the lowest µop count per
    /// element of any f16 path, which is what lets it beat the f32 kernel
    /// even when the taps are cache resident.
    ///
    /// # Safety
    ///
    /// Requires the `avx512f` target feature at runtime
    /// ([`avx512_f16_available`]); `a` and `b` must be the same length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot_f16_avx512(a: &[f32], b: &[u16]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        unsafe {
            let mut acc = [_mm512_setzero_ps(); 2];
            let mut i = 0usize;
            while i + 32 <= n {
                let h0 = _mm256_loadu_si256(pb.add(i) as *const __m256i);
                let h1 = _mm256_loadu_si256(pb.add(i + 16) as *const __m256i);
                acc[0] = _mm512_fmadd_ps(_mm512_loadu_ps(pa.add(i)), _mm512_cvtph_ps(h0), acc[0]);
                acc[1] =
                    _mm512_fmadd_ps(_mm512_loadu_ps(pa.add(i + 16)), _mm512_cvtph_ps(h1), acc[1]);
                i += 32;
            }
            let mut s = _mm512_reduce_add_ps(_mm512_add_ps(acc[0], acc[1]));
            while i < n {
                s += *pa.add(i) * f16_to_f32(*pb.add(i));
                i += 1;
            }
            s
        }
    }

    /// Four AVX-512F f16 dot products sharing the `w` operand.
    ///
    /// # Safety
    ///
    /// Requires the `avx512f` target feature at runtime
    /// ([`avx512_f16_available`]); all five slices must be the same length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot4_f16_avx512(w: &[f32], t: [&[u16]; 4]) -> [f32; 4] {
        let n = w.len();
        let pw = w.as_ptr();
        let pts = t.map(<[u16]>::as_ptr);
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); 2]; 4];
            let mut i = 0usize;
            while i + 32 <= n {
                let w0 = _mm512_loadu_ps(pw.add(i));
                let w1 = _mm512_loadu_ps(pw.add(i + 16));
                for (j, a) in acc.iter_mut().enumerate() {
                    let h0 = _mm256_loadu_si256(pts[j].add(i) as *const __m256i);
                    let h1 = _mm256_loadu_si256(pts[j].add(i + 16) as *const __m256i);
                    a[0] = _mm512_fmadd_ps(w0, _mm512_cvtph_ps(h0), a[0]);
                    a[1] = _mm512_fmadd_ps(w1, _mm512_cvtph_ps(h1), a[1]);
                }
                i += 32;
            }
            let mut out = [0.0f32; 4];
            for (j, a) in acc.iter().enumerate() {
                let mut s = _mm512_reduce_add_ps(_mm512_add_ps(a[0], a[1]));
                let mut k = i;
                while k < n {
                    s += *pw.add(k) * f16_to_f32(*pts[j].add(k));
                    k += 1;
                }
                out[j] = s;
            }
            out
        }
    }

    /// Two AVX-512F f16 dot products sharing the `w` operand. Same per-row
    /// accumulation structure as [`dot4_f16_avx512`] (two 512-bit chains,
    /// 32 elements per iteration, scalar tail) so a row's dot value is
    /// bit-identical regardless of the block width the caller picked.
    ///
    /// # Safety
    ///
    /// Requires the `avx512f` target feature at runtime
    /// ([`avx512_f16_available`]); all three slices must be the same length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot2_f16_avx512(w: &[f32], t: [&[u16]; 2]) -> [f32; 2] {
        let n = w.len();
        let pw = w.as_ptr();
        let pts = t.map(<[u16]>::as_ptr);
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); 2]; 2];
            let mut i = 0usize;
            while i + 32 <= n {
                let w0 = _mm512_loadu_ps(pw.add(i));
                let w1 = _mm512_loadu_ps(pw.add(i + 16));
                for (j, a) in acc.iter_mut().enumerate() {
                    let h0 = _mm256_loadu_si256(pts[j].add(i) as *const __m256i);
                    let h1 = _mm256_loadu_si256(pts[j].add(i + 16) as *const __m256i);
                    a[0] = _mm512_fmadd_ps(w0, _mm512_cvtph_ps(h0), a[0]);
                    a[1] = _mm512_fmadd_ps(w1, _mm512_cvtph_ps(h1), a[1]);
                }
                i += 32;
            }
            let mut out = [0.0f32; 2];
            for (j, a) in acc.iter().enumerate() {
                let mut s = _mm512_reduce_add_ps(_mm512_add_ps(a[0], a[1]));
                let mut k = i;
                while k < n {
                    s += *pw.add(k) * f16_to_f32(*pts[j].add(k));
                    k += 1;
                }
                out[j] = s;
            }
            out
        }
    }

    /// Two AVX-512F f16 tap rows against four windows: one tap load + one
    /// `vcvtph2ps` feeds four FMAs (one per window), and the sixteen
    /// accumulator chains fully hide FMA latency on a single-FMA-unit core.
    /// Per (window, row) accumulation structure matches [`dot2_f16_avx512`].
    ///
    /// # Safety
    ///
    /// Requires the `avx512f` target feature at runtime
    /// ([`avx512_f16_available`]); all six slices must be the same length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dot2x4_f16_avx512(ws: [&[f32]; 4], t: [&[u16]; 2]) -> [[f32; 2]; 4] {
        let n = t[0].len();
        let pws = ws.map(<[f32]>::as_ptr);
        let pts = t.map(<[u16]>::as_ptr);
        unsafe {
            let mut acc = [[[_mm512_setzero_ps(); 2]; 2]; 4]; // [window][row][chain]
            let mut i = 0usize;
            while i + 32 <= n {
                for (j, pt) in pts.iter().enumerate() {
                    let f0 = _mm512_cvtph_ps(_mm256_loadu_si256(pt.add(i) as *const __m256i));
                    let f1 = _mm512_cvtph_ps(_mm256_loadu_si256(pt.add(i + 16) as *const __m256i));
                    for (wi, pw) in pws.iter().enumerate() {
                        let a0 = _mm512_loadu_ps(pw.add(i));
                        let a1 = _mm512_loadu_ps(pw.add(i + 16));
                        acc[wi][j][0] = _mm512_fmadd_ps(a0, f0, acc[wi][j][0]);
                        acc[wi][j][1] = _mm512_fmadd_ps(a1, f1, acc[wi][j][1]);
                    }
                }
                i += 32;
            }
            let mut out = [[0.0f32; 2]; 4];
            for (wi, aw) in acc.iter().enumerate() {
                for (j, chains) in aw.iter().enumerate() {
                    let mut s = _mm512_reduce_add_ps(_mm512_add_ps(chains[0], chains[1]));
                    let mut k = i;
                    while k < n {
                        s += *pws[wi].add(k) * f16_to_f32(*pts[j].add(k));
                        k += 1;
                    }
                    out[wi][j] = s;
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::dot_scalar;
    use crate::tensor::Tensor;
    use rand::{Rng, SeedableRng};

    fn quantize(src: &[f32]) -> Vec<u16> {
        src.iter().map(|&x| f32_to_f16(x)).collect()
    }

    fn dequantize(src: &[u16]) -> Vec<f32> {
        src.iter().map(|&b| f16_to_f32(b)).collect()
    }

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

    #[test]
    fn dot_f16_matches_dequantized_scalar() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for n in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 1023] {
            let a: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
            let b: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
            let bq = quantize(&b);
            let want = dot_scalar(&a, &dequantize(&bq));
            let got = u16::dot(&a, &bq);
            let scale = 1.0f32.max(want.abs());
            assert!(
                (got - want).abs() / scale < 1e-5,
                "n={n}: f16 dot {got} vs dequantized scalar {want}"
            );
            // Below the SIMD threshold the scalar path is bit-identical to
            // dot_scalar on the dequantized taps.
            if n < QUANT_MIN_LEN {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn dot4_f16_matches_four_dots() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for n in [0usize, 3, 15, 16, 17, 63, 64, 65, 200, 1031] {
            let w: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
            let ts: Vec<Vec<u16>> = (0..4)
                .map(|_| quantize(&(0..n).map(|_| rng.gen::<f32>() - 0.5).collect::<Vec<_>>()))
                .collect();
            let got = u16::dot4(&w, [&ts[0], &ts[1], &ts[2], &ts[3]]);
            for j in 0..4 {
                let want = dot_f16_scalar(&w, &ts[j]);
                let scale = 1.0f32.max(want.abs());
                assert!(
                    (got[j] - want).abs() / scale < 1e-5,
                    "n={n} j={j}: f16 dot4 {} vs scalar {want}",
                    got[j]
                );
            }
        }
    }

    #[test]
    fn window_wrappers_match_plain_window_dot_on_dequantized_taps() {
        use crate::window::{window_dot, window_dot4};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for &(d, t, len) in &[(1usize, 40usize, 5usize), (3, 300, 80)] {
            let s = Tensor::randn([d, t], &mut rng);
            let bank = Tensor::randn([4, d * len], &mut rng);
            let rows: Vec<Vec<u16>> = (0..4).map(|j| quantize(bank.row(j))).collect();
            for w in 0..(t - len + 1) {
                let g4 = window_dot4(&s, [&rows[0], &rows[1], &rows[2], &rows[3]], w, len);
                for j in 0..4 {
                    let want = window_dot(&s, &dequantize(&rows[j])[..], w, len);
                    let tol = 1e-4 * (1.0 + want.abs());
                    assert!((g4[j] - want).abs() < tol, "w={w} j={j}");
                    assert!(
                        (window_dot(&s, &rows[j][..], w, len) - want).abs() < tol,
                        "single w={w} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_and_quad_kernels_are_bit_identical_to_single_dots() {
        // The 2-row and 2-row×4-window kernels keep each (window, row)
        // dot's accumulation order identical to the single-dot kernels, so
        // narrow blocking must never change a value — the shapelet engine
        // relies on this to keep pooling and localization bit-consistent
        // whatever block width it picks. Lengths straddle both the SIMD
        // (64) and AVX-512 f16 (1024) dispatch thresholds.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for n in [64usize, 1023, 1024, 1100, 3277] {
            let rows: Vec<Vec<u16>> = (0..2)
                .map(|_| quantize(&(0..n).map(|_| rng.gen::<f32>() - 0.5).collect::<Vec<_>>()))
                .collect();
            let t = [&rows[0][..], &rows[1][..]];
            let wins: Vec<Vec<f32>> = (0..4)
                .map(|_| (0..n).map(|_| rng.gen::<f32>() - 0.5).collect())
                .collect();
            let ws = [&wins[0][..], &wins[1][..], &wins[2][..], &wins[3][..]];
            let quad = u16::dot2x4(ws, t);
            for (wi, w) in ws.iter().enumerate() {
                let pair = u16::dot2(w, t);
                for j in 0..2 {
                    assert_eq!(pair[j].to_bits(), u16::dot(w, t[j]).to_bits(), "n={n}");
                    assert_eq!(quad[wi][j].to_bits(), pair[j].to_bits(), "n={n} w={wi}");
                }
            }
        }
    }

    #[test]
    fn paired_kernel_availability_is_length_monotone() {
        // Whatever this machine supports, a longer span never *loses* the
        // fused pair kernel once a shorter one has it; f32 never pairs.
        let mut seen = false;
        for len in [8usize, 64, 1024, 4096] {
            let avail = u16::paired_kernel_available(len);
            assert!(avail || !seen, "lost pair kernel at {len}");
            seen = avail;
            assert!(!f32::paired_kernel_available(len));
        }
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
