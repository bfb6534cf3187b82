//! The dot-kernel family: every dot product of the workspace, written once.
//!
//! One call of [`dots`] computes an `R × W` block: `R` tap rows against `W`
//! windows, each a slice of the same length. Blocks exist for speed only:
//! on the SIMD tiers a window chunk is loaded once for all `R` rows and a
//! tap chunk once for all `W` windows. They never change a value:
//!
//! * **One accumulation order per tier.** Every `(row, window)` entry of
//!   every block shape is bit-identical to that tier's one-row value
//!   `dots::<T, 1, 1>`. Each body keeps per-pair accumulators and reduces
//!   them the same way whatever `R` and `W` are. So a shapelet's feature does
//!   not depend on which rows share its block: features, localizations and
//!   shapelet subsets agree bit for bit.
//! * **Length-only dispatch.** [`TapElem::tier`] picks the tier from the
//!   tap element, the operand length and the running CPU, nothing else. The
//!   same operands give the same bits at every call site and for any
//!   `TCSL_THREADS`.
//! * **f32 accumulation.** Binary16 taps are converted to f32 on load
//!   (exactly) and accumulate like f32 taps; precision is lost only when a
//!   bank is quantized.
//!
//! The tiers and their per-pair order (`n` = operand length):
//!
//! | tier | taps | order |
//! |---|---|---|
//! | [`Tier::Scalar`] | f32, f16 | 8 lanes over `n / 8` chunks, lanes summed in order, plus the separately summed tail |
//! | [`Tier::Avx2`] | f32, f16 (F16C) | two 8-lane FMA chains over 16-element steps, summed lane by lane, then the tail |
//! | [`Tier::Avx512`] | f16 | two 16-lane FMA chains over 32-element steps, `_mm512_reduce_add_ps`, then the tail |

use crate::quant::{f16_to_f32, f32_to_f16};
use tcsl_obs::counters::{self, Counter};

/// Operand length from which the SIMD tiers run. Below it the call into the
/// runtime-detected bodies costs more than it saves, and the scalar body
/// inlines into the caller's loop. The same value gates both tap widths,
/// and `tcsl_shapelet::ShapeletBank::precomputed` stores binary16 taps only
/// from this span on.
pub const SIMD_MIN_LEN: usize = 64;

/// Operand length from which binary16 taps take the 512-bit tier. That body
/// has the fewest µops per element, but 512-bit FMAs run at reduced
/// throughput on single-FMA-unit hosts. It loses while the operands are
/// L1-resident and the kernel is FMA-bound, and wins once the tap rows
/// outgrow L1 and the kernel turns load-bound (measured crossover between
/// 820 and 1639 elements on an AVX-512 Xeon).
pub const AVX512_MIN_LEN: usize = 1024;

/// A body of the kernel family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Portable code, auto-vectorized for the baseline target.
    Scalar,
    /// 256-bit AVX2 + FMA (+ F16C for binary16 taps).
    Avx2,
    /// 512-bit AVX-512F (binary16 taps).
    Avx512,
}

impl Tier {
    /// Whether the running CPU can execute this tier's body (detected at
    /// runtime and cached, so portable builds run everywhere). F16C shipped
    /// with every AVX2 CPU, so the 256-bit tier asks for it at both tap
    /// widths.
    #[inline]
    pub fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Tier::Scalar => true,
                Tier::Avx2 => has!("avx2") && has!("fma") && has!("f16c"),
                Tier::Avx512 => has!("avx512f") && has!("f16c"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Tier::Scalar
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u16 {}
}

/// An element tap rows are stored in: `f32`, or `u16` holding IEEE 754
/// binary16 bits. Windows are always f32.
///
/// Sealed: the bit-identity contract of the module docs is proven for these
/// two elements only.
pub trait TapElem: sealed::Sealed + Copy + Default + Send + Sync + 'static {
    /// Whether the element holds binary16 bits, converted to f32 on load.
    const HALF: bool;

    /// Stores one f32 tap (exact for `f32`; round-to-nearest-even to
    /// binary16 for `u16`).
    fn from_f32(x: f32) -> Self;

    /// The tap's value (exact at both widths).
    fn to_f32(self) -> f32;

    /// The tier that runs dot products of operand length `len` on the
    /// running CPU: the one length rule of this element, which [`dots`],
    /// [`Self::count_dispatch`] and the shapelet engine's block-shape choice
    /// all read.
    fn tier(len: usize) -> Tier;

    /// The `dot.dispatch.*` counter of this element's dots on `tier`.
    fn dispatch_counter(tier: Tier) -> &'static Counter;

    /// Records `n` dot products of operand length `len` against the
    /// `dot.dispatch.*` counters. Hot loops call this once per batch, never
    /// per dot, so they pay one enabled-gate check per batch.
    #[inline]
    fn count_dispatch(len: usize, n: u64) {
        if n > 0 {
            Self::dispatch_counter(Self::tier(len)).add(n);
        }
    }
}

impl TapElem for f32 {
    const HALF: bool = false;

    #[inline]
    fn from_f32(x: f32) -> f32 {
        x
    }

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn tier(len: usize) -> Tier {
        if len >= SIMD_MIN_LEN && Tier::Avx2.available() {
            Tier::Avx2
        } else {
            Tier::Scalar
        }
    }

    fn dispatch_counter(tier: Tier) -> &'static Counter {
        match tier {
            Tier::Scalar => &counters::DOT_DISPATCH_SCALAR,
            Tier::Avx2 | Tier::Avx512 => &counters::DOT_DISPATCH_AVX2_FMA,
        }
    }
}

impl TapElem for u16 {
    const HALF: bool = true;

    #[inline]
    fn from_f32(x: f32) -> u16 {
        f32_to_f16(x)
    }

    #[inline]
    fn to_f32(self) -> f32 {
        f16_to_f32(self)
    }

    #[inline]
    fn tier(len: usize) -> Tier {
        if len >= AVX512_MIN_LEN && Tier::Avx512.available() {
            Tier::Avx512
        } else if len >= SIMD_MIN_LEN && Tier::Avx2.available() {
            Tier::Avx2
        } else {
            Tier::Scalar
        }
    }

    fn dispatch_counter(tier: Tier) -> &'static Counter {
        match tier {
            Tier::Scalar => &counters::DOT_DISPATCH_F16_SCALAR,
            Tier::Avx2 => &counters::DOT_DISPATCH_F16C,
            Tier::Avx512 => &counters::DOT_DISPATCH_F16_AVX512,
        }
    }
}

/// Dot products of `R` tap rows against `W` windows: `out[r][w]` is
/// `ws[w] · taps[r]`, accumulated in f32 on the tier [`TapElem::tier`]
/// picks for the operand length. Every entry equals the one-row value
/// `dots::<T, 1, 1>([ws[w]], [taps[r]])` bit for bit.
///
/// Panics unless every operand has the same length.
#[inline(always)]
pub fn dots<T: TapElem, const R: usize, const W: usize>(
    ws: [&[f32]; W],
    taps: [&[T]; R],
) -> [[f32; W]; R] {
    let n = taps[0].len();
    assert!(
        ws.iter().all(|w| w.len() == n) && taps.iter().all(|t| t.len() == n),
        "dot operands differ in length"
    );
    // SAFETY: `T::tier` returns only tiers the running CPU supports, and
    // every operand was just checked to have length `n`.
    unsafe { dots_on(T::tier(n), ws, taps) }
}

/// [`dots`] on an explicit tier.
///
/// # Safety
///
/// `tier` must be [`Tier::available`] on the running CPU, and every operand
/// must have the length of `taps[0]`.
#[inline(always)]
unsafe fn dots_on<T: TapElem, const R: usize, const W: usize>(
    tier: Tier,
    ws: [&[f32]; W],
    taps: [&[T]; R],
) -> [[f32; W]; R] {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees the tier's features and the lengths.
        Tier::Avx2 => unsafe { x86::dots_256(ws, taps) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Tier::Avx512 => unsafe { x86::dots_512(ws, taps) },
        _ => dots_scalar(ws, taps),
    }
}

/// The scalar body: per pair, eight lane accumulators over the `n / 8`
/// whole chunks (so LLVM can vectorize the reduction), summed in lane
/// order, plus the tail summed on its own. Pairs run one after another:
/// sharing chunk loads across pairs measured slower here than streaming
/// each pair through the vectorized loop.
#[inline(always)]
fn dots_scalar<T: TapElem, const R: usize, const W: usize>(
    ws: [&[f32]; W],
    taps: [&[T]; R],
) -> [[f32; W]; R] {
    taps.map(|t| ws.map(|w| dot_scalar(w, t)))
}

/// One pair of the scalar body.
#[inline(always)]
fn dot_scalar<T: TapElem>(w: &[f32], t: &[T]) -> f32 {
    let body = t.len() - t.len() % 8;
    let mut lanes = [0.0f32; 8];
    for (w, t) in w[..body].chunks_exact(8).zip(t[..body].chunks_exact(8)) {
        for l in 0..8 {
            lanes[l] += w[l] * t[l].to_f32();
        }
    }
    lanes.iter().sum::<f32>() + tails([[0.0]], body, [w], [t])[0][0]
}

/// Adds the products `ws[w][k] · taps[r][k]` for `k ≥ from`, one at a
/// time and in order, to each pair's partial sum `s[r][w]`. The pairs'
/// chains are independent, so one loop over `k` overlaps them.
#[inline(always)]
fn tails<T: TapElem, const R: usize, const W: usize>(
    mut s: [[f32; W]; R],
    from: usize,
    ws: [&[f32]; W],
    taps: [&[T]; R],
) -> [[f32; W]; R] {
    let n = taps[0].len();
    let ws = ws.map(|w| &w[from..n]);
    let taps = taps.map(|t| &t[from..n]);
    for k in 0..n - from {
        for (s, t) in s.iter_mut().zip(&taps) {
            let t = t[k].to_f32();
            for (s, w) in s.iter_mut().zip(&ws) {
                *s += w[k] * t;
            }
        }
    }
    s
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{tails, TapElem};
    use std::arch::x86_64::*;

    /// The 256-bit body: per pair, two 8-lane FMA chains over 16-element
    /// steps (one 32-byte load carries 16 binary16 taps, converted in
    /// register), the chains added, the eight lanes summed in order, then
    /// the tail.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`, `fma` and `f16c`, and every operand must
    /// have the length of `taps[0]`.
    #[target_feature(enable = "avx2", enable = "fma", enable = "f16c")]
    pub(super) unsafe fn dots_256<T: TapElem, const R: usize, const W: usize>(
        ws: [&[f32]; W],
        taps: [&[T]; R],
    ) -> [[f32; W]; R] {
        let n = taps[0].len();
        let pw = ws.map(<[f32]>::as_ptr);
        let pt = taps.map(<[T]>::as_ptr);
        let mut acc = [[[_mm256_setzero_ps(); 2]; W]; R];
        let mut i = 0usize;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n` and every operand holds `n` elements;
            // the sealed `TapElem` is `u16` when `HALF` and `f32` otherwise,
            // so each tap load reads elements of the row's own type.
            unsafe {
                let mut x = [[_mm256_setzero_ps(); 2]; W];
                for (x, p) in x.iter_mut().zip(&pw) {
                    *x = [_mm256_loadu_ps(p.add(i)), _mm256_loadu_ps(p.add(i + 8))];
                }
                for (a, p) in acc.iter_mut().zip(&pt) {
                    let t = if T::HALF {
                        let h = _mm256_loadu_si256(p.add(i).cast());
                        [
                            _mm256_cvtph_ps(_mm256_castsi256_si128(h)),
                            _mm256_cvtph_ps(_mm256_extracti128_si256(h, 1)),
                        ]
                    } else {
                        let p = p.add(i).cast::<f32>();
                        [_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8))]
                    };
                    for (a, x) in a.iter_mut().zip(&x) {
                        a[0] = _mm256_fmadd_ps(x[0], t[0], a[0]);
                        a[1] = _mm256_fmadd_ps(x[1], t[1], a[1]);
                    }
                }
            }
            i += 16;
        }
        // Plain loops, not `array::map`: a closure here would not inherit
        // the target features and would stay an out-of-line call per pair.
        let mut sums = [[0.0f32; W]; R];
        for (s, a) in sums.iter_mut().zip(&acc) {
            for (s, a) in s.iter_mut().zip(a) {
                let mut lanes = [0.0f32; 8];
                // SAFETY: `lanes` holds the eight f32 the store writes.
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), _mm256_add_ps(a[0], a[1])) };
                *s = lanes.iter().sum::<f32>();
            }
        }
        tails(sums, i, ws, taps)
    }

    /// The 512-bit body: per pair, two 16-lane FMA chains over 32-element
    /// steps (binary16 taps converted with `vcvtph2ps`), the chains added
    /// and reduced by `_mm512_reduce_add_ps`, then the tail.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f` and `f16c`, and every operand must
    /// have the length of `taps[0]`.
    #[target_feature(enable = "avx512f", enable = "f16c")]
    pub(super) unsafe fn dots_512<T: TapElem, const R: usize, const W: usize>(
        ws: [&[f32]; W],
        taps: [&[T]; R],
    ) -> [[f32; W]; R] {
        let n = taps[0].len();
        let pw = ws.map(<[f32]>::as_ptr);
        let pt = taps.map(<[T]>::as_ptr);
        let mut acc = [[[_mm512_setzero_ps(); 2]; W]; R];
        let mut i = 0usize;
        while i + 32 <= n {
            // SAFETY: `i + 32 <= n` and every operand holds `n` elements;
            // the sealed `TapElem` is `u16` when `HALF` and `f32` otherwise,
            // so each tap load reads elements of the row's own type.
            unsafe {
                let mut x = [[_mm512_setzero_ps(); 2]; W];
                for (x, p) in x.iter_mut().zip(&pw) {
                    *x = [_mm512_loadu_ps(p.add(i)), _mm512_loadu_ps(p.add(i + 16))];
                }
                for (a, p) in acc.iter_mut().zip(&pt) {
                    let t = if T::HALF {
                        [
                            _mm512_cvtph_ps(_mm256_loadu_si256(p.add(i).cast())),
                            _mm512_cvtph_ps(_mm256_loadu_si256(p.add(i + 16).cast())),
                        ]
                    } else {
                        let p = p.add(i).cast::<f32>();
                        [_mm512_loadu_ps(p), _mm512_loadu_ps(p.add(16))]
                    };
                    for (a, x) in a.iter_mut().zip(&x) {
                        a[0] = _mm512_fmadd_ps(x[0], t[0], a[0]);
                        a[1] = _mm512_fmadd_ps(x[1], t[1], a[1]);
                    }
                }
            }
            i += 32;
        }
        let mut sums = [[0.0f32; W]; R];
        for (s, a) in sums.iter_mut().zip(&acc) {
            for (s, a) in s.iter_mut().zip(a) {
                *s = _mm512_reduce_add_ps(_mm512_add_ps(a[0], a[1]));
            }
        }
        tails(sums, i, ws, taps)
    }
}

/// The table test, and the helpers the kernel tests of `matmul`, `quant`
/// and `window` share with it.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use crate::window::{unfold, window_dots};
    use rand::{Rng, SeedableRng};

    const LENS: [usize; 18] = [
        0, 1, 7, 15, 16, 17, 31, 32, 33, 63, 64, 65, 126, 252, 1023, 1024, 1025, 3277,
    ];

    pub(crate) fn host_tiers() -> Vec<Tier> {
        [Tier::Scalar, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(|t| t.available())
            .collect()
    }

    pub(crate) fn random(rng: &mut impl Rng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen::<f32>() - 0.5).collect()
    }

    /// `ws · taps` in f64, and `Σ |w_i · t_i|` (the scale of its rounding
    /// error).
    fn reference<T: TapElem>(w: &[f32], t: &[T]) -> (f64, f64) {
        w.iter().zip(t).fold((0.0, 0.0), |(s, m), (&w, &t)| {
            let p = w as f64 * t.to_f32() as f64;
            (s + p, m + p.abs())
        })
    }

    /// One `R × W` block on `tier`: every entry equals the tier's one-row
    /// value bit for bit and the f64 reference within 1e-5 relative.
    /// Returns the block for cross-element checks.
    pub(crate) fn check_block<T: TapElem, const R: usize, const W: usize>(
        tier: Tier,
        ws: &[Vec<f32>],
        ts: &[Vec<T>],
    ) -> [[f32; W]; R] {
        let w: [&[f32]; W] = std::array::from_fn(|i| &ws[i][..]);
        let t: [&[T]; R] = std::array::from_fn(|j| &ts[j][..]);
        // SAFETY: `tier` is available on this host and all operands share
        // one length.
        let block = unsafe { dots_on(tier, w, t) };
        for (r, row) in block.iter().enumerate() {
            for (i, &got) in row.iter().enumerate() {
                // SAFETY: as above.
                let one = unsafe { dots_on(tier, [w[i]], [t[r]]) }[0][0];
                let at = format!("{tier:?} {R}x{W} n={} row {r} window {i}", t[r].len());
                assert_eq!(got.to_bits(), one.to_bits(), "{at}: block vs one-row");
                let (want, scale) = reference(w[i], t[r]);
                assert!(
                    (got as f64 - want).abs() <= 1e-5 * scale.max(1.0),
                    "{at}: {got} vs f64 {want}"
                );
            }
        }
        block
    }

    /// Every block shape the shapelet engine instantiates (4×1 and 2×4 with
    /// their leftover blocks), at both tap widths, on every tier this host
    /// runs — each tier called directly, so the scalar tier also runs at
    /// SIMD lengths and the 256-bit tier above the 512-bit threshold. Then
    /// the same contract one level up, for `window_dots` over a series.
    #[test]
    fn kernel_family_table() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for tier in host_tiers() {
            for n in LENS {
                let ws: Vec<Vec<f32>> = (0..4).map(|_| random(&mut rng, n)).collect();
                let ts: Vec<Vec<f32>> = (0..4).map(|_| random(&mut rng, n)).collect();
                let hs: Vec<Vec<u16>> = ts
                    .iter()
                    .map(|t| t.iter().map(|&x| u16::from_f32(x)).collect())
                    .collect();
                let deq: Vec<Vec<f32>> = hs
                    .iter()
                    .map(|h| h.iter().map(|&x| x.to_f32()).collect())
                    .collect();
                check_block::<f32, 4, 1>(tier, &ws, &ts);
                check_block::<f32, 3, 1>(tier, &ws, &ts);
                check_block::<f32, 2, 1>(tier, &ws, &ts);
                check_block::<f32, 1, 1>(tier, &ws, &ts);
                check_block::<f32, 1, 4>(tier, &ws, &ts);
                check_block::<u16, 4, 1>(tier, &ws, &hs);
                check_block::<u16, 3, 1>(tier, &ws, &hs);
                check_block::<u16, 2, 1>(tier, &ws, &hs);
                check_block::<u16, 1, 1>(tier, &ws, &hs);
                check_block::<u16, 1, 4>(tier, &ws, &hs);
                // Binary16 taps convert exactly and then accumulate like
                // f32 taps: the same tier gives the same bits as the f32
                // body on the dequantized rows.
                let f = check_block::<f32, 2, 4>(tier, &ws, &deq);
                let h = check_block::<u16, 2, 4>(tier, &ws, &hs);
                assert_eq!(
                    f.map(|r| r.map(f32::to_bits)),
                    h.map(|r| r.map(f32::to_bits))
                );
                // The dispatching entry runs the tier its length rule picks.
                if tier == f32::tier(n) {
                    assert_eq!(
                        dots::<f32, 2, 4>([&ws[0], &ws[1], &ws[2], &ws[3]], [&deq[0], &deq[1]]),
                        f
                    );
                }
                if tier == u16::tier(n) {
                    assert_eq!(
                        dots::<u16, 2, 4>([&ws[0], &ws[1], &ws[2], &ws[3]], [&hs[0], &hs[1]]),
                        h
                    );
                }
            }
        }
        // The length rules only ever widen with the length, and f32 taps
        // never take the 512-bit tier (so never the engine's pair blocks).
        let (mut f, mut h) = (0u8, 0u8);
        for n in LENS {
            assert!(f32::tier(n) != Tier::Avx512, "n={n}");
            assert!(f32::tier(n) as u8 >= f && u16::tier(n) as u8 >= h, "n={n}");
            (f, h) = (f32::tier(n) as u8, u16::tier(n) as u8);
        }

        // `window_dots` sums the per-variable one-row values in variable
        // order, for every block shape and both tap widths, and matches the
        // window rows of `unfold`.
        for &(d, t, len, stride) in &[
            (1usize, 20usize, 3usize, 1usize),
            (2, 17, 4, 2),
            (3, 300, 80, 3),
        ] {
            let s = Tensor::randn([d, t], &mut rng);
            let rows: Vec<Vec<f32>> = (0..2).map(|_| random(&mut rng, d * len)).collect();
            let halves: Vec<Vec<u16>> = rows
                .iter()
                .map(|r| r.iter().map(|&x| u16::from_f32(x)).collect())
                .collect();
            let unfolded = unfold(&s, len, stride);
            let n = unfolded.rows();
            for w in 0..n.saturating_sub(3) {
                let starts = [w, w + 1, w + 2, w + 3].map(|x| x * stride);
                let quad = window_dots(&s, [&halves[0][..], &halves[1][..]], starts, len);
                for (j, h) in halves.iter().enumerate() {
                    for (i, &start) in starts.iter().enumerate() {
                        let one = window_dots(&s, [&h[..]], [start], len)[0][0];
                        let mut sum = 0.0f32;
                        for v in 0..d {
                            let span = v * len..(v + 1) * len;
                            sum += dots::<u16, 1, 1>([&s.row(v)[start..start + len]], [&h[span]])
                                [0][0];
                        }
                        assert_eq!(quad[j][i].to_bits(), one.to_bits(), "w={w} row {j}");
                        assert_eq!(one.to_bits(), sum.to_bits(), "w={w} row {j}");
                        let (want, scale) = reference(unfolded.row(w + i), h);
                        assert!((one as f64 - want).abs() <= 1e-5 * scale.max(1.0));
                    }
                }
                let pair = window_dots(&s, [&rows[0][..], &rows[1][..]], starts, len);
                for (j, r) in rows.iter().enumerate() {
                    for (i, &start) in starts.iter().enumerate() {
                        let one = window_dots(&s, [&r[..]], [start], len)[0][0];
                        assert_eq!(pair[j][i].to_bits(), one.to_bits(), "f32 w={w} row {j}");
                    }
                }
            }
        }
    }
}
