//! Cache-friendly matrix multiplication kernels.
//!
//! The whole TimeCSL stack funnels its heavy arithmetic through these three
//! kernels (plain product, `A·Bᵀ`, and matrix–vector). They use the i-k-j
//! loop order so the innermost loop streams both the output row and the `B`
//! row sequentially — the standard cache-friendly ordering that lets LLVM
//! auto-vectorize the accumulation.

use crate::tensor::Tensor;

/// `A (m×k) · B (k×n) → (m×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul inner dimensions differ: {k} vs {kb}");
    let mut out = Tensor::zeros([m, n]);
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let od = out.as_mut_slice();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut od[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Dot product — the kernel the whole shapelet transform funnels through.
///
/// On x86-64 with AVX2+FMA (detected at runtime, so portable builds still
/// work everywhere) this uses the intrinsics path below; elsewhere it falls
/// back to [`dot_scalar`]. Engines that score one row at a time share this
/// function, so those rows see identical dot-product rounding. [`dot4`] is
/// not bit-identical to it at length ≥ 64 on the AVX2/FMA tier: its lanes
/// accumulate in a different order, so a row pooled in a quad block can
/// differ in the last bits from the same row through `dot`. Below length
/// 64 both run `dot_scalar` and agree bit for bit.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if a.len() >= FMA_MIN_LEN && x86::fma_available() {
        // SAFETY: gated on runtime detection of avx2+fma.
        return unsafe { x86::dot_fma(a, b) };
    }
    dot_scalar(a, b)
}

/// Below this length the call into the (non-inlinable, runtime-detected)
/// intrinsics path costs more than it saves; the scalar kernel inlines
/// into the caller's loop. Dispatch depends only on the length, so a
/// kernel given the same operands rounds the same at every call site.
const FMA_MIN_LEN: usize = 64;

/// Records `n` dot products of operand length `len` against the
/// `dot.dispatch.*` counters — the same length-only decision [`dot`] and
/// [`dot4`] make, hoisted out of their bodies so hot loops pay **one**
/// enabled-gate check per batch instead of one per dot product. The batch
/// kernels (transforms, pairwise distances, the matmul wrappers below)
/// call this; stray singleton `dot` calls on cold paths go uncounted.
#[inline]
pub fn count_dot_dispatch(len: usize, n: u64) {
    if n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if len >= FMA_MIN_LEN && x86::fma_available() {
        tcsl_obs::counters::DOT_DISPATCH_AVX2_FMA.add(n);
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = len;
    tcsl_obs::counters::DOT_DISPATCH_SCALAR.add(n);
}

/// Portable dot product with eight independent accumulators so LLVM can
/// vectorize the reduction (a single-accumulator loop has a serial
/// dependency chain that blocks SIMD).
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let (x, y) = (&a[c * 8..c * 8 + 8], &b[c * 8..c * 8 + 8]);
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    let mut tail = 0.0f32;
    for i in chunks * 8..a.len() {
        tail += a[i] * b[i];
    }
    acc.iter().sum::<f32>() + tail
}

/// Dot products of one vector against four others in a single pass: the
/// shared side is loaded once per lane instead of four times, which lifts
/// the kernel off the load-port ceiling a lone [`dot`] hits. This is the
/// blocked kernel behind the fused shapelet transform's shapelet-major
/// loop (4 shapelets of a group per streaming pass).
///
/// Dispatch depends only on the length, so any two call sites given the
/// same operands produce bit-identical results. At length ≥ 64 on the
/// AVX2/FMA tier a lane's value is not bit-identical to [`dot`]'s (see
/// there).
#[inline]
pub fn dot4(w: &[f32], t0: &[f32], t1: &[f32], t2: &[f32], t3: &[f32]) -> [f32; 4] {
    debug_assert!(
        t0.len() == w.len() && t1.len() == w.len() && t2.len() == w.len() && t3.len() == w.len()
    );
    #[cfg(target_arch = "x86_64")]
    if w.len() >= FMA_MIN_LEN && x86::fma_available() {
        // SAFETY: gated on runtime detection of avx2+fma.
        return unsafe { x86::dot4_fma(w, t0, t1, t2, t3) };
    }
    [dot(w, t0), dot(w, t1), dot(w, t2), dot(w, t3)]
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Cached runtime check for the avx2+fma dot path.
    #[inline]
    pub fn fma_available() -> bool {
        // is_x86_feature_detected caches the CPUID result internally.
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// AVX2+FMA dot product: eight 8-lane accumulator chains (enough
    /// instruction-level parallelism to keep both FMA ports busy across the
    /// ~4-cycle FMA latency), lanes reduced sequentially at the end.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` and `fma` target features at runtime
    /// ([`fma_available`]); `a` and `b` must be the same length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        unsafe {
            let mut acc = [_mm256_setzero_ps(); 8];
            let mut i = 0usize;
            while i + 64 <= n {
                for (c, lane) in acc.iter_mut().enumerate() {
                    let off = i + c * 8;
                    *lane = _mm256_fmadd_ps(
                        _mm256_loadu_ps(pa.add(off)),
                        _mm256_loadu_ps(pb.add(off)),
                        *lane,
                    );
                }
                i += 64;
            }
            while i + 8 <= n {
                acc[0] = _mm256_fmadd_ps(
                    _mm256_loadu_ps(pa.add(i)),
                    _mm256_loadu_ps(pb.add(i)),
                    acc[0],
                );
                i += 8;
            }
            let quad = [
                _mm256_add_ps(acc[0], acc[1]),
                _mm256_add_ps(acc[2], acc[3]),
                _mm256_add_ps(acc[4], acc[5]),
                _mm256_add_ps(acc[6], acc[7]),
            ];
            let sum = _mm256_add_ps(
                _mm256_add_ps(quad[0], quad[1]),
                _mm256_add_ps(quad[2], quad[3]),
            );
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
            let mut s: f32 = lanes.iter().sum();
            while i < n {
                s += *pa.add(i) * *pb.add(i);
                i += 1;
            }
            s
        }
    }

    /// Four dot products sharing the `w` operand: each window chunk is
    /// loaded once and FMA-ed against all four tap rows (two 8-lane chains
    /// per row for latency cover).
    ///
    /// # Safety
    ///
    /// Requires the `avx2` and `fma` target features at runtime
    /// ([`fma_available`]); all five slices must be the same length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot4_fma(w: &[f32], t0: &[f32], t1: &[f32], t2: &[f32], t3: &[f32]) -> [f32; 4] {
        let n = w.len();
        let pw = w.as_ptr();
        let pts = [t0.as_ptr(), t1.as_ptr(), t2.as_ptr(), t3.as_ptr()];
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); 2]; 4];
            let mut i = 0usize;
            while i + 16 <= n {
                let w0 = _mm256_loadu_ps(pw.add(i));
                let w1 = _mm256_loadu_ps(pw.add(i + 8));
                for (j, a) in acc.iter_mut().enumerate() {
                    a[0] = _mm256_fmadd_ps(w0, _mm256_loadu_ps(pts[j].add(i)), a[0]);
                    a[1] = _mm256_fmadd_ps(w1, _mm256_loadu_ps(pts[j].add(i + 8)), a[1]);
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
                    s += *pw.add(k) * *pts[j].add(k);
                    k += 1;
                }
                out[j] = s;
            }
            out
        }
    }
}

/// `A (m×k) · Bᵀ where B is (n×k) → (m×n)`.
///
/// Both operands are walked row-wise, so this is the preferred kernel when
/// the right factor is naturally stored row-major (e.g. a bank of shapelets
/// or a batch of embeddings whose pairwise similarities we need).
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (n, kb) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul_transb inner dimensions differ: {k} vs {kb}");
    count_dot_dispatch(k, (m * n) as u64);
    let mut out = Tensor::zeros([m, n]);
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let od = out.as_mut_slice();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            od[i * n + j] = dot(arow, &bd[j * k..(j + 1) * k]);
        }
    }
    out
}

/// `Aᵀ (k×m)ᵀ · B (k×n) → (m×n)` computed without materializing `Aᵀ`.
pub fn matmul_transa(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul_transa inner dimensions differ: {k} vs {kb}");
    let mut out = Tensor::zeros([m, n]);
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let od = out.as_mut_slice();
    for p in 0..k {
        let arow = &ad[p * m..(p + 1) * m];
        let brow = &bd[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// `A (m×k) · v (k) → (m)`.
pub fn matvec(a: &Tensor, v: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(
        v.numel(),
        k,
        "matvec dimension mismatch: {} vs {k}",
        v.numel()
    );
    count_dot_dispatch(k, m as u64);
    let mut out = Tensor::zeros([m]);
    let (ad, vd) = (a.as_slice(), v.as_slice());
    let od = out.as_mut_slice();
    for i in 0..m {
        od[i] = dot(&ad[i * k..(i + 1) * k], vd);
    }
    out
}

/// Outer product `u (m) ⊗ v (n) → (m×n)`.
pub fn outer(u: &Tensor, v: &Tensor) -> Tensor {
    let (m, n) = (u.numel(), v.numel());
    let mut out = Tensor::zeros([m, n]);
    let od = out.as_mut_slice();
    for (i, &uv) in u.as_slice().iter().enumerate() {
        for (j, &vv) in v.as_slice().iter().enumerate() {
            od[i * n + j] = uv * vv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += a.at2(i, p) * b.at2(p, j);
                }
                out.set(&[i, j], s);
            }
        }
        out
    }

    #[test]
    fn dot_matches_scalar_kernel() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for n in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 100, 1023] {
            let a: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
            let b: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
            let fast = dot(&a, &b);
            let scalar = dot_scalar(&a, &b);
            let scale = 1.0f32.max(scalar.abs());
            assert!(
                (fast - scalar).abs() / scale < 1e-5,
                "n={n}: dot {fast} vs scalar {scalar}"
            );
        }
    }

    #[test]
    fn dot4_matches_four_dots() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for n in [0usize, 3, 15, 16, 17, 63, 64, 65, 200, 1031] {
            let w: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
            let ts: Vec<Vec<f32>> = (0..4)
                .map(|_| (0..n).map(|_| rng.gen::<f32>() - 0.5).collect())
                .collect();
            let got = dot4(&w, &ts[0], &ts[1], &ts[2], &ts[3]);
            for j in 0..4 {
                let want = dot_scalar(&w, &ts[j]);
                let scale = 1.0f32.max(want.abs());
                assert!(
                    (got[j] - want).abs() / scale < 1e-5,
                    "n={n} j={j}: dot4 {} vs scalar {want}",
                    got[j]
                );
            }
        }
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], [2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_matches_naive_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = Tensor::randn([7, 5], &mut rng);
        let b = Tensor::randn([5, 9], &mut rng);
        let fast = matmul(&a, &b);
        let slow = naive(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn transb_and_transa_agree_with_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Tensor::randn([4, 6], &mut rng);
        let b = Tensor::randn([3, 6], &mut rng);
        let viaexp = matmul(&a, &b.transpose2());
        let direct = matmul_transb(&a, &b);
        assert!(viaexp.max_abs_diff(&direct) < 1e-5);

        let c = Tensor::randn([6, 4], &mut rng);
        let d = Tensor::randn([6, 3], &mut rng);
        let viaexp = matmul(&c.transpose2(), &d);
        let direct = matmul_transa(&c, &d);
        assert!(viaexp.max_abs_diff(&direct) < 1e-5);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = Tensor::randn([4, 6], &mut rng);
        let v = Tensor::randn([6], &mut rng);
        let got = matvec(&a, &v);
        let want = matmul(&a, &v.clone().reshape([6, 1])).reshape([4]);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn outer_product() {
        let u = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let v = Tensor::from_vec(vec![3.0, 4.0, 5.0], [3]);
        let o = outer(&u, &v);
        assert_eq!(o.row(1), &[6.0, 8.0, 10.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Tensor::randn([5, 5], &mut rng);
        let i = Tensor::eye(5);
        assert!(matmul(&a, &i).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&i, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        matmul(&a, &b);
    }
}
