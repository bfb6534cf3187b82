//! Cache-friendly matrix multiplication kernels.
//!
//! The whole TimeCSL stack funnels its heavy arithmetic through these three
//! kernels (plain product, `A·Bᵀ`, and matrix–vector). They use the i-k-j
//! loop order so the innermost loop streams both the output row and the `B`
//! row sequentially — the standard cache-friendly ordering that lets LLVM
//! auto-vectorize the accumulation.

use crate::dot::{dots, TapElem};
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

/// Dot product of two f32 slices: the one-row instance of the kernel family
/// in [`crate::dot`], so it rounds exactly like every row of a blocked call
/// on the same operands.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dots::<f32, 1, 1>([a], [b])[0][0]
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
    f32::count_dispatch(k, (m * n) as u64);
    let mut out = Tensor::zeros([m, n]);
    if n > 0 {
        for (i, orow) in out.as_mut_slice().chunks_exact_mut(n).enumerate() {
            dots_against(a.row(i), b, orow);
        }
    }
    out
}

/// `out[j] = v · rows[j]` for every row of `rows`, four rows per kernel
/// call: a 4-row block keeps eight FMA chains busy where one row keeps two,
/// and gives each entry the same bits as [`dot`].
fn dots_against(v: &[f32], rows: &Tensor, out: &mut [f32]) {
    let full = out.len() - out.len() % 4;
    for j in (0..full).step_by(4) {
        let block = dots::<f32, 4, 1>([v], std::array::from_fn(|l| rows.row(j + l)));
        for (o, [x]) in out[j..j + 4].iter_mut().zip(block) {
            *o = x;
        }
    }
    for (j, o) in out.iter_mut().enumerate().skip(full) {
        *o = dot(v, rows.row(j));
    }
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
    f32::count_dispatch(k, m as u64);
    let mut out = Tensor::zeros([m]);
    dots_against(v.as_slice(), a, out.as_mut_slice());
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
    use crate::dot::tests::{check_block, host_tiers, random};
    use crate::dot::Tier;
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

    /// `dot` runs the tier its length picks, and every tier's one-row value
    /// is within 1e-5 relative of the portable scalar body's.
    #[test]
    fn dot_matches_scalar_kernel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for n in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 100, 1023] {
            let a = vec![random(&mut rng, n)];
            let b = vec![random(&mut rng, n)];
            let scalar = check_block::<f32, 1, 1>(Tier::Scalar, &a, &b)[0][0];
            for tier in host_tiers() {
                let got = check_block::<f32, 1, 1>(tier, &a, &b)[0][0];
                let scale = 1.0f32.max(scalar.abs());
                assert!(
                    (got - scalar).abs() / scale < 1e-5,
                    "n={n} {tier:?}: {got} vs scalar {scalar}"
                );
                if tier == f32::tier(n) {
                    assert_eq!(dot(&a[0], &b[0]).to_bits(), got.to_bits(), "n={n}");
                }
            }
        }
    }

    /// A 4-row block — the shape `matmul_transb` and `matvec` run — gives
    /// each row the one-row `dot` bits, within 1e-5 relative of the scalar
    /// body, on every tier this host runs.
    #[test]
    fn dot4_matches_four_dots() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for n in [0usize, 3, 15, 16, 17, 63, 64, 65, 200, 1031] {
            let w = vec![random(&mut rng, n)];
            let ts: Vec<Vec<f32>> = (0..4).map(|_| random(&mut rng, n)).collect();
            let got = dots::<f32, 4, 1>([&w[0]], [&ts[0], &ts[1], &ts[2], &ts[3]]);
            for (j, t) in ts.iter().enumerate() {
                assert_eq!(got[j][0].to_bits(), dot(&w[0], t).to_bits(), "n={n} j={j}");
                let want =
                    check_block::<f32, 1, 1>(Tier::Scalar, &w, std::slice::from_ref(t))[0][0];
                let scale = 1.0f32.max(want.abs());
                assert!(
                    (got[j][0] - want).abs() / scale < 1e-5,
                    "n={n} j={j}: 4-row block {} vs scalar {want}",
                    got[j][0]
                );
            }
            for tier in host_tiers() {
                check_block::<f32, 4, 1>(tier, &w, &ts);
            }
            // `matvec` over 7 rows: one 4-row block and three one-row
            // leftovers, every entry with the `dot` bits.
            let rows: Vec<f32> = (0..7).flat_map(|_| random(&mut rng, n)).collect();
            let a = Tensor::from_vec(rows, [7, n]);
            let mv = matvec(&a, &Tensor::from_vec(w[0].clone(), [n]));
            for i in 0..7 {
                assert_eq!(mv.as_slice()[i].to_bits(), dot(a.row(i), &w[0]).to_bits());
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

        // Blocked rows and the one-row tail are each the plain `dot`.
        let a = Tensor::randn([3, 70], &mut rng);
        let b = Tensor::randn([7, 70], &mut rng);
        let v = Tensor::randn([70], &mut rng);
        let ab = matmul_transb(&a, &b);
        let bv = matvec(&b, &v);
        for j in 0..7 {
            assert_eq!(
                bv.as_slice()[j].to_bits(),
                dot(b.row(j), v.as_slice()).to_bits()
            );
            for i in 0..3 {
                assert_eq!(ab.at2(i, j).to_bits(), dot(a.row(i), b.row(j)).to_bits());
            }
        }
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
