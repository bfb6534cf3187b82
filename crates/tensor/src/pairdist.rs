//! Blocked pairwise squared-Euclidean engine for the representation space.
//!
//! Every downstream analyzer (k-NN classification and anomaly scoring, the
//! k-means assignment step, agglomerative clustering's initial matrix) and
//! the t-SNE affinity pass consume the representation matrix `z = f(x)`
//! through pairwise Euclidean distances. This module gives them one shared
//! engine instead of five scalar `zip(..).map(..).sum()` reimplementations:
//!
//! * [`pairdist`] — the full `N×M` squared-distance matrix, computed as
//!   `D[i,j] = |a_i|² + |b_j|² − 2·a_i·b_j` from precomputed row norms plus
//!   4-row blocks of the [`dots`] kernel family, tiled so the corpus block
//!   stays cache-resident, with a [`parallel_chunks_mut`]
//!   row-block fan-out (persistent-pool workers; row-block ownership is a
//!   function of the chunk index alone) writing the result in place (no
//!   gather copy).
//! * [`knn_into`] / [`knn`] — streaming per-row top-`k` selection through a
//!   bounded binary heap, never materializing the `N×M` matrix (the same
//!   zero-materialization discipline as the fused shapelet transform). The
//!   heaps live directly in the caller's output vectors, so repeated calls
//!   with a reused `out` reach a zero-allocation steady state for results.
//! * [`topk_push`] / [`topk_sort`] / [`scan_cell_into`] — the bounded-heap
//!   and probed-scan primitives underneath [`knn_into`], exported so the
//!   IVF index (`tcsl_analyzers::index`) can merge shortlists from several
//!   repacked corpus cells into one accumulator with *bit-identical*
//!   distances and ordering: a [`dots`] entry depends only on its operand
//!   pair, never on which rows share its block, so a row scanned from a
//!   repacked cell scores exactly as it does in the full corpus.
//! * [`pairdist_oracle`] / [`knn_oracle`] — the naive scalar formulations,
//!   kept as the agreement oracle for proptests and benchmarks.
//!
//! Contracts shared by every entry point:
//!
//! * **Determinism.** The row-block partition is a function of `N` alone
//!   (never of the worker count), and each output block is owned by its
//!   index, so results are bit-identical for any `TCSL_THREADS` setting.
//! * **Tie-breaks.** Equal distances resolve to the *lowest* corpus index —
//!   the order a stable sort over a full scan would produce.
//! * **NaN.** Distances involving NaN features are NaN and order *last*
//!   (via `total_cmp`), matching the analyzers' NaN-tolerant sorting; they
//!   never abort a query.
//! * **Exact self-distance.** `D[i,j]` is exactly `0.0` when the two rows
//!   are bit-identical: a norm and a cross term of the same operands are
//!   the same [`dots`] value whatever the block shape, so they are the same
//!   f32 `x` and `x + x − 2x` cancels exactly in IEEE arithmetic, on every
//!   tier. Self-match detection by `d < eps` keeps working.
//! * **Magnitude domain.** The norms+dot identity needs `|v|²` to be
//!   representable; once a row's squared norm overflows f32 (entries
//!   around 1e19 at representation dims) it would degenerate to
//!   `inf − inf = NaN`. Pairs where either norm is non-finite therefore
//!   fall back to the scalar `(a−b)²` formulation, which stays finite
//!   whenever the oracle does (and still yields NaN for NaN features,
//!   whose norms are NaN).

use crate::dot::{dots, TapElem};
use crate::parallel::parallel_chunks_mut;
use crate::tensor::Tensor;
use std::cmp::Ordering;

/// Query rows per parallel work item: big enough to amortize the fan-out,
/// small enough that dynamic block claiming balances uneven hosts.
const ROW_BLOCK: usize = 64;

/// Corpus rows per inner tile. A tile of `COL_TILE` rows × up to a few
/// hundred features stays L2-resident while every query row of the block
/// streams over it.
const COL_TILE: usize = 256;

/// Squared Euclidean norm of every row of `x`: the one-row [`dots`] value
/// of the row against itself, bit-identical to the cross term a blocked
/// call computes for that pair (the exact-self-distance contract).
pub fn row_sq_norms(x: &Tensor) -> Vec<f32> {
    f32::count_dispatch(x.cols(), x.rows() as u64);
    (0..x.rows())
        .map(|i| {
            let r = x.row(i);
            dots::<f32, 1, 1>([r], [r])[0][0]
        })
        .collect()
}

/// Clamps the tiny negative values the norms-plus-dot identity can produce
/// for near-duplicate rows. Written as a comparison (not `f32::max`) so NaN
/// distances stay NaN instead of silently becoming `0.0`.
#[inline]
fn clamp_non_negative(v: f32) -> f32 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// Squared distance of one `(query, corpus-row)` pair from its precomputed
/// norms and cross term. When either norm overflowed to `inf` the identity
/// would produce `inf − inf = NaN` for finite data, so such pairs take the
/// scalar `(a−b)²` sum instead — a function of the row values alone, shared
/// verbatim by [`pairdist`] and [`knn_into`] so the two stay bit-identical,
/// and still NaN for rows with NaN features (their norms are NaN).
#[inline]
fn pair_sq_dist(qn: f32, nbj: f32, dv: f32, q: &[f32], r: &[f32]) -> f32 {
    if qn.is_finite() && nbj.is_finite() {
        clamp_non_negative(qn + nbj - 2.0 * dv)
    } else {
        q.iter().zip(r).map(|(&x, &y)| (x - y) * (x - y)).sum()
    }
}

/// Dot products of `q` against corpus rows `j..te` (at most 4) in one
/// 4-row [`dots`] block; a short tail repeats its last row. Each entry
/// depends only on its operand pair, which keeps `pairdist(x, x)` bitwise
/// symmetric and [`knn_into`] bit-identical to [`pairdist`].
#[inline]
fn dot_group(q: &[f32], b: &Tensor, j: usize, te: usize) -> [f32; 4] {
    let r = (te - j).min(4);
    debug_assert!(r >= 1);
    let at = |l: usize| b.row(j + l.min(r - 1));
    dots::<f32, 4, 1>([q], [at(0), at(1), at(2), at(3)]).map(|[d]| d)
}

/// Blocked pairwise squared-Euclidean distances: `D (N×M)` with
/// `D[i,j] = |a_i − b_j|²` for `a (N×F)` and `b (M×F)`.
pub fn pairdist(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, m) = (a.rows(), b.rows());
    assert_eq!(
        a.cols(),
        b.cols(),
        "pairdist feature dimensions differ: {} vs {}",
        a.cols(),
        b.cols()
    );
    if n == 0 || m == 0 {
        return Tensor::zeros([n, m]);
    }
    let _span = tcsl_obs::spans::span("pairdist");
    let na = row_sq_norms(a);
    let nb = row_sq_norms(b);
    let mut out = Tensor::zeros([n, m]);
    // Fill the output in place, one ROW_BLOCK of rows per chunk: no gather
    // copy, so peak memory is the result matrix itself plus the two norm
    // vectors.
    parallel_chunks_mut(out.as_mut_slice(), ROW_BLOCK * m, |bi, chunk| {
        let lo = bi * ROW_BLOCK;
        let rows = chunk.len() / m;
        // One count per (row-block, corpus-tile) pair, merged once per
        // chunk: the tile partition depends only on (n, m), so the total is
        // thread-count invariant.
        let mut tiles = tcsl_obs::counters::LocalCounter::new(&tcsl_obs::counters::PAIRDIST_TILES);
        // Per-tile wall time, batched like the tile counter (one atomic
        // merge per chunk). Host-class: the clock is only read while
        // tracing is on, so the disabled path stays a plain tile loop.
        let mut tile_ns = tcsl_obs::hist::LocalHistogram::new(&tcsl_obs::hist::PAIRDIST_TILE_NS);
        let timing = tcsl_obs::enabled();
        // `dots` doesn't count its own dispatch (it's the innermost hot
        // call); tally the chunk's dot products here and record them once.
        let mut dots = 0u64;
        let mut tile = 0usize;
        while tile < m {
            tiles.add(1);
            let t0 = timing.then(std::time::Instant::now);
            let te = (tile + COL_TILE).min(m);
            dots += 4 * (te - tile).div_ceil(4) as u64 * rows as u64;
            for r in 0..rows {
                let i = lo + r;
                let q = a.row(i);
                let qn = na[i];
                let orow = &mut chunk[r * m..(r + 1) * m];
                let mut j = tile;
                while j < te {
                    let ds = dot_group(q, b, j, te);
                    let take = (te - j).min(4);
                    for (l, &dv) in ds.iter().take(take).enumerate() {
                        orow[j + l] = pair_sq_dist(qn, nb[j + l], dv, q, b.row(j + l));
                    }
                    j += take;
                }
            }
            if let Some(t0) = t0 {
                tile_ns.record(t0.elapsed().as_nanos() as u64);
            }
            tile = te;
        }
        f32::count_dispatch(a.cols(), dots);
    });
    out
}

/// Naive scalar oracle for [`pairdist`]: per-element `(x−y)²` sums, the
/// formulation the analyzers used before the blocked engine existed.
pub fn pairdist_oracle(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, m) = (a.rows(), b.rows());
    assert_eq!(
        a.cols(),
        b.cols(),
        "pairdist feature dimensions differ: {} vs {}",
        a.cols(),
        b.cols()
    );
    let mut out = Tensor::zeros([n, m]);
    for i in 0..n {
        let q = a.row(i);
        let orow = out.row_mut(i);
        for (j, slot) in orow.iter_mut().enumerate() {
            *slot = b
                .row(j)
                .iter()
                .zip(q)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum();
        }
    }
    out
}

/// `(index, distance)` candidate ordering shared by every top-k surface:
/// `a` ranks strictly *worse* than `b` when its distance is greater under
/// `total_cmp` (NaN last) or, at equal distance, its index is higher —
/// so the max-heap's root is always the one candidate to evict and the
/// final ascending sort puts the lowest index first among ties.
#[inline]
fn cand_gt(a: (usize, f32), b: (usize, f32)) -> bool {
    match a.1.total_cmp(&b.1) {
        Ordering::Greater => true,
        Ordering::Less => false,
        Ordering::Equal => a.0 > b.0,
    }
}

/// Folds candidate `(idx, d)` into the `k`-bounded max-heap stored in
/// `heap`'s own buffer (classic sift-up/sift-down — no separate heap
/// structure, no allocation beyond growing `heap` to `k` once). The heap
/// invariant is over the `(total_cmp distance, index)` order, so the
/// retained set is exactly the `k`
/// smallest candidates under `(total_cmp distance, index)` regardless of
/// arrival order — which is what lets the IVF index merge probed cells in
/// any cell order and still match the exact engine's tie-breaks.
#[inline]
pub fn topk_push(heap: &mut Vec<(usize, f32)>, k: usize, idx: usize, d: f32) {
    debug_assert!(k >= 1);
    let cand = (idx, d);
    if heap.len() < k {
        heap.push(cand);
        let mut i = heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if cand_gt(heap[i], heap[parent]) {
                heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    } else if cand_gt(heap[0], cand) {
        heap[0] = cand;
        let mut i = 0usize;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < heap.len() && cand_gt(heap[l], heap[worst]) {
                worst = l;
            }
            if r < heap.len() && cand_gt(heap[r], heap[worst]) {
                worst = r;
            }
            if worst == i {
                break;
            }
            heap.swap(i, worst);
            i = worst;
        }
    }
}

/// Sorts a finished [`topk_push`] accumulator ascending by
/// `(total_cmp distance, index)` — in place (`sort_unstable_by` allocates
/// nothing; the key is a strict total order, so stability is irrelevant).
pub fn topk_sort(heap: &mut [(usize, f32)]) {
    heap.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
}

/// Streams the rows of one repacked corpus `cell` against a single query,
/// folding candidates into the `k`-bounded accumulator `acc` under the
/// engine's global contract. `norms` are the cell rows' [`row_sq_norms`]
/// and `ids` their *original* corpus indices; `qn` is the query's own
/// [`row_sq_norms`] entry. Because a [`dots`] entry depends only on its
/// operand pair (not on the rows sharing its block), a row scores
/// bit-identical here to what [`pairdist`]/[`knn_into`] compute for it in
/// the full corpus — so probing every cell reproduces the exact engine's neighbour
/// sets, distances, and tie-breaks verbatim. This is the probe primitive
/// of the IVF index in `tcsl_analyzers::index`.
pub fn scan_cell_into(
    q: &[f32],
    qn: f32,
    cell: &Tensor,
    norms: &[f32],
    ids: &[usize],
    k: usize,
    acc: &mut Vec<(usize, f32)>,
) {
    assert!(k >= 1, "k must be at least 1");
    assert_eq!(
        q.len(),
        cell.cols(),
        "scan_cell feature dimensions differ: {} vs {}",
        q.len(),
        cell.cols()
    );
    let m = cell.rows();
    debug_assert_eq!(norms.len(), m);
    debug_assert_eq!(ids.len(), m);
    if m == 0 {
        return;
    }
    let mut tiles = tcsl_obs::counters::LocalCounter::new(&tcsl_obs::counters::PAIRDIST_TILES);
    tiles.add(m.div_ceil(COL_TILE) as u64);
    f32::count_dispatch(q.len(), 4 * m.div_ceil(4) as u64);
    let mut j = 0usize;
    while j < m {
        let ds = dot_group(q, cell, j, m);
        let take = (m - j).min(4);
        for (l, &dv) in ds.iter().take(take).enumerate() {
            let d = pair_sq_dist(qn, norms[j + l], dv, q, cell.row(j + l));
            topk_push(acc, k, ids[j + l], d);
        }
        j += take;
    }
}

/// Streaming k-nearest-neighbour selection: for every row of `queries`,
/// the `min(k, M)` nearest rows of `corpus` as `(corpus_index, sq_dist)`,
/// sorted ascending by `(distance, index)`.
///
/// The full `N×M` distance matrix is never materialized: each query row's
/// `k`-bounded heap lives directly in its `out` slot while the corpus
/// streams through in tiles, so peak scratch is the two norm vectors
/// regardless of `M`. `out` is reshaped to `N` rows *reusing* both the
/// outer vector and every surviving inner vector's capacity — repeated
/// calls with the same shapes reach a zero-allocation steady state for
/// results (pinned by the `knn_alloc` regression test).
pub fn knn_into(queries: &Tensor, corpus: &Tensor, k: usize, out: &mut Vec<Vec<(usize, f32)>>) {
    assert!(k >= 1, "k must be at least 1");
    let (n, m) = (queries.rows(), corpus.rows());
    assert_eq!(
        queries.cols(),
        corpus.cols(),
        "knn feature dimensions differ: {} vs {}",
        queries.cols(),
        corpus.cols()
    );
    out.truncate(n);
    for row in out.iter_mut() {
        row.clear();
    }
    while out.len() < n {
        out.push(Vec::new());
    }
    if n == 0 || m == 0 {
        return;
    }
    let k = k.min(m);
    let na = row_sq_norms(queries);
    let nb = row_sq_norms(corpus);
    let _span = tcsl_obs::spans::span("knn");
    // One ROW_BLOCK of query rows per chunk, the chunk owned by its index
    // (bit-identical for any TCSL_THREADS, like `pairdist`), each output
    // row serving as its query's heap storage.
    parallel_chunks_mut(&mut out[..], ROW_BLOCK, |bi, rows_out| {
        let lo = bi * ROW_BLOCK;
        // Same tile accounting as `pairdist`: deterministic in (n, m).
        let mut tiles = tcsl_obs::counters::LocalCounter::new(&tcsl_obs::counters::PAIRDIST_TILES);
        let mut tile_ns = tcsl_obs::hist::LocalHistogram::new(&tcsl_obs::hist::PAIRDIST_TILE_NS);
        let timing = tcsl_obs::enabled();
        let mut dots = 0u64;
        let mut tile = 0usize;
        while tile < m {
            tiles.add(1);
            let t0 = timing.then(std::time::Instant::now);
            let te = (tile + COL_TILE).min(m);
            dots += 4 * (te - tile).div_ceil(4) as u64 * rows_out.len() as u64;
            for (r, heap) in rows_out.iter_mut().enumerate() {
                let i = lo + r;
                let q = queries.row(i);
                let qn = na[i];
                let mut j = tile;
                while j < te {
                    let ds = dot_group(q, corpus, j, te);
                    let take = (te - j).min(4);
                    for (l, &dv) in ds.iter().take(take).enumerate() {
                        let d = pair_sq_dist(qn, nb[j + l], dv, q, corpus.row(j + l));
                        topk_push(heap, k, j + l, d);
                    }
                    j += take;
                }
            }
            if let Some(t0) = t0 {
                tile_ns.record(t0.elapsed().as_nanos() as u64);
            }
            tile = te;
        }
        f32::count_dispatch(queries.cols(), dots);
        for heap in rows_out.iter_mut() {
            topk_sort(heap);
        }
    });
}

/// Convenience wrapper over [`knn_into`] allocating a fresh result vector.
pub fn knn(queries: &Tensor, corpus: &Tensor, k: usize) -> Vec<Vec<(usize, f32)>> {
    let mut out = Vec::with_capacity(queries.rows());
    knn_into(queries, corpus, k, &mut out);
    out
}

/// Naive oracle for [`knn`]: full [`pairdist_oracle`] matrix, per-row sort
/// by `(distance, index)` under `total_cmp`, truncated to `k`.
pub fn knn_oracle(queries: &Tensor, corpus: &Tensor, k: usize) -> Vec<Vec<(usize, f32)>> {
    assert!(k >= 1, "k must be at least 1");
    let d = pairdist_oracle(queries, corpus);
    (0..queries.rows())
        .map(|i| {
            let mut row: Vec<(usize, f32)> = d.row(i).iter().copied().enumerate().collect();
            row.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            row.truncate(k.min(row.len()));
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matches_oracle_on_random_data() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for (n, m, f) in [
            (1, 1, 1),
            (5, 9, 3),
            (17, 13, 8),
            (70, 70, 67),
            (3, 130, 130),
        ] {
            let a = Tensor::randn([n, f], &mut rng);
            let b = Tensor::randn([m, f], &mut rng);
            let blocked = pairdist(&a, &b);
            let oracle = pairdist_oracle(&a, &b);
            let scale = 1.0f32.max(
                oracle
                    .as_slice()
                    .iter()
                    .fold(0.0f32, |acc, &v| acc.max(v.abs())),
            );
            assert!(
                blocked.max_abs_diff(&oracle) / scale < 1e-4,
                "n={n} m={m} f={f}: {}",
                blocked.max_abs_diff(&oracle)
            );
        }
    }

    #[test]
    fn self_distance_is_exactly_zero() {
        // Continuous (non-grid) values, with dims on both sides of the
        // 64-element FMA dispatch threshold: the diagonal must be exactly
        // 0.0 on the scalar and the AVX2/FMA path alike, which requires
        // norms and cross terms to share one kernel's rounding.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for dim in [1, 33, 63, 64, 65, 128, 200] {
            let a = Tensor::randn([20, dim], &mut rng);
            let d = pairdist(&a, &a);
            for i in 0..20 {
                assert_eq!(d.at2(i, i), 0.0, "dim {dim} diagonal {i}");
            }
            // And the streaming top-k sees the same exact zero, so the
            // analyzers' self-match skip (d < eps) works at every dim.
            let nn = knn(&a, &a, 1);
            for (i, row) in nn.iter().enumerate() {
                assert_eq!(row[0], (i, 0.0), "dim {dim} self-neighbour {i}");
            }
        }
    }

    #[test]
    fn huge_magnitude_rows_fall_back_to_scalar_instead_of_nan() {
        // |v|² overflows f32 at this magnitude, so the norms+dot identity
        // alone would give inf − inf = NaN; the per-pair fallback must
        // reproduce the oracle's finite distance and keep the diagonal at
        // an exact zero.
        let dim = 128;
        let a = Tensor::from_vec(vec![1.0e19; dim], [1, dim]);
        let mut bv = vec![1.0e19; dim];
        bv[0] = 1.5e19;
        let b = Tensor::from_vec(bv, [1, dim]);
        let d = pairdist(&a, &b);
        let oracle = pairdist_oracle(&a, &b);
        assert!(d.at2(0, 0).is_finite(), "got {}", d.at2(0, 0));
        assert_eq!(d.at2(0, 0), oracle.at2(0, 0));
        assert_eq!(pairdist(&a, &a).at2(0, 0), 0.0);
        let nn = knn(&a, &b, 1);
        assert_eq!(nn[0][0], (0, oracle.at2(0, 0)));
    }

    #[test]
    fn symmetric_input_gives_symmetric_output() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = Tensor::randn([37, 70], &mut rng);
        let d = pairdist(&a, &a);
        for i in 0..37 {
            for j in 0..37 {
                assert_eq!(d.at2(i, j).to_bits(), d.at2(j, i).to_bits());
            }
        }
    }

    #[test]
    fn knn_matches_oracle_and_sorts_ascending() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let q = Tensor::randn([30, 12], &mut rng);
        let c = Tensor::randn([50, 12], &mut rng);
        for k in [1, 3, 17, 50, 200] {
            let fast = knn(&q, &c, k);
            let slow = knn_oracle(&q, &c, k);
            for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
                let fi: Vec<usize> = f.iter().map(|&(j, _)| j).collect();
                let si: Vec<usize> = s.iter().map(|&(j, _)| j).collect();
                assert_eq!(fi, si, "row {i} k={k}");
                for w in f.windows(2) {
                    assert!(w[0].1.total_cmp(&w[1].1) != Ordering::Greater);
                }
            }
        }
    }

    #[test]
    fn exact_ties_resolve_to_lowest_index() {
        // Corpus rows 1 and 3 are bit-identical and nearest to the query;
        // the reported neighbour must be index 1.
        let q = Tensor::from_vec(vec![0.0, 0.0], [1, 2]);
        let c = Tensor::from_vec(vec![5.0, 5.0, 1.0, 1.0, 9.0, 9.0, 1.0, 1.0], [4, 2]);
        let nn = knn(&q, &c, 1);
        assert_eq!(nn[0][0].0, 1);
        let nn2 = knn(&q, &c, 2);
        assert_eq!(
            nn2[0].iter().map(|&(j, _)| j).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn nan_rows_sort_last_and_do_not_abort() {
        let q = Tensor::from_vec(vec![0.0], [1, 1]);
        let c = Tensor::from_vec(vec![2.0, f32::NAN, 1.0], [3, 1]);
        let nn = knn(&q, &c, 3);
        let idx: Vec<usize> = nn[0].iter().map(|&(j, _)| j).collect();
        assert_eq!(idx, vec![2, 0, 1], "NaN corpus row must come last");
        assert!(nn[0][2].1.is_nan());
        // And the oracle agrees.
        let slow = knn_oracle(&q, &c, 3);
        let sidx: Vec<usize> = slow[0].iter().map(|&(j, _)| j).collect();
        assert_eq!(idx, sidx);
    }

    #[test]
    fn k_larger_than_corpus_returns_everything() {
        let q = Tensor::from_vec(vec![0.0, 1.0], [2, 1]);
        let c = Tensor::from_vec(vec![3.0, -1.0], [2, 1]);
        let nn = knn(&q, &c, 10);
        assert_eq!(nn[0].len(), 2);
        assert_eq!(nn[1].len(), 2);
    }

    #[test]
    fn empty_corpus_yields_empty_neighbour_lists() {
        let q = Tensor::from_vec(vec![0.0, 1.0], [2, 1]);
        let c = Tensor::zeros([0, 1]);
        let nn = knn(&q, &c, 3);
        assert_eq!(nn.len(), 2);
        assert!(nn[0].is_empty() && nn[1].is_empty());
        assert_eq!(pairdist(&q, &c).shape().dims(), &[2, 0]);
    }

    #[test]
    fn knn_into_reuses_the_output_vector() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let q = Tensor::randn([4, 3], &mut rng);
        let c = Tensor::randn([6, 3], &mut rng);
        let mut out = vec![vec![(99usize, 0.0f32)]; 17];
        knn_into(&q, &c, 2, &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn knn_into_keeps_inner_vector_buffers_across_calls() {
        // The whole point of the reshape-in-place contract: a second call
        // with the same shapes writes into the *same* heap buffers (no
        // per-row reallocation), which the steady-state alloc regression
        // test relies on. Buffer identity is checked by pointer.
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let q = Tensor::randn([5, 8], &mut rng);
        let c = Tensor::randn([40, 8], &mut rng);
        let mut out = Vec::new();
        knn_into(&q, &c, 3, &mut out);
        let ptrs: Vec<*const (usize, f32)> = out.iter().map(|r| r.as_ptr()).collect();
        let first: Vec<Vec<(usize, f32)>> = out.clone();
        knn_into(&q, &c, 3, &mut out);
        let ptrs2: Vec<*const (usize, f32)> = out.iter().map(|r| r.as_ptr()).collect();
        assert_eq!(ptrs, ptrs2, "inner buffers were reallocated");
        assert_eq!(first, out, "reused buffers changed the results");
    }

    #[test]
    fn topk_push_retains_k_smallest_in_any_arrival_order() {
        // Candidates pushed in descending/interleaved order must leave the
        // same set as ascending order — the heap's (distance, index) total
        // order handles arrival order, which the IVF cell merge relies on.
        let cands: Vec<(usize, f32)> = vec![(7, 3.0), (2, 1.0), (9, 1.0), (0, 5.0), (4, 0.25)];
        let mut fwd = Vec::new();
        let mut rev = Vec::new();
        for &(i, d) in &cands {
            topk_push(&mut fwd, 3, i, d);
        }
        for &(i, d) in cands.iter().rev() {
            topk_push(&mut rev, 3, i, d);
        }
        topk_sort(&mut fwd);
        topk_sort(&mut rev);
        assert_eq!(fwd, rev);
        // Ties at the k boundary resolve to the lowest index: 2 beats 9.
        assert_eq!(fwd, vec![(4, 0.25), (2, 1.0), (9, 1.0)]);
        let mut tight = Vec::new();
        for &(i, d) in &[(9usize, 1.0f32), (2, 1.0), (4, 0.25)] {
            topk_push(&mut tight, 2, i, d);
        }
        topk_sort(&mut tight);
        assert_eq!(tight, vec![(4, 0.25), (2, 1.0)]);
    }

    #[test]
    fn scan_cell_into_matches_knn_bitwise_under_repacking() {
        // Split the corpus into two interleaved "cells" (odd/even rows,
        // repacked contiguously) and probe both into one accumulator: the
        // result must equal the full-corpus knn bit-for-bit — distances,
        // indices, tie-breaks — at dims on both sides of the FMA dispatch
        // threshold. This is the contract the IVF index is built on.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for dim in [7, 63, 64, 65, 130] {
            let q = Tensor::randn([6, dim], &mut rng);
            let c = Tensor::randn([23, dim], &mut rng);
            let (mut cells, mut idsets): (Vec<Vec<f32>>, Vec<Vec<usize>>) =
                (vec![Vec::new(), Vec::new()], vec![Vec::new(), Vec::new()]);
            for j in 0..c.rows() {
                cells[j % 2].extend_from_slice(c.row(j));
                idsets[j % 2].push(j);
            }
            let cells: Vec<Tensor> = cells
                .into_iter()
                .zip(&idsets)
                .map(|(v, ids)| Tensor::from_vec(v, [ids.len(), dim]))
                .collect();
            let norms: Vec<Vec<f32>> = cells.iter().map(row_sq_norms).collect();
            let qnorms = row_sq_norms(&q);
            let exact = knn(&q, &c, 4);
            for (i, want) in exact.iter().enumerate() {
                let mut acc = Vec::new();
                for cell in 0..2 {
                    scan_cell_into(
                        q.row(i),
                        qnorms[i],
                        &cells[cell],
                        &norms[cell],
                        &idsets[cell],
                        4,
                        &mut acc,
                    );
                }
                topk_sort(&mut acc);
                assert_eq!(&acc, want, "dim {dim} query {i}");
                for (&(ai, ad), &(wi, wd)) in acc.iter().zip(want) {
                    assert_eq!(ai, wi);
                    assert_eq!(ad.to_bits(), wd.to_bits(), "dim {dim} query {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature dimensions differ")]
    fn dimension_mismatch_panics() {
        pairdist(&Tensor::zeros([2, 3]), &Tensor::zeros([2, 4]));
    }
}
