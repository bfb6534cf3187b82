//! Representation-space analysis benchmark: the naive scalar distance
//! paths the analyzers used before the blocked [`pairdist`] engine vs the
//! engine itself, with allocator pressure per leg.
//!
//! Run from the repo root:
//!
//! ```text
//! cargo run --release -p tcsl-bench --bin bench_analyze          # full
//! cargo run --release -p tcsl-bench --bin bench_analyze -- --smoke
//! ```
//!
//! Three cases, mirroring the rewired consumers:
//!
//! * `knn_predict` — full-matrix scalar scan + per-row sort + vote (the old
//!   `KnnClassifier::predict`) vs the heap-bounded streaming top-k path.
//!   Predicted labels must be identical; in full mode the blocked leg must
//!   be ≥ 2× faster and its peak allocation below the naive full-matrix
//!   leg.
//! * `kmeans_fit` — a faithful replica of the old scalar Lloyd/k-means++
//!   loop vs `KMeans::fit_predict` on the engine. Assignments are compared
//!   by NMI (rounding in the k-means++ probability walk may legitimately
//!   flip a pick, so bit-equality is not asserted).
//! * `tsne_affinities` — the old O(N²·F) scalar double loop that fed the
//!   t-SNE affinity pass vs one `pairdist(x, x)` call.
//!
//! Prints a one-line JSON summary per case and writes the full report to
//! `BENCH_analyze.json` (see EXPERIMENTS.md for the format).

use std::fmt::Write as _;

use rand::Rng;
use tcsl_analyzers::classify::KnnClassifier;
use tcsl_analyzers::cluster::KMeans;
use tcsl_analyzers::{Classifier, Clusterer};
use tcsl_bench::alloc_track::{alloc_profile, AllocStats, CountingAlloc};
use tcsl_eval::metrics::clustering::nmi;
use tcsl_obs::spans::Stopwatch;
use tcsl_tensor::pairdist::{knn_oracle, pairdist};
use tcsl_tensor::rng::{gauss, seeded};
use tcsl_tensor::Tensor;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Gaussian blobs: `classes` centers `sep` apart on a diagonal lattice,
/// `n_per` points each, `dim` features. (A local copy of the analyzers'
/// test-only `testutil::blobs` — test utilities are not exported.)
fn blobs(classes: usize, n_per: usize, dim: usize, sep: f32, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = seeded(seed);
    let mut data = Vec::with_capacity(classes * n_per * dim);
    let mut labels = Vec::with_capacity(classes * n_per);
    for c in 0..classes {
        for _ in 0..n_per {
            for d in 0..dim {
                let center = if d % classes == c {
                    sep * c as f32
                } else {
                    0.0
                };
                data.push(center + gauss(&mut rng));
            }
            labels.push(c);
        }
    }
    (Tensor::from_vec(data, [classes * n_per, dim]), labels)
}

/// One timed leg: the result, the best (minimum) wall-clock seconds over
/// `reps` identical runs, and the allocation profile of the
/// minimum-peak run.
struct Leg<T> {
    value: T,
    best_secs: f64,
    allocs: AllocStats,
}

fn run_leg<T>(reps: usize, mut f: impl FnMut() -> T) -> Leg<T> {
    let mut best_secs = f64::INFINITY;
    let mut best_allocs: Option<AllocStats> = None;
    let mut value = None;
    for _ in 0..reps {
        let watch = Stopwatch::start("bench.analyze_leg");
        let (v, allocs) = alloc_profile(&mut f);
        best_secs = best_secs.min(watch.stop());
        // Min peak over reps: the steady-state figure, free of one-time
        // lazy initialization in the first run.
        if best_allocs.is_none_or(|b| allocs.peak_extra < b.peak_extra) {
            best_allocs = Some(allocs);
        }
        value = Some(v);
    }
    Leg {
        value: value.expect("reps >= 1"),
        best_secs,
        allocs: best_allocs.expect("reps >= 1"),
    }
}

fn leg_json<T>(l: &Leg<T>) -> String {
    format!(
        "{{\"secs\":{:.4},\"peak_alloc_mb\":{:.4},\"total_alloc_mb\":{:.4}}}",
        l.best_secs,
        l.allocs.peak_extra_mb(),
        l.allocs.total_mb()
    )
}

/// The old `KnnClassifier::predict`: full oracle distance matrix, per-row
/// sort, truncate to `k`, majority vote with nearest tie-break.
fn naive_knn_predict(train_x: &Tensor, train_y: &[usize], x: &Tensor, k: usize) -> Vec<usize> {
    let n_classes = train_y.iter().copied().max().unwrap_or(0) + 1;
    knn_oracle(x, train_x, k)
        .into_iter()
        .map(|nn| {
            let mut votes = vec![0usize; n_classes];
            for &(idx, _) in &nn {
                votes[train_y[idx]] += 1;
            }
            let top = *votes.iter().max().expect("at least one class");
            nn.iter()
                .find(|(idx, _)| votes[train_y[*idx]] == top)
                .map(|&(idx, _)| train_y[idx])
                .expect("non-empty neighbourhood")
        })
        .collect()
}

/// The old scalar k-means (sq_dist scans in k-means++ seeding, assignment
/// and inertia), kept verbatim as the benchmark's naive leg.
mod naive_kmeans {
    use super::*;

    fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
    }

    fn plus_plus_init(k: usize, x: &Tensor, rng: &mut impl Rng) -> Tensor {
        let n = x.rows();
        let mut centers: Vec<usize> = vec![rng.gen_range(0..n)];
        let mut d2: Vec<f32> = (0..n)
            .map(|i| sq_dist(x.row(i), x.row(centers[0])))
            .collect();
        while centers.len() < k.min(n) {
            let total: f32 = d2.iter().sum();
            let next = if total <= 1e-12 {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut pick = n - 1;
                for (i, &d) in d2.iter().enumerate() {
                    if target < d {
                        pick = i;
                        break;
                    }
                    target -= d;
                }
                pick
            };
            centers.push(next);
            for (i, slot) in d2.iter_mut().enumerate() {
                let nd = sq_dist(x.row(i), x.row(next));
                if nd < *slot {
                    *slot = nd;
                }
            }
        }
        let f = x.cols();
        let mut out = Tensor::zeros([centers.len(), f]);
        for (c, &i) in centers.iter().enumerate() {
            out.row_mut(c).copy_from_slice(x.row(i));
        }
        out
    }

    fn lloyd(max_iter: usize, x: &Tensor, mut centers: Tensor) -> (Vec<usize>, f32) {
        let (n, f) = (x.rows(), x.cols());
        let k = centers.rows();
        let mut assign = vec![0usize; n];
        for _ in 0..max_iter {
            let mut changed = false;
            for (i, slot) in assign.iter_mut().enumerate() {
                let row = x.row(i);
                let mut best = 0;
                let mut best_d = f32::INFINITY;
                for c in 0..k {
                    let d = sq_dist(row, centers.row(c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            let mut sums = Tensor::zeros([k, f]);
            let mut counts = vec![0usize; k];
            for i in 0..n {
                counts[assign[i]] += 1;
                for (s, &v) in sums.row_mut(assign[i]).iter_mut().zip(x.row(i)) {
                    *s += v;
                }
            }
            for (c, &count) in counts.iter().enumerate() {
                if count > 0 {
                    let inv = 1.0 / count as f32;
                    for (dst, &s) in centers.row_mut(c).iter_mut().zip(sums.row(c)) {
                        *dst = s * inv;
                    }
                }
            }
        }
        let inertia: f32 = (0..n)
            .map(|i| sq_dist(x.row(i), centers.row(assign[i])))
            .sum();
        (assign, inertia)
    }

    pub fn fit_predict(k: usize, restarts: usize, seed: u64, x: &Tensor) -> Vec<usize> {
        let mut rng = seeded(seed);
        let mut best: Option<(Vec<usize>, f32)> = None;
        for _ in 0..restarts.max(1) {
            let init = plus_plus_init(k, x, &mut rng);
            let run = lloyd(100, x, init);
            match &best {
                Some((_, bi)) if *bi <= run.1 => {}
                _ => best = Some(run),
            }
        }
        best.expect("at least one restart").0
    }
}

/// The old affinity-pass distance loop from `explore::tsne`: scalar sums
/// over the upper triangle with symmetric writes.
fn naive_affinity_matrix(x: &Tensor) -> Vec<f32> {
    let (n, f) = (x.rows(), x.cols());
    let mut d2 = vec![0.0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let mut s = 0.0f32;
            for d in 0..f {
                let diff = x.at2(i, d) - x.at2(j, d);
                s += diff * diff;
            }
            d2[i * n + j] = s;
            d2[j * n + i] = s;
        }
    }
    d2
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = if smoke { 1 } else { 3 };
    // N ≥ 2000 representation rows in full mode, per the roadmap's
    // "analysis at interactive scale" target.
    let (n_train_per, n_query_per, n_tsne_per, dim) = if smoke {
        (86, 22, 64, 32)
    } else {
        (683, 171, 683, 128)
    };
    let classes = 3;
    let k = 5;

    let mut entries = Vec::new();

    // --- Case 1: k-NN classifier predict -------------------------------
    {
        let (train_x, train_y) = blobs(classes, n_train_per, dim, 4.0, 21);
        let (query_x, _) = blobs(classes, n_query_per, dim, 4.0, 22);
        let naive = run_leg(reps, || naive_knn_predict(&train_x, &train_y, &query_x, k));
        let mut clf = KnnClassifier::new(k);
        clf.fit(&train_x, &train_y)
            .expect("bench features are well-formed");
        let blocked = run_leg(reps, || {
            clf.predict(&query_x)
                .expect("bench features are well-formed")
        });
        let labels_identical = naive.value == blocked.value;
        assert!(
            labels_identical,
            "knn_predict: blocked engine changed predicted labels"
        );
        let speedup = naive.best_secs / blocked.best_secs;
        if !smoke {
            assert!(
                speedup >= 2.0,
                "knn_predict: blocked leg only {speedup:.2}x over naive (need >= 2x)"
            );
            assert!(
                blocked.allocs.peak_extra < naive.allocs.peak_extra,
                "knn_predict: heap-bounded top-k peak allocation ({:.4} MiB) is not below \
                 the naive full-matrix leg ({:.4} MiB)",
                blocked.allocs.peak_extra_mb(),
                naive.allocs.peak_extra_mb()
            );
        }
        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"case\":\"knn_predict\",\"n_train\":{},\"n_query\":{},\"dim\":{},\"k\":{},\"naive\":{},\"blocked\":{},\"speedup\":{:.2},\"labels_identical\":{}}}",
            train_x.rows(),
            query_x.rows(),
            dim,
            k,
            leg_json(&naive),
            leg_json(&blocked),
            speedup,
            labels_identical
        );
        println!("{e}");
        entries.push(e);
    }

    // --- Case 2: k-means fit_predict -----------------------------------
    {
        let (x, _) = blobs(classes, n_train_per, dim, 6.0, 31);
        let naive = run_leg(reps, || naive_kmeans::fit_predict(classes, 4, 0, &x));
        let blocked = run_leg(reps, || {
            KMeans::new(classes)
                .fit_predict(&x)
                .expect("bench features are well-formed")
        });
        let agreement = nmi(&naive.value, &blocked.value);
        let speedup = naive.best_secs / blocked.best_secs;
        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"case\":\"kmeans_fit\",\"n\":{},\"dim\":{},\"k_clusters\":{},\"naive\":{},\"blocked\":{},\"speedup\":{:.2},\"agreement_nmi\":{:.4}}}",
            x.rows(),
            dim,
            classes,
            leg_json(&naive),
            leg_json(&blocked),
            speedup,
            agreement
        );
        println!("{e}");
        entries.push(e);
    }

    // --- Case 3: t-SNE affinity distances ------------------------------
    {
        let (x, _) = blobs(classes, n_tsne_per, dim, 5.0, 41);
        let naive = run_leg(reps, || naive_affinity_matrix(&x));
        let blocked = run_leg(reps, || pairdist(&x, &x));
        let n = x.rows();
        // Agreement relative to the matrix scale (the norms identity
        // cancels catastrophically on individual small distances, so
        // per-element relative error is not the meaningful figure).
        let scale = naive.value.iter().fold(1.0f32, |acc, &v| acc.max(v.abs())) as f64;
        let mut max_rel = 0.0f64;
        for i in 0..n {
            for (j, &nv) in naive.value[i * n..(i + 1) * n].iter().enumerate() {
                let bv = blocked.value.at2(i, j);
                max_rel = max_rel.max((nv - bv).abs() as f64 / scale);
            }
        }
        assert!(
            max_rel < 1e-4,
            "tsne_affinities: blocked matrix drifts from naive ({max_rel:.2e} of matrix scale)"
        );
        let speedup = naive.best_secs / blocked.best_secs;
        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"case\":\"tsne_affinities\",\"n\":{},\"dim\":{},\"naive\":{},\"blocked\":{},\"speedup\":{:.2},\"max_rel_diff\":{:.3e}}}",
            n,
            dim,
            leg_json(&naive),
            leg_json(&blocked),
            speedup,
            max_rel
        );
        println!("{e}");
        entries.push(e);
    }

    let report = format!(
        "{{\"bench\":\"analyze\",\"schema_version\":{},\"host\":{},\"smoke\":{},\"unit_note\":\"naive = pre-engine scalar distance paths (full-matrix scan for kNN, per-point scans for k-means, double loop for affinities); blocked = pairdist engine (norms + AVX2/FMA dot kernels, heap-bounded top-k for kNN); secs are min over {} runs; peak_alloc_mb = high-water mark above pre-call live bytes (min over runs); labels_identical = blocked kNN predictions bit-equal to the naive scan; agreement_nmi compares k-means assignments (k-means++ picks may round differently)\",\"cases\":[\n  {}\n]}}\n",
        tcsl_bench::contract::SCHEMA_VERSION,
        tcsl_bench::contract::host_record(),
        smoke,
        reps,
        entries.join(",\n  ")
    );
    tcsl_bench::contract::write_report(
        "BENCH_analyze.json",
        "analyze",
        &report,
        &[
            "host.cores",
            "cases[].speedup",
            "cases[].blocked.peak_alloc_mb",
            "cases[].labels_identical=true",
        ],
    );
}
