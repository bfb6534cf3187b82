//! Sublinear-index benchmark: the exact `pairdist` top-k engine vs the IVF
//! inverted-file index, at serving shape (one query at a time), across
//! corpus sizes — where does probing beat scanning, at what recall?
//!
//! Run from the repo root:
//!
//! ```text
//! cargo run --release -p tcsl-bench --bin bench_index          # full
//! cargo run --release -p tcsl-bench --bin bench_index -- --smoke
//! ```
//!
//! The synthetic corpus is *low-rank* Gaussian data (a `LATENT`-dim latent
//! cloud pushed through a fixed random projection, plus small ambient
//! noise) — the shape learned shapelet representations actually have,
//! and the regime where coarse k-means cells capture real neighbourhood
//! structure. Per corpus size `N` the bench reports: index build seconds,
//! per-query p50 latency for the exact engine and the IVF probe (each of
//! `Q` single-row queries timed individually), recall@10 of the IVF
//! shortlist against the exact oracle, and the probe counters
//! (`ivf.cells_probed`, `ivf.candidates`) from an instrumented pass.
//! `crossover_n` is the smallest benched N where the IVF p50 beats exact.
//!
//! In full mode the largest N must show IVF ≥ 5× faster per query at
//! recall@10 ≥ 0.95, and `nprobe == nlist` must reproduce the exact
//! results bit-for-bit (the parity contract, asserted end-to-end here).
//!
//! Prints a one-line JSON summary per corpus size and writes the full
//! report to `BENCH_index.json` (see EXPERIMENTS.md for the format).

use std::fmt::Write as _;

use tcsl_analyzers::index::IvfIndex;
use tcsl_obs::counters::{IVF_CANDIDATES, IVF_CELLS_PROBED};
use tcsl_obs::spans::Stopwatch;
use tcsl_tensor::pairdist;
use tcsl_tensor::rng::seeded;
use tcsl_tensor::Tensor;

/// Ambient feature dimension (learned-representation scale).
const DIM: usize = 64;
/// Intrinsic dimension of the synthetic cloud.
const LATENT: usize = 8;
/// Neighbours per query (the recall@k figure's k).
const K: usize = 10;

/// Low-rank cloud: corpus and queries drawn from the *same* `LATENT`-dim
/// latent Gaussian through one fixed projection (queries must live in the
/// corpus's subspace for nearest-neighbour structure to exist at all),
/// with small ambient noise so rows are never exactly coplanar.
fn low_rank_cloud(n_corpus: usize, n_queries: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = seeded(seed);
    let n = n_corpus + n_queries;
    let proj = Tensor::randn([LATENT, DIM], &mut rng);
    let latent = Tensor::randn([n, LATENT], &mut rng);
    let mut all = tcsl_tensor::matmul::matmul(&latent, &proj);
    let noise = Tensor::randn([n, DIM], &mut rng);
    for (o, &e) in all.as_mut_slice().iter_mut().zip(noise.as_slice()) {
        *o += 0.05 * e;
    }
    let flat = all.as_slice();
    let corpus = Tensor::from_vec(flat[..n_corpus * DIM].to_vec(), [n_corpus, DIM]);
    let queries = Tensor::from_vec(flat[n_corpus * DIM..].to_vec(), [n_queries, DIM]);
    (corpus, queries)
}

/// Median of individually timed single-query calls, in milliseconds —
/// the serving-shape latency figure (batched throughput would let the
/// exact engine amortize its scan across the whole batch).
fn p50_ms(times: &mut [f64]) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2] * 1e3
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (ns, n_queries): (&[usize], usize) = if smoke {
        (&[512, 2048], 16)
    } else {
        (&[16_384, 65_536, 262_144], 100)
    };

    let mut entries = Vec::new();
    let mut crossover_n: Option<usize> = None;
    let mut largest: Option<(f64, f64)> = None; // (speedup, recall) at max N

    for &n in ns {
        let (corpus, queries) = low_rank_cloud(n, n_queries, 97);
        let nlist = (n as f64).sqrt().round() as usize;
        let nprobe = (nlist / 16).max(4);

        let watch = Stopwatch::start("bench.index_build");
        let index = IvfIndex::build(&corpus, nlist, 0);
        let build_secs = watch.stop();

        // Single-row query tensors: each timed call sees exactly what a
        // serving loop would submit.
        let singles: Vec<Tensor> = (0..n_queries)
            .map(|i| Tensor::from_vec(queries.row(i).to_vec(), [1, DIM]))
            .collect();

        // Exact oracle (batched — identical results to per-row calls by
        // the engine's determinism contract) for recall, plus warm-up.
        let exact_nn = pairdist::knn(&queries, &corpus, K);
        let ivf_nn = index
            .knn(&queries, K, nprobe)
            .expect("bench queries share the corpus width");
        let mut hit = 0usize;
        let mut total = 0usize;
        for (e, v) in exact_nn.iter().zip(&ivf_nn) {
            total += e.len();
            hit += e
                .iter()
                .filter(|&&(ei, _)| v.iter().any(|&(vi, _)| vi == ei))
                .count();
        }
        let recall = hit as f64 / total.max(1) as f64;

        // Timed serving-shape passes, one reused result buffer each.
        let mut out = Vec::new();
        let mut exact_times: Vec<f64> = singles
            .iter()
            .map(|q| {
                let w = Stopwatch::start("bench.index_exact_query");
                pairdist::knn_into(q, &corpus, K, &mut out);
                w.stop()
            })
            .collect();
        let mut ivf_times: Vec<f64> = singles
            .iter()
            .map(|q| {
                let w = Stopwatch::start("bench.index_ivf_query");
                index
                    .knn_into(q, K, nprobe, &mut out)
                    .expect("bench queries share the corpus width");
                w.stop()
            })
            .collect();
        let exact_p50 = p50_ms(&mut exact_times);
        let ivf_p50 = p50_ms(&mut ivf_times);
        let speedup = exact_p50 / ivf_p50;

        // Instrumented (untimed) pass for the probe counters.
        tcsl_obs::set_enabled(true);
        tcsl_obs::counters::reset();
        index
            .knn(&queries, K, nprobe)
            .expect("bench queries share the corpus width");
        let cells_probed = IVF_CELLS_PROBED.value();
        let candidates = IVF_CANDIDATES.value();
        tcsl_obs::set_enabled(false);
        tcsl_obs::counters::reset();
        let candidate_frac = candidates as f64 / (n_queries * n) as f64;

        if crossover_n.is_none() && ivf_p50 < exact_p50 {
            crossover_n = Some(n);
        }
        largest = Some((speedup, recall));

        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"case\":\"n_{n}\",\"n\":{n},\"n_queries\":{n_queries},\"nlist\":{nlist},\"nprobe\":{nprobe},\"build_secs\":{build_secs:.4},\"exact_p50_ms\":{exact_p50:.4},\"ivf_p50_ms\":{ivf_p50:.4},\"speedup_p50\":{speedup:.2},\"recall_at_10\":{recall:.4},\"cells_probed\":{cells_probed},\"candidates\":{candidates},\"candidate_frac\":{candidate_frac:.4}}}"
        );
        println!("{e}");
        entries.push(e);
    }

    // Parity spot-check at the smallest N: nprobe == nlist must equal the
    // exact engine bit-for-bit end-to-end (cheap, so asserted every mode).
    {
        let n = ns[0];
        let (corpus, queries) = low_rank_cloud(n, n_queries, 97);
        let index = IvfIndex::build(&corpus, (n as f64).sqrt().round() as usize, 0);
        let exact = pairdist::knn(&queries, &corpus, K);
        let full = index
            .knn(&queries, K, index.nlist())
            .expect("bench queries share the corpus width");
        for (e, v) in exact.iter().zip(&full) {
            assert_eq!(e.len(), v.len(), "full-probe IVF dropped neighbours");
            for (&(ei, ed), &(vi, vd)) in e.iter().zip(v) {
                assert_eq!(ei, vi, "full-probe IVF changed a neighbour index");
                assert_eq!(
                    ed.to_bits(),
                    vd.to_bits(),
                    "full-probe IVF changed a distance"
                );
            }
        }
    }

    if !smoke {
        let (speedup, recall) = largest.expect("at least one corpus size");
        assert!(
            speedup >= 5.0,
            "largest N: IVF only {speedup:.2}x faster per query than exact (need >= 5x)"
        );
        assert!(
            recall >= 0.95,
            "largest N: recall@10 {recall:.4} below the 0.95 floor"
        );
    }

    let report = format!(
        "{{\"bench\":\"index\",\"schema_version\":{},\"host\":{},\"smoke\":{},\"dim\":{},\"latent_dim\":{},\"k\":{},\"unit_note\":\"corpus = low-rank Gaussian (LATENT-dim latent x fixed projection + 0.05 ambient noise); exact/ivf p50 = median over individually timed single-row queries (serving shape, ms); recall_at_10 = fraction of exact top-10 indices the IVF shortlist returns; cells_probed/candidates = ivf.* counter totals over one instrumented batch pass; crossover_n = smallest benched N where IVF p50 beats exact; nlist = round(sqrt(N)), nprobe = max(4, nlist/16); full-probe parity asserted at the smallest N\",\"cases\":[\n  {}\n],\"crossover_n\":{}}}\n",
        tcsl_bench::contract::SCHEMA_VERSION,
        tcsl_bench::contract::host_record(),
        smoke,
        DIM,
        LATENT,
        K,
        entries.join(",\n  "),
        crossover_n.map_or_else(|| "null".to_string(), |n| n.to_string()),
    );
    tcsl_bench::contract::write_report(
        "BENCH_index.json",
        "index",
        &report,
        &[
            "host.cores",
            "crossover_n",
            "cases[].build_secs",
            "cases[].recall_at_10",
            "cases[].cells_probed",
            "cases[].speedup_p50",
        ],
    );
}
