//! Sublinear IVF (inverted-file) index over the representation space.
//!
//! The exact `pairdist` engine answers every query in O(N·M); at the
//! "millions of series" corpus sizes the roadmap targets that is a wall.
//! This module amortizes an index build over many queries: the existing
//! [`KMeans`] (itself driven through the engine) learns `nlist` coarse
//! centroids, the corpus is bucketed into per-centroid *cells* whose rows
//! are repacked contiguously, and a query only scans the `nprobe` cells
//! whose centroids are nearest — `nprobe/nlist` of the corpus instead of
//! all of it.
//!
//! **Determinism contract.** Within the probed candidate set the results
//! are bit-identical to the exact engine: cell rows are scored by
//! [`scan_cell_into`], whose kernel rounds each pair independently of how
//! rows are grouped, so a repacked row scores exactly as it does in the
//! full corpus; the shared bounded-heap total order (`total_cmp`
//! distance, then lowest original index) makes the merged shortlist
//! independent of cell probe order. Consequently `nprobe == nlist` — probe
//! everything — reproduces the exact engine's neighbour sets *verbatim*:
//! indices, distances, tie-breaks, NaN-last ordering (pinned by the
//! `ivf_parity` proptests). Builds and queries are bit-identical for any
//! `TCSL_THREADS` setting, like every other engine surface.
//!
//! **Recall semantics.** With `nprobe < nlist` the only approximation is
//! *candidate omission*: a true neighbour living in an unprobed cell is
//! missed entirely. Whatever is returned carries its exact distance —
//! there is no quantization error to re-rank away, so recall@k against the
//! exact oracle is the whole quality story (measured by `bench_index`).

use crate::cluster::kmeans::{assign_to_centers, KMeans};
use tcsl_error::{TcslError, TcslResult};
use tcsl_obs::counters::{LocalCounter, IVF_CANDIDATES, IVF_CELLS_PROBED};
use tcsl_tensor::pairdist::{self, row_sq_norms, scan_cell_into, topk_sort};
use tcsl_tensor::parallel::parallel_chunks_mut;
use tcsl_tensor::Tensor;

/// Query rows per parallel work item, mirroring the exact engine's
/// row-block fan-out: the partition depends only on the query count, so
/// results are thread-count invariant.
const QUERY_BLOCK: usize = 64;

/// Corpus rows sampled per requested cell when fitting the coarse
/// quantizer: above `SAMPLE_PER_CELL · nlist` rows, k-means runs on a
/// deterministic strided sample and only the final bucketing pass touches
/// the full corpus.
const SAMPLE_PER_CELL: usize = 64;

/// Which neighbour-search engine a consumer should use.
///
/// `Exact` is the default and the recall oracle; `Ivf` trades recall for
/// sublinear query time via [`IvfIndex`]. Consumers (`KnnClassifier`,
/// `KnnDistance`, t-SNE) thread this through unchanged, so a pipeline can
/// flip one knob to move between the two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IndexBackend {
    /// Full-scan `pairdist` top-k: exact, O(corpus) per query.
    #[default]
    Exact,
    /// Inverted-file index: `nlist` k-means cells, `nprobe` probed per
    /// query. `nprobe == nlist` reproduces `Exact` bit-for-bit.
    Ivf {
        /// Number of coarse cells (clamped to the corpus size at build).
        nlist: usize,
        /// Cells probed per query (clamped to `[1, nlist]` at query time).
        nprobe: usize,
    },
}

/// One inverted-file cell: the member rows repacked contiguously, their
/// engine-path squared norms, and their original corpus indices (ascending,
/// from the sequential bucketing scan).
#[derive(Clone, Debug)]
struct IvfCell {
    rows: Tensor,
    norms: Vec<f32>,
    ids: Vec<usize>,
}

/// A built inverted-file index over one corpus.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    centroids: Tensor,
    cells: Vec<IvfCell>,
    assignments: Vec<usize>,
    rows: usize,
    dim: usize,
}

impl IvfIndex {
    /// Builds an index over `corpus` with (up to) `nlist` cells.
    ///
    /// The coarse quantizer is a short [`KMeans`] run (one restart, few
    /// iterations — cell boundaries don't need convergence, only balance);
    /// corpora larger than `64·nlist` rows fit it on a deterministic
    /// strided sample, then one [`assign_to_centers`] pass buckets the full
    /// corpus. Smaller corpora reuse the fit's own assignments directly.
    pub fn build(corpus: &Tensor, nlist: usize, seed: u64) -> IvfIndex {
        let _span = tcsl_obs::spans::span("ivf.build");
        let (n, dim) = (corpus.rows(), corpus.cols());
        if n == 0 {
            return IvfIndex {
                centroids: Tensor::zeros([0, dim]),
                cells: Vec::new(),
                assignments: Vec::new(),
                rows: 0,
                dim,
            };
        }
        let nlist = nlist.clamp(1, n);
        let mut km = KMeans::new(nlist);
        km.max_iter = 10;
        km.restarts = 1;
        km.seed = seed;
        let sample_target = SAMPLE_PER_CELL * nlist;
        let (centroids, assignments) = if n > sample_target {
            // Stride chosen so the sample keeps ≥ `sample_target` rows; a
            // pure function of (n, nlist), so the build is reproducible.
            let stride = n / sample_target;
            let picks: Vec<usize> = (0..n).step_by(stride).collect();
            let mut sample = Tensor::zeros([picks.len(), dim]);
            for (s, &i) in picks.iter().enumerate() {
                sample.row_mut(s).copy_from_slice(corpus.row(i));
            }
            let fit = km.fit(&sample);
            let assignments = assign_to_centers(corpus, &fit.centers);
            (fit.centers, assignments)
        } else {
            let fit = km.fit(corpus);
            (fit.centers, fit.assignments)
        };
        let mut cells: Vec<IvfCell> = (0..nlist)
            .map(|_| IvfCell {
                rows: Tensor::zeros([0, dim]),
                norms: Vec::new(),
                ids: Vec::new(),
            })
            .collect();
        let mut buffers: Vec<Vec<f32>> = vec![Vec::new(); nlist];
        for (i, &c) in assignments.iter().enumerate() {
            buffers[c].extend_from_slice(corpus.row(i));
            cells[c].ids.push(i);
        }
        for (cell, buf) in cells.iter_mut().zip(buffers) {
            cell.rows = Tensor::from_vec(buf, [cell.ids.len(), dim]);
            // The engine's own norms: bit-identical to the norm the
            // full-corpus scan computes for each row.
            cell.norms = row_sq_norms(&cell.rows);
        }
        IvfIndex {
            centroids,
            cells,
            assignments,
            rows: n,
            dim,
        }
    }

    /// Number of cells (the effective `nlist`).
    pub fn nlist(&self) -> usize {
        self.cells.len()
    }

    /// Indexed corpus rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-row cell assignment of the indexed corpus (the coarse
    /// quantizer's partition — thread-count invariant, pinned by CI).
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// k-nearest-neighbour search probing `nprobe` cells per query, writing
    /// into `out` with the same reshape-in-place, capacity-reusing contract
    /// as [`pairdist::knn_into`]. Results are sorted ascending by
    /// `(distance, index)`; each row holds `min(k, candidates)` entries.
    ///
    /// `k == 0` and a query feature width that differs from the indexed
    /// corpus are request errors (`out` is left untouched); oversized `k`
    /// and `nprobe` clamp, and empty corpora/query sets yield empty rows.
    /// The distance engine itself is NaN-tolerant (non-finite rows sort
    /// last, exactly as in the exact engine) — finiteness validation
    /// belongs to the analyzer entry points above this.
    pub fn knn_into(
        &self,
        queries: &Tensor,
        k: usize,
        nprobe: usize,
        out: &mut Vec<Vec<(usize, f32)>>,
    ) -> TcslResult<()> {
        if k == 0 {
            return Err(TcslError::config("knn: k must be at least 1"));
        }
        if queries.cols() != self.dim {
            return Err(TcslError::shape_mismatch(
                "ivf query feature width",
                self.dim,
                queries.cols(),
            ));
        }
        let n = queries.rows();
        out.truncate(n);
        for row in out.iter_mut() {
            row.clear();
        }
        while out.len() < n {
            out.push(Vec::new());
        }
        if n == 0 || self.rows == 0 {
            return Ok(());
        }
        let _span = tcsl_obs::spans::span("ivf.query");
        let nprobe = nprobe.clamp(1, self.cells.len());
        let k = k.min(self.rows);
        // Query→centroid distances for every pair up front (one engine
        // call), plus the queries' own engine-path norms for the scans.
        let cd = pairdist::pairdist(queries, &self.centroids);
        let qnorms = row_sq_norms(queries);
        // Query blocks fan out on the persistent pool; each block's output
        // rows are owned by its block index, so merged results and counter
        // totals are thread-count invariant.
        parallel_chunks_mut(&mut out[..], QUERY_BLOCK, |bi, rows_out| {
            let lo = bi * QUERY_BLOCK;
            // Probe/candidate totals are functions of the data alone (which
            // cells are non-empty, which rank nearest), so the merged
            // counter totals are thread-count invariant.
            let mut probed = LocalCounter::new(&IVF_CELLS_PROBED);
            let mut cands = LocalCounter::new(&IVF_CANDIDATES);
            // Per-query distributions, batched per block like the counters:
            // candidates scanned is a function of the data alone
            // (deterministic set); per-query latency is host-class, and the
            // clock is only read while tracing is on.
            let mut q_cands =
                tcsl_obs::hist::LocalHistogram::new(&tcsl_obs::hist::IVF_QUERY_CANDIDATES);
            let mut q_ns = tcsl_obs::hist::LocalHistogram::new(&tcsl_obs::hist::IVF_QUERY_NS);
            let timing = tcsl_obs::enabled();
            let mut order: Vec<(usize, f32)> = Vec::new();
            for (r, acc) in rows_out.iter_mut().enumerate() {
                let t0 = timing.then(std::time::Instant::now);
                let i = lo + r;
                let q = queries.row(i);
                let crow = cd.row(i);
                order.clear();
                order.extend(
                    self.cells
                        .iter()
                        .enumerate()
                        .filter(|(_, cell)| !cell.ids.is_empty())
                        .map(|(c, _)| (c, crow[c])),
                );
                // Nearest centroids first; ties and all-NaN rows resolve by
                // cell index, so the probe set is always deterministic.
                topk_sort(&mut order);
                let mut scanned = 0u64;
                for &(c, _) in order.iter().take(nprobe) {
                    let cell = &self.cells[c];
                    probed.add(1);
                    cands.add(cell.ids.len() as u64);
                    scanned += cell.ids.len() as u64;
                    scan_cell_into(q, qnorms[i], &cell.rows, &cell.norms, &cell.ids, k, acc);
                }
                topk_sort(acc);
                if timing {
                    q_cands.record(scanned);
                }
                if let Some(t0) = t0 {
                    q_ns.record(t0.elapsed().as_nanos() as u64);
                }
            }
        });
        Ok(())
    }

    /// Convenience wrapper over [`Self::knn_into`] allocating a fresh
    /// result vector.
    pub fn knn(
        &self,
        queries: &Tensor,
        k: usize,
        nprobe: usize,
    ) -> TcslResult<Vec<Vec<(usize, f32)>>> {
        let mut out = Vec::with_capacity(queries.rows());
        self.knn_into(queries, k, nprobe, &mut out)?;
        Ok(out)
    }
}

/// Backend-dispatched corpus handle: the uniform way consumers hold "a
/// corpus plus the chosen search engine". `Exact` keeps only the corpus
/// (queries go through [`pairdist::knn`]); `Ivf` builds the index once at
/// construction and probes it per query.
#[derive(Clone, Debug)]
pub struct NnIndex {
    corpus: Tensor,
    backend: IndexBackend,
    ivf: Option<IvfIndex>,
}

impl NnIndex {
    /// Seed for the coarse quantizer fits of consumer-built indexes. Fixed:
    /// the backend enum stays a plain routing knob and two consumers
    /// indexing the same corpus agree on the partition.
    const BUILD_SEED: u64 = 0;

    /// Wraps `corpus` under `backend`, building the IVF structure eagerly
    /// when the backend asks for one.
    pub fn build(corpus: Tensor, backend: IndexBackend) -> NnIndex {
        let ivf = match backend {
            IndexBackend::Exact => None,
            IndexBackend::Ivf { nlist, .. } => {
                Some(IvfIndex::build(&corpus, nlist, Self::BUILD_SEED))
            }
        };
        NnIndex {
            corpus,
            backend,
            ivf,
        }
    }

    /// The wrapped corpus.
    pub fn corpus(&self) -> &Tensor {
        &self.corpus
    }

    /// The backend this handle routes through.
    pub fn backend(&self) -> IndexBackend {
        self.backend
    }

    /// Feature width of the wrapped corpus.
    pub fn dim(&self) -> usize {
        self.corpus.cols()
    }

    /// k-nearest neighbours of every query row under the configured
    /// backend (exact full scan, or IVF probe + exact re-rank). `k == 0`
    /// and mismatched query widths are request errors on both backends.
    pub fn knn(&self, queries: &Tensor, k: usize) -> TcslResult<Vec<Vec<(usize, f32)>>> {
        match (self.backend, &self.ivf) {
            (IndexBackend::Ivf { nprobe, .. }, Some(ivf)) => ivf.knn(queries, k, nprobe),
            _ => {
                if k == 0 {
                    return Err(TcslError::config("knn: k must be at least 1"));
                }
                if queries.cols() != self.corpus.cols() {
                    return Err(TcslError::shape_mismatch(
                        "query feature width",
                        self.corpus.cols(),
                        queries.cols(),
                    ));
                }
                Ok(pairdist::knn(queries, &self.corpus, k))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::blobs;
    use tcsl_tensor::pairdist::knn;

    #[test]
    fn bucketing_partitions_the_corpus_exactly_once() {
        let (x, _) = blobs(4, 40, 6, 5.0, 11);
        let index = IvfIndex::build(&x, 8, 0);
        assert_eq!(index.rows(), x.rows());
        let mut seen = vec![false; x.rows()];
        for (c, cell) in index.cells.iter().enumerate() {
            assert_eq!(cell.rows.rows(), cell.ids.len());
            assert_eq!(cell.norms.len(), cell.ids.len());
            // Ids ascend (sequential bucketing) and rows match the corpus.
            assert!(cell.ids.windows(2).all(|w| w[0] < w[1]));
            for (slot, &i) in cell.ids.iter().enumerate() {
                assert!(!seen[i], "row {i} bucketed twice");
                seen[i] = true;
                assert_eq!(cell.rows.row(slot), x.row(i));
                assert_eq!(index.assignments()[i], c);
            }
        }
        assert!(seen.iter().all(|&s| s), "some corpus row was dropped");
    }

    #[test]
    fn probing_every_cell_matches_the_exact_engine_bitwise() {
        let (x, _) = blobs(3, 30, 7, 4.0, 13);
        let (q, _) = blobs(3, 5, 7, 4.0, 14);
        let index = IvfIndex::build(&x, 6, 0);
        let exact = knn(&q, &x, 5);
        let ivf = index.knn(&q, 5, index.nlist()).unwrap();
        assert_eq!(exact.len(), ivf.len());
        for (e, v) in exact.iter().zip(&ivf) {
            assert_eq!(e.len(), v.len());
            for (&(ei, ed), &(vi, vd)) in e.iter().zip(v) {
                assert_eq!(ei, vi);
                assert_eq!(ed.to_bits(), vd.to_bits());
            }
        }
    }

    #[test]
    fn single_probe_returns_exact_distances_for_whatever_it_finds() {
        let (x, _) = blobs(4, 25, 5, 8.0, 17);
        let index = IvfIndex::build(&x, 4, 0);
        let exact = knn(&x, &x, 1);
        let ivf = index.knn(&x, 1, 1).unwrap();
        // Each row's own cell is always the nearest centroid, so 1-probe
        // self-queries find the exact self-match with its exact 0.0.
        for (i, row) in ivf.iter().enumerate() {
            assert_eq!(row[0], exact[i][0]);
            assert_eq!(row[0], (i, 0.0));
        }
    }

    #[test]
    fn oversized_parameters_clamp_instead_of_panicking() {
        let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 10.0], [4, 1]);
        let index = IvfIndex::build(&x, 99, 0);
        assert!(index.nlist() <= 4);
        let q = Tensor::from_vec(vec![0.4], [1, 1]);
        let nn = index.knn(&q, 99, 99).unwrap();
        assert_eq!(nn[0].len(), 4, "k clamps to the corpus size");
        assert_eq!(nn[0][0].0, 0);
    }

    #[test]
    fn empty_corpus_and_empty_queries_yield_empty_results() {
        let empty = Tensor::zeros([0, 3]);
        let index = IvfIndex::build(&empty, 4, 0);
        assert_eq!(index.nlist(), 0);
        let q = Tensor::zeros([2, 3]);
        let nn = index.knn(&q, 3, 1).unwrap();
        assert_eq!(nn.len(), 2);
        assert!(nn.iter().all(|r| r.is_empty()));
        let (x, _) = blobs(2, 10, 3, 4.0, 19);
        let index = IvfIndex::build(&x, 2, 0);
        assert!(index.knn(&Tensor::zeros([0, 3]), 3, 1).unwrap().is_empty());
    }

    #[test]
    fn knn_into_reuses_buffers_like_the_exact_engine() {
        let (x, _) = blobs(3, 20, 4, 5.0, 23);
        let (q, _) = blobs(3, 6, 4, 5.0, 24);
        let index = IvfIndex::build(&x, 4, 0);
        let mut out = Vec::new();
        index.knn_into(&q, 3, 2, &mut out).unwrap();
        let ptrs: Vec<*const (usize, f32)> = out.iter().map(|r| r.as_ptr()).collect();
        let first = out.clone();
        index.knn_into(&q, 3, 2, &mut out).unwrap();
        let ptrs2: Vec<*const (usize, f32)> = out.iter().map(|r| r.as_ptr()).collect();
        assert_eq!(ptrs, ptrs2, "inner buffers were reallocated");
        assert_eq!(first, out, "reused buffers changed the results");
    }

    #[test]
    fn nn_index_dispatches_backends_and_agrees_at_full_probe() {
        let (x, _) = blobs(3, 30, 6, 5.0, 31);
        let (q, _) = blobs(3, 8, 6, 5.0, 32);
        let exact = NnIndex::build(x.clone(), IndexBackend::Exact);
        assert_eq!(exact.backend(), IndexBackend::default());
        let full = NnIndex::build(
            x.clone(),
            IndexBackend::Ivf {
                nlist: 5,
                nprobe: 5,
            },
        );
        assert_eq!(exact.knn(&q, 4).unwrap(), full.knn(&q, 4).unwrap());
    }
}
