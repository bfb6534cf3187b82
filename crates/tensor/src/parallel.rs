//! Data parallelism over index-owned work, on a persistent pool.
//!
//! The batch shapelet transform, the training fan-out, the pairwise-distance
//! engine and the IVF index all map an independent function over many items
//! (series, pairs, row blocks). [`parallel_map`] and [`parallel_chunks_mut`]
//! cover that, dispatching to the process-wide parked-worker pool in
//! `crate::pool`. Both run through one claim loop: `parallel_map` is
//! `parallel_chunks_mut` over its result slots.
//!
//! Determinism contract: output ownership is a function of the item/chunk
//! index alone — `parallel_map` writes result `i` into slot `i`,
//! `parallel_chunks_mut` hands chunk `c` exactly the range
//! `buf[c·chunk_len ..]` — so results are bit-identical for any
//! `TCSL_THREADS` setting.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool;

/// Number of worker threads to use: `available_parallelism` capped at the
/// item count (and at least 1).
pub fn default_threads(items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    hw.min(items).max(1)
}

/// Worker count after applying the `TCSL_THREADS` environment override.
///
/// When `TCSL_THREADS` is set to a positive integer, that many workers are
/// used (capped at the item count, *not* at the hardware parallelism — an
/// oversubscribed setting still exercises the multi-threaded code path,
/// which CI uses to cover cross-thread determinism on small runners).
/// Unset, empty, `0`, or unparsable values fall back to
/// [`default_threads`]. The variable is re-read on every call — it caps how
/// many parked pool workers a dispatch wakes, so tests and benchmarks can
/// flip between serial and parallel execution in-process without touching
/// the pool itself.
pub fn configured_threads(items: usize) -> usize {
    threads_from_override(std::env::var("TCSL_THREADS").ok().as_deref(), items)
}

/// Pure parsing core of [`configured_threads`], split out so tests can
/// exercise the override logic without `std::env::set_var` — mutating the
/// process environment would race with concurrent tests in the same binary
/// that read `TCSL_THREADS` through [`configured_threads`].
fn threads_from_override(raw: Option<&str>, items: usize) -> usize {
    match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(items).max(1),
        _ => default_threads(items),
    }
}

/// Maps `f` over `0..n` on multiple threads, returning results in index
/// order. `f` must be `Sync` (it is shared by reference across workers).
///
/// Work is claimed dynamically in small blocks of `(n / (threads·4)).max(1)`
/// indices, so uneven per-item cost (e.g. variable-length series) balances
/// well; the result still lands in slot `i` whatever thread computed it.
///
/// A panicking `f` re-raises on the calling thread after the dispatch has
/// drained — and the pool stays usable for the next call.
pub fn parallel_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(configured_threads(n.max(1)), n, f)
}

/// [`parallel_map`] with an explicit worker count instead of the
/// `TCSL_THREADS` override — the env-free entry point tests and callers
/// that already resolved a thread count use.
pub fn parallel_map_with<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Nested parallel sections (a body that itself calls parallel_*) run
    // serially: the pool has one job slot, and index-owned outputs make
    // the serial result bit-identical anyway.
    if threads <= 1 || n <= 1 || pool::in_parallel_region() {
        return (0..n).map(f).collect();
    }
    // Each claim block is one chunk of the slot buffer, so block `c` fills
    // exactly slots `c·block ..` whichever context claims it.
    let block = (n / (threads * 4)).max(1);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    parallel_chunks_mut_with(threads, &mut out, block, |c, slots| {
        for (o, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(c * block + o));
        }
    });
    out.into_iter()
        .map(|v| v.expect("parallel_map: worker failed to fill slot"))
        .collect()
}

/// Applies `f` in parallel to disjoint contiguous chunks of `buf`, each
/// `chunk_len` elements (the last may be shorter). Chunk `c` always covers
/// `buf[c·chunk_len .. (c+1)·chunk_len]` regardless of the worker count, so
/// output ownership is a function of the index alone and results are
/// bit-identical for any `TCSL_THREADS` setting. This is the in-place
/// sibling of [`parallel_map`] for kernels that fill one large buffer
/// (e.g. the pairwise-distance engine) without a gather copy.
pub fn parallel_chunks_mut<T, F>(buf: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = buf.len().div_ceil(chunk_len);
    parallel_chunks_mut_with(configured_threads(n_chunks.max(1)), buf, chunk_len, f)
}

/// [`parallel_chunks_mut`] with an explicit worker count instead of the
/// `TCSL_THREADS` override.
pub fn parallel_chunks_mut_with<T, F>(threads: usize, buf: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if buf.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = buf.len();
    let n_chunks = len.div_ceil(chunk_len);
    if threads <= 1 || n_chunks == 1 || pool::in_parallel_region() {
        for (c, chunk) in buf.chunks_mut(chunk_len).enumerate() {
            f(c, chunk);
        }
        return;
    }
    // Hand each execution context disjoint `&mut` ranges via raw pointer +
    // index discipline. Accessed through a method so the closure captures
    // the `Sync` wrapper, not the raw pointer field (2021 disjoint capture
    // would otherwise grab the non-`Sync` pointer itself).
    struct Base<T>(*mut T);
    // SAFETY: contexts reach `buf` only through chunk ranges, every chunk
    // index is claimed exactly once from the atomic cursor, and distinct
    // indices map to disjoint ranges — so each `T: Send` element is touched
    // by one thread per dispatch.
    unsafe impl<T: Send> Sync for Base<T> {}
    impl<T> Base<T> {
        fn ptr(&self) -> *mut T {
            self.0
        }
    }
    let base = Base(buf.as_mut_ptr());
    let cursor = AtomicUsize::new(0);
    let body = || {
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let start = c * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: `c` is claimed exactly once across all contexts and
            // chunk ranges are pairwise disjoint; `buf` outlives the
            // dispatch.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.ptr().add(start), end - start) };
            f(c, chunk);
        }
    };
    // The caller participates, so `threads` contexts need `threads - 1`
    // pool workers.
    pool::dispatch(threads - 1, &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let got = parallel_map(100, |i| i * i);
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_single() {
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn pooled_map_matches_serial_at_any_thread_count() {
        // Explicit thread counts exercise the pool without touching the
        // process environment (set_var would race with concurrent tests).
        let want: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for threads in [2, 3, 7, 16] {
            let got = parallel_map_with(threads, 257, |i| i * 3 + 1);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still all complete correctly.
        let got = parallel_map_with(4, 64, |i| {
            let mut acc = 0u64;
            for k in 0..(i * 1000) as u64 {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (i, (idx, _)) in got.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn chunks_mut_fills_every_chunk_with_its_index() {
        let mut buf = vec![usize::MAX; 103]; // deliberately not a multiple of 10
        parallel_chunks_mut(&mut buf, 10, |c, chunk| {
            assert!(chunk.len() == 10 || (c == 10 && chunk.len() == 3));
            chunk.fill(c);
        });
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, i / 10);
        }
    }

    #[test]
    fn pooled_chunks_match_serial_at_any_thread_count() {
        let mut want = vec![0usize; 509];
        parallel_chunks_mut_with(1, &mut want, 16, |c, chunk| {
            for (o, v) in chunk.iter_mut().enumerate() {
                *v = c * 1000 + o;
            }
        });
        for threads in [2, 5, 11] {
            let mut got = vec![usize::MAX; 509];
            parallel_chunks_mut_with(threads, &mut got, 16, |c, chunk| {
                for (o, v) in chunk.iter_mut().enumerate() {
                    *v = c * 1000 + o;
                }
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn chunks_mut_handles_empty_and_single_chunk() {
        let mut empty: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut empty, 4, |_, _| panic!("no chunks expected"));
        let mut one = vec![0u8; 3];
        parallel_chunks_mut(&mut one, 8, |c, chunk| {
            assert_eq!(c, 0);
            chunk.fill(7);
        });
        assert_eq!(one, vec![7, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn chunks_mut_rejects_zero_chunk_len() {
        parallel_chunks_mut(&mut [0u8; 2], 0, |_, _| {});
    }

    #[test]
    fn nested_parallel_sections_run_serially_without_deadlock() {
        // A pooled body that itself calls parallel_map must not wait on the
        // pool's single job slot — the inner call detects the region flag
        // and runs inline, producing the same index-owned results.
        let got = parallel_map_with(4, 8, |i| {
            let inner = parallel_map_with(4, 5, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..8)
            .map(|i| (0..5).map(|j| i * 10 + j).sum::<usize>())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        // The value tests above cannot see an index claimed twice (the
        // second write stores the same value), so count the calls. n below
        // threads·4 gives claim block 1; 100 and 257 leave ragged tails.
        for threads in [2, 3, 7, 16] {
            for n in [threads * 4 - 1, 100, 257] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let got =
                    parallel_map_with(threads, n, |i| calls[i].fetch_add(1, Ordering::Relaxed));
                assert_eq!(got, vec![0; n], "threads={threads} n={n}");
                assert!(
                    calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "parallel_map_with threads={threads} n={n}"
                );

                let chunk_len = 3;
                let chunk_calls: Vec<AtomicUsize> = (0..n.div_ceil(chunk_len))
                    .map(|_| AtomicUsize::new(0))
                    .collect();
                let mut visits = vec![0u8; n];
                parallel_chunks_mut_with(threads, &mut visits, chunk_len, |c, chunk| {
                    chunk_calls[c].fetch_add(1, Ordering::Relaxed);
                    chunk.iter_mut().for_each(|v| *v += 1);
                });
                assert!(
                    chunk_calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                    "parallel_chunks_mut_with threads={threads} n={n}"
                );
                assert_eq!(visits, vec![1; n], "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(1) == 1);
        assert!(default_threads(1000) >= 1);
    }

    #[test]
    fn env_override_controls_thread_count() {
        // Exercised through the pure parsing core rather than
        // std::env::set_var: mutating the process-global variable here
        // would race with the other tests in this binary that read it
        // concurrently through configured_threads. End-to-end routing of
        // the real variable is covered by the CI legs that set
        // TCSL_THREADS before the test process starts.
        assert_eq!(threads_from_override(Some("3"), 100), 3);
        // Capped at the item count; whitespace is trimmed before parsing.
        assert_eq!(threads_from_override(Some("3"), 2), 2);
        assert_eq!(threads_from_override(Some(" 3 "), 100), 3);
        // Oversubscription beyond the hardware is allowed on purpose.
        assert_eq!(threads_from_override(Some("3"), 1000), 3);
        // Unset, zero, and unparsable all fall back to the default.
        assert_eq!(threads_from_override(Some("0"), 100), default_threads(100));
        assert_eq!(
            threads_from_override(Some("garbage"), 100),
            default_threads(100)
        );
        assert_eq!(threads_from_override(None, 100), default_threads(100));
        assert_eq!(
            configured_threads(100),
            threads_from_override(std::env::var("TCSL_THREADS").ok().as_deref(), 100)
        );
    }
}
