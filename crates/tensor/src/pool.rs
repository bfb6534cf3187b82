//! Process-wide persistent worker pool behind [`crate::parallel`].
//!
//! Spawning fresh OS threads per call (`std::thread::scope`) costs a
//! spawn/teardown tax on every dispatch — 11.9× the pool's dispatch cost
//! when the two were last measured side by side — paid by every batch of
//! training, every pairdist tile pass and every IVF probe. This module keeps
//! one lazily-initialized pool of parked workers shared by the whole
//! process instead:
//!
//! * **Lazy growth.** No threads exist until the first dispatch that wants
//!   more than one execution context. A dispatch that asks for `h` helpers
//!   grows the pool to `h` workers and reuses them forever after; the pool
//!   never shrinks. `TCSL_THREADS` stays a *per-dispatch* cap — it is
//!   re-read by the caller on every `parallel_*` call and only bounds how
//!   many parked workers are woken, so tests and benchmarks can flip
//!   between serial and parallel execution in-process.
//! * **Determinism is the caller's contract, not the pool's.** The pool
//!   only runs an opaque body on `1 + helpers` threads (the dispatching
//!   caller participates). Output ownership in `parallel_map` /
//!   `parallel_chunks_mut` is a function of the item index alone, so
//!   results are bit-identical for any worker count — the pool adds no
//!   scheduling state of its own that could leak into results.
//! * **Panic containment.** A panicking task unwinds the worker's
//!   `catch_unwind` fence, is recorded as the dispatch's failure payload,
//!   and is re-raised on the calling thread after every engaged worker has
//!   finished — exactly the `std::thread::scope` semantics — but the worker
//!   thread itself survives and parks again, so the pool stays usable for
//!   the next dispatch. Only the first payload is kept; later ones are
//!   dropped (outside the pool lock).
//! * **Observability.** Each engaged worker opens a per-dispatch span under
//!   its own stable name (`pool.worker.NN` — worker threads have fresh
//!   span stacks, so these aggregate as top-level paths and give per-thread
//!   busy-ns timings); the caller's share runs under `pool.caller` nested
//!   in its current span path. `pool.dispatch` / `pool.wake` count
//!   dispatches and woken workers — both are *schedule-class* counters
//!   (they depend on `TCSL_THREADS`, not on the work), reported separately
//!   from the deterministic counter snapshot. The `parallel.threads` gauge
//!   reports the pool's spawned size, written only when the pool grows —
//!   never from the serial fallback path.
//!
//! **Memory ordering.** All job state (the body pointer, the caller's
//! cursor and output buffers reachable through it) is published to workers
//! and collected back through the one pool mutex: the caller stores the job
//! and bumps the epoch under the lock, workers observe it under the lock,
//! and the caller only returns after observing `remaining == 0` under the
//! lock — so every worker-side write to caller-owned memory
//! happens-before the caller reads it. Work-claiming uses relaxed
//! `fetch_add`, which is sufficient because RMW atomicity alone guarantees
//! each index is handed out exactly once.
//!
//! **Nesting.** A body that calls back into `parallel_*` (from a worker or
//! from the dispatching caller) runs that inner call serially on the
//! current thread: the pool has one job slot, and the chunk-owned-by-index
//! discipline makes the serial inner result bit-identical anyway. The
//! thread-local [`in_parallel_region`] flag is how `parallel_*` detects
//! this.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Lifetime-erased pointer to a dispatch body. The dispatch protocol keeps
/// the referent alive: [`dispatch`] does not return until every engaged
/// worker has finished running it.
#[repr(transparent)]
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));

// SAFETY: the referent is `Sync` (shared by reference across workers) and
// outlives all use per the dispatch protocol above.
unsafe impl Send for Job {}

struct State {
    /// Bumped once per dispatch; a worker that sees a new epoch with its
    /// index below `engaged` picks up the job.
    epoch: u64,
    /// Body of the in-flight dispatch; `None` while the pool is idle.
    job: Option<Job>,
    /// How many workers the in-flight dispatch engages.
    engaged: usize,
    /// Engaged workers that have not yet finished the in-flight dispatch.
    remaining: usize,
    /// First panic payload captured from a worker this dispatch.
    panic: Option<PanicPayload>,
    /// Total workers ever spawned (the pool never shrinks).
    spawned: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here; notified on every epoch bump.
    work_cv: Condvar,
    /// Callers park here, both to wait out a busy pool and to wait for
    /// their own dispatch to drain.
    done_cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            epoch: 0,
            job: None,
            engaged: 0,
            remaining: 0,
            panic: None,
            spawned: 0,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

thread_local! {
    /// True while this thread is executing inside a pool dispatch — either
    /// as a pool worker or as the dispatching caller running its share.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is already inside a parallel region.
/// `parallel_map`/`parallel_chunks_mut` use this to run nested calls
/// serially instead of deadlocking on the single job slot.
pub(crate) fn in_parallel_region() -> bool {
    IN_REGION.with(Cell::get)
}

/// RAII for the thread-local region flag (restores on unwind too).
struct RegionGuard;

impl RegionGuard {
    fn enter() -> RegionGuard {
        IN_REGION.with(|f| f.set(true));
        RegionGuard
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        IN_REGION.with(|f| f.set(false));
    }
}

/// Stable per-worker span name: spans aggregate by path, so giving every
/// worker its own `'static` name is what turns the span registry into a
/// per-thread busy-ns report. The first 16 come from a static table; rarer
/// higher indices leak one small string per worker, once, at spawn.
fn worker_span_name(w: usize) -> &'static str {
    const NAMES: [&str; 16] = [
        "pool.worker.00",
        "pool.worker.01",
        "pool.worker.02",
        "pool.worker.03",
        "pool.worker.04",
        "pool.worker.05",
        "pool.worker.06",
        "pool.worker.07",
        "pool.worker.08",
        "pool.worker.09",
        "pool.worker.10",
        "pool.worker.11",
        "pool.worker.12",
        "pool.worker.13",
        "pool.worker.14",
        "pool.worker.15",
    ];
    if w < NAMES.len() {
        NAMES[w]
    } else {
        Box::leak(format!("pool.worker.{w:02}").into_boxed_str())
    }
}

fn worker_loop(pool: &'static Pool, index: usize, span_name: &'static str, spawn_epoch: u64) {
    // Pool workers execute nothing but dispatch bodies, so the region flag
    // can be set once for the thread's whole life.
    let _region = RegionGuard::enter();
    let mut seen = spawn_epoch;
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if st.epoch != seen {
                    seen = st.epoch;
                    if index < st.engaged {
                        break st.job.expect("pool: epoch advanced without a job");
                    }
                }
                st = pool.work_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        // Per-dispatch worker span: worker threads have fresh span stacks,
        // so this aggregates under the worker's own top-level path.
        let result = {
            let _span = tcsl_obs::spans::span(span_name);
            catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }))
        };
        let dropped_payload;
        {
            let mut st = pool.state.lock().unwrap_or_else(|p| p.into_inner());
            dropped_payload = match result {
                Err(p) if st.panic.is_none() => {
                    st.panic = Some(p);
                    None
                }
                Err(p) => Some(p),
                Ok(()) => None,
            };
            st.remaining -= 1;
            if st.remaining == 0 {
                pool.done_cv.notify_all();
            }
        }
        // Dropping a secondary panic payload can run arbitrary Drop code;
        // keep that outside the pool lock.
        drop(dropped_payload);
    }
}

/// Spawns workers until the pool holds at least `target`. Caller holds the
/// state lock. Reports the new pool size on the `parallel.threads` gauge —
/// the one place that gauge is written.
fn grow(pool: &'static Pool, st: &mut State, target: usize) {
    while st.spawned < target {
        let index = st.spawned;
        let name = worker_span_name(index);
        let epoch = st.epoch;
        std::thread::Builder::new()
            .name(format!("tcsl-pool-{index:02}"))
            .spawn(move || worker_loop(pool, index, name, epoch))
            .expect("tcsl-pool: failed to spawn worker thread");
        st.spawned += 1;
    }
    tcsl_obs::counters::PARALLEL_THREADS.set(st.spawned as u64);
}

/// Runs `body` on the calling thread *and* on `helpers` pool workers,
/// returning once all `1 + helpers` executions finished. Re-raises the
/// first captured panic (worker or caller) after the dispatch has fully
/// drained, leaving the pool reusable.
///
/// `body` must partition its work internally (the callers use an atomic
/// cursor over index-owned items/chunks) — the pool hands every engaged
/// thread the same closure.
pub(crate) fn dispatch(helpers: usize, body: &(dyn Fn() + Sync)) {
    assert!(helpers >= 1, "dispatch needs at least one helper");
    let pool = pool();
    // SAFETY (lifetime erasure): `body` outlives the dispatch because this
    // function blocks until `remaining == 0` below, and workers only touch
    // the job between those two points.
    let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(body) };
    {
        // Time from wanting the job slot to owning it (lock + any wait for
        // an in-flight dispatch to drain) — the pool's queueing delay.
        // Schedule-class like the pool.* counters; reads the clock only
        // when tracing is on, and the drop that records is pure atomics so
        // it is safe under the state lock.
        let wait = tcsl_obs::hist::POOL_DISPATCH_WAIT_NS.start_timer();
        let mut st = pool.state.lock().unwrap_or_else(|p| p.into_inner());
        // One job slot: concurrent dispatches from different user threads
        // serialize here, each waiting for the pool to go idle.
        while st.job.is_some() {
            st = pool.done_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        drop(wait);
        grow(pool, &mut st, helpers);
        st.epoch += 1;
        st.job = Some(job);
        st.engaged = helpers;
        st.remaining = helpers;
        pool.work_cv.notify_all();
    }
    tcsl_obs::counters::POOL_DISPATCH.add(1);
    tcsl_obs::counters::POOL_WAKE.add(helpers as u64);

    // The caller is a full participant: it runs the same claiming body, so
    // `threads` execution contexts cost only `threads - 1` wakeups.
    let caller_result = {
        let _region = RegionGuard::enter();
        let _span = tcsl_obs::spans::span("pool.caller");
        catch_unwind(AssertUnwindSafe(body))
    };

    let worker_panic = {
        let mut st = pool.state.lock().unwrap_or_else(|p| p.into_inner());
        while st.remaining > 0 {
            st = pool.done_cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.job = None;
        // Wake any caller queued on the job slot.
        pool.done_cv.notify_all();
        st.panic.take()
    };

    // Which payload is re-raised when several contexts panic is inherently
    // schedule-dependent; the guarantee is that *a* panic propagates and
    // the pool survives.
    if let Some(p) = worker_panic {
        resume_unwind(p);
    }
    if let Err(p) = caller_result {
        resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn dispatch_runs_body_on_all_contexts() {
        let hits = AtomicUsize::new(0);
        let body = || {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        dispatch(3, &body);
        // 3 helpers + the caller.
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pool_reuses_workers_across_dispatches() {
        for round in 1..=5 {
            let hits = AtomicUsize::new(0);
            let body = || {
                hits.fetch_add(1, Ordering::Relaxed);
            };
            dispatch(2, &body);
            assert_eq!(hits.load(Ordering::Relaxed), 3, "round {round}");
        }
    }

    #[test]
    fn worker_panic_reraises_and_pool_survives() {
        let fail = || panic!("pool test boom");
        let r = catch_unwind(AssertUnwindSafe(|| dispatch(2, &fail)));
        assert!(r.is_err(), "panic must propagate to the dispatching caller");
        // The next dispatch still works.
        let hits = AtomicUsize::new(0);
        let ok = || {
            hits.fetch_add(1, Ordering::Relaxed);
        };
        dispatch(2, &ok);
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn region_flag_is_set_inside_dispatch() {
        assert!(!in_parallel_region());
        let body = || assert!(in_parallel_region());
        dispatch(1, &body);
        assert!(!in_parallel_region());
    }

    #[test]
    fn worker_span_names_are_stable_and_indexed() {
        assert_eq!(worker_span_name(0), "pool.worker.00");
        assert_eq!(worker_span_name(15), "pool.worker.15");
        assert_eq!(worker_span_name(23), "pool.worker.23");
    }
}
