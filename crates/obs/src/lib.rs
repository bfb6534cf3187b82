#![warn(missing_docs)]

//! # tcsl-obs
//!
//! Zero-dependency observability for the TimeCSL workspace: hierarchical
//! [`spans`], registered atomic [`counters`] and gauges, deterministic
//! log2-bucketed [`hist`]ograms (the p50/p99 layer), and a structured
//! JSONL run [`trace`] — the instrumentation layer behind the demo's
//! "diagnose the model" promise and the perf work the ROADMAP calls for.
//!
//! Like the `rand`/`proptest` shims, this crate is vendored
//! offline: it depends on nothing outside `std`, so every other crate in
//! the workspace (including `tcsl-tensor` at the bottom of the stack) can
//! depend on it without cycles.
//!
//! ## Enablement and the disabled fast path
//!
//! All instrumentation is **off by default**. It turns on when the
//! `TCSL_TRACE` environment variable is `1`/`true` at first use, or
//! programmatically via [`set_enabled`] (tests, benchmarks). Every hot-path
//! entry point ([`counters::Counter::add`], [`spans::span`]) checks one
//! process-global relaxed atomic and returns immediately when disabled —
//! a load and a predicted branch, small enough that `bench_pretrain`
//! asserts the serial-leg overhead estimate stays under 1%.
//!
//! ## Determinism contract
//!
//! Counters follow the repo's bit-invariance discipline: call sites
//! accumulate locally (per call, per tile, per batch — see
//! [`counters::LocalCounter`]) and merge into process-global `u64` atomics.
//! Unsigned addition is associative and commutative, so as long as the
//! *work* is a function of the input alone (which the `TCSL_THREADS`
//! contracts of `parallel_map`/`parallel_chunks_mut` guarantee), aggregated
//! counter totals are bit-identical for any thread count or schedule.
//! Span *timings*, gauges, and the schedule-class counters (pool dispatch
//! and wake totals — see [`counters::sched_counter_snapshot`]) carry no
//! such guarantee — reports list them, but determinism tests must exclude
//! them.
//!
//! ## Run telemetry
//!
//! With tracing enabled, [`trace::emit`] appends one JSON object per line
//! to the sink — a file at `TCSL_TRACE_OUT` (default `RUN_trace.jsonl`),
//! or an in-memory buffer in tests — and [`trace::finish_run`] writes a
//! `RUN_trace.json` summary of all counters, gauges and span aggregates.
//! See EXPERIMENTS.md for the field reference.

pub mod alloc_track;
pub mod counters;
pub mod hist;
pub mod json;
pub mod spans;
pub mod trace;

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = uninitialized (read `TCSL_TRACE` on first query), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// 0 = uninitialized (read `TCSL_TRACE_HIST` on first query), 1 = off,
/// 2 = on.
static HIST_ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether instrumentation is currently enabled. The hot-path gate: one
/// relaxed load and a compare once initialized.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Cold path of [`enabled`]: resolve the `TCSL_TRACE` environment variable
/// once and cache the result.
#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("TCSL_TRACE")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true")
        })
        .unwrap_or(false);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Like [`enabled`], but **never** initializes from the environment:
/// returns `false` while the state is still unresolved. The one legitimate
/// caller is [`alloc_track`] — reading `TCSL_TRACE` allocates a `String`,
/// which would recurse straight back into the allocator hook.
#[inline]
pub fn enabled_no_init() -> bool {
    ENABLED.load(Ordering::Relaxed) == 2
}

/// Programmatically enables or disables instrumentation, overriding the
/// `TCSL_TRACE` environment variable. Tests and benchmarks use this to run
/// traced and untraced legs in one process.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether per-span-path duration histograms are enabled (`TCSL_TRACE_HIST`
/// is `1`/`true`, or [`set_hist_enabled`] was called). An opt-in *on top
/// of* [`enabled`]: span aggregates always keep count/total/min/max, but
/// bucketing every span duration costs a little more per drop, so the
/// distribution layer is off unless asked for — keeping the disabled-mode
/// overhead budget (`bench_pretrain`'s <1% assertion) untouched.
#[inline]
pub fn hist_enabled() -> bool {
    match HIST_ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_hist_from_env(),
    }
}

#[cold]
fn init_hist_from_env() -> bool {
    let on = std::env::var("TCSL_TRACE_HIST")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true")
        })
        .unwrap_or(false);
    HIST_ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Programmatically enables or disables per-span-path duration histograms,
/// overriding `TCSL_TRACE_HIST`.
pub fn set_hist_enabled(on: bool) {
    HIST_ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Measures the per-call cost of the *disabled* instrumentation gate: a
/// tight loop of [`counters::Counter::add`] on a probe counter with tracing
/// forced off, returning seconds per call. `bench_pretrain` multiplies this
/// by the number of instrumentation hits a traced run records to bound the
/// disabled-path overhead of its serial leg.
pub fn disabled_probe_secs_per_op(iters: u64) -> f64 {
    static PROBE: counters::Counter = counters::Counter::new("obs.probe");
    let was = enabled();
    set_enabled(false);
    let start = std::time::Instant::now();
    for i in 0..iters.max(1) {
        PROBE.add(std::hint::black_box(i & 1));
    }
    let secs = start.elapsed().as_secs_f64() / iters.max(1) as f64;
    set_enabled(was);
    secs
}

#[cfg(test)]
pub(crate) mod testlock {
    //! Instrumentation state is process-global, so tests that flip
    //! [`super::set_enabled`] or reset registries serialize on this lock.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        let _g = testlock::hold();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn disabled_probe_reports_sub_microsecond_gate() {
        let _g = testlock::hold();
        let was = enabled();
        let per_op = disabled_probe_secs_per_op(100_000);
        assert!(per_op >= 0.0);
        assert!(
            per_op < 1e-6,
            "disabled gate costs {per_op:.2e}s/op — the fast path is broken"
        );
        assert_eq!(enabled(), was, "probe must restore the enabled state");
    }
}
