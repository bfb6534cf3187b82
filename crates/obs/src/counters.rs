//! Registered atomic counters and gauges.
//!
//! A [`Counter`] is a named, monotonically increasing `u64`; a [`Gauge`] is
//! a named last-write-wins `u64`. Both live as `static`s — the well-known
//! ones every layer of the stack increments are defined here (so they are
//! always present in reports, zero-valued when a run never touched them),
//! and other crates can declare their own, which register themselves on
//! first use.
//!
//! **Determinism.** Counter totals are sums of per-call-site contributions
//! merged into one `u64` atomic with relaxed `fetch_add`. Unsigned addition
//! is associative and commutative, so the total depends only on *what work
//! ran*, never on thread count or schedule — the same contract as the
//! fixed-order gradient reduction. Hot loops accumulate into a
//! [`LocalCounter`] (a plain per-thread `u64`) and merge once, so tracing a
//! parallel region costs one atomic per work item rather than per element.
//! Gauges are last-write-wins and carry **no** cross-thread determinism
//! guarantee; determinism tests compare counters only.
//!
//! **Schedule-class counters.** A few counters measure the *execution
//! schedule* itself rather than the work — how many pool dispatches ran,
//! how many parked workers were woken. Their totals are monotone and exact,
//! but they legitimately differ between `TCSL_THREADS=1` (serial fallback:
//! zero dispatches) and `TCSL_THREADS=7`, so they live in a separate
//! well-known set reported by [`sched_counter_snapshot`] and are *excluded*
//! from [`counter_snapshot`], which the thread-count-invariance tests
//! compare verbatim.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A named monotonically increasing counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    /// Number of `add` invocations (not units added): each call is exactly
    /// one enabled-gate check, so this is what a *disabled* run of the same
    /// work pays — the quantity `counter_hits_upper_bound` prices out.
    calls: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Declares a counter. Use as a `static`:
    /// `static HITS: Counter = Counter::new("cache.hit");`
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n` when instrumentation is enabled; a relaxed load and a
    /// branch otherwise.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if crate::enabled() {
            self.record(n);
        }
    }

    #[cold]
    fn record(&'static self, n: u64) {
        self.ensure_registered();
        self.value.fetch_add(n, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Counter name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            let well_known = WELL_KNOWN
                .iter()
                .chain(WELL_KNOWN_SCHED)
                .any(|c| std::ptr::eq(*c, self));
            if !well_known {
                dynamic()
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(self);
            }
        }
    }
}

/// A named last-write-wins value (e.g. a configured thread count). Not
/// covered by the counter determinism contract.
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// Declares a gauge. Use as a `static`.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Stores `v` when instrumentation is enabled.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if crate::enabled() {
            self.record(v);
        }
    }

    #[cold]
    fn record(&'static self, v: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            let well_known = WELL_KNOWN_GAUGES.iter().any(|g| std::ptr::eq(*g, self));
            if !well_known {
                dynamic_gauges()
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(self);
            }
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Gauge name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Per-thread accumulator for a hot loop: adds into a plain `u64` and
/// merges the sum into its [`Counter`] once on drop (or [`flush`]). One
/// atomic operation per region instead of per element, with the same
/// order-independent total.
///
/// [`flush`]: LocalCounter::flush
pub struct LocalCounter {
    target: &'static Counter,
    pending: u64,
}

impl LocalCounter {
    /// Starts accumulating for `target`.
    pub fn new(target: &'static Counter) -> LocalCounter {
        LocalCounter { target, pending: 0 }
    }

    /// Adds locally — no atomics until the merge.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
    }

    /// Merges the pending sum now (drop does the same).
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.target.add(self.pending);
            self.pending = 0;
        }
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

// --- Well-known instruments (always present in reports) -----------------

/// Fused-path `WindowCache` hit (same series value, scale, stride reused).
pub static WINDOW_CACHE_HIT: Counter = Counter::new("window_cache.hit");
/// Fused-path `WindowCache` miss (a fresh `ScaleWindows` was computed).
pub static WINDOW_CACHE_MISS: Counter = Counter::new("window_cache.miss");
/// f32 dot products dispatched to the runtime AVX2+FMA kernel tier.
/// Counted in batches by the callers' loops (`TapElem::count_dispatch`),
/// never inside the kernels themselves.
pub static DOT_DISPATCH_AVX2_FMA: Counter = Counter::new("dot.dispatch.avx2_fma");
/// Dot products that took the portable scalar kernel (same batch counting).
pub static DOT_DISPATCH_SCALAR: Counter = Counter::new("dot.dispatch.scalar");
/// Mixed-precision f16 dots dispatched to the AVX-512F kernel (16 taps
/// per `vcvtph2ps`, f32 accumulation in 512-bit lanes).
pub static DOT_DISPATCH_F16_AVX512: Counter = Counter::new("dot.dispatch.f16_avx512");
/// Mixed-precision f16 dots dispatched to the AVX2+F16C kernel (f16 taps
/// converted in-register, f32 accumulation).
pub static DOT_DISPATCH_F16C: Counter = Counter::new("dot.dispatch.f16c");
/// Mixed-precision f16 dots that took the portable scalar kernel.
pub static DOT_DISPATCH_F16_SCALAR: Counter = Counter::new("dot.dispatch.f16_scalar");
/// Corpus tiles processed by the pairwise-distance engine
/// (`pairdist` + `knn`): one per (row-block, column-tile) pair.
pub static PAIRDIST_TILES: Counter = Counter::new("pairdist.tiles");
/// View pairs pushed through contrastive pre-training (train + validation).
pub static TRAINER_PAIRS: Counter = Counter::new("trainer.pairs");
/// Labeled examples pushed through fine-tuning.
pub static FINETUNE_EXAMPLES: Counter = Counter::new("finetune.examples");
/// Shapelet groups pooled by the fused streaming engine (one per group per
/// series or crop).
pub static SHAPELET_POOL_FUSED: Counter = Counter::new("shapelet.pool.fused");
/// Inverted-file cells scanned by IVF index queries (one per probed
/// non-empty cell per query row).
pub static IVF_CELLS_PROBED: Counter = Counter::new("ivf.cells_probed");
/// Candidate corpus rows scored by IVF probes (the shortlist size the
/// sublinear path actually paid for, vs. the full corpus an exact scan
/// would touch).
pub static IVF_CANDIDATES: Counter = Counter::new("ivf.candidates");

// Failed requests by error class — one well-known counter per variant of
// the workspace `TcslError` taxonomy (`tcsl-obs` stays dependency-free, so
// the mapping is by the class's snake name; see [`error_counter`]). The CLI
// bumps these before `finish_run`, so a failed run's summary still carries
// a valid, attributed error tally.

/// Failed requests: configuration / API misuse (`TcslError::Config`).
pub static ERROR_CONFIG: Counter = Counter::new("error.config");
/// Failed requests: filesystem I/O (`TcslError::Io`).
pub static ERROR_IO: Counter = Counter::new("error.io");
/// Failed requests: text parsing (`TcslError::Parse`).
pub static ERROR_PARSE: Counter = Counter::new("error.parse");
/// Failed requests: model-file structure (`TcslError::ModelFormat`).
pub static ERROR_MODEL_FORMAT: Counter = Counter::new("error.model_format");
/// Failed requests: dimension mismatches (`TcslError::ShapeMismatch`).
pub static ERROR_SHAPE_MISMATCH: Counter = Counter::new("error.shape_mismatch");
/// Failed requests: empty inputs (`TcslError::EmptyInput`).
pub static ERROR_EMPTY_INPUT: Counter = Counter::new("error.empty_input");
/// Failed requests: NaN/inf inputs (`TcslError::NonFiniteInput`).
pub static ERROR_NON_FINITE_INPUT: Counter = Counter::new("error.non_finite_input");
/// Failed requests: broken internal invariants (`TcslError::Internal`).
pub static ERROR_INTERNAL: Counter = Counter::new("error.internal");

/// Looks up the failed-request counter for an error class by its snake
/// name (`TcslError::class().name()`). Unknown names — a class added to
/// the taxonomy without a counter here — fall back to [`ERROR_INTERNAL`]
/// so no failure goes untallied.
pub fn error_counter(class_name: &str) -> &'static Counter {
    match class_name {
        "config" => &ERROR_CONFIG,
        "io" => &ERROR_IO,
        "parse" => &ERROR_PARSE,
        "model_format" => &ERROR_MODEL_FORMAT,
        "shape_mismatch" => &ERROR_SHAPE_MISMATCH,
        "empty_input" => &ERROR_EMPTY_INPUT,
        "non_finite_input" => &ERROR_NON_FINITE_INPUT,
        _ => &ERROR_INTERNAL,
    }
}

/// Workers resident in the persistent thread pool. Written only when the
/// pool grows (lazy init / a dispatch that needed more workers), **never**
/// from the serial fallback path — the old per-dispatch last-writer-wins
/// write made nested and concurrent sections report whichever call ran
/// last. Per-dispatch engagement is counted by [`POOL_WAKE`] instead.
pub static PARALLEL_THREADS: Gauge = Gauge::new("parallel.threads");

/// Pool dispatches: one per `parallel_map`/`parallel_chunks_mut` call that
/// actually engaged the persistent pool (serial fallbacks don't count).
/// Schedule-class: depends on `TCSL_THREADS`, reported via
/// [`sched_counter_snapshot`].
pub static POOL_DISPATCH: Counter = Counter::new("pool.dispatch");

/// Parked pool workers woken across all dispatches (the dispatching caller
/// participates on its own thread and is not counted here). Schedule-class:
/// depends on `TCSL_THREADS`, reported via [`sched_counter_snapshot`].
pub static POOL_WAKE: Counter = Counter::new("pool.wake");

static WELL_KNOWN: &[&Counter] = &[
    &WINDOW_CACHE_HIT,
    &WINDOW_CACHE_MISS,
    &DOT_DISPATCH_AVX2_FMA,
    &DOT_DISPATCH_SCALAR,
    &DOT_DISPATCH_F16_AVX512,
    &DOT_DISPATCH_F16C,
    &DOT_DISPATCH_F16_SCALAR,
    &PAIRDIST_TILES,
    &TRAINER_PAIRS,
    &FINETUNE_EXAMPLES,
    &SHAPELET_POOL_FUSED,
    &IVF_CELLS_PROBED,
    &IVF_CANDIDATES,
    &ERROR_CONFIG,
    &ERROR_IO,
    &ERROR_PARSE,
    &ERROR_MODEL_FORMAT,
    &ERROR_SHAPE_MISMATCH,
    &ERROR_EMPTY_INPUT,
    &ERROR_NON_FINITE_INPUT,
    &ERROR_INTERNAL,
];

static WELL_KNOWN_GAUGES: &[&Gauge] = &[&PARALLEL_THREADS];

/// Schedule-class counters: exact totals that measure the execution
/// schedule, not the work — excluded from [`counter_snapshot`] (and thus
/// from the thread-count-invariance comparisons), reported separately.
static WELL_KNOWN_SCHED: &[&Counter] = &[&POOL_DISPATCH, &POOL_WAKE];

fn dynamic() -> &'static Mutex<Vec<&'static Counter>> {
    static DYN: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());
    &DYN
}

fn dynamic_gauges() -> &'static Mutex<Vec<&'static Gauge>> {
    static DYN: Mutex<Vec<&'static Gauge>> = Mutex::new(Vec::new());
    &DYN
}

/// All counters `(name, value)`, sorted by name — a fixed-order merge of
/// the well-known set and any dynamically registered counters, so two runs
/// that did the same work produce byte-identical listings.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> =
        WELL_KNOWN.iter().map(|c| (c.name, c.value())).collect();
    out.extend(
        dynamic()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|c| (c.name, c.value())),
    );
    out.sort_by_key(|&(name, _)| name);
    out
}

/// Schedule-class counters `(name, value)`, sorted by name. These are
/// deliberately **not** part of [`counter_snapshot`]: their totals depend
/// on `TCSL_THREADS` (a serial run never dispatches to the pool), so
/// including them would break the thread-count-invariance contract the
/// determinism tests pin.
pub fn sched_counter_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = WELL_KNOWN_SCHED
        .iter()
        .map(|c| (c.name, c.value()))
        .collect();
    out.sort_by_key(|&(name, _)| name);
    out
}

/// All gauges `(name, value)`, sorted by name.
pub fn gauge_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = WELL_KNOWN_GAUGES
        .iter()
        .map(|g| (g.name, g.value()))
        .collect();
    out.extend(
        dynamic_gauges()
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|g| (g.name, g.value())),
    );
    out.sort_by_key(|&(name, _)| name);
    out
}

/// Total number of `add` invocations across every counter — each one is
/// exactly one enabled-gate check, so this (plus span counts) bounds what a
/// *disabled* run of the same work pays at counter sites. Used by
/// `bench_pretrain`'s disabled-overhead estimate. Hot paths batch with
/// `add(n)` or [`LocalCounter`], so this is far below the value totals.
pub fn counter_hits_upper_bound() -> u64 {
    let mut out: u64 = WELL_KNOWN
        .iter()
        .chain(WELL_KNOWN_SCHED)
        .map(|c| c.calls.load(Ordering::Relaxed))
        .sum();
    out += dynamic()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .map(|c| c.calls.load(Ordering::Relaxed))
        .sum::<u64>();
    out
}

/// Zeroes every registered counter and gauge (run isolation in tests and
/// benchmarks).
pub fn reset() {
    for c in WELL_KNOWN.iter().chain(WELL_KNOWN_SCHED) {
        c.value.store(0, Ordering::Relaxed);
        c.calls.store(0, Ordering::Relaxed);
    }
    for c in dynamic().lock().unwrap_or_else(|p| p.into_inner()).iter() {
        c.value.store(0, Ordering::Relaxed);
        c.calls.store(0, Ordering::Relaxed);
    }
    for g in WELL_KNOWN_GAUGES {
        g.value.store(0, Ordering::Relaxed);
    }
    for g in dynamic_gauges()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
    {
        g.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testlock;

    static TEST_COUNTER: Counter = Counter::new("test.dynamic.counter");
    static TEST_GAUGE: Gauge = Gauge::new("test.dynamic.gauge");

    #[test]
    fn disabled_counters_do_not_move() {
        let _g = testlock::hold();
        crate::set_enabled(false);
        let before = TEST_COUNTER.value();
        TEST_COUNTER.add(5);
        assert_eq!(TEST_COUNTER.value(), before);
    }

    #[test]
    fn enabled_counters_accumulate_and_register() {
        let _g = testlock::hold();
        crate::set_enabled(true);
        reset();
        TEST_COUNTER.add(2);
        TEST_COUNTER.add(3);
        assert_eq!(TEST_COUNTER.value(), 5);
        let snap = counter_snapshot();
        assert!(snap.contains(&("test.dynamic.counter", 5)));
        // Well-known counters are present even when untouched.
        assert!(snap.iter().any(|&(n, _)| n == "pairdist.tiles"));
        // Sorted by name: a fixed-order, deterministic listing.
        let names: Vec<_> = snap.iter().map(|&(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        crate::set_enabled(false);
        reset();
    }

    #[test]
    fn hits_bound_counts_gate_checks_not_units() {
        let _g = testlock::hold();
        crate::set_enabled(true);
        reset();
        // A batched add is ONE gate check however many units it carries —
        // the disabled-overhead estimate must price calls, not values.
        TEST_COUNTER.add(1000);
        TEST_COUNTER.add(1);
        assert_eq!(TEST_COUNTER.value(), 1001);
        assert_eq!(counter_hits_upper_bound(), 2);
        crate::set_enabled(false);
        reset();
        assert_eq!(counter_hits_upper_bound(), 0);
    }

    #[test]
    fn local_counter_merges_once() {
        let _g = testlock::hold();
        crate::set_enabled(true);
        reset();
        {
            let mut local = LocalCounter::new(&TEST_COUNTER);
            for _ in 0..10 {
                local.add(3);
            }
        } // drop merges
        assert_eq!(TEST_COUNTER.value(), 30);
        crate::set_enabled(false);
        reset();
    }

    #[test]
    fn local_counter_totals_are_schedule_independent() {
        let _g = testlock::hold();
        crate::set_enabled(true);
        reset();
        // 8 "workers" merging local sums concurrently: the total is exactly
        // the sum of contributions, whatever the interleaving.
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = LocalCounter::new(&TEST_COUNTER);
                    for _ in 0..1000 {
                        local.add(1);
                    }
                });
            }
        });
        assert_eq!(TEST_COUNTER.value(), 8000);
        crate::set_enabled(false);
        reset();
    }

    #[test]
    fn sched_counters_stay_out_of_the_deterministic_snapshot() {
        let _g = testlock::hold();
        crate::set_enabled(true);
        reset();
        POOL_DISPATCH.add(3);
        POOL_WAKE.add(12);
        // Reported in their own snapshot...
        let sched = sched_counter_snapshot();
        assert!(sched.contains(&("pool.dispatch", 3)));
        assert!(sched.contains(&("pool.wake", 12)));
        // ...and absent from the deterministic one (the invariance tests
        // compare that snapshot verbatim across thread counts).
        let snap = counter_snapshot();
        assert!(snap.iter().all(|&(n, _)| !n.starts_with("pool.")));
        // Registered as well-known: they must not leak into the dynamic
        // registry (which counter_snapshot includes).
        reset();
        assert_eq!(
            sched_counter_snapshot(),
            vec![("pool.dispatch", 0), ("pool.wake", 0)]
        );
        // Disabled-overhead pricing still counts their gate checks.
        POOL_DISPATCH.add(1);
        assert_eq!(counter_hits_upper_bound(), 1);
        crate::set_enabled(false);
        reset();
    }

    #[test]
    fn error_counters_resolve_by_class_name() {
        let _g = testlock::hold();
        crate::set_enabled(true);
        reset();
        // Every taxonomy class maps to its own well-known counter...
        error_counter("parse").add(1);
        error_counter("io").add(2);
        assert_eq!(ERROR_PARSE.value(), 1);
        assert_eq!(ERROR_IO.value(), 2);
        // ...and an unknown class lands on `internal`, never dropped.
        error_counter("not_a_class").add(1);
        assert_eq!(ERROR_INTERNAL.value(), 1);
        // Present (zero-valued when untouched) in the deterministic snapshot.
        let snap = counter_snapshot();
        for name in [
            "error.config",
            "error.io",
            "error.parse",
            "error.model_format",
            "error.shape_mismatch",
            "error.empty_input",
            "error.non_finite_input",
            "error.internal",
        ] {
            assert!(snap.iter().any(|&(n, _)| n == name), "missing {name}");
        }
        crate::set_enabled(false);
        reset();
    }

    #[test]
    fn gauges_last_write_wins_and_reset() {
        let _g = testlock::hold();
        crate::set_enabled(true);
        reset();
        TEST_GAUGE.set(7);
        TEST_GAUGE.set(9);
        assert_eq!(TEST_GAUGE.value(), 9);
        assert!(gauge_snapshot().contains(&("test.dynamic.gauge", 9)));
        reset();
        assert_eq!(TEST_GAUGE.value(), 0);
        crate::set_enabled(false);
    }
}
