//! Pre-training benchmark: serial (`TCSL_THREADS=1`) vs data-parallel
//! gradient computation — with a bit-for-bit determinism check between the
//! two legs — plus the fused custom-op training path vs the eager-graph
//! oracle it replaced, with allocator pressure per leg.
//!
//! A dispatch microbench prices the fixed per-call cost of the persistent
//! worker pool, and one instrumented rep collects the pool's per-thread
//! busy-time spans (`pool.worker.NN` / `pool.caller`) into the report.
//!
//! Run from the repo root:
//!
//! ```text
//! cargo run --release -p tcsl-bench --bin bench_pretrain          # full
//! cargo run --release -p tcsl-bench --bin bench_pretrain -- --smoke
//! ```
//!
//! Prints a one-line JSON summary per configuration and writes the full
//! report to `BENCH_pretrain.json` (see EXPERIMENTS.md for the format).
//!
//! The parallel leg uses one worker per hardware core; on a single-core
//! host it oversubscribes to 4 threads so the multi-thread code path is
//! still exercised (the determinism check is then the interesting result —
//! no speedup is possible, and `host.cores` in the JSON says why).

use std::fmt::Write as _;

use tcsl_bench::alloc_track::{alloc_profile, AllocStats, CountingAlloc};
use tcsl_core::{pretrain, CslConfig, DiffPath, TrainingReport};
use tcsl_data::{archive, Dataset};
use tcsl_obs::spans::Stopwatch;
use tcsl_shapelet::init::init_from_data;
use tcsl_shapelet::{Measure, ShapeletBank, ShapeletConfig};
use tcsl_tensor::rng::seeded;
use tcsl_tensor::Tensor;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One timed leg: the training report, the final shapelets, the best
/// (minimum) wall-clock seconds over `reps` identical runs, and the
/// allocation profile of the best-behaved (minimum-peak) run.
struct Leg {
    report: TrainingReport,
    shapelets: Vec<Tensor>,
    best_secs: f64,
    allocs: AllocStats,
}

fn run_leg(
    threads: usize,
    bank0: &ShapeletBank,
    ds: &Dataset,
    cfg: &CslConfig,
    reps: usize,
) -> Leg {
    // The override is read per parallel_map call, so setting it between
    // runs is race-free in this single-threaded driver.
    std::env::set_var("TCSL_THREADS", threads.to_string());
    let mut best_secs = f64::INFINITY;
    let mut best_allocs: Option<AllocStats> = None;
    let mut out: Option<(TrainingReport, Vec<Tensor>)> = None;
    for _ in 0..reps {
        let mut bank = bank0.clone();
        let watch = Stopwatch::start("bench.pretrain_leg");
        let (report, allocs) = alloc_profile(|| pretrain(&mut bank, ds, cfg));
        best_secs = best_secs.min(watch.stop());
        // Min peak over reps: the steady-state figure, free of one-time
        // lazy initialization in the first run.
        if best_allocs.is_none_or(|b| allocs.peak_extra < b.peak_extra) {
            best_allocs = Some(allocs);
        }
        let shapelets = bank.groups().iter().map(|g| g.shapelets.clone()).collect();
        out = Some((report, shapelets));
    }
    std::env::remove_var("TCSL_THREADS");
    let (report, shapelets) = out.expect("reps >= 1");
    Leg {
        report,
        shapelets,
        best_secs,
        allocs: best_allocs.expect("reps >= 1"),
    }
}

/// Bit-for-bit equality of two legs: every epoch-loss entry and every
/// final shapelet value must match exactly, not approximately.
fn legs_identical(a: &Leg, b: &Leg) -> bool {
    a.report.epoch_total == b.report.epoch_total
        && a.report.epoch_contrast == b.report.epoch_contrast
        && a.report.epoch_align == b.report.epoch_align
        && a.report.epoch_validation == b.report.epoch_validation
        && a.report.n_steps == b.report.n_steps
        && a.shapelets.len() == b.shapelets.len()
        && a.shapelets.iter().zip(&b.shapelets).all(|(x, y)| x == y)
}

fn loss_json(r: &TrainingReport) -> String {
    format!(
        "{{\"first_epoch_total\":{:.6},\"last_epoch_total\":{:.6},\"n_steps\":{}}}",
        r.epoch_total.first().copied().unwrap_or(f32::NAN),
        r.epoch_total.last().copied().unwrap_or(f32::NAN),
        r.n_steps
    )
}

fn leg_json(l: &Leg) -> String {
    format!(
        "{{\"secs\":{:.4},\"peak_alloc_mb\":{:.4},\"total_alloc_mb\":{:.4}}}",
        l.best_secs,
        l.allocs.peak_extra_mb(),
        l.allocs.total_mb()
    )
}

struct Case {
    label: &'static str,
    epochs: usize,
    grains: Vec<f32>,
}

/// Upper-bounds the wall-clock cost that *disabled* instrumentation adds to
/// one serial pretrain run: counts every counter `add` call and completed
/// span an instrumented run generates (events ride on the same gate), then
/// prices each at the measured cost of the disabled gate check.
///
/// Returns `(hits, overhead_secs)`. A batched `add(n)` is one gate check
/// however many units it carries, so hits tracks calls, not counter values.
fn disabled_overhead_bound(bank0: &ShapeletBank, ds: &Dataset, cfg: &CslConfig) -> (u64, f64) {
    std::env::set_var("TCSL_THREADS", "1");
    tcsl_obs::trace::use_memory_sink();
    tcsl_obs::set_enabled(true);
    tcsl_obs::counters::reset();
    tcsl_obs::hist::reset();
    tcsl_obs::spans::reset();
    let mut bank = bank0.clone();
    let _ = pretrain(&mut bank, ds, cfg);
    let hits = tcsl_obs::counters::counter_hits_upper_bound()
        + tcsl_obs::hist::hist_hits_upper_bound()
        + tcsl_obs::spans::span_snapshot()
            .iter()
            .map(|(_, s)| s.count)
            .sum::<u64>();
    tcsl_obs::set_enabled(false);
    tcsl_obs::trace::reset_sink();
    tcsl_obs::counters::reset();
    tcsl_obs::hist::reset();
    tcsl_obs::spans::reset();
    std::env::remove_var("TCSL_THREADS");
    let per_op = tcsl_obs::disabled_probe_secs_per_op(1_000_000);
    (hits, hits as f64 * per_op)
}

/// Per-dispatch overhead of the persistent pool: times `k` near-empty
/// `parallel_map` calls at `threads` contexts and returns microseconds per
/// dispatch. The work per call is trivial on purpose — what's measured is
/// the fixed cost of fanning out (waking parked workers), which is the tax
/// every batch of real work pays.
fn dispatch_overhead(threads: usize, k: usize) -> f64 {
    std::env::set_var("TCSL_THREADS", threads.to_string());
    // Warm-up dispatch: the pool's first call pays one-time worker
    // spawning; that cost is amortized, not per-dispatch.
    let _ = tcsl_tensor::parallel::parallel_map(threads, |i| i);
    let watch = Stopwatch::start("bench.dispatch_overhead");
    for _ in 0..k {
        let r = tcsl_tensor::parallel::parallel_map(threads, |i| i);
        std::hint::black_box(&r);
    }
    let per_dispatch_us = watch.stop() / k as f64 * 1e6;
    std::env::remove_var("TCSL_THREADS");
    per_dispatch_us
}

/// One instrumented parallel pretrain rep, returning the pool's
/// per-thread span aggregates (`pool.worker.NN` busy time per worker plus
/// the caller's own `pool.caller` share) as a JSON object keyed by span
/// path. Runs against the in-memory trace sink and resets all telemetry
/// state afterwards so the timed legs stay uninstrumented.
fn per_thread_span_json(
    threads: usize,
    bank0: &ShapeletBank,
    ds: &Dataset,
    cfg: &CslConfig,
) -> String {
    std::env::set_var("TCSL_THREADS", threads.to_string());
    tcsl_obs::trace::use_memory_sink();
    tcsl_obs::set_enabled(true);
    tcsl_obs::counters::reset();
    tcsl_obs::hist::reset();
    tcsl_obs::spans::reset();
    let mut bank = bank0.clone();
    let _ = pretrain(&mut bank, ds, cfg);
    let mut rows: Vec<(String, u64, f64)> = tcsl_obs::spans::span_snapshot()
        .into_iter()
        .filter(|(path, _)| {
            let leaf = path.rsplit('/').next().unwrap_or(path);
            leaf.starts_with("pool.worker.") || leaf == "pool.caller"
        })
        .map(|(path, s)| (path, s.count, s.total_ns as f64 / 1e6))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    tcsl_obs::set_enabled(false);
    tcsl_obs::trace::reset_sink();
    tcsl_obs::counters::reset();
    tcsl_obs::spans::reset();
    std::env::remove_var("TCSL_THREADS");
    let mut json = String::from("{");
    for (i, (path, count, total_ms)) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{path}\":{{\"count\":{count},\"busy_ms\":{total_ms:.3}}}"
        );
    }
    json.push('}');
    json
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // One worker per core when the host has them; otherwise oversubscribe
    // so the parallel code path (worker threads + reduction) still runs.
    let parallel_threads = if host_cores > 1 { host_cores } else { 4 };
    let reps = if smoke { 1 } else { 3 };

    let entry = archive::by_name("MotifEasy").expect("MotifEasy in archive");
    let (train, _test) = archive::generate_split(&entry, 11);
    let train = train.znormed();

    let shapelet_cfg = ShapeletConfig {
        lengths: vec![8, 16],
        k_per_group: if smoke { 2 } else { 4 },
        measures: vec![Measure::Euclidean, Measure::Cosine],
        stride: 1,
    };

    // Parallelism in pretrain fans out per view pair = per grain, so the
    // grain count bounds the usable worker count per batch.
    let cases = if smoke {
        vec![Case {
            label: "smoke_2grains",
            epochs: 1,
            grains: vec![0.75, 1.0],
        }]
    } else {
        vec![
            Case {
                label: "motif_easy_3grains",
                epochs: 3,
                grains: vec![0.5, 0.75, 1.0],
            },
            Case {
                label: "motif_easy_5grains",
                epochs: 3,
                grains: vec![0.4, 0.55, 0.7, 0.85, 1.0],
            },
        ]
    };

    let mut entries = Vec::new();
    for case in &cases {
        let mut bank = ShapeletBank::new(&shapelet_cfg, train.n_vars());
        init_from_data(&mut bank, &train, 4, &mut seeded(1));
        let cfg = CslConfig {
            epochs: case.epochs,
            batch_size: 16,
            grains: case.grains.clone(),
            validation_frac: 0.1,
            seed: 7,
            ..Default::default()
        };

        let serial = run_leg(1, &bank, &train, &cfg, reps);

        // Full mode only: assert the telemetry layer is effectively free
        // when disabled — the priced-out gate cost of every hit one run
        // generates must stay under 1% of the serial leg's wall time.
        let (obs_hits, obs_overhead_secs) = if smoke {
            (0, 0.0)
        } else {
            disabled_overhead_bound(&bank, &train, &cfg)
        };
        let obs_overhead_frac = obs_overhead_secs / serial.best_secs;
        if !smoke {
            assert!(
                obs_overhead_frac < 0.01,
                "case {}: disabled instrumentation overhead bound ({:.3e}s over {} hits) \
                 is not under 1% of the serial leg ({:.4}s)",
                case.label,
                obs_overhead_secs,
                obs_hits,
                serial.best_secs
            );
        }

        let parallel = run_leg(parallel_threads, &bank, &train, &cfg, reps);
        let deterministic = legs_identical(&serial, &parallel);
        assert!(
            deterministic,
            "case {}: serial and parallel runs diverged — the fixed-order \
             reduction contract is broken",
            case.label
        );
        let speedup = serial.best_secs / parallel.best_secs;

        // Per-thread busy time under the pool: one instrumented rep,
        // separate from the timed legs above.
        let thread_spans = per_thread_span_json(parallel_threads, &bank, &train, &cfg);

        // Old-vs-new training path, both serial so the allocation and
        // wall-clock numbers are directly comparable: the eager-graph
        // oracle (materialized window leaves) vs the fused custom op.
        let oracle_cfg = CslConfig {
            diff_path: DiffPath::Oracle,
            ..cfg.clone()
        };
        let oracle = run_leg(1, &bank, &train, &oracle_cfg, reps);
        assert!(
            serial.allocs.peak_extra < oracle.allocs.peak_extra,
            "case {}: fused-path training peak allocation ({:.4} MiB) is not below the \
             oracle path's ({:.4} MiB) — the zero-materialization contract is broken",
            case.label,
            serial.allocs.peak_extra_mb(),
            oracle.allocs.peak_extra_mb()
        );
        let peak_ratio = oracle.allocs.peak_extra as f64 / serial.allocs.peak_extra.max(1) as f64;

        let mut entry = String::new();
        let _ = write!(
            entry,
            "{{\"case\":\"{}\",\"epochs\":{},\"grains\":{},\"batch_size\":{},\"serial_secs\":{:.4},\"parallel_secs\":{:.4},\"parallel_threads\":{},\"speedup\":{:.2},\"deterministic\":{},\"serial\":{},\"parallel\":{},\"oracle_serial\":{},\"oracle_over_fused_peak_alloc\":{:.2},\"obs_hits\":{},\"obs_disabled_overhead_frac\":{:.6},\"per_thread_spans\":{},\"losses\":{}}}",
            case.label,
            case.epochs,
            case.grains.len(),
            cfg.batch_size,
            serial.best_secs,
            parallel.best_secs,
            parallel_threads,
            speedup,
            deterministic,
            leg_json(&serial),
            leg_json(&parallel),
            leg_json(&oracle),
            peak_ratio,
            obs_hits,
            obs_overhead_frac,
            thread_spans,
            loss_json(&serial.report)
        );
        println!("{entry}");
        entries.push(entry);
    }

    // The fan-out tax in isolation: fixed per-dispatch cost of the pool,
    // independent of any training workload.
    let overhead_dispatches = if smoke { 200 } else { 2000 };
    let pool_overhead = format!(
        "{{\"threads\":{},\"dispatches\":{},\"pool_dispatch_us\":{:.2}}}",
        parallel_threads,
        overhead_dispatches,
        dispatch_overhead(parallel_threads, overhead_dispatches)
    );

    let report = format!(
        "{{\"bench\":\"pretrain\",\"schema_version\":{},\"host\":{},\"pool_overhead\":{},\"unit_note\":\"serial = TCSL_THREADS=1, parallel = one worker per core (oversubscribed to 4 on 1-core hosts, where no speedup is possible) on the persistent pool; oracle_serial = eager-graph diff path (materialized window leaves) on 1 thread; secs are min over {} runs; peak_alloc_mb = high-water mark above pre-call live bytes (min over runs); deterministic = bit-identical losses and final shapelets, serial vs parallel (asserted); pool_overhead prices one near-empty pool dispatch in microseconds; per_thread_spans = busy-time of each pool context over one instrumented rep\",\"cases\":[\n  {}\n]}}\n",
        tcsl_bench::contract::SCHEMA_VERSION,
        tcsl_bench::contract::host_record(),
        pool_overhead,
        reps,
        entries.join(",\n  ")
    );
    tcsl_bench::contract::write_report(
        "BENCH_pretrain.json",
        "pretrain",
        &report,
        &[
            "host.cores",
            "pool_overhead.pool_dispatch_us",
            "cases[].serial.peak_alloc_mb",
            "cases[].oracle_serial",
            "cases[].per_thread_spans",
            "cases[].deterministic=true",
        ],
    );
}
