//! Transform benchmark trajectory: naive (unfold + matmul oracle) vs the
//! fused streaming kernel, with wall-clock throughput and allocator
//! pressure per series.
//!
//! Run from the repo root:
//!
//! ```text
//! cargo run --release -p tcsl-bench --bin bench_transform          # full
//! cargo run --release -p tcsl-bench --bin bench_transform -- --smoke
//! ```
//!
//! Prints a one-line JSON summary per configuration and writes the full
//! report to `BENCH_transform.json` (see EXPERIMENTS.md for the format).

use std::fmt::Write as _;

use tcsl_bench::alloc_track::{alloc_profile, CountingAlloc};
use tcsl_data::TimeSeries;
use tcsl_obs::spans::Stopwatch;
use tcsl_shapelet::transform::{transform_series, transform_series_oracle};
use tcsl_shapelet::{ShapeletBank, ShapeletConfig};
use tcsl_tensor::rng::seeded;
use tcsl_tensor::Tensor;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seconds per call: the fastest of `batches` batches, each sized to
/// ~`batch_secs`. Min-of-batches filters out scheduling noise from shared
/// machines, which would otherwise dominate the naive/fused ratio run to
/// run.
fn time_per_call<F: FnMut()>(mut f: F, (batches, batch_secs): (usize, f64)) -> f64 {
    f(); // warm-up (page in buffers, populate the bank cache)
    let probe = Stopwatch::start("bench.transform_probe");
    f();
    let once = probe.stop();
    let iters = ((batch_secs / once.max(1e-9)) as usize).clamp(2, 4_000);
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let watch = Stopwatch::start("bench.transform_batch");
        for _ in 0..iters {
            f();
        }
        best = best.min(watch.stop() / iters as f64);
    }
    best
}

struct EngineReport {
    secs_per_series: f64,
    series_per_sec: f64,
    peak_extra_mb: f64,
    total_mb_per_series: f64,
    bytes_streamed_per_series: u64,
}

fn profile_engine<F: FnMut()>(mut f: F, bytes_streamed: u64, timing: (usize, f64)) -> EngineReport {
    let secs = time_per_call(&mut f, timing);
    let ((), allocs) = alloc_profile(&mut f);
    EngineReport {
        secs_per_series: secs,
        series_per_sec: 1.0 / secs,
        peak_extra_mb: allocs.peak_extra_mb(),
        total_mb_per_series: allocs.total_mb(),
        bytes_streamed_per_series: bytes_streamed,
    }
}

fn engine_json(r: &EngineReport) -> String {
    format!(
        "{{\"ms_per_series\":{:.4},\"series_per_sec\":{:.2},\"peak_alloc_mb\":{:.4},\"total_alloc_mb_per_series\":{:.4},\"bytes_streamed_per_series\":{}}}",
        r.secs_per_series * 1e3,
        r.series_per_sec,
        r.peak_extra_mb,
        r.total_mb_per_series,
        r.bytes_streamed_per_series
    )
}

/// Modeled bytes of tap + window traffic one transform call streams, per
/// series (the quantity the quantized bank halves on the tap side). Fused:
/// every window re-reads all `K` tap rows (`tap_bytes` each) and is itself
/// read once per 4-shapelet block. Naive: the unfold writes + matmul reads
/// the window matrix, and the matmul streams the f32 tap matrix once per
/// window row.
fn modeled_bytes_streamed(bank: &ShapeletBank, t: usize, tap_elt_bytes: usize, naive: bool) -> u64 {
    let mut total = 0u64;
    for g in bank.groups() {
        let width = bank.d * g.len;
        let n = tcsl_tensor::window::count_windows(t.max(g.len), g.len, g.stride) as u64;
        total += if naive {
            // unfold write + matmul read of each window row, f32 taps
            // re-streamed per window.
            n * (width as u64) * 8 + n * (g.k() * width) as u64 * 4
        } else {
            n * (g.k() * width * tap_elt_bytes) as u64 + n * (g.k().div_ceil(4) * width) as u64 * 4
        };
    }
    total
}

struct Case {
    label: &'static str,
    t: usize,
    d: usize,
    cfg: ShapeletConfig,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // (batches, seconds per batch): smoke mode only checks the report's
    // shape.
    let timing = if smoke { (2, 0.02) } else { (5, 0.2) };
    // The headline configuration of the acceptance criteria — the paper's
    // adaptive config (lengths p·T for p up to 0.8, K=10, stride 1) on a
    // 4096-step series — plus smaller grid points for the trajectory.
    let cases = if smoke {
        vec![Case {
            label: "smoke_adaptive_T128_d1",
            t: 128,
            d: 1,
            cfg: ShapeletConfig::adaptive(128),
        }]
    } else {
        vec![
            Case {
                label: "adaptive_T512_d1",
                t: 512,
                d: 1,
                cfg: ShapeletConfig::adaptive(512),
            },
            Case {
                label: "adaptive_T1024_d3",
                t: 1024,
                d: 3,
                cfg: ShapeletConfig::adaptive(1024),
            },
            Case {
                label: "adaptive_T4096_d1",
                t: 4096,
                d: 1,
                cfg: ShapeletConfig::adaptive(4096),
            },
            Case {
                label: "capped256_T4096_d1",
                t: 4096,
                d: 1,
                cfg: ShapeletConfig::adaptive_long(4096, 256),
            },
            // A series above 1 MiB (3 × 100 000 f32), which outgrows L2.
            Case {
                label: "large_T100000_d3",
                t: 100_000,
                d: 3,
                cfg: ShapeletConfig {
                    lengths: vec![32, 128],
                    ..ShapeletConfig::adaptive(100_000)
                },
            },
        ]
    };

    let mut entries = Vec::new();
    for case in &cases {
        let mut rng = seeded(7);
        let mut bank = ShapeletBank::new(&case.cfg, case.d);
        bank.randomize(&mut rng);
        let series = TimeSeries::new(Tensor::randn([case.d, case.t], &mut rng));

        let naive = profile_engine(
            || {
                std::hint::black_box(transform_series_oracle(&bank, &series));
            },
            modeled_bytes_streamed(&bank, case.t, 4, true),
            timing,
        );
        let fused = profile_engine(
            || {
                std::hint::black_box(
                    transform_series(&bank, &series).expect("bench series are well-formed"),
                );
            },
            modeled_bytes_streamed(&bank, case.t, 4, false),
            timing,
        );
        let speedup = naive.secs_per_series / fused.secs_per_series;

        let mut entry = String::new();
        let _ = write!(
            entry,
            "{{\"case\":\"{}\",\"t\":{},\"d\":{},\"stride\":{},\"lengths\":{:?},\"k_per_group\":{},\"naive\":{},\"fused\":{},\"speedup\":{:.2}}}",
            case.label,
            case.t,
            case.d,
            case.cfg.stride,
            case.cfg.lengths,
            case.cfg.k_per_group,
            engine_json(&naive),
            engine_json(&fused),
            speedup
        );
        println!("{entry}");
        entries.push(entry);
    }

    let report = format!(
        "{{\"bench\":\"transform\",\"schema_version\":{},\"host\":{},\"smoke\":{},\"unit_note\":\"naive = unfold+matmul oracle, fused = streaming kernel; ms_per_series = fastest of {} batches of ~{}s; peak_alloc_mb = high-water mark above pre-call live bytes\",\"cases\":[\n  {}\n]}}\n",
        tcsl_bench::contract::SCHEMA_VERSION,
        tcsl_bench::contract::host_record(),
        smoke,
        timing.0,
        timing.1,
        entries.join(",\n  ")
    );
    tcsl_bench::contract::write_report(
        "BENCH_transform.json",
        "transform",
        &report,
        &[
            "host.cores",
            "cases[].speedup",
            "cases[].naive.ms_per_series",
            "cases[].fused.ms_per_series",
            "cases[].fused.peak_alloc_mb",
            "cases[].fused.bytes_streamed_per_series",
        ],
    );
}
