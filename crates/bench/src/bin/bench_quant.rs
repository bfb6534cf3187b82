//! Quantized-inference benchmark: the fused transform served from an f32
//! and an f16 tap bank, on the paper's adaptive serving shape.
//!
//! ```text
//! cargo run --release -p tcsl-bench --bin bench_quant          # full
//! cargo run --release -p tcsl-bench --bin bench_quant -- --smoke
//! ```
//!
//! Per case and precision leg the bench reports ns/series, modeled bytes
//! streamed (taps + windows — the traffic the half-width bank halves on
//! the tap side), allocator pressure, the max |quantized − f32| transform
//! error, whether every shapelet's best-match window (argmin) agrees with
//! the f32 leg, and the `dot.dispatch.*` counts of one transform — which
//! kernel tier the leg's time was spent in. The report's `host` record
//! names the tiers the host CPU offers. Full mode asserts the f16 leg is
//! ≥ 1.5× faster than f32 at T=4096 with exact argmin parity; the error
//! column is bounded by the same analytic budget the proptests enforce.
//!
//! Prints a one-line JSON summary per case and writes the full report to
//! `BENCH_quant.json` (see EXPERIMENTS.md for the format).

use std::fmt::Write as _;

use tcsl_bench::alloc_track::{alloc_profile, CountingAlloc};
use tcsl_data::TimeSeries;
use tcsl_obs::spans::Stopwatch;
use tcsl_shapelet::matching::best_match;
use tcsl_shapelet::transform::transform_series;
use tcsl_shapelet::{BankPrecision, ShapeletBank, ShapeletConfig};
use tcsl_tensor::rng::seeded;
use tcsl_tensor::Tensor;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seconds per call for each closure, timed **interleaved**: every round
/// runs one batch of each leg back to back, and each leg keeps its fastest
/// round. Sequential per-leg timing (the `bench_transform` protocol) is
/// biased by slow drift — frequency scaling or a noisy neighbour between
/// the f32 leg and the quantized legs shows up as a phantom (de)speedup;
/// round-robin batches expose every leg to the same machine state.
fn time_legs<F: FnMut(usize)>(n_legs: usize, mut f: F, budget: f64, rounds: usize) -> Vec<f64> {
    let mut iters = vec![0usize; n_legs];
    for (leg, it) in iters.iter_mut().enumerate() {
        f(leg); // warm-up (page in buffers, populate the bank cache)
        let probe = Stopwatch::start("bench.quant_probe");
        f(leg);
        let once = probe.stop();
        *it = ((budget / once.max(1e-9)) as usize).clamp(2, 4_000);
    }
    let mut best = vec![f64::INFINITY; n_legs];
    for _ in 0..rounds {
        for leg in 0..n_legs {
            let watch = Stopwatch::start("bench.quant_batch");
            for _ in 0..iters[leg] {
                f(leg);
            }
            best[leg] = best[leg].min(watch.stop() / iters[leg] as f64);
        }
    }
    best
}

struct Leg {
    precision: BankPrecision,
    secs_per_series: f64,
    peak_extra_mb: f64,
    bytes_streamed_per_series: u64,
    max_transform_error: f64,
    argmin_agreement: bool,
    /// `{"dot.dispatch.<tier>": dots}` of one transform.
    dispatch: String,
}

/// Modeled bytes of tap + window traffic per fused transform call: every
/// window re-reads all `K` tap rows at the group's tap width (an f16 bank
/// keeps f32 taps on short spans), and is itself read once per 4-shapelet
/// block (f32 window data in every leg — only the tap stream changes
/// width).
fn modeled_bytes_streamed(bank: &ShapeletBank, t: usize) -> u64 {
    let mut total = 0u64;
    for (g, pre) in bank.groups().iter().zip(bank.precomputed()) {
        let width = bank.d * g.len;
        let n = tcsl_tensor::window::count_windows(t.max(g.len), g.len, g.stride) as u64;
        total += n * (g.k() * width * pre.bytes_per_tap()) as u64
            + n * (g.k().div_ceil(4) * width) as u64 * 4;
    }
    total
}

/// The `dot.dispatch.*` counters one traced `run` increments, as a JSON
/// object keyed by counter name.
fn dispatch_counts(run: impl FnOnce()) -> String {
    tcsl_obs::counters::reset();
    tcsl_obs::set_enabled(true);
    run();
    tcsl_obs::set_enabled(false);
    let tiers: Vec<String> = tcsl_obs::counters::counter_snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with("dot.dispatch."))
        .map(|(name, n)| format!("\"{name}\":{n}"))
        .collect();
    format!("{{{}}}", tiers.join(","))
}

/// Argmin parity: every (group, shapelet) localizes to the same window in
/// `bank` as in the f32 reference.
fn argmins_agree(reference: &ShapeletBank, bank: &ShapeletBank, series: &TimeSeries) -> bool {
    reference.groups().iter().enumerate().all(|(gi, g)| {
        (0..g.k()).all(|k| {
            best_match(reference, gi, k, series).start == best_match(bank, gi, k, series).start
        })
    })
}

fn profile_leg(
    bank: &ShapeletBank,
    reference: &ShapeletBank,
    series: &TimeSeries,
    full_feats: &[f32],
    t: usize,
    secs: f64,
) -> Leg {
    let mut run = || {
        std::hint::black_box(transform_series(bank, series).expect("bench series are well-formed"));
    };
    let ((), allocs) = alloc_profile(&mut run);
    let mut feats = Vec::new();
    let dispatch = dispatch_counts(|| {
        feats = transform_series(bank, series).expect("bench series are well-formed");
    });
    let max_err = feats
        .iter()
        .zip(full_feats)
        .map(|(&q, &f)| (q - f).abs() as f64)
        .fold(0f64, f64::max);
    Leg {
        precision: bank.precision(),
        secs_per_series: secs,
        peak_extra_mb: allocs.peak_extra_mb(),
        bytes_streamed_per_series: modeled_bytes_streamed(bank, t),
        max_transform_error: max_err,
        argmin_agreement: argmins_agree(reference, bank, series),
        dispatch,
    }
}

fn leg_json(leg: &Leg, f32_secs: f64) -> String {
    format!(
        "{{\"precision\":\"{}\",\"ns_per_series\":{:.0},\"series_per_sec\":{:.2},\"peak_alloc_mb\":{:.4},\"bytes_streamed_per_series\":{},\"max_transform_error\":{:.3e},\"argmin_agreement\":{},\"speedup_vs_f32\":{:.2},\"dispatch\":{}}}",
        leg.precision.name(),
        leg.secs_per_series * 1e9,
        1.0 / leg.secs_per_series,
        leg.peak_extra_mb,
        leg.bytes_streamed_per_series,
        leg.max_transform_error,
        leg.argmin_agreement,
        f32_secs / leg.secs_per_series,
        leg.dispatch
    )
}

struct Case {
    label: &'static str,
    t: usize,
    d: usize,
    cfg: ShapeletConfig,
    /// Full-mode acceptance case: the f16 leg must be ≥ 1.5× with exact
    /// argmin parity.
    gated: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { 0.02 } else { 0.2 };
    let cases: Vec<Case> = if smoke {
        vec![Case {
            label: "adaptive_T512_d1",
            t: 512,
            d: 1,
            cfg: ShapeletConfig::adaptive(512),
            gated: false,
        }]
    } else {
        vec![
            Case {
                label: "adaptive_T512_d1",
                t: 512,
                d: 1,
                cfg: ShapeletConfig::adaptive(512),
                gated: false,
            },
            Case {
                label: "adaptive_T1024_d3",
                t: 1024,
                d: 3,
                cfg: ShapeletConfig::adaptive(1024),
                gated: false,
            },
            Case {
                label: "adaptive_T4096_d1",
                t: 4096,
                d: 1,
                cfg: ShapeletConfig::adaptive(4096),
                gated: false,
            },
            // The acceptance shape: the paper's longest adaptive scale
            // (0.8·T) alone, with K a multiple of the engine's 4-shapelet
            // block. At this scale a 4-row tap block is ~52 KiB of f32 —
            // past L1 — so the transform is bound by the tap stream and
            // halving it shows up as wall-clock. The shorter adaptive
            // scales above are reported unguarded: their tap rows are cache
            // resident, so quantization saves memory, not time (see
            // EXPERIMENTS.md).
            Case {
                label: "serving_T4096_d1",
                t: 4096,
                d: 1,
                cfg: ShapeletConfig {
                    lengths: vec![3277],
                    k_per_group: 8,
                    measures: tcsl_shapelet::Measure::ALL.to_vec(),
                    stride: 1,
                },
                gated: true,
            },
        ]
    };

    let mut entries = Vec::new();
    for case in &cases {
        // Seed pinned per case: argmin parity on random data is a property
        // of the (bank, series) draw — near-ties can flip under a half-ULP
        // tap perturbation, which is exactly what the gated case must not
        // show on its committed draw.
        let mut rng = seeded(7);
        let mut bank = ShapeletBank::new(&case.cfg, case.d);
        bank.randomize(&mut rng);
        let series = TimeSeries::new(Tensor::randn([case.d, case.t], &mut rng));
        let full_feats = transform_series(&bank, &series).expect("bench series are well-formed");

        let mut f16_bank = bank.clone();
        f16_bank
            .quantize(tcsl_tensor::quant::QuantScheme::F16)
            .expect("bench taps are finite");
        let banks = [bank.clone(), f16_bank];
        let secs = time_legs(
            banks.len(),
            |leg| {
                std::hint::black_box(
                    transform_series(&banks[leg], &series).expect("bench series are well-formed"),
                );
            },
            budget,
            5,
        );

        let f32_secs = secs[0];
        let profiled: Vec<Leg> = banks
            .iter()
            .zip(&secs)
            .map(|(b, &leg_secs)| profile_leg(b, &bank, &series, &full_feats, case.t, leg_secs))
            .collect();
        let legs: Vec<String> = profiled.iter().map(|l| leg_json(l, f32_secs)).collect();

        let mut entry = String::new();
        let _ = write!(
            entry,
            "{{\"case\":\"{}\",\"t\":{},\"d\":{},\"stride\":{},\"lengths\":{:?},\"k_per_group\":{},\"legs\":[{}]}}",
            case.label,
            case.t,
            case.d,
            case.cfg.stride,
            case.cfg.lengths,
            case.cfg.k_per_group,
            legs.join(",")
        );
        println!("{entry}");
        entries.push(entry);

        // Gate after printing, so a failing run still shows its numbers.
        if !smoke && case.gated {
            for (b, leg) in banks.iter().zip(&profiled) {
                if b.precision() == BankPrecision::Full {
                    continue;
                }
                let speedup = f32_secs / leg.secs_per_series;
                assert!(
                    speedup >= 1.5,
                    "{}: {} only {speedup:.2}x faster than f32 (need >= 1.5x)",
                    case.label,
                    b.precision().name()
                );
                assert!(
                    leg.argmin_agreement,
                    "{}: {} argmin disagrees with f32",
                    case.label,
                    b.precision().name()
                );
            }
        }
    }

    let report = format!(
        "{{\"bench\":\"quant\",\"schema_version\":{},\"host\":{},\"unit_note\":\"fused transform from an f32 vs an f16 tap bank; bytes_streamed_per_series = modeled tap+window traffic (an f16 bank keeps f32 taps on spans under 64 steps); max_transform_error vs the f32 leg; argmin_agreement = every shapelet localizes to the same window; dispatch = dot.dispatch.* counts of one transform, i.e. the kernel tiers the leg ran on\",\"cases\":[\n  {}\n]}}\n",
        tcsl_bench::contract::SCHEMA_VERSION,
        tcsl_bench::contract::host_record(),
        entries.join(",\n  ")
    );
    tcsl_bench::contract::write_report(
        "BENCH_quant.json",
        "quant",
        &report,
        &[
            "cases[].legs[].precision",
            "cases[].legs[].ns_per_series",
            "cases[].legs[].bytes_streamed_per_series",
            "cases[].legs[].max_transform_error",
            "cases[].legs[].speedup_vs_f32",
            "cases[].legs[].argmin_agreement=true",
            "cases[].legs[].dispatch",
            "host.cores",
            "host.avx2_fma",
            "host.f16c",
            "host.avx512f",
        ],
    );
}
