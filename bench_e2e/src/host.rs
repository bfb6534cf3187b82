//! The host record printed with every run, and the bandwidth and FMA
//! ceilings a traced run measures.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tcsl_obs::json::{write_f64, write_str};

/// CPU model name from `/proc/cpuinfo` (`unknown` elsewhere).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `{"host": {...}}`: core count, worker setting, CPU model and the
/// `dot.dispatch.*` tiers taken; a traced run adds the ceilings.
pub fn record(dispatch: &BTreeMap<&str, u64>, probes: bool) -> String {
    let mut s = String::from("{\"host\":{\"nproc\":");
    s.push_str(&crate::harness::threads().to_string());
    s.push_str(",\"tcsl_threads\":");
    write_str(&mut s, &std::env::var("TCSL_THREADS").unwrap_or_default());
    s.push_str(",\"cpu_model\":");
    write_str(&mut s, &cpu_model());
    s.push_str(",\"dispatch\":{");
    for (j, (k, v)) in dispatch.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        write_str(&mut s, k);
        s.push(':');
        s.push_str(&v.to_string());
    }
    s.push('}');
    if probes {
        s.push_str(",\"stream_read_gb_per_s\":");
        write_f64(&mut s, stream_read_gb_per_s());
        s.push_str(",\"fma_gflop_per_s\":");
        write_f64(&mut s, fma_gflop_per_s());
    }
    s.push_str("}}");
    s
}

/// Runs `f` on every core at once and returns the sum of what each
/// returns.
fn on_all_cores(f: fn() -> f64) -> f64 {
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..crate::harness::threads())
            .map(|_| sc.spawn(f))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread does not panic"))
            .sum()
    })
}

/// Streaming-read ceiling: every core sums its own 32 MiB buffer (beyond
/// the last-level cache) four times; GB/s over all cores.
fn stream_read_gb_per_s() -> f64 {
    on_all_cores(|| {
        let buf = vec![1.0f32; 8 << 20];
        let start = Instant::now();
        let mut lanes = [0.0f32; 16];
        for _ in 0..4 {
            for chunk in black_box(&buf).chunks_exact(16) {
                for (l, x) in lanes.iter_mut().zip(chunk) {
                    *l += x;
                }
            }
        }
        black_box(lanes);
        (4 * buf.len() * 4) as f64 / start.elapsed().as_secs_f64() * 1e-9
    })
}

/// Multiply-add ceiling: every core runs independent fused multiply-add
/// chains (AVX2 + FMA when the CPU has them, scalar otherwise); GFLOP/s
/// over all cores, two flops per multiply-add.
fn fma_gflop_per_s() -> f64 {
    on_all_cores(|| {
        const ITERS: usize = 200_000_000;
        let start = Instant::now();
        let flops = fma_chains(ITERS);
        flops / start.elapsed().as_secs_f64() * 1e-9
    })
}

#[cfg(target_arch = "x86_64")]
fn fma_chains(iters: usize) -> f64 {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: both target features were detected at run time just above.
        unsafe { fma_chains_avx2(iters) }
    } else {
        fma_chains_scalar(iters)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_chains(iters: usize) -> f64 {
    fma_chains_scalar(iters)
}

/// Ten independent 8-lane FMA chains (enough to cover the FMA latency on
/// two ports). Returns the flops executed.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: usize) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(black_box(0.999_999));
    let b = _mm256_set1_ps(black_box(1e-7));
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters / 10 {
        for x in acc.iter_mut() {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    black_box(acc);
    ((iters / 10) * 10 * 8 * 2) as f64
}

fn fma_chains_scalar(iters: usize) -> f64 {
    let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
    let mut acc = [1.0f32; 8];
    for _ in 0..iters / 8 {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    black_box(acc);
    ((iters / 8) * 8 * 2) as f64
}
