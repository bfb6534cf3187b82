//! Clocks, order statistics and the benchmark's own spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile of `xs` at `q` in `[0, 1]`; `0.0` when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method), so repeat-mode spreads read the same
/// as any external check of the same values. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cpu {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    /// CPU time consumed so far by every thread of this process (user +
    /// system), in seconds, at nanosecond resolution.
    pub fn process_cpu_s() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
        // 64-bit Linux) for the whole call, and the clock id is one Linux
        // always provides; the call writes only into `ts`.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

pub use cpu::process_cpu_s;

/// Where a span sits: inside a timed operation, or in the untimed replay
/// that follows a traced operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parent {
    /// A call made by the timed operation.
    Op,
    /// A call replayed after the operation to split it across layers.
    Replay,
}

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name (`crate.module.call`).
    pub name: &'static str,
    /// Index of the operation that caused it.
    pub op: usize,
    /// Whether it ran inside the operation or in its replay.
    pub parent: Parent,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// In-memory span log of the benchmark's own calls into the program's
/// layers. Disabled, it only runs the calls.
pub struct Recorder {
    enabled: bool,
    op: usize,
    parent: Parent,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that starts disabled.
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            op: 0,
            parent: Parent::Op,
            spans: Vec::new(),
        }
    }

    /// Switches recording on or off and names the operation later spans
    /// belong to.
    pub fn set(&mut self, enabled: bool, op: usize, parent: Parent) {
        self.enabled = enabled;
        self.op = op;
        self.parent = parent;
    }

    /// Runs `f`, recording it as a call named `name` when enabled.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.parent,
            dur_ns: start.elapsed().as_nanos() as u64,
        });
        out
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-operation total of the calls named `name`, in milliseconds, one
    /// entry per operation that made at least one such call.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<usize, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.dur_ns;
        }
        by_op.values().map(|&ns| ns as f64 * 1e-6).collect()
    }

    /// Every single call named `name`, in microseconds.
    pub fn calls_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-3)
            .collect()
    }

    /// Median over operations of the per-operation total of `name`, in ms.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.per_op_ms(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        assert!(process_cpu_s() > t0);
    }
}
