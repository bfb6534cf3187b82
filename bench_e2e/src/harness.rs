//! The closed-loop harness every workload runs under: set-up, timed
//! operations in whole rounds, per-operation checks, run-level checks, and
//! the end-to-end or per-layer report.

use crate::common::Quality;
use crate::metrics::{self, PER_LAYER};
use crate::timing::{median, process_cpu_s, Parent, Recorder};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tcsl_obs::alloc_track;
use tcsl_obs::hist::{HistStat, POOL_DISPATCH_WAIT_NS, TRAINER_BATCH_NS};

/// Set-up is repeated this many times per run and reported by its median.
const SETUP_REPS: usize = 3;

/// Command-line settings of one run.
#[derive(Debug)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase; the run finishes the round in progress.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
}

/// One workload: inputs, a timed operation, its checks, and its layers.
pub trait Workload: Sized {
    /// What an operation returns for checking.
    type Out;

    /// Generates the inputs from the seed and prepares the model.
    fn setup(args: &RunArgs) -> Result<Self, String>;

    /// Operations per round; every run attempts whole rounds, so the share
    /// of failed operations does not depend on the run's length.
    fn round_len(&self) -> usize {
        1
    }

    /// Operation `i`, recording its calls into layers on `rec`.
    fn run_op(&mut self, i: usize, rec: &mut Recorder) -> Result<Self::Out, String>;

    /// Checks operation `i`'s outputs (untimed).
    fn check(&mut self, i: usize, out: Self::Out) -> Result<(), String>;

    /// Untimed work after a traced operation: replays that split the
    /// operation across layers the benchmark cannot time from inside it.
    fn after_traced_op(&mut self, _i: usize, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }

    /// Run-level checks after the timed phase; returns the representation's
    /// quality.
    fn finish(&mut self, errors: &mut Vec<String>) -> Quality;

    /// Workload-specific per-layer metrics of a traced run.
    fn layer_metrics(&self, rec: &Recorder, ops: &[OpTrace]) -> Vec<(&'static str, f64)>;

    /// Input description for the run summary: `(key, value)` pairs.
    fn describe(&self) -> Vec<(&'static str, String)>;
}

/// Counters, histograms and clocks of one traced operation.
pub struct OpTrace {
    /// Operation index.
    pub i: usize,
    /// Wall time in seconds.
    pub wall_s: f64,
    /// Process CPU time in seconds.
    pub cpu_s: f64,
    /// Every `tcsl-obs` counter (work and schedule class) after the
    /// operation, counted from zero at its start.
    pub counters: BTreeMap<&'static str, u64>,
    /// `trainer.batch_ns` over the operation.
    pub batch_ns: HistStat,
    /// Sum of `pool.dispatch_wait_ns` over the operation.
    pub wait_ns: u64,
}

impl OpTrace {
    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the counters whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// The result of one run, ready to print.
pub struct RunReport {
    /// Whether every run-level check passed.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: usize,
    /// Operations whose checks failed.
    pub failed: usize,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra JSON lines printed before the result (host, summary, spans).
    pub preamble: Vec<String>,
}

fn reset_obs() {
    tcsl_obs::counters::reset();
    tcsl_obs::hist::reset();
    tcsl_obs::spans::reset();
    // The trainer emits per-epoch events while tracing; the memory sink
    // keeps them off disk and is drained here.
    drop(tcsl_obs::trace::take_events());
}

fn snapshot_obs() -> BTreeMap<&'static str, u64> {
    tcsl_obs::counters::counter_snapshot()
        .into_iter()
        .chain(tcsl_obs::counters::sched_counter_snapshot())
        .collect()
}

/// Worker count every workload runs with (`TCSL_THREADS`).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs workload `W` for one seed and returns its report.
pub fn run<W: Workload>(args: &RunArgs, process_start: Instant) -> Result<RunReport, String> {
    tcsl_obs::trace::use_memory_sink();
    tcsl_obs::set_enabled(false);
    let mut errors: Vec<String> = Vec::new();
    let mut rec = Recorder::new();

    // Set-up: inputs, model, one warm-up operation and its check.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut wl: Option<W> = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        drop(wl.take());
        let mut w = W::setup(args).map_err(|e| format!("set-up failed: {e}"))?;
        let warm = w.run_op(0, &mut rec).and_then(|out| w.check(0, out));
        if let Err(e) = warm {
            errors.push(format!("warm-up operation: {e}"));
        }
        setup_s.push(start.elapsed().as_secs_f64());
        wl = Some(w);
    }
    let mut wl = wl.expect("at least one set-up repetition");

    // Timed phase: closed loop, one client, whole rounds. A traced run
    // alternates traced and untraced rounds; the untraced ones price the
    // tracing itself.
    let round = wl.round_len();
    let budget = Duration::from_secs_f64(args.seconds);
    let baseline = alloc_track::live_bytes();
    let mut timed = Timed::default();
    let start = Instant::now();
    while timed.rounds == 0 || start.elapsed() < budget || (args.trace && timed.rounds < 2) {
        let traced = args.trace && timed.rounds.is_multiple_of(2);
        for _ in 0..round {
            let i = timed.ops.len();
            if traced {
                reset_obs();
                tcsl_obs::set_enabled(true);
            }
            rec.set(traced, i, Parent::Op);
            alloc_track::reset_counters();
            let (c0, w0) = (process_cpu_s(), Instant::now());
            let out = wl.run_op(i, &mut rec);
            let clock = OpClock {
                wall_s: w0.elapsed().as_secs_f64(),
                cpu_s: process_cpu_s() - c0,
                peak_mb: alloc_track::peak_bytes().saturating_sub(baseline) as f64
                    / (1024.0 * 1024.0),
                traced,
            };
            tcsl_obs::set_enabled(false);
            rec.set(false, i, Parent::Op);
            if traced {
                timed.traces.push(OpTrace {
                    i,
                    wall_s: clock.wall_s,
                    cpu_s: clock.cpu_s,
                    counters: snapshot_obs(),
                    batch_ns: TRAINER_BATCH_NS.stat(),
                    wait_ns: POOL_DISPATCH_WAIT_NS.stat().sum,
                });
            }
            timed.ops.push(clock);
            if let Err(e) = out.and_then(|o| wl.check(i, o)) {
                timed.failed += 1;
                *timed.failures.entry(e).or_default() += 1;
            }
            if traced {
                rec.set(true, i, Parent::Replay);
                if let Err(e) = wl.after_traced_op(i, &mut rec) {
                    errors.push(format!("replay after operation {i}: {e}"));
                }
                rec.set(false, i, Parent::Op);
            }
        }
        timed.rounds += 1;
    }
    timed.seconds = start.elapsed().as_secs_f64();

    // Run-level checks, with the program's counters on so the host record
    // can name the dispatch tiers the kernels took.
    reset_obs();
    tcsl_obs::set_enabled(true);
    let quality = wl.finish(&mut errors);
    tcsl_obs::set_enabled(false);
    let finish_counters = snapshot_obs();
    drop(tcsl_obs::trace::take_events());

    let dispatch: BTreeMap<&str, u64> = if args.trace {
        let mut sum = BTreeMap::new();
        for t in &timed.traces {
            for (k, v) in &t.counters {
                *sum.entry(*k).or_default() += v;
            }
        }
        sum
    } else {
        finish_counters
    }
    .into_iter()
    .filter(|(k, _)| k.starts_with("dot.dispatch."))
    .collect();

    let mut preamble = vec![crate::host::record(&dispatch, args.trace)];
    for (msg, n) in &timed.failures {
        eprintln!("failed check ({n} operations): {msg}");
    }
    for e in &errors {
        eprintln!("run-level check failed: {e}");
    }
    preamble.push(summary_line(&wl, args, &setup_s, &timed));

    let metrics = if args.trace {
        preamble.push(span_line(&rec, &timed.traces));
        let mut layer = generic_layer_metrics(&timed);
        layer.extend(wl.layer_metrics(&rec, &timed.traces));
        PER_LAYER
            .iter()
            .map(|d| {
                let v = layer
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map_or(0.0, |&(_, v)| v);
                (d.name, v)
            })
            .collect()
    } else {
        vec![
            ("setup_s", median(&setup_s)),
            ("op_p50_ms", median(&timed.column(|c| c.wall_s * 1e3))),
            ("op_cpu_ms", median(&timed.column(|c| c.cpu_s * 1e3))),
            ("peak_heap_mb", median(&timed.column(|c| c.peak_mb))),
            ("accuracy", quality.accuracy),
            ("nmi", quality.nmi),
        ]
    };
    Ok(RunReport {
        correct: errors.is_empty(),
        attempted: timed.ops.len(),
        failed: timed.failed,
        metrics,
        preamble,
    })
}

/// Clocks of one timed operation.
struct OpClock {
    wall_s: f64,
    cpu_s: f64,
    /// Highest live heap during the operation above the pre-timing
    /// baseline, in MiB.
    peak_mb: f64,
    traced: bool,
}

/// Everything the timed phase recorded.
#[derive(Default)]
struct Timed {
    ops: Vec<OpClock>,
    traces: Vec<OpTrace>,
    /// Failed-check messages and how many operations each failed.
    failures: BTreeMap<String, usize>,
    failed: usize,
    rounds: usize,
    seconds: f64,
}

impl Timed {
    fn column(&self, f: impl Fn(&OpClock) -> f64) -> Vec<f64> {
        self.ops.iter().map(f).collect()
    }

    /// Median wall time of the traced (or untraced) operations.
    fn wall_p50(&self, traced: bool) -> f64 {
        let walls: Vec<f64> = self
            .ops
            .iter()
            .filter(|c| c.traced == traced)
            .map(|c| c.wall_s)
            .collect();
        median(&walls)
    }
}

/// Per-layer metrics read from `tcsl-obs` counters and histograms and from
/// the operation clocks; the same for every workload.
fn generic_layer_metrics(timed: &Timed) -> Vec<(&'static str, f64)> {
    let traces = &timed.traces;
    let per_op = |f: &dyn Fn(&OpTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let mut batch = HistStat::empty();
    for t in traces {
        batch.merge(&t.batch_ns);
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let sum = |name: &str| traces.iter().map(|t| t.counter(name)).sum::<u64>();
    let f16_all =
        sum("dot.dispatch.f16_scalar") + sum("dot.dispatch.f16c") + sum("dot.dispatch.f16_avx512");
    let threads = threads() as f64;
    vec![
        ("core.trainer.batch_p50_ms", batch.quantile(0.5) * 1e-6),
        (
            "shapelet.window_cache.hit_ratio",
            ratio(
                sum("window_cache.hit"),
                sum("window_cache.hit") + sum("window_cache.miss"),
            ),
        ),
        (
            "tensor.quant.f16_scalar_share",
            ratio(sum("dot.dispatch.f16_scalar"), f16_all),
        ),
        (
            "tensor.pool.dispatches",
            per_op(&|t| t.counter("pool.dispatch") as f64),
        ),
        ("tensor.pool.wait_ms", per_op(&|t| t.wait_ns as f64 * 1e-6)),
        (
            "tensor.pool.busy_share",
            per_op(&|t| t.cpu_s / (t.wall_s * threads)),
        ),
        (
            "tensor.pairdist.tiles",
            per_op(&|t| t.counter("pairdist.tiles") as f64),
        ),
        (
            "tensor.dot.calls",
            per_op(&|t| t.counter_sum("dot.dispatch.") as f64),
        ),
        (
            "obs.trace_overhead",
            timed.wall_p50(true) / timed.wall_p50(false) - 1.0,
        ),
    ]
}

fn summary_line<W: Workload>(wl: &W, args: &RunArgs, setup_s: &[f64], timed: &Timed) -> String {
    use tcsl_obs::json::{write_f64, write_str};
    fn list(s: &mut String, key: &str, values: impl Iterator<Item = f64>) {
        s.push_str(&format!(",\"{key}\":["));
        for (j, v) in values.enumerate() {
            if j > 0 {
                s.push(',');
            }
            write_f64(s, v);
        }
        s.push(']');
    }
    let mut s = String::from("{\"summary\":{\"seed\":");
    s.push_str(&args.seed.to_string());
    s.push_str(",\"trace\":");
    s.push_str(if args.trace { "true" } else { "false" });
    s.push_str(",\"op_samples\":");
    s.push_str(&timed.ops.len().to_string());
    s.push_str(",\"rounds\":");
    s.push_str(&timed.rounds.to_string());
    s.push_str(",\"round_len\":");
    s.push_str(&wl.round_len().to_string());
    s.push_str(",\"timed_s\":");
    write_f64(&mut s, timed.seconds);
    list(&mut s, "setup_reps_s", setup_s.iter().copied());
    let round = |x: f64, scale: f64| (x * scale).round() / scale;
    list(
        &mut s,
        "op_walls_ms",
        timed.ops.iter().map(|c| round(c.wall_s * 1e3, 10.0)),
    );
    list(
        &mut s,
        "op_peak_heap_mb",
        timed.ops.iter().map(|c| round(c.peak_mb, 1e3)),
    );
    s.push_str(",\"failed_checks\":{");
    for (j, (msg, n)) in timed.failures.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        write_str(&mut s, msg);
        s.push(':');
        s.push_str(&n.to_string());
    }
    s.push_str("},\"inputs\":{");
    for (j, (k, v)) in wl.describe().iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        write_str(&mut s, k);
        s.push(':');
        write_str(&mut s, v);
    }
    s.push_str("}}}");
    s
}

/// The benchmark's spans, aggregated per call name: count, total and
/// median, plus the share of traced operation time no span covers.
fn span_line(rec: &Recorder, traces: &[OpTrace]) -> String {
    use tcsl_obs::json::{write_f64, write_str};
    let mut by_name: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for sp in rec.spans() {
        let parent = match sp.parent {
            Parent::Op => "op",
            Parent::Replay => "replay",
        };
        by_name
            .entry((parent, sp.name))
            .or_default()
            .push(sp.dur_ns as f64 * 1e-6);
    }
    let mut s = String::from("{\"spans\":{");
    for (j, ((parent, name), durs)) in by_name.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        write_str(&mut s, &format!("{parent}/{name}"));
        s.push_str(":{\"count\":");
        s.push_str(&durs.len().to_string());
        s.push_str(",\"total_ms\":");
        write_f64(&mut s, durs.iter().sum());
        s.push_str(",\"p50_ms\":");
        write_f64(&mut s, median(durs));
        s.push('}');
    }
    // Unattributed residual: traced operation wall time outside any span.
    let op_ms: f64 = traces.iter().map(|t| t.wall_s * 1e3).sum();
    let covered: f64 = rec
        .spans()
        .iter()
        .filter(|sp| sp.parent == Parent::Op && traces.iter().any(|t| t.i == sp.op))
        .map(|sp| sp.dur_ns as f64 * 1e-6)
        .sum();
    s.push_str("},\"traced_op_ms\":");
    write_f64(&mut s, op_ms);
    s.push_str(",\"unattributed_share\":");
    write_f64(
        &mut s,
        if op_ms > 0.0 {
            1.0 - covered / op_ms
        } else {
            0.0
        },
    );
    s.push('}');
    s
}

/// The result line: the last line of standard output.
pub fn result_line(report: &RunReport) -> String {
    use tcsl_obs::json::{write_f64, write_str};
    let mut s = String::from("{\"correct\":");
    s.push_str(if report.correct { "true" } else { "false" });
    s.push_str(",\"attempted\":");
    s.push_str(&report.attempted.to_string());
    s.push_str(",\"failed\":");
    s.push_str(&report.failed.to_string());
    s.push_str(",\"metrics\":{");
    for (j, (name, v)) in report.metrics.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        write_str(&mut s, name);
        s.push_str(":{\"value\":");
        write_f64(&mut s, *v);
        s.push_str(",\"unit\":");
        write_str(&mut s, metrics::lookup(name).map_or("", |d| d.unit));
        s.push('}');
    }
    s.push_str("}}");
    s
}
