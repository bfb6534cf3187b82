//! `timecsl` — command-line front end to the TimeCSL pipeline, mirroring
//! the demo's four steps headlessly on CSV datasets (see
//! `tcsl_data::io` for the format: `series,label,variable,t,value`).
//!
//! ```text
//! timecsl pretrain  <train.csv> <model.tcsl> [epochs]   # steps 1–2
//! timecsl quantize  <model.tcsl> <f16> [out.tcsl]       # half-width taps
//! timecsl transform <model.tcsl> <data.csv> <out.csv>   # features to CSV
//! timecsl classify  <model.tcsl> <train.csv> <test.csv> # freeze-mode SVM
//! timecsl cluster   <model.tcsl> <data.csv> <k>         # freeze-mode k-means
//! timecsl match     <model.tcsl> <data.csv> <series> <feature> <out.svg>
//! timecsl info      <data.csv|data.ts>                  # dataset summary
//! timecsl report    <model.tcsl> <data.csv> <out.html>  # Fig.3-style report
//! timecsl demo                                          # synthetic end-to-end run
//! timecsl trace     <RUN_trace.json> [--collapsed] [--diff <baseline.json>]
//!                   [--bench-diff <baseline.json>] [--threshold <pct>]
//!                   [--ignore <prefix>]...              # trace report / perf gate
//! ```
//!
//! Datasets are loaded by extension: `.ts` (sktime/UEA) or CSV (long format).
//!
//! **Errors.** Every failure is a typed [`TcslError`]: one line on stderr,
//! and a process exit code pinned to the error class (see the README's
//! exit-code table — `Config`=2, `Io`=3, `Parse`=4, `ModelFormat`=5,
//! `ShapeMismatch`=6, `EmptyInput`=7, `NonFiniteInput`=8, `Internal`=9).
//! With `TCSL_TRACE=1` a failed run still writes a valid `RUN_trace.json`:
//! an `error` event carrying the class and message, plus an
//! `error.<class>` counter in the summary.

use std::process::ExitCode;
use timecsl::data::archive;
use timecsl::data::io;
use timecsl::eval::metrics::classification::accuracy;
use timecsl::eval::metrics::clustering::nmi;
use timecsl::explore::ExploreSession;
use timecsl::obs::alloc_track::CountingAlloc;
use timecsl::prelude::*;

// Counting allocator so trace events (`peak_alloc_mb`) and the run summary
// report real high-water marks; a few relaxed atomics per allocation.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The dispatch table: every subcommand name next to its handler, in the
/// order the usage line lists them. [`usage`] is generated from this
/// table, so a new verb can never silently drift out of the usage string
/// (pinned by the `usage_lists_every_subcommand` test below).
type Command = (&'static str, fn(&[String]) -> CliResult);

const COMMANDS: &[Command] = &[
    ("pretrain", cmd_pretrain),
    ("quantize", cmd_quantize),
    ("transform", cmd_transform),
    ("classify", cmd_classify),
    ("cluster", cmd_cluster),
    ("match", cmd_match),
    ("info", cmd_info),
    ("report", cmd_report),
    ("demo", cmd_demo),
    ("trace", cmd_trace),
];

fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|&(name, _)| name).collect();
    format!("usage: timecsl <{}> ... (see crate docs)", names.join("|"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().cloned().unwrap_or_default();
    // With TCSL_TRACE=1 this opens the JSONL stream up front, so every
    // command — even one that emits no events of its own — gets a run
    // summary at exit.
    timecsl::obs::trace::emit(timecsl::obs::trace::Event::new("run_start").str("cmd", cmd.clone()));
    let result = match COMMANDS.iter().find(|&&(name, _)| name == cmd) {
        Some(&(_, handler)) => handler(&args[1..]),
        None => Err(TcslError::config(usage())),
    };
    // A failed run still produces a complete, attributed trace: the error
    // event and the error.<class> counter land *before* finish_run seals
    // the summary.
    if let Err(e) = &result {
        timecsl::obs::counters::error_counter(e.class().name()).add(1);
        timecsl::obs::trace::emit(
            timecsl::obs::trace::Event::new("error")
                .str("class", e.class().name())
                .str("message", e.to_string()),
        );
    }
    // With TCSL_TRACE=1 the run streamed JSONL events as it went; close
    // the stream and write the aggregated counter/span summary next to it.
    if let Some(path) = timecsl::obs::trace::finish_run(&format!("timecsl {cmd}")) {
        eprintln!("wrote run summary to {}", path.display());
    }
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Handlers return the process exit code on success so the perf gate
/// (`trace --diff`) can exit non-zero on a regression breach (code 1 —
/// distinct from the error-class codes 2–9) without inventing an error.
type CliResult = TcslResult<ExitCode>;

/// The all-good return for commands with no exit-code semantics.
const OK: CliResult = Ok(ExitCode::SUCCESS);

fn arg<'a>(args: &'a [String], i: usize, what: &str) -> TcslResult<&'a str> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| TcslError::config(format!("missing argument: {what}")))
}

/// Parses a numeric CLI argument; a non-numeric value is a `Config`
/// (usage) error naming the argument and the offending text.
fn parse_arg<T: std::str::FromStr>(value: &str, what: &str) -> TcslResult<T> {
    value
        .parse()
        .map_err(|_| TcslError::config(format!("{what} must be a number, got '{value}'")))
}

/// Loads a dataset, dispatching on extension: `.ts` (sktime/UEA format)
/// or CSV (this crate's long format).
fn load(name: &str, path: &str) -> TcslResult<Dataset> {
    if path.ends_with(".ts") {
        timecsl::data::io_ts::load_ts(name, path).map(|f| f.dataset)
    } else {
        io::load_csv(name, path)
    }
}

fn cmd_pretrain(args: &[String]) -> CliResult {
    let train_path = arg(args, 0, "train.csv")?;
    let model_path = arg(args, 1, "model.tcsl")?;
    let epochs: usize = match args.get(2) {
        Some(s) => parse_arg(s, "epochs")?,
        None => 20,
    };
    if epochs == 0 {
        return Err(TcslError::config("epochs must be at least 1"));
    }
    let train = load("train", train_path)?;
    println!(
        "pre-training on {} series (D={})...",
        train.len(),
        train.n_vars()
    );
    let cfg = CslConfig {
        epochs,
        ..Default::default()
    };
    let (model, report) = TimeCsl::pretrain(&train, None, &cfg);
    print!("{}", report.learning_curve_ascii());
    model.save(model_path)?;
    println!("saved {} shapelets to {model_path}", model.repr_dim());
    OK
}

fn cmd_quantize(args: &[String]) -> CliResult {
    use timecsl::shapelet::BankPrecision;
    let model_path = arg(args, 0, "model.tcsl")?;
    let precision_arg = arg(args, 1, "precision (f16)")?;
    let out_path = args.get(2).map(String::as_str).unwrap_or(model_path);
    let scheme = BankPrecision::parse(precision_arg)
        .and_then(BankPrecision::scheme)
        .ok_or_else(|| {
            TcslError::config(format!("precision must be f16, got '{precision_arg}'"))
        })?;
    let mut model = TimeCsl::load(model_path)?;
    let before = model.precision();
    model.quantize(scheme)?;
    model.save(out_path)?;
    println!(
        "quantized {} shapelets {} -> {}, saved to {out_path}",
        model.repr_dim(),
        before.name(),
        model.precision().name()
    );
    OK
}

fn cmd_transform(args: &[String]) -> CliResult {
    let model = TimeCsl::load(arg(args, 0, "model.tcsl")?)?;
    let data = load("data", arg(args, 1, "data.csv")?)?;
    let out_path = arg(args, 2, "out.csv")?;
    let feats = model.transform(&data)?;
    let csv = io::matrix_to_csv(&feats, &model.feature_names());
    tcsl_error::write_file(out_path, &csv)?;
    println!(
        "wrote {}×{} features to {out_path}",
        feats.rows(),
        feats.cols()
    );
    OK
}

fn cmd_classify(args: &[String]) -> CliResult {
    let model = TimeCsl::load(arg(args, 0, "model.tcsl")?)?;
    let train = load("train", arg(args, 1, "train.csv")?)?;
    let test = load("test", arg(args, 2, "test.csv")?)?;
    let ytr = train
        .labels()
        .ok_or_else(|| TcslError::config("training csv has no labels"))?;
    let mut svm = LinearSvm::new();
    svm.fit(&model.transform(&train)?, ytr)?;
    let pred = svm.predict(&model.transform(&test)?)?;
    match test.labels() {
        Some(yte) => println!("accuracy = {:.4}", accuracy(&pred, yte)),
        None => println!("predictions: {pred:?}"),
    }
    OK
}

fn cmd_cluster(args: &[String]) -> CliResult {
    let model = TimeCsl::load(arg(args, 0, "model.tcsl")?)?;
    let data = load("data", arg(args, 1, "data.csv")?)?;
    let k: usize = parse_arg(arg(args, 2, "k")?, "k")?;
    if k == 0 {
        return Err(TcslError::config("k must be at least 1"));
    }
    let mut km = KMeans::new(k);
    let assign = km.fit_predict(&model.transform(&data)?)?;
    println!("assignments: {assign:?}");
    if let Some(labels) = data.labels() {
        println!("NMI vs labels = {:.4}", nmi(&assign, labels));
    }
    OK
}

fn cmd_match(args: &[String]) -> CliResult {
    let model = TimeCsl::load(arg(args, 0, "model.tcsl")?)?;
    let data = load("data", arg(args, 1, "data.csv")?)?;
    let series: usize = parse_arg(arg(args, 2, "series")?, "series")?;
    let feature: usize = parse_arg(arg(args, 3, "feature")?, "feature")?;
    let out = arg(args, 4, "out.svg")?;
    // Out-of-range indices are typed Config errors from the session.
    let session = ExploreSession::new(model, data)?;
    let m = session.match_shapelet(series, feature)?;
    println!(
        "best match at t={}..{} ({} score {:.4})",
        m.start,
        m.start + m.len,
        m.measure.name(),
        m.score
    );
    tcsl_error::write_file(out, &session.render_match(series, feature)?)?;
    println!("wrote {out}");
    OK
}

fn cmd_info(args: &[String]) -> CliResult {
    let path = arg(args, 0, "data.csv|data.ts")?;
    let data = load("data", path)?;
    print!("{}", timecsl::data::describe::describe(&data));
    OK
}

fn cmd_report(args: &[String]) -> CliResult {
    let model = TimeCsl::load(arg(args, 0, "model.tcsl")?)?;
    let data = load("data", arg(args, 1, "data.csv")?)?;
    let out = arg(args, 2, "out.html")?;
    let session = ExploreSession::new(model, data)?;
    let shapelets = session.suggest_shapelets(4);
    let html = timecsl::explore::html_report(
        &session,
        &timecsl::explore::ReportConfig {
            series: vec![0],
            shapelets: shapelets.clone(),
            table_columns: shapelets,
            ..Default::default()
        },
    )?;
    tcsl_error::write_file(out, &html)?;
    println!("wrote {out}");
    OK
}

/// A self-contained synthetic run: generate → save CSVs → pretrain →
/// classify, exercising every CLI path.
fn cmd_demo(_args: &[String]) -> CliResult {
    let dir = std::env::temp_dir().join("timecsl_cli_demo");
    std::fs::create_dir_all(&dir)
        .map_err(|e| TcslError::io(dir.to_string_lossy().into_owned(), e))?;
    // `require` lists every available dataset on a typo — same error a
    // user-supplied name would get.
    let entry = archive::require("MotifEasy")?;
    let (train, test) = archive::generate_split(&entry, 1);
    let train_csv = dir.join("train.csv");
    let test_csv = dir.join("test.csv");
    io::save_csv(&train, &train_csv)?;
    io::save_csv(&test, &test_csv)?;
    let model_path = dir.join("model.tcsl");
    cmd_pretrain(&[
        train_csv.to_string_lossy().into_owned(),
        model_path.to_string_lossy().into_owned(),
        "8".into(),
    ])?;
    cmd_classify(&[
        model_path.to_string_lossy().into_owned(),
        train_csv.to_string_lossy().into_owned(),
        test_csv.to_string_lossy().into_owned(),
    ])?;
    println!("demo artifacts in {}", dir.display());
    OK
}

/// `timecsl trace` — render, export, or gate on a `RUN_trace.json`
/// summary (see `timecsl::trace_tool` for the formats and the error
/// taxonomy). In `--diff`/`--bench-diff` mode a regression breach exits
/// with code 1; load failures exit with their error-class codes.
fn cmd_trace(args: &[String]) -> CliResult {
    let path = arg(args, 0, "RUN_trace.json")?;
    let mut collapsed = false;
    let mut diff_base: Option<&str> = None;
    let mut bench_base: Option<&str> = None;
    let mut cfg = timecsl::trace_tool::DiffConfig::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--collapsed" => collapsed = true,
            "--diff" => {
                i += 1;
                diff_base = Some(arg(args, i, "--diff <baseline.json>")?);
            }
            "--bench-diff" => {
                i += 1;
                bench_base = Some(arg(args, i, "--bench-diff <baseline.json>")?);
            }
            "--threshold" => {
                i += 1;
                cfg.threshold_pct = parse_arg(arg(args, i, "--threshold <pct>")?, "--threshold")?;
            }
            "--ignore" => {
                i += 1;
                cfg.ignore
                    .push(arg(args, i, "--ignore <prefix>")?.to_string());
            }
            other => {
                return Err(TcslError::config(format!(
                    "unknown trace option '{other}' (flags: --collapsed --diff --bench-diff \
                     --threshold --ignore)"
                )))
            }
        }
        i += 1;
    }
    if let Some(base) = bench_base {
        let cur = timecsl::trace_tool::load_bench_metrics(path)?;
        let baseline = timecsl::trace_tool::load_bench_metrics(base)?;
        return finish_diff(timecsl::trace_tool::diff_bench(&cur, &baseline, &cfg));
    }
    let summary = timecsl::trace_tool::load_summary(path)?;
    if collapsed {
        print!("{}", timecsl::trace_tool::render_collapsed(&summary));
        return OK;
    }
    if let Some(base) = diff_base {
        let baseline = timecsl::trace_tool::load_summary(base)?;
        return finish_diff(timecsl::trace_tool::diff(&summary, &baseline, &cfg));
    }
    print!("{}", timecsl::trace_tool::render_report(&summary));
    OK
}

/// Prints a diff report and maps breaches to the gate's exit code.
fn finish_diff(report: timecsl::trace_tool::DiffReport) -> CliResult {
    for line in &report.lines {
        println!("{line}");
    }
    if report.breaches.is_empty() {
        println!(
            "perf gate: OK ({} delta(s) within tolerance)",
            report.lines.len()
        );
        OK
    } else {
        eprintln!(
            "perf gate: {} regression(s): {}",
            report.breaches.len(),
            report.breaches.join(", ")
        );
        Ok(ExitCode::from(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite drift guard: with `trace` the CLI dispatches ten
    /// subcommands, and the generated usage string must name every one.
    #[test]
    fn usage_lists_every_subcommand() {
        let expected = [
            "pretrain",
            "quantize",
            "transform",
            "classify",
            "cluster",
            "match",
            "info",
            "report",
            "demo",
            "trace",
        ];
        assert_eq!(COMMANDS.len(), expected.len(), "dispatch table drifted");
        let names: Vec<&str> = COMMANDS.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, expected);
        let u = usage();
        for name in expected {
            assert!(u.contains(name), "usage string is missing '{name}': {u}");
        }
        // And the module doc (the long-form usage block) mentions each verb
        // too — the doc text is compiled into the binary's crate docs, so
        // this pins the human-readable listing as well.
        for name in expected {
            assert!(
                include_str!("timecsl.rs").contains(&format!("timecsl {name}")),
                "crate-docs usage block is missing 'timecsl {name}'"
            );
        }
    }
}
