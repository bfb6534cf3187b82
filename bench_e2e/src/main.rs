//! End-to-end benchmark of the TimeCSL pipeline.
//!
//! ```text
//! bench_e2e --workload <pretrain|serve|explore> [--seed N] [--seconds S]
//!           [--trace 0|1] [--repeat N] [--smoke]
//! ```
//!
//! One run sets up the workload from its seed, runs its operation in a
//! closed loop with one client for `--seconds` (finishing the round in
//! progress), checks every output, and prints one JSON result as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `--repeat N` runs N such runs in
//! child processes on seeds `seed..seed+N` and prints each metric's median
//! and quartiles. `--smoke` shrinks every input so the benchmark's own
//! tests can drive every workload and check. See README.md.

mod common;
mod explore;
mod harness;
mod host;
mod metrics;
mod pretrain;
mod reference;
mod serve;
mod timing;

use harness::{RunArgs, RunReport};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: tcsl_obs::alloc_track::CountingAlloc = tcsl_obs::alloc_track::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["pretrain", "serve", "explore"];

struct Cli {
    workload: String,
    run: RunArgs,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        run: RunArgs {
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        },
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.run.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.run.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                cli.run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                cli.run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                cli.repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| bad("a positive integer"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench_e2e --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
                 [--repeat N] [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(n) = cli.repeat {
        return repeat(&cli, n);
    }
    // Every workload runs with one pool worker per core. The pool re-reads
    // the variable on each dispatch; it is set before any thread starts.
    std::env::set_var("TCSL_THREADS", harness::threads().to_string());
    let report = match cli.workload.as_str() {
        "pretrain" => harness::run::<pretrain::Pretrain>(&cli.run, process_start),
        "serve" => harness::run::<serve::Serve>(&cli.run, process_start),
        _ => harness::run::<explore::Explore>(&cli.run, process_start),
    };
    match report {
        Ok(report) => {
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_report(report: &RunReport) {
    for line in &report.preamble {
        println!("{line}");
    }
    println!("{}", harness::result_line(report));
}

/// Runs the workload `n` times in child processes, one seed each, and
/// prints every metric's median and quartiles (Python's
/// `statistics.quantiles(n=4)`) with the spread `(q3 - q1) / median`.
fn repeat(cli: &Cli, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    let mut all_correct = true;
    for r in 0..n {
        let seed = cli.run.seed + r as u64;
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", &cli.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cli.run.seconds.to_string()])
            .args(["--trace", if cli.run.trace { "1" } else { "0" }]);
        if cli.run.smoke {
            cmd.arg("--smoke");
        }
        let out = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("error: run with seed {seed} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot start run with seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default().to_string();
        let parsed = match tcsl_obs::json::parse(&last) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: run with seed {seed} printed no result: {e}");
                return ExitCode::FAILURE;
            }
        };
        all_correct &= parsed.get("correct") == Some(&tcsl_obs::json::JsonValue::Bool(true));
        let attempted = parsed
            .get("attempted")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let failed = parsed.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0);
        shares.push(failed / attempted.max(1.0));
        for (name, m) in parsed
            .get("metrics")
            .and_then(|m| m.as_obj())
            .unwrap_or_default()
        {
            if let Some(v) = m.get("value").and_then(|v| v.as_f64()) {
                values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    use tcsl_obs::json::{write_f64, write_str};
    let mut s = String::from("{\"repeat\":");
    s.push_str(&n.to_string());
    s.push_str(",\"workload\":");
    write_str(&mut s, &cli.workload);
    s.push_str(",\"all_correct\":");
    s.push_str(if all_correct { "true" } else { "false" });
    s.push_str(",\"failed_share\":[");
    for (j, v) in shares.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        write_f64(&mut s, *v);
    }
    s.push_str("],\"metrics\":{");
    for (j, (name, vs)) in values.iter().enumerate() {
        if j > 0 {
            s.push(',');
        }
        write_str(&mut s, name);
        let med = timing::median(vs);
        let better = metrics::lookup(name).map_or("", |d| {
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        });
        s.push_str(":{\"better\":");
        write_str(&mut s, better);
        s.push_str(",\"median\":");
        write_f64(&mut s, med);
        if let Some([q1, _, q3]) = timing::quartiles(vs) {
            s.push_str(",\"q1\":");
            write_f64(&mut s, q1);
            s.push_str(",\"q3\":");
            write_f64(&mut s, q3);
            s.push_str(",\"spread\":");
            write_f64(
                &mut s,
                if med != 0.0 {
                    (q3 - q1) / med.abs()
                } else {
                    0.0
                },
            );
        }
        s.push('}');
    }
    s.push_str("}}");
    println!("{s}");
    ExitCode::SUCCESS
}
