//! Drives every workload end to end in smoke mode, traced and untraced,
//! and checks the JSON result line that ends its output.

use std::process::Command;
use tcsl_obs::json::{parse, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke run and returns its parsed result line and the lines
/// printed before it.
fn run(workload: &str, trace: bool) -> (JsonValue, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("benchmark starts");
    assert!(out.status.success(), "{workload}: {:?}", out);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.pop().expect("a result line");
    (parse(&last).expect("result line is JSON"), lines)
}

/// Per-layer metrics each workload must report as non-zero: the layers it
/// passes through.
fn layers_of(workload: &str) -> &'static [&'static str] {
    const POOL: [&str; 3] = [
        "tensor.pool.dispatches",
        "tensor.pool.busy_share",
        "tensor.dot.calls",
    ];
    match workload {
        "pretrain" => &[
            "core.trainer.pairs_per_s",
            "core.trainer.batch_p50_ms",
            "core.views.sample_ms",
            "shapelet.diff_op.forward_ms",
            "core.loss.ms",
            "autodiff.graph.backward_ms",
            "autodiff.optim.step_ms",
            "shapelet.window_cache.hit_ratio",
            "core.pipeline.model_write_ms",
            POOL[0],
            POOL[1],
            POOL[2],
        ],
        "serve" => &[
            "data.io.parse_ms",
            "data.io.parse_mb_per_s",
            "core.pipeline.model_parse_ms",
            "core.pipeline.model_kib",
            "shapelet.quant.transform_ms",
            "shapelet.quant.series_per_s",
            "shapelet.quant.gb_per_s",
            "tensor.quant.f16_scalar_share",
            "analyzers.classify.svm_ms",
            "analyzers.cluster.kmeans_ms",
            POOL[0],
            POOL[1],
            POOL[2],
        ],
        _ => &[
            "explore.session.open_ms",
            "shapelet.fused.transform_ms",
            "shapelet.fused.series_per_s",
            "shapelet.fused.gb_per_s",
            "shapelet.matching.match_p50_us",
            "shapelet.matching.match_p90_us",
            "explore.svg.render_p50_us",
            "explore.tsne_ms",
            "explore.session.reanalysis_ms",
            "analyzers.classify.svm_ms",
            "analyzers.cluster.kmeans_ms",
            "tensor.pairdist.tiles",
            POOL[0],
            POOL[1],
            POOL[2],
        ],
    }
}

fn check(workload: &str, trace: bool, failed_share: f64) {
    let (result, preamble) = run(workload, trace);
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}"
    );
    let attempted = result.get("attempted").and_then(JsonValue::as_u64).unwrap();
    let failed = result.get("failed").and_then(JsonValue::as_u64).unwrap();
    assert!(attempted >= 1);
    assert_eq!(failed as f64 / attempted as f64, failed_share, "{workload}");
    let printed: Vec<(String, String)> = result
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string();
            (name.clone(), unit)
        })
        .collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(printed, declared(section), "{workload} trace={trace}");
    assert!(preamble.iter().any(|l| l.starts_with("{\"host\":")));
    let value = |k: &str| {
        result
            .get("metrics")
            .unwrap()
            .get(k)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    let nonzero: &[&str] = if trace {
        layers_of(workload)
    } else {
        &[
            "setup_s",
            "op_p50_ms",
            "op_cpu_ms",
            "peak_heap_mb",
            "accuracy",
            "nmi",
        ]
    };
    for k in nonzero {
        assert!(value(k) > 0.0, "{workload}: {k} is {}", value(k));
    }
}

#[test]
fn pretrain_runs_and_checks() {
    check("pretrain", false, 0.0);
    check("pretrain", true, 0.0);
}

#[test]
fn serve_runs_and_checks() {
    check("serve", false, 0.0);
    check("serve", true, 0.0);
}

#[test]
fn explore_counts_its_minmax_sessions_as_failed() {
    // One session in four runs the MinMax copy of the bank, whose matches
    // are normalized with a z-score and so miss the cached features.
    check("explore", false, 0.25);
    check("explore", true, 0.25);
}

#[test]
fn bad_arguments_exit_with_an_error_and_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "serve", "--trace", "2"],
        &["--workload", "serve", "--seconds", "-1"],
        &["--workload", "serve", "--seed"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
