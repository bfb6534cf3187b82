//! The metric catalogue. `BENCHMARK.json` at the repository root lists the
//! same names, units and directions; `tests/contract.rs` keeps the two in
//! step.

/// A metric's name, unit and whether higher values are better.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
    }
}

/// Metrics a user of the system sees; every workload reports all of them
/// from an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", false),
    m("op_p50_ms", "ms", false),
    m("op_cpu_ms", "ms", false),
    m("peak_heap_mb", "MiB", false),
    m("accuracy", "fraction", true),
    m("nmi", "fraction", true),
];

/// Metrics of single layers, reported by a traced run. A workload that
/// does not pass through a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.trainer.pairs_per_s", "pairs/s", true),
    m("core.trainer.batch_p50_ms", "ms", false),
    m("core.views.sample_ms", "ms", false),
    m("shapelet.diff_op.forward_ms", "ms", false),
    m("core.loss.ms", "ms", false),
    m("autodiff.graph.backward_ms", "ms", false),
    m("autodiff.optim.step_ms", "ms", false),
    m("shapelet.window_cache.hit_ratio", "fraction", true),
    m("core.pipeline.model_write_ms", "ms", false),
    m("data.io.parse_ms", "ms", false),
    m("data.io.parse_mb_per_s", "MB/s", true),
    m("core.pipeline.model_parse_ms", "ms", false),
    m("core.pipeline.model_kib", "KiB", false),
    m("shapelet.quant.transform_ms", "ms", false),
    m("shapelet.quant.series_per_s", "series/s", true),
    m("shapelet.quant.gb_per_s", "GB/s", true),
    m("tensor.quant.f16_scalar_share", "fraction", false),
    m("explore.session.open_ms", "ms", false),
    m("shapelet.fused.transform_ms", "ms", false),
    m("shapelet.fused.series_per_s", "series/s", true),
    m("shapelet.fused.gb_per_s", "GB/s", true),
    m("shapelet.matching.match_p50_us", "us", false),
    m("shapelet.matching.match_p90_us", "us", false),
    m("explore.svg.render_p50_us", "us", false),
    m("explore.tsne_ms", "ms", false),
    m("explore.session.reanalysis_ms", "ms", false),
    m("analyzers.classify.svm_ms", "ms", false),
    m("analyzers.cluster.kmeans_ms", "ms", false),
    m("tensor.pool.dispatches", "count", false),
    m("tensor.pool.wait_ms", "ms", false),
    m("tensor.pool.busy_share", "fraction", true),
    m("tensor.pairdist.tiles", "count", false),
    m("tensor.dot.calls", "count", false),
    m("obs.trace_overhead", "fraction", false),
];

/// The catalogue entry for `name`, if any.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_obs::json::{parse, JsonValue};

    /// `BENCHMARK.json` declares exactly this catalogue, in this order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(section).and_then(JsonValue::as_arr).expect(section);
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (m, d) in listed.iter().zip(defs) {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str);
                assert_eq!(field("name"), Some(d.name));
                assert_eq!(field("unit"), Some(d.unit), "{}", d.name);
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field("better"), Some(better), "{}", d.name);
            }
        }
    }
}
