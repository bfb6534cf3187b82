//! Shared JSON-field contract for the `BENCH_*.json` reports.
//!
//! Every bench binary routes its report through [`write_report`], which
//! validates the serialized JSON against a required-field list *before*
//! anything touches disk. This replaces the per-binary `grep` contracts CI
//! used to carry: the fields CI (and the `timecsl trace --bench-diff` gate)
//! depend on are now asserted at the emitter, so a refactor that renames or
//! drops a field fails the bench run itself instead of a downstream grep.
//!
//! Field specs are dotted paths into the report object:
//!
//! * `crossover_n` — top-level field must exist.
//! * `cases[].speedup` — at least one element of the `cases` array has the
//!   field (cases are heterogeneous, so "some element" mirrors the old
//!   `grep -q` semantics).
//! * `cases[].labels_identical=true` — the field must exist *and* be the
//!   JSON boolean `true` somewhere (contract booleans the full-mode legs
//!   assert; the report must agree).

use tcsl_obs::json::{self, JsonValue};

/// Version stamp every `BENCH_*.json` carries as `"schema_version"`.
/// Bump when the report layout changes shape incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Validates `body` as a bench report named `bench` carrying every field in
/// `required`. Returns a human-readable description of the first violation.
pub fn validate_report(bench: &str, body: &str, required: &[&str]) -> Result<(), String> {
    let root = json::parse(body).map_err(|e| format!("{bench} report is not valid JSON: {e}"))?;
    if root.as_obj().is_none() {
        return Err(format!("{bench} report is not a JSON object"));
    }
    match root.get("schema_version").and_then(JsonValue::as_u64) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => {
            return Err(format!(
                "{bench} report has schema_version {v}, expected {SCHEMA_VERSION}"
            ))
        }
        None => return Err(format!("{bench} report is missing \"schema_version\"")),
    }
    match root.get("bench").and_then(JsonValue::as_str) {
        Some(b) if b == bench => {}
        Some(b) => return Err(format!("report names bench {b:?}, expected {bench:?}")),
        None => return Err(format!("{bench} report is missing \"bench\"")),
    }
    for spec in required {
        let (path, want_true) = match spec.strip_suffix("=true") {
            Some(p) => (p, true),
            None => (*spec, false),
        };
        let segs: Vec<&str> = path.split('.').collect();
        if !path_satisfied(&root, &segs, want_true) {
            return Err(format!("{bench} report is missing required field {spec:?}"));
        }
    }
    Ok(())
}

/// Validates `body` (panicking with the violation on failure — bench
/// binaries treat a broken report as a bug, not a recoverable error), then
/// writes it to `path` and logs the destination to stderr.
pub fn write_report(path: &str, bench: &str, body: &str, required: &[&str]) {
    if let Err(msg) = validate_report(bench, body, required) {
        panic!("refusing to write {path}: {msg}");
    }
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// The host record a report carries as its `"host"` field: core count and
/// the SIMD tiers the dot kernels can dispatch to on the host CPU, e.g.
/// `{"cores":2,"avx2_fma":true,"f16c":true,"avx512f":true}`. Together with
/// a leg's `dot.dispatch.*` counts it names the tier a timing was measured
/// on, so rows from different hosts are not compared as like for like.
pub fn host_record() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let [avx2_fma, f16c, avx512f] = [
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma"),
        std::arch::is_x86_feature_detected!("f16c"),
        std::arch::is_x86_feature_detected!("avx512f"),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let [avx2_fma, f16c, avx512f] = [false; 3];
    format!("{{\"cores\":{cores},\"avx2_fma\":{avx2_fma},\"f16c\":{f16c},\"avx512f\":{avx512f}}}")
}

/// Walks one dotted-path spec. A `seg[]` segment descends into array field
/// `seg` and succeeds if *any* element satisfies the remaining path.
fn path_satisfied(v: &JsonValue, segs: &[&str], want_true: bool) -> bool {
    let Some(seg) = segs.first() else {
        return !want_true || matches!(v, JsonValue::Bool(true));
    };
    if let Some(field) = seg.strip_suffix("[]") {
        match v.get(field) {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .any(|it| path_satisfied(it, &segs[1..], want_true)),
            _ => false,
        }
    } else {
        match v.get(seg) {
            Some(child) => path_satisfied(child, &segs[1..], want_true),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"bench":"demo","schema_version":1,"crossover_n":null,
        "cases":[{"case":"a","speedup":2.0},{"case":"b","flag":true}]}"#;

    #[test]
    fn accepts_a_complete_report() {
        validate_report(
            "demo",
            GOOD,
            &["crossover_n", "cases[].speedup", "cases[].flag=true"],
        )
        .unwrap();
    }

    #[test]
    fn rejects_missing_fields_and_stale_schema() {
        let e = validate_report("demo", GOOD, &["cases[].nope"]).unwrap_err();
        assert!(e.contains("cases[].nope"), "{e}");
        let e = validate_report("demo", "{\"bench\":\"demo\"}", &[]).unwrap_err();
        assert!(e.contains("schema_version"), "{e}");
        let stale = "{\"bench\":\"demo\",\"schema_version\":999}";
        let e = validate_report("demo", stale, &[]).unwrap_err();
        assert!(e.contains("999"), "{e}");
        let e = validate_report("other", GOOD, &[]).unwrap_err();
        assert!(e.contains("expected \"other\""), "{e}");
    }

    #[test]
    fn boolean_contracts_must_be_true() {
        let falsy = r#"{"bench":"demo","schema_version":1,"cases":[{"flag":false}]}"#;
        let e = validate_report("demo", falsy, &["cases[].flag=true"]).unwrap_err();
        assert!(e.contains("flag=true"), "{e}");
        // A `true` in one heterogeneous case satisfies the contract even
        // when sibling cases lack the field entirely.
        validate_report("demo", GOOD, &["cases[].flag=true"]).unwrap();
    }

    #[test]
    fn host_record_names_every_tier() {
        let host = json::parse(&host_record()).unwrap();
        assert!(host.get("cores").and_then(JsonValue::as_u64).is_some());
        for tier in ["avx2_fma", "f16c", "avx512f"] {
            assert!(matches!(host.get(tier), Some(JsonValue::Bool(_))), "{tier}");
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        let e = validate_report("demo", "not json", &[]).unwrap_err();
        assert!(e.contains("not valid JSON"), "{e}");
        let e = validate_report("demo", "[1,2]", &[]).unwrap_err();
        assert!(e.contains("not a JSON object"), "{e}");
    }
}
