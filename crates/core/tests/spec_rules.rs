//! `StudySpec` keeps one list of rules: `expand` fails on the first
//! problem and `study check` reports every one, so the two agree on
//! what is legal — each rule under the finding code it has always had.

use aging_cache::check::{check_spec, CheckLevel};
use aging_cache::model::{CalibratedModel, Metrics, ModelEval, ModelRegistry};
use aging_cache::study::StudySpec;
use aging_cache::CoreError;
use std::sync::Arc;

fn small_spec() -> StudySpec {
    StudySpec::new("rules")
        .workload_names(["sha"])
        .unwrap()
        .policies(["identity", "probing"])
        .trace_cycles(4_000)
        .policy_seed(1)
}

struct Custom;

impl CalibratedModel for Custom {
    fn evaluate(&self, _eval: &ModelEval<'_>) -> Result<Metrics, CoreError> {
        Ok(Metrics::new())
    }
}

#[test]
fn check_flags_exactly_what_expand_rejects() {
    let mut models = ModelRegistry::builtin();
    models
        .register_fn("custom", "a user model", "none", || Ok(Arc::new(Custom)))
        .unwrap();
    let huge = (1u64 << 54) + 1;
    let profile = |banks: u32| {
        small_spec()
            .workload_names(["profile:0.5,0.5"])
            .unwrap()
            .banks([banks])
    };
    // One row per rule, each spec breaking only that rule, with the
    // code `check` reports it under; `None` rows are clean.
    let rows: Vec<(&str, StudySpec, Option<&str>)> = vec![
        ("clean", small_spec(), None),
        (
            "kB overflow",
            small_spec().cache_kb([huge]),
            Some("spec-axis"),
        ),
        (
            "L2 kB overflow",
            small_spec().l2_cache_kb([huge]),
            Some("spec-axis"),
        ),
        ("empty banks", small_spec().banks([]), Some("spec-axis")),
        (
            "empty policies",
            small_spec().policies(Vec::<String>::new()),
            Some("spec-axis"),
        ),
        (
            "empty workloads",
            small_spec().workload_objects([]),
            Some("spec-axis"),
        ),
        (
            "empty models",
            small_spec().models(Vec::<String>::new()),
            Some("spec-axis"),
        ),
        (
            "unknown policy",
            small_spec().policies(["warp"]),
            Some("spec-policy"),
        ),
        (
            "unknown replacement",
            small_spec().replacement(["belady"]),
            Some("spec-replacement"),
        ),
        (
            "update period",
            small_spec().update_days([0.0]),
            Some("spec-param"),
        ),
        (
            "NaN update period",
            small_spec().update_days([f64::NAN]),
            Some("spec-param"),
        ),
        (
            "temperature",
            small_spec().temps_c([-300.0]),
            Some("spec-param"),
        ),
        (
            "drowsy rail",
            small_spec().vdd_low([0.0]),
            Some("spec-param"),
        ),
        (
            "failure criterion",
            small_spec().failure_pct([100.0]),
            Some("spec-param"),
        ),
        (
            "malformed model key",
            small_spec().models(["nbti:temp=oops"]),
            Some("spec-model"),
        ),
        // `check` used to skip this one: the composition error hid
        // behind the alias walk's `if let Ok`.
        (
            "overrides on a custom model",
            small_spec().models(["custom"]).temps_c([85.0]),
            Some("spec-model"),
        ),
        ("custom model", small_spec().models(["custom"]), None),
        ("banks", small_spec().banks([3]), Some("spec-geometry")),
        (
            "ways",
            small_spec().cache_bytes([1024]).ways([128]),
            Some("spec-geometry"),
        ),
        (
            "L2 ways",
            small_spec().l2_cache_kb([64]).l2_ways([3]),
            Some("spec-geometry"),
        ),
        (
            "L2 below L1",
            small_spec().l2_cache_kb([4]),
            Some("spec-geometry"),
        ),
        ("pinned profile", profile(4), Some("spec-workload")),
        ("matching profile", profile(2), None),
    ];
    for (what, spec, code) in rows {
        let report = check_spec(&spec, &models);
        let expanded = spec.expand();
        assert_eq!(expanded.is_err(), report.errors() >= 1, "{what}: {report}");
        assert_eq!(code.is_some(), expanded.is_err(), "{what}: {report}");
        for finding in report.findings() {
            if finding.level == CheckLevel::Error {
                assert_eq!(Some(finding.code), code, "{what}: {report}");
            }
        }
    }
}
