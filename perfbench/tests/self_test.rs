//! The benchmark's self-test, at a tiny horizon and a short window:
//! the wrappers are transparent, span self times fit in the wall time,
//! and the counters read what the workloads predict.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::{run, Outcome, RunConfig, WorkloadKind, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn traced(workload: WorkloadKind) -> Outcome {
    let cfg = RunConfig {
        workload,
        seed: 7,
        seconds: 0.5,
        trace: true,
        cycles: 20_000,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name()),
    };
    let outcome = run(&cfg).expect("run");
    assert!(outcome.correct, "{:?}", outcome.problems);
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0, "{:?}", outcome.problems);
    outcome
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metric(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// Every traced study's report must equal the first (untraced) one, and
/// every warm read must replay it; the run counts any difference as a
/// failed operation, so `failed == 0` is the transparency check.
fn assert_cold_counts(outcome: &Outcome, opens: f64, reuse: f64) {
    assert_eq!(metric(outcome, "traces.opens"), opens);
    assert_eq!(metric(outcome, "sim.simulations"), opens);
    assert!((metric(outcome, "traces.reuse_ratio") - reuse).abs() < 1e-12);
    assert_eq!(
        metric(outcome, "rescache.stores"),
        metric(outcome, "model.evaluations")
    );
    let efficiency = metric(outcome, "exec.parallel_efficiency");
    assert!(
        efficiency > 0.0 && efficiency <= 1.0,
        "span self times must fit in wall x workers: {efficiency}"
    );
    assert!(metric(outcome, "traces.busy_s") > 0.0);
    assert!(metric(outcome, "sim.busy_s") > 0.0);
}

#[test]
fn table2_cold_opens_every_trace_three_times() {
    let outcome = traced(WorkloadKind::Table2Cold);
    assert_cold_counts(&outcome, 54.0, 1.0 / 3.0);
    assert_eq!(metric(&outcome, "sim.l2_sleep_fraction_mean"), 0.0);
}

#[test]
fn hierarchy_cold_opens_each_trace_once() {
    let outcome = traced(WorkloadKind::HierarchyCold);
    assert_cold_counts(&outcome, 18.0, 1.0);
    assert!(metric(&outcome, "sim.l2_sleep_fraction_mean") > 0.0);
}

#[test]
fn serve_mixed_simulates_nothing_in_the_window() {
    let outcome = traced(WorkloadKind::ServeMixed);
    assert_eq!(metric(&outcome, "serve.window_simulations"), 0.0);
    assert_eq!(metric(&outcome, "traces.opens"), 0.0);
    assert!(metric(&outcome, "serve.requests_per_s") > 0.0);
    assert!(metric(&outcome, "rescache.hits") > 0.0);
}

#[test]
fn the_result_line_names_every_metric_of_its_mode() {
    let outcome = traced(WorkloadKind::HierarchyCold);
    let line = outcome.to_json(true);
    for (name, unit) in PER_LAYER {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")) && line.contains(unit),
            "{name} missing from {line}"
        );
    }
    for (name, _) in END_TO_END {
        assert!(
            !line.contains(&format!("\"{name}\"")),
            "{name} is end-to-end"
        );
    }
}

/// `BENCHMARK.json` declares exactly the workloads and metrics the
/// benchmark reports, with the same units.
#[test]
fn benchmark_json_matches_the_declared_metrics() {
    use aging_cache::json::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = Json::parse(&text).expect("parse BENCHMARK.json");
    let entries = |key: &str, field: &str| -> Vec<String> {
        match json.field(key).expect(key) {
            Json::Arr(items) => items
                .iter()
                .map(|m| {
                    m.field(field)
                        .and_then(|v| v.as_str(field))
                        .expect(field)
                        .to_string()
                })
                .collect(),
            other => panic!("{key} is not an array: {other:?}"),
        }
    };
    let declared = |metrics: &[(&str, &str)], i: usize| -> Vec<String> {
        metrics
            .iter()
            .map(|m| if i == 0 { m.0 } else { m.1 }.to_string())
            .collect()
    };
    assert_eq!(entries("end_to_end", "name"), declared(END_TO_END, 0));
    assert_eq!(entries("end_to_end", "unit"), declared(END_TO_END, 1));
    assert_eq!(entries("per_layer", "name"), declared(PER_LAYER, 0));
    assert_eq!(entries("per_layer", "unit"), declared(PER_LAYER, 1));
    let workloads: Vec<String> = WorkloadKind::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(entries("workloads", "name"), workloads);
}

/// A full span store drops further spans and says so, so a traced
/// study that overflowed it can be left out of the layer figures.
#[test]
fn a_full_span_store_counts_what_it_drops() {
    use perfbench::trace::{Tracer, MAX_SPANS, STUDY};
    let tracer = Tracer::new();
    for _ in 0..MAX_SPANS + 3 {
        tracer.record(STUDY, None, 0);
    }
    assert_eq!(tracer.cursor(), MAX_SPANS);
    assert_eq!(tracer.dropped(), 3);
}
