//! Regression pin for the analysis layer's insertion-order freedom.
//!
//! `ReportDiff::between` used to index the right-hand report in a
//! hash map; the rendered diff was correct but its construction
//! walked buckets in hash order, which is randomized per process.
//! The index is a `BTreeMap` now, and this test pins the contract:
//! the rendered diff is **byte-identical** no matter how the right
//! report's records are ordered.

use nbti_cache_repro::arch::analysis::ReportDiff;
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::study::{StudyReport, StudySpec};

/// A small grid with zero trace simulation: the pinned idleness
/// profile (4 sleep fractions ⇒ banks locked at 4) feeds the model
/// directly.
fn small_report() -> StudyReport {
    let spec = StudySpec::new("diff determinism")
        .workload_names(["profile:0.9,0.5,0.2,0.8"])
        .expect("profile key resolves")
        .policies(["identity", "probing", "scrambling", "gray", "rotate-xor"])
        .banks([4]);
    StudySession::new().run(&spec).expect("study runs")
}

#[test]
fn report_diff_is_insertion_order_free() {
    let left = small_report();
    // Right side: drop one scenario (→ "only in left"), perturb one
    // value (→ divergent), and append a duplicate (→ "only in right"),
    // so every section of the diff renders.
    let mut records = left.records().to_vec();
    let dropped = records.remove(1);
    records[0].esav += 0.25;
    records.push(records[2].clone());
    let _ = dropped;

    let mut shuffled = records.clone();
    shuffled.rotate_left(2);
    shuffled.reverse();
    assert_ne!(
        records.iter().map(|r| r.scenario.id).collect::<Vec<_>>(),
        shuffled.iter().map(|r| r.scenario.id).collect::<Vec<_>>(),
        "the shuffle must actually reorder"
    );

    let diff_a = ReportDiff::between(&left, &StudyReport::from_records("right", records), 0.0);
    let diff_b = ReportDiff::between(&left, &StudyReport::from_records("right", shuffled), 0.0);
    assert!(
        !diff_a.is_empty(),
        "the constructed diff must be nontrivial"
    );
    assert_eq!(
        diff_a.to_string(),
        diff_b.to_string(),
        "diff output must not depend on the right report's record order"
    );
}
