//! The geometry axis, end to end: set-associative ways driven through
//! `StudySpec::ways()` instead of hand-built `PartitionedCache`s.
//!
//! These are the historic set-associative physical pins (conflict-miss
//! reduction under banking, a full pipeline run on a 4-way geometry)
//! migrated onto the studied axis, plus the replacement axis: an
//! explicit `"lru"` must be byte-identical to the default, and `"mru"`
//! must actually change the physics.
//!
//! One assertion stays at the arch layer on purpose:
//! `fixed_bijections_preserve_associative_miss_rates` proves that
//! re-indexing policies never change miss counts — the fact that lets
//! the study session memoize simulations *without* the policy in the
//! key. It cannot be expressed through the study layer precisely
//! because the study layer already relies on it.

use nbti_cache_repro::arch::arch::{PartitionedCache, UpdateSchedule};
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::study::{StudyReport, StudySpec};
use nbti_cache_repro::arch::PolicyRegistry;
use nbti_cache_repro::sim::CacheGeometry;
use nbti_cache_repro::traces::suite;

fn run(spec: StudySpec) -> StudyReport {
    StudySession::new().run(&spec).expect("study runs")
}

#[test]
fn set_associative_pipeline_end_to_end() {
    // A 4-way 16 KB cache through the whole pipeline: trace →
    // banked simulation → aging model → lifetime + energy.
    let report = run(StudySpec::new("4-way pipeline")
        .cache_kb([16])
        .line_bytes([16])
        .banks([4])
        .ways([4])
        .policies(["probing"])
        .workload_names(["ispell"])
        .expect("suite workload resolves")
        .trace_cycles(160_000));
    assert_eq!(report.records().len(), 1);
    let r = &report.records()[0];
    assert_eq!(r.scenario.ways, 4);
    assert_eq!(r.sim_cycles, 160_000);
    assert!(
        r.miss_rate < 0.5,
        "4-way miss rate implausible: {}",
        r.miss_rate
    );
    for (b, s) in r.sleep_fractions.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(s),
            "bank {b} sleep fraction out of range: {s}"
        );
    }
    assert!(
        r.lt_years() > r.lt0_years(),
        "re-indexing must help associative caches too: {} vs {}",
        r.lt_years(),
        r.lt0_years()
    );
    assert!(
        r.esav > 0.2,
        "banked 4-way cache must save energy: Esav = {}",
        r.esav
    );
}

#[test]
fn associativity_reduces_conflict_misses_under_banking() {
    // Same capacity, same banking, more ways: conflict misses drop on
    // a pointer-chasing workload. The ways axis expands inside one
    // spec, so all three points share the trace seed by construction.
    let report = run(StudySpec::new("ways sweep")
        .cache_kb([16])
        .line_bytes([16])
        .banks([4])
        .ways([1, 2, 4])
        .policies(["identity"])
        .workload_names(["dijkstra"])
        .expect("suite workload resolves")
        .trace_cycles(160_000));
    assert_eq!(report.records().len(), 3);
    let rate = |ways: u32| -> f64 {
        report
            .records()
            .iter()
            .find(|r| r.scenario.ways == ways)
            .unwrap_or_else(|| panic!("no record for ways={ways}"))
            .miss_rate
    };
    assert!(
        rate(2) <= rate(1),
        "2-way must not conflict more than direct-mapped: {} vs {}",
        rate(2),
        rate(1)
    );
    assert!(
        rate(4) < rate(1),
        "4-way should miss less than direct-mapped: {} vs {}",
        rate(4),
        rate(1)
    );
}

#[test]
fn explicit_lru_is_byte_identical_to_the_default() {
    // `"lru"` is the default replacement: naming it must not move a
    // byte — same scenario ids, same JSON (the codec omits the field
    // at its default, so old readers see the old shape).
    let spec = || {
        StudySpec::new("geometry defaults")
            .cache_kb([8])
            .line_bytes([32])
            .banks([4])
            .ways([2])
            .policies(["identity"])
            .workload_names(["mad"])
            .expect("suite workload resolves")
            .trace_cycles(100_000)
    };
    let default = run(spec());
    let named = run(spec().replacement(["lru"]));
    assert_eq!(
        default.to_json(),
        named.to_json(),
        "an explicit \"lru\" must be byte-identical to the default"
    );
    assert!(
        !default.to_json().contains("\"replacement\""),
        "the default replacement must be omitted from the JSON"
    );
}

#[test]
fn mru_replacement_changes_the_physics() {
    // The replacement axis is not decorative: MRU victimizes the hot
    // way and must produce a different (worse) miss rate than LRU on
    // an associative geometry.
    let report = run(StudySpec::new("replacement sweep")
        .cache_kb([8])
        .line_bytes([16])
        .banks([4])
        .ways([4])
        .replacement(["lru", "mru"])
        .policies(["identity"])
        .workload_names(["dijkstra"])
        .expect("suite workload resolves")
        .trace_cycles(160_000));
    assert_eq!(report.records().len(), 2);
    let rate = |name: &str| -> f64 {
        report
            .records()
            .iter()
            .find(|r| r.scenario.replacement == name)
            .unwrap_or_else(|| panic!("no record for replacement={name}"))
            .miss_rate
    };
    assert!(
        rate("mru") > rate("lru"),
        "MRU must conflict more than LRU on dijkstra: {} vs {}",
        rate("mru"),
        rate("lru")
    );
}

#[test]
fn fixed_bijections_preserve_associative_miss_rates() {
    // Every re-indexing policy is a bijection on set indices, so with
    // a fixed mapping the conflict structure — and the miss count —
    // is identical across policies. This is the physical fact that
    // lets the study session share one simulation across the policy
    // axis (the memo key has no policy in it), so it stays pinned at
    // the arch layer, below the machinery that depends on it.
    let geom = CacheGeometry::new(8 * 1024, 32, 2, 4).unwrap();
    let registry = PolicyRegistry::builtin();
    let profile = suite::by_name("mad").unwrap();
    let mut baseline = None;
    for name in registry.names() {
        let arch = PartitionedCache::new(geom, &name, registry.clone()).unwrap();
        let out = arch
            .simulate_batched(profile.trace(4).take(100_000), UpdateSchedule::Never)
            .unwrap();
        match baseline {
            None => baseline = Some(out.misses),
            Some(m) => assert_eq!(out.misses, m, "{name}: bijection changed miss count"),
        }
    }
}
