//! Properties of the L1+L2 hierarchy: the L2 access stream is *exactly*
//! the L1 miss stream (the filtering that induces L2 idleness), the
//! geometry defaults are invisible (a ways=1 single-level spec emits
//! the historic bytes), per-level sleep fractions are sane, and — the
//! acceptance pin — an L2 behind a 4-way L1 sleeps strictly more than
//! the L1 itself on a pinned workload.

use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::study::{StudyReport, StudySpec};
use nbti_cache_repro::sim::{
    Access, CacheGeometry, CacheHierarchy, IdentityMapping, SimConfig, Simulator,
};

const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 24 };

fn simulator(size: u64, line: u32, ways: u32, banks: u32) -> Simulator {
    let geom = CacheGeometry::new(size, line, ways, banks).unwrap();
    Simulator::new(SimConfig::new(geom).unwrap(), Box::new(IdentityMapping)).unwrap()
}

fn run(spec: StudySpec) -> StudyReport {
    StudySession::new().run(&spec).expect("study runs")
}

/// The defining hierarchy invariant, on random traces and geometries:
/// every L1 miss — and nothing else — reaches the L2, on the cycle it
/// happened.
#[test]
fn l2_stream_is_exactly_the_l1_miss_stream() {
    quickprop::cases(CASES, |g| {
        let seed = g.u64_in(0..1_000_000);
        let l1_ways = *g.pick(&[1u32, 2, 4]);
        let l2_ways = *g.pick(&[1u32, 4]);
        let mut hier = CacheHierarchy::new(
            simulator(8 * 1024, 16, l1_ways, 4),
            simulator(32 * 1024, 16, l2_ways, 4),
        )
        .unwrap();
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            hier.step(Access::read(x % (256 * 1024)));
        }
        let out = hier.finish();
        out.validate().expect("hierarchy invariants");
        assert_eq!(
            out.l2.accesses, out.l1.misses,
            "L2 must see exactly the L1 miss stream"
        );
        assert_eq!(
            out.l2.cycles, out.l1.cycles,
            "both levels live on the same clock"
        );
        assert!(
            out.l2.misses <= out.l2.accesses,
            "L2 misses bounded by its accesses"
        );
    });
}

/// Opening the geometry axis must be invisible at the defaults: a spec
/// that names ways=1 / lru / no-L2 explicitly produces the *same bytes*
/// as one that never mentions geometry — and neither emits the new keys.
#[test]
fn single_level_ways1_spec_emits_the_historic_bytes() {
    let base = || {
        StudySpec::new("historic shape")
            .cache_kb([16])
            .line_bytes([16])
            .banks([4])
            .policies(["identity", "probing"])
            .workload_names(["CRC32"])
            .expect("suite workload resolves")
            .trace_cycles(40_000)
    };
    let implicit = run(base());
    let explicit = run(base()
        .ways([1])
        .replacement(["lru"])
        .l2_cache_kb([0])
        .l2_ways([1]));
    assert_eq!(
        implicit.to_json(),
        explicit.to_json(),
        "explicit geometry defaults must not move a byte"
    );
    let json = implicit.to_json();
    for key in [
        "\"ways\"",
        "\"replacement\"",
        "\"l2_cache_bytes\"",
        "\"l2_ways\"",
        "sleep_fraction_l2",
        "lt_years_l2",
    ] {
        assert!(
            !json.contains(key),
            "{key} must be absent from a single-level ways=1 report"
        );
    }
}

/// Per-level sleep fractions stay within physical bounds across an
/// L1+L2 grid, and the L2 aging metrics ride along well-formed.
#[test]
fn per_level_sleep_fractions_are_sane() {
    let report = run(StudySpec::new("hierarchy sanity")
        .cache_kb([16])
        .line_bytes([16])
        .banks([4])
        .ways([1, 4])
        .l2_cache_kb([64])
        .l2_ways([4])
        .policies(["identity"])
        .workload_names(["dijkstra", "mad"])
        .expect("suite workloads resolve")
        .trace_cycles(80_000));
    assert_eq!(report.records().len(), 4);
    for r in report.records() {
        let lo = r
            .sleep_fractions
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let hi = r.sleep_fractions.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            0.0 <= lo && hi <= 1.0,
            "L1 sleep fractions out of [0,1]: {:?}",
            r.sleep_fractions
        );
        let l2 = r.metric("sleep_fraction_l2").expect("L2 metric present");
        assert!(
            (0.0..=1.0).contains(&l2),
            "L2 sleep fraction out of [0,1]: {l2}"
        );
        let lt2 = r.metric("lt_years_l2").expect("L2 lifetime present");
        assert!(
            lt2.is_finite() && lt2 > 0.0,
            "L2 lifetime implausible: {lt2}"
        );
    }
}

/// Acceptance pin: behind a 4-way L1, the L2 sees only the miss stream,
/// so its banks idle — and sleep — strictly more than the L1's on the
/// pinned dijkstra workload, and its NBTI lifetime is no shorter.
#[test]
fn l2_sleeps_strictly_more_than_l1_behind_a_4way_filter() {
    let report = run(StudySpec::new("induced L2 recovery")
        .cache_kb([16])
        .line_bytes([16])
        .banks([4])
        .ways([4])
        .l2_cache_kb([64])
        .l2_ways([4])
        .policies(["identity"])
        .workload_names(["dijkstra"])
        .expect("suite workload resolves")
        .trace_cycles(160_000));
    assert_eq!(report.records().len(), 1);
    let r = &report.records()[0];
    let l1_avg = r.sleep_fractions.iter().sum::<f64>() / r.sleep_fractions.len() as f64;
    let l2_avg = r.metric("sleep_fraction_l2").expect("L2 metric present");
    assert!(
        l2_avg > l1_avg,
        "the L1 filter must induce more L2 sleep: L2 {l2_avg} vs L1 {l1_avg}"
    );
    let (lt1, lt2) = (r.lt_years(), r.metric("lt_years_l2").unwrap());
    assert!(
        lt2 >= lt1,
        "a sleepier L2 must not age faster than the L1: {lt2} vs {lt1}"
    );
}
