//! Integration: the paper's headline claims hold on the full pipeline.
//!
//! These tests run the complete stack — synthetic traces, banked cache
//! simulation, energy accounting, NBTI/SNM lifetime — at reduced trace
//! lengths and assert the paper's *qualitative* results: who wins, by
//! roughly what factor, and where the trends point.
//!
//! Every study is a paper preset run through one shared
//! [`StudySession`], so the 13 suite studies below simulate only the
//! six distinct geometries they span; the memo returns identical
//! measurements, so sharing changes no value.

use nbti_cache_repro::arch::analysis::{Axis, Query};
use nbti_cache_repro::arch::experiment::ExperimentConfig;
use nbti_cache_repro::arch::paper::CELL_LIFETIME_YEARS;
use nbti_cache_repro::arch::presets;
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::study::{ScenarioRecord, StudyReport, StudySpec};
use std::sync::OnceLock;

fn run(spec: &StudySpec) -> StudyReport {
    static SESSION: OnceLock<StudySession> = OnceLock::new();
    SESSION
        .get_or_init(StudySession::new)
        .run(spec)
        .expect("suite")
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig::paper_reference().with_trace_cycles(160_000)
}

/// The full suite under Probing at one geometry (Table I's preset).
fn quick(kb: u64, banks: u32) -> StudySpec {
    presets::table1(&cfg()).cache_kb([kb]).banks([banks])
}

fn mean<'a>(
    records: impl IntoIterator<Item = &'a ScenarioRecord>,
    f: fn(&ScenarioRecord) -> f64,
) -> f64 {
    let values: Vec<f64> = records.into_iter().map(f).collect();
    values.iter().sum::<f64>() / values.len() as f64
}

#[test]
fn reindexing_beats_power_management_on_every_benchmark() {
    let report = run(&quick(16, 4));
    assert_eq!(report.records().len(), 18);
    for r in report.records() {
        assert!(
            r.lt_years() > r.lt0_years(),
            "{}: LT {} must exceed LT0 {}",
            r.scenario.workload,
            r.lt_years(),
            r.lt0_years()
        );
        assert!(
            r.lt0_years() >= 2.93 * 0.999,
            "{}: LT0 {} can never fall below the monolithic cell",
            r.scenario.workload,
            r.lt0_years()
        );
    }
}

#[test]
fn esav_averages_match_paper_per_size() {
    // Paper Table II averages: 32.2 / 44.3 / 55.5 %.
    let mut previous = 0.0;
    for (kb, paper) in [(8u64, 0.322), (16, 0.443), (32, 0.555)] {
        let esav = mean(run(&quick(kb, 4)).records(), |r| r.esav);
        assert!(
            (esav - paper).abs() < 0.05,
            "{kb} kB: Esav {esav:.3} should be near the paper's {paper}"
        );
        assert!(esav > previous, "Esav must grow with cache size");
        previous = esav;
    }
}

#[test]
fn lifetime_grows_with_bank_count() {
    // Paper Table IV: both idleness and lifetime increase with M.
    let mut last_lt = 0.0;
    let mut last_idle = 0.0;
    for banks in [2u32, 4, 8] {
        let report = run(&quick(16, banks));
        let lt = mean(report.records(), ScenarioRecord::lt_years);
        let idle = mean(report.records(), ScenarioRecord::avg_useful_idleness);
        assert!(lt > last_lt, "LT must grow with M: {lt} after {last_lt}");
        assert!(idle > last_idle, "idleness must grow with M");
        last_lt = lt;
        last_idle = idle;
    }
    // M = 8 reaches roughly 2x the monolithic cell (paper: "about 2x").
    assert!(
        last_lt / 2.93 > 1.7,
        "M=8 should approach the paper's ~2x: got {:.2}x",
        last_lt / 2.93
    );
}

#[test]
fn headline_claims_within_tolerance() {
    // The §IV-B1 quantities, computed from the claims preset's records
    // (Table II's grid: 8, 16 and 32 kB).
    let report = run(&presets::claims(&cfg()));
    let sizes: Vec<Vec<&ScenarioRecord>> = [8u64, 16, 32]
        .iter()
        .map(|&kb| {
            Query::new(&report)
                .filter(Axis::CacheBytes, kb * 1024)
                .records()
        })
        .collect();
    let eight = sizes[0].iter().copied();
    let lt0_gain_8k = mean(eight.clone(), ScenarioRecord::lt0_years) / CELL_LIFETIME_YEARS - 1.0;
    let reindex_further_gain_8k = mean(eight, |r| (r.lt_years() - r.lt0_years()) / r.lt0_years());
    let extension_per_size: Vec<f64> = sizes
        .iter()
        .map(|size| {
            mean(size.iter().copied(), ScenarioRecord::lt_years) / CELL_LIFETIME_YEARS - 1.0
        })
        .collect();
    let factors = report
        .records()
        .iter()
        .map(|r| r.lt_years() / CELL_LIFETIME_YEARS);
    let best_case = factors.clone().fold(0.0f64, f64::max);
    let worst_case = factors.fold(f64::INFINITY, f64::min);
    // Power management alone: paper says ~9 %; accept the single-digit
    // neighbourhood.
    assert!(
        (0.0..0.20).contains(&lt0_gain_8k),
        "LT0 gain {lt0_gain_8k:.3} out of range"
    );
    // Re-indexing adds a large further gain: paper ~38 %.
    assert!(
        (0.25..0.70).contains(&reindex_further_gain_8k),
        "re-index gain {reindex_further_gain_8k:.3} out of range"
    );
    // Per-size lifetime extension: paper 48/47/58 %.
    assert_eq!(extension_per_size.len(), 3);
    for (i, ext) in extension_per_size.iter().enumerate() {
        assert!(
            (0.30..0.75).contains(ext),
            "extension[{i}] = {ext:.3} out of range"
        );
    }
    // Best case approaches 2x; worst configuration still gains >= ~15 %.
    assert!(best_case > 1.6, "best case {best_case:.2}x");
    assert!(worst_case > 1.1, "worst case {worst_case:.2}x");
}

#[test]
fn line_size_halves_esav_but_not_lifetime() {
    // Paper Table III: Esav 44.3 -> 31.9 %, LT 4.31 -> 4.23 years.
    let ls16 = run(&quick(16, 4));
    let ls32 = run(&quick(16, 4).line_bytes([32]));
    assert_eq!((ls16.records().len(), ls32.records().len()), (18, 18));
    let esav16 = mean(ls16.records(), |r| r.esav);
    let esav32 = mean(ls32.records(), |r| r.esav);
    let lt16 = mean(ls16.records(), ScenarioRecord::lt_years);
    let lt32 = mean(ls32.records(), ScenarioRecord::lt_years);
    assert!(
        esav32 < esav16 - 0.08,
        "bigger lines must cost energy saving: {esav16:.3} -> {esav32:.3}"
    );
    assert!(
        (lt16 - lt32).abs() / lt16 < 0.10,
        "lifetime is insensitive to line size: {lt16:.2} vs {lt32:.2}"
    );
}

#[test]
fn sha_is_a_standout_case() {
    // The paper singles out sha ("we obtain a 2x lifetime extension").
    let report = run(&quick(16, 4));
    assert_eq!(report.records().len(), 18);
    let gain_of = |r: &ScenarioRecord| (r.lt_years() - r.lt0_years()) / r.lt0_years();
    let sha = report
        .records()
        .iter()
        .find(|r| r.scenario.workload == "sha")
        .expect("sha");
    let gain = gain_of(sha);
    let avg_gain = mean(report.records(), gain_of);
    assert!(
        gain > avg_gain,
        "sha's re-indexing gain ({gain:.2}) should beat the average ({avg_gain:.2})"
    );
}
