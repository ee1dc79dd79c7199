//! Execution-layer benchmark: the Table II preset, cold vs warm
//! result cache, through the `StudySession` front door, then the warm
//! read path layer by layer.
//!
//! Unlike the micro-benches, the unit of work for the `study_exec` row
//! is a whole study (54 scenarios at the harness trace horizon), so it
//! times single runs instead of looping a closure. The `warm_read` row
//! times what re-reading a finished study costs: opening its on-disk
//! journal, parsing its report JSON (and a 1,152-record report, the
//! size of a four-axis sweep), and a full replay on a fresh threaded
//! session. Both rows go to the machine-readable baseline
//! `BENCH_study.json` at the workspace root, via
//! [`repro_bench::harness::write_baseline`].
//!
//! `cargo bench -p repro-bench --bench study_exec`

use aging_cache::presets;
use aging_cache::rescache::{CachedMeasurement, Fingerprint, JsonlCache, MemoryCache, ResultCache};
use aging_cache::session::StudySession;
use aging_cache::study::{StudyReport, StudySpec};
use aging_cache::workload::WorkloadRegistry;
use repro_bench::harness::{write_baseline, Harness};
use repro_bench::{default_config, session};
use std::time::Instant;

/// Records in the synthesized large report: a 4 sizes × 4 bank counts
/// × 4 policies × 18 workloads sweep.
const LARGE_RECORDS: usize = 1_152;

fn main() {
    let cfg = default_config();
    let spec = presets::table2(&cfg);
    let session = session().cache(MemoryCache::new());

    // Cold: every scenario simulates and evaluates (modulo the
    // in-grid memo the historic runner always had).
    let t = Instant::now();
    let cold_report = session.run(&spec).expect("cold run");
    let cold_s = t.elapsed().as_secs_f64();
    let scenarios = cold_report.records().len();

    // Warm: every scenario replays from the result cache.
    let t = Instant::now();
    let warm_report = session.run(&spec).expect("warm run");
    let warm_s = t.elapsed().as_secs_f64();

    assert_eq!(
        warm_report.to_json(),
        cold_report.to_json(),
        "a warm replay must be byte-identical"
    );
    let stats = session.stats();
    assert_eq!(stats.cache_hits, scenarios, "warm run must be all hits");

    println!();
    println!("benchmark group: study_exec (Table II preset, {scenarios} scenarios)");
    println!("{:<32} {:>12} {:>18}", "name", "wall", "throughput");
    println!("{}", "-".repeat(64));
    for (name, secs) in [("cold", cold_s), ("warm-cache", warm_s)] {
        println!(
            "{:<32} {:>9.3} s {:>14.1} scen/s",
            format!("study_exec/{name}"),
            secs,
            scenarios as f64 / secs
        );
    }

    // Anchor the baseline at the workspace root regardless of the
    // working directory cargo bench chooses.
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_study.json");
    write_baseline(
        baseline,
        "study_exec",
        &[
            ("scenarios", scenarios as f64),
            ("cold_wall_s", cold_s),
            ("warm_wall_s", warm_s),
            ("cold_scenarios_per_s", scenarios as f64 / cold_s),
            ("warm_scenarios_per_s", scenarios as f64 / warm_s),
            ("warm_speedup", cold_s / warm_s),
            ("simulations_cold", stats.simulations as f64),
        ],
    )
    .expect("write BENCH_study.json");
    println!("\nwrote {baseline}");

    warm_read(&spec, &session, &cold_report, baseline);
}

/// Times the warm read path of the finished Table II study and writes
/// the `warm_read` row.
fn warm_read(spec: &StudySpec, session: &StudySession, report: &StudyReport, baseline: &str) {
    // Journal the cold report the way a `--cache-dir` run would.
    let dir = std::env::temp_dir().join(format!("nbti-bench-warm-read-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = JsonlCache::in_dir(&dir).expect("open journal");
    let grid = spec.expand().expect("expand Table II");
    for (scenario, record) in grid.scenarios().iter().zip(report.records()) {
        let workload = WorkloadRegistry::global()
            .get(&scenario.workload)
            .expect("a built-in workload");
        journal
            .store(
                &Fingerprint::for_scenario(scenario, workload.as_ref()),
                &CachedMeasurement::of_record(record),
            )
            .expect("journal a record");
    }
    drop(journal);
    let journal_bytes = std::fs::metadata(dir.join(JsonlCache::FILE_NAME))
        .expect("journal written")
        .len();
    let json = report.to_json();
    let large = StudyReport::from_records(
        "large",
        report
            .records()
            .iter()
            .cycle()
            .take(LARGE_RECORDS)
            .cloned()
            .collect(),
    )
    .to_json();
    let replay = || {
        let cache = JsonlCache::in_dir(&dir).expect("reopen journal");
        let fresh = StudySession::with_context(session.context().clone()).cache(cache);
        let replayed = fresh.run(spec).expect("warm replay");
        assert_eq!(fresh.stats().cache_hits, replayed.records().len());
        replayed
    };
    assert_eq!(
        replay().to_json(),
        json,
        "a warm replay must be byte-identical"
    );

    let mut h = Harness::new("warm_read");
    let ms = 1e-6;
    let open_ms = ms * h.bench_throughput("journal_open", 1, || JsonlCache::in_dir(&dir));
    let parse_ms = ms * h.bench_throughput("report_parse", 1, || StudyReport::from_json(&json));
    let large_ms =
        ms * h.bench_throughput("report_parse_1152", 1, || StudyReport::from_json(&large));
    let replay_ms = ms * h.bench_throughput("replay_fresh_session", 1, replay);
    let _ = std::fs::remove_dir_all(&dir);

    write_baseline(
        baseline,
        "warm_read",
        &[
            ("journal_bytes", journal_bytes as f64),
            ("journal_open_ms", open_ms),
            ("report_bytes", json.len() as f64),
            ("report_parse_ms", parse_ms),
            ("report_1152_bytes", large.len() as f64),
            ("report_1152_parse_ms", large_ms),
            ("replay_fresh_session_ms", replay_ms),
        ],
    )
    .expect("write BENCH_study.json");
    println!("\nwrote the warm_read row to {baseline}");
}
