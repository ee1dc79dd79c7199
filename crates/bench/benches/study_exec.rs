//! Execution-layer benchmark: the Table II preset, cold vs warm
//! result cache, through the `StudySession` front door.
//!
//! Unlike the micro-benches, the unit of work here is a whole study
//! (54 scenarios at the harness trace horizon), so this bench times
//! single runs instead of looping a closure — and writes the
//! machine-readable baseline `BENCH_study.json` (scenarios/sec plus
//! cold and warm-cache wall times) next to the working directory, via
//! [`repro_bench::harness::write_baseline`].
//!
//! `cargo bench -p repro-bench --bench study_exec`

use aging_cache::presets;
use aging_cache::rescache::MemoryCache;
use repro_bench::harness::write_baseline;
use repro_bench::{default_config, session};
use std::time::Instant;

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
}
