//! Line-level idleness throughput: `FineGrainStudy::measure` on the
//! paper's 16 kB cache with 16-byte lines (1,024 lines, each one unit
//! of the event rule), over every suite workload. `measure` synthesizes
//! its own trace, so the bench also times the same traces' synthesis
//! alone and reports the difference as the accounting cost. Writes the
//! `fine_grain` row of `BENCH_study.json`.
//!
//! ```sh
//! cargo bench -p repro-bench --bench fine_grain
//! ```

use aging_cache::fine_grain::FineGrainStudy;
use cache_sim::CacheGeometry;
use repro_bench::harness::{write_baseline, Harness};
use std::hint::black_box;
use trace_synth::suite;

/// Accesses per workload per iteration: 10 % of the Table II horizon.
const ACCESSES: u64 = 64_000;

fn main() {
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).expect("geometry");
    let study = FineGrainStudy::new(geom).expect("study");
    let workloads = suite::mediabench();
    let accesses = ACCESSES * workloads.len() as u64;
    let mut g = Harness::new("fine_grain");
    let measure = g.bench_throughput("measure_1024_lines", accesses, || {
        for (i, profile) in workloads.iter().enumerate() {
            black_box(
                study
                    .measure(profile, ACCESSES, 1000 + i as u64)
                    .expect("measure"),
            );
        }
    });
    let synth = g.bench_throughput("synthesis_only", accesses, || {
        for (i, profile) in workloads.iter().enumerate() {
            let trace = profile.trace(1000 + i as u64).take(ACCESSES as usize);
            black_box(trace.fold(0u64, |s, a| s.wrapping_add(a.addr)));
        }
    });
    let (measure_ns, synth_ns) = (measure / accesses as f64, synth / accesses as f64);
    println!();
    println!(
        "fine grain: {measure_ns:.1} ns/access measured, {:.1} of it accounting",
        measure_ns - synth_ns
    );
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_study.json");
    write_baseline(
        baseline,
        "fine_grain",
        &[
            ("lines", geom.sets() as f64),
            ("accesses_per_workload", ACCESSES as f64),
            ("workloads", workloads.len() as f64),
            ("measure_ns_per_access", measure_ns),
            ("accounting_ns_per_access", measure_ns - synth_ns),
        ],
    )
    .expect("write BENCH_study.json");
}
