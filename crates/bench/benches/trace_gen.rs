//! Trace-synthesis throughput: every suite workload pulled through
//! `TraceSource::next_batch` at `BATCH_ACCESSES`, the path a study's
//! trace groups take. Writes the mean and max ns/access over the suite
//! into `BENCH_study.json` as the `synth_hotpath` row.
//!
//! ```sh
//! cargo bench -p repro-bench --bench trace_gen
//! ```

use cache_sim::Access;
use repro_bench::harness::{write_baseline, Harness};
use std::hint::black_box;
use trace_synth::source::{TraceSource, BATCH_ACCESSES};
use trace_synth::suite;

/// Accesses per workload per iteration: 10 % of the Table II horizon.
const ACCESSES: usize = 64_000;

fn main() {
    let mut g = Harness::new("trace_gen");
    let mut buf: Vec<Access> = Vec::with_capacity(BATCH_ACCESSES);
    let ns: Vec<f64> = suite::mediabench()
        .iter()
        .map(|profile| {
            let mean = g.bench_throughput(profile.name(), ACCESSES as u64, || {
                let mut source = profile.trace(1000);
                let mut sum = 0u64;
                let mut left = ACCESSES;
                while left > 0 {
                    buf.clear();
                    let n = source
                        .next_batch(&mut buf, left.min(BATCH_ACCESSES))
                        .expect("synthetic sources never fail");
                    sum = buf.iter().fold(sum, |s, a| s.wrapping_add(a.addr));
                    left -= n;
                }
                black_box(sum)
            });
            mean / ACCESSES as f64
        })
        .collect();
    let mean_ns = ns.iter().sum::<f64>() / ns.len() as f64;
    let max_ns = ns.iter().copied().fold(0.0, f64::max);
    println!();
    println!("synthesis: {mean_ns:.1} ns/access mean, {max_ns:.1} max over the suite");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_study.json");
    write_baseline(
        baseline,
        "synth_hotpath",
        &[
            ("accesses_per_workload", ACCESSES as f64),
            ("workloads", ns.len() as f64),
            ("mean_ns_per_access", mean_ns),
            ("max_ns_per_access", max_ns),
        ],
    )
    .expect("write BENCH_study.json");
}
