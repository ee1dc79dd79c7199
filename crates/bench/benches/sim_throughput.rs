//! Simulator throughput on the batched path studies run, across bank
//! counts, cache sizes and update schedules, plus the speedup of the
//! batched kernel over the per-access reference. Every group replays
//! pre-generated traces, so trace synthesis is excluded from the
//! timings.
//!
//! The `hotpath` group times the two shapes the study benchmark runs —
//! one suite stream fanned out to the three Table II direct-mapped
//! sizes, and a 4-way L1 in front of a 4-way L2 — plus a single 16 kB
//! 2-way `mru` level, which takes the general tag lookup, and writes
//! the median over several runs of their ns/access into
//! `BENCH_study.json` as the `sim_hotpath` row. The host's scheduling
//! moves these figures by more than a kernel change does, so rows are
//! comparable only when both were written pinned to one CPU,
//!
//! `taskset -c 0 cargo bench -p repro-bench --bench sim_throughput`

use aging_cache::arch::{simulate_fanout, PartitionedCache, SimTarget, UpdateSchedule};
use aging_cache::{PolicyRegistry, ReplacementRegistry};
use cache_sim::{Access, CacheGeometry};
use repro_bench::harness::{median, write_baseline, Harness};
use std::time::{Duration, Instant};
use trace_synth::source::SliceSource;
use trace_synth::suite;

const CYCLES: usize = 100_000;

/// Accesses per suite workload in the `hotpath` shapes.
const HOTPATH_CYCLES: usize = 64_000;

/// How many harness runs each `sim_hotpath` figure is the median of.
const HOTPATH_RUNS: usize = 5;

fn arch(geom: CacheGeometry, policy: &str) -> PartitionedCache {
    PartitionedCache::new(geom, policy, PolicyRegistry::global().clone()).expect("arch")
}

fn trace(workload: &str, cycles: usize) -> Vec<Access> {
    let profile = suite::by_name(workload).expect("benchmark exists");
    profile.trace(1).take(cycles).collect()
}

fn bench_banks() {
    let trace = trace("dijkstra", CYCLES);
    let mut g = Harness::new("sim_throughput/banks");
    for banks in [2u32, 4, 8, 16] {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, banks).expect("geometry");
        let arch = arch(geom, "identity");
        g.bench_throughput(&banks.to_string(), CYCLES as u64, || {
            arch.simulate_batched(trace.iter().copied(), UpdateSchedule::Never)
                .expect("simulation")
        });
    }
}

fn bench_sizes() {
    let trace = trace("sha", CYCLES);
    let mut g = Harness::new("sim_throughput/cache_kb");
    for kb in [8u64, 16, 32] {
        let geom = CacheGeometry::direct_mapped(kb * 1024, 16, 4).expect("geometry");
        let arch = arch(geom, "identity");
        g.bench_throughput(&kb.to_string(), CYCLES as u64, || {
            arch.simulate_batched(trace.iter().copied(), UpdateSchedule::Never)
                .expect("simulation")
        });
    }
}

fn bench_update_schedules() {
    let trace = trace("CRC32", CYCLES);
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).expect("geometry");
    let arch = arch(geom, "probing");
    let mut g = Harness::new("sim_throughput/updates");
    for (label, schedule) in [
        ("never", UpdateSchedule::Never),
        ("every_10k", UpdateSchedule::EveryCycles(10_000)),
    ] {
        g.bench_throughput(label, CYCLES as u64, || {
            arch.simulate_batched(trace.iter().copied(), schedule)
                .expect("simulation")
        });
    }
}

/// Per-access `simulate` vs the batched `simulate_batched` fast path,
/// on identical pre-generated traces. Results are bitwise-identical by
/// construction — the gap is pure dispatch/sweep overhead.
fn bench_batched_vs_per_access() {
    let trace = trace("dijkstra", CYCLES);
    let mut g = Harness::new("sim_throughput/batched");
    for banks in [4u32, 8, 16] {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, banks).expect("geometry");
        let arch = arch(geom, "identity");
        g.bench_throughput(&format!("per_access/M{banks}"), CYCLES as u64, || {
            arch.simulate(trace.iter().copied(), UpdateSchedule::Never)
                .expect("simulation")
        });
        g.bench_throughput(&format!("batched/M{banks}"), CYCLES as u64, || {
            arch.simulate_batched(trace.iter().copied(), UpdateSchedule::Never)
                .expect("simulation")
        });
    }

    // Explicit wall-clock comparison at the reference geometry, long
    // enough to swamp timer noise.
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).expect("geometry");
    let arch = arch(geom, "identity");
    let time = |f: &dyn Fn()| {
        f(); // warm-up
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed());
        }
        best
    };
    let scalar = time(&|| {
        arch.simulate(trace.iter().copied(), UpdateSchedule::Never)
            .map(std::mem::drop)
            .expect("simulation");
    });
    let batched = time(&|| {
        arch.simulate_batched(trace.iter().copied(), UpdateSchedule::Never)
            .map(std::mem::drop)
            .expect("simulation");
    });
    println!();
    println!(
        "batched speedup at 16 kB / M=4: {:.2}x (per-access {:?}, batched {:?}, {} cycles)",
        scalar.as_secs_f64() / batched.as_secs_f64(),
        scalar,
        batched,
        CYCLES
    );
}

/// The study benchmark's two simulation shapes over every suite
/// workload, on the path studies run (`simulate_fanout`).
fn bench_hotpath() {
    let traces: Vec<Vec<Access>> = suite::mediabench()
        .iter()
        .map(|profile| profile.trace(1000).take(HOTPATH_CYCLES).collect())
        .collect();
    let accesses = (traces.len() * HOTPATH_CYCLES) as u64;
    let run = |targets: &dyn Fn() -> Vec<SimTarget>| {
        for trace in &traces {
            let mut targets = targets();
            simulate_fanout(
                &mut SliceSource::new(trace),
                &mut targets,
                None,
                UpdateSchedule::Never,
            )
            .expect("simulation");
            for target in targets {
                std::hint::black_box(target.finish());
            }
        }
    };
    let mut g = Harness::new("sim_throughput/hotpath");

    // Table II: one stream per workload, fanned out to 8/16/32 kB.
    let sizes: Vec<PartitionedCache> = [8u64, 16, 32]
        .iter()
        .map(|kb| {
            let geom = CacheGeometry::direct_mapped(kb * 1024, 16, 4).expect("geometry");
            arch(geom, "probing")
        })
        .collect();
    let fanout = || {
        run(&|| {
            sizes
                .iter()
                .map(|a| SimTarget::Level(a.simulator().expect("simulator")))
                .collect()
        })
    };

    // The hierarchy study: 16 kB 4-way L1 in front of a 64 kB 4-way L2.
    let level = |kb: u64| {
        let geom = CacheGeometry::new(kb * 1024, 16, 4, 4).expect("geometry");
        arch(geom, "probing")
    };
    let (l1, l2) = (level(16), level(64));
    let hierarchy = || run(&|| vec![SimTarget::Hierarchy(l1.hierarchy(&l2).expect("hierarchy"))]);

    // A registered policy on a width without a built-in-LRU kernel:
    // the general `CacheArray::access` lookup.
    let mru = arch(
        CacheGeometry::new(16 * 1024, 16, 2, 4).expect("geometry"),
        "probing",
    )
    .with_replacement("mru", ReplacementRegistry::global().clone())
    .expect("mru is registered");
    let generic = || run(&|| vec![SimTarget::Level(mru.simulator().expect("simulator"))]);

    let (mut fanouts, mut hierarchies, mut generics) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..HOTPATH_RUNS {
        fanouts.push(g.bench_throughput("dm_fanout_8_16_32kb", accesses, fanout));
        hierarchies.push(g.bench_throughput("l1_16kb_4way_l2_64kb_4way", accesses, hierarchy));
        generics.push(g.bench_throughput("l1_16kb_2way_mru", accesses, generic));
    }
    let (fanout, hierarchy, generic) = (
        median(&mut fanouts),
        median(&mut hierarchies),
        median(&mut generics),
    );

    let dm_ns = fanout / accesses as f64 / sizes.len() as f64;
    let l1_l2_ns = hierarchy / accesses as f64;
    let mru_ns = generic / accesses as f64;
    println!();
    println!(
        "hot path: {dm_ns:.1} ns/access/geometry direct-mapped, {l1_l2_ns:.1} ns/access L1+L2, \
         {mru_ns:.1} ns/access 2-way mru"
    );
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_study.json");
    write_baseline(
        baseline,
        "sim_hotpath",
        &[
            ("accesses_per_shape", accesses as f64),
            ("runs", HOTPATH_RUNS as f64),
            ("dm_fanout_ns_per_access_per_geometry", dm_ns),
            ("l1_l2_ns_per_access", l1_l2_ns),
            ("mru_2way_ns_per_access", mru_ns),
        ],
    )
    .expect("write BENCH_study.json");
}

fn main() {
    bench_banks();
    bench_sizes();
    bench_update_schedules();
    bench_batched_vs_per_access();
    bench_hotpath();
}
