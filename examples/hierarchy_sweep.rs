//! The geometry axis end to end: sweep associativity, put an L2 behind
//! the L1, and register a custom way-replacement policy by name. This
//! example doubles as an API smoke test for `StudySpec::ways()` /
//! `.replacement()` / `.l2_cache_kb()` and the per-level L2 metrics
//! (`sleep_fraction_l2`, `lt_years_l2`).
//!
//! ```sh
//! cargo run --release --example hierarchy_sweep
//! ```

use nbti_cache_repro::arch::analysis::{self, Axis};
use nbti_cache_repro::arch::render::{self, Format};
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::StudySpec;
use nbti_cache_repro::sim::ReplacementRegistry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Start from the built-ins (`lru`, `mru`) and add a user policy:
    // way 0 is pinned — never evicted — and the rest run true LRU.
    // Stamps are the per-way last-touch clocks; the policy must be a
    // pure function of them (replay determinism depends on it).
    let mut registry = ReplacementRegistry::builtin();
    registry.register_fn(
        "pin-way0",
        "never evicts way 0; LRU over the remaining ways (user example)",
        |stamps| {
            let rest = &stamps[1..];
            match rest.iter().enumerate().min_by_key(|&(_, s)| *s) {
                Some((i, _)) => i + 1,
                None => 0, // direct-mapped set: way 0 is all there is
            }
        },
    )?;

    // 2 ways × 3 replacements × {no L2, 64 kB 4-way L2} = 12 points.
    // (Direct-mapped points have no replacement decision to make, but
    // keeping them on the grid shows the axis collapsing gracefully.)
    let spec = StudySpec::new("hierarchy sweep")
        .cache_kb([16])
        .line_bytes([16])
        .banks([4])
        .ways([1, 4])
        .replacement(["lru", "mru", "pin-way0"])
        .replacement_registry(registry)
        .l2_cache_kb([0, 64])
        .l2_ways([4])
        .policies(["probing"])
        .workload_names(["dijkstra"])?
        .trace_cycles(160_000);
    let report = StudySession::new().run(&spec)?;

    let table = analysis::summary_table(
        &report,
        &[Axis::Ways, Axis::Replacement, Axis::L2CacheBytes],
        None,
    )?;
    println!("{}", render::table(&table, Format::Text));

    // The L2 sees only the L1 miss stream, so its banks sleep more
    // than the L1's and recover more NBTI stress.
    for r in report.records() {
        let Some(l2_sleep) = r.metric("sleep_fraction_l2") else {
            continue; // single-level point
        };
        let l1_sleep = r.sleep_fractions.iter().sum::<f64>() / r.sleep_fractions.len() as f64;
        assert!(
            l2_sleep > l1_sleep,
            "L1 filtering must induce L2 sleep ({l2_sleep:.3} vs {l1_sleep:.3})"
        );
        println!(
            "ways={} repl={:<8} L2 sleeps {:.1} % vs L1 {:.1} %  →  LT_l2 {:.2} y vs LT {:.2} y",
            r.scenario.ways,
            r.scenario.replacement,
            100.0 * l2_sleep,
            100.0 * l1_sleep,
            r.metric("lt_years_l2").unwrap_or(f64::NAN),
            r.lt_years(),
        );
    }
    Ok(())
}
