//! Where does the energy go? Breaks an energy ledger into its categories
//! for the monolithic baseline and the partitioned cache, across sizes —
//! the mechanics behind the paper's Esav columns.
//!
//! ```sh
//! cargo run --release --example energy_study
//! ```

use nbti_cache_repro::arch::arch::{PartitionedCache, UpdateSchedule};
use nbti_cache_repro::arch::report::Table;
use nbti_cache_repro::arch::PolicyRegistry;
use nbti_cache_repro::power::{BankArray, BreakevenAnalysis, EnergyModel, Technology};
use nbti_cache_repro::sim::CacheGeometry;
use nbti_cache_repro::traces::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = suite::by_name("gsme").expect("in suite");

    let mut table = Table::new(
        "Energy breakdown, gsme (fJ per cycle, averaged)",
        vec![
            "config".into(),
            "dynamic".into(),
            "leakage".into(),
            "wake".into(),
            "overhead".into(),
            "total".into(),
            "Esav %".into(),
        ],
    );

    for kb in [8u64, 16, 32] {
        let geom = CacheGeometry::direct_mapped(kb * 1024, 16, 4)?;
        let arch = PartitionedCache::new(geom, "identity", PolicyRegistry::global())?;
        let out = arch.simulate(profile.trace(5).take(320_000), UpdateSchedule::Never)?;
        let cycles = out.cycles as f64;
        let mono = &out.monolithic_baseline;
        table.push_row(vec![
            format!("{kb}kB monolithic"),
            format!("{:.1}", mono.dynamic_fj / cycles),
            format!("{:.1}", mono.leakage_fj / cycles),
            "0.0".into(),
            "0.0".into(),
            format!("{:.1}", mono.total_fj() / cycles),
            "-".into(),
        ]);
        table.push_row(vec![
            format!("{kb}kB partitioned"),
            format!("{:.1}", out.energy.dynamic_fj / cycles),
            format!("{:.1}", out.energy.leakage_fj / cycles),
            format!("{:.1}", out.energy.wake_fj / cycles),
            format!("{:.1}", out.energy.overhead_fj / cycles),
            format!("{:.1}", out.energy.total_fj() / cycles),
            format!("{:.1}", 100.0 * out.energy_saving()),
        ]);
    }
    println!("{table}");

    // The breakeven analysis that drives the Block Control sizing.
    let tech = Technology::default_45nm();
    let model = EnergyModel::new(tech)?;
    println!("\nBreakeven times (bank of a 16 B-line cache, M = 4):");
    for (kb, lines, tag) in [(8u64, 128u64, 20u64), (16, 256, 19), (32, 512, 18)] {
        let bank = BankArray::new(lines, 128, tag)?;
        let be = BreakevenAnalysis::for_bank(&model, &bank)?;
        println!(
            "  {kb:>2} kB cache: {:>3} cycles ({}-bit Block Control counters)",
            be.cycles(),
            be.counter_bits()
        );
    }
    Ok(())
}
