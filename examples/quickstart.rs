//! Quickstart: simulate one workload on the paper's reference cache and
//! print the three headline quantities — energy saving, lifetime without
//! re-indexing (LT0) and lifetime with it (LT).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nbti_cache_repro::arch::experiment::ExperimentConfig;
use nbti_cache_repro::arch::session::StudySession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's reference configuration: a 16 kB direct-mapped cache
    // with 16 B lines, split into M = 4 uniform banks.
    let cfg = ExperimentConfig::paper_reference();

    // `sha` is the paper's best case: two banks stream constantly while
    // the other two are idle >94 % of the time.
    let spec = cfg.study("quickstart").workload_names(["sha"])?;
    let report = StudySession::new().run(&spec)?;
    let result = &report.records()[0];
    let (lt0, lt) = (result.lt0_years(), result.lt_years());

    println!("benchmark        : {}", result.scenario.workload);
    println!(
        "useful idleness  : {:?} %",
        result
            .useful_idleness
            .iter()
            .map(|v| (v * 1000.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!("energy saving    : {:.1} %", 100.0 * result.esav);
    println!("lifetime LT0     : {lt0:.2} years (power management only)");
    println!("lifetime LT      : {lt:.2} years (with Probing re-indexing)");
    println!(
        "re-indexing gain : +{:.0} % over the power-managed cache",
        100.0 * (lt - lt0) / lt0
    );
    println!(
        "vs monolithic    : {:.2}x the 2.93-year monolithic-cell lifetime",
        lt / 2.93
    );
    Ok(())
}
