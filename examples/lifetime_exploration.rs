//! Design-space exploration: how cache size and bank count trade off
//! against lifetime — the paper's Table IV question, interactively.
//!
//! ```sh
//! cargo run --release --example lifetime_exploration
//! ```

use nbti_cache_repro::arch::experiment::ExperimentConfig;
use nbti_cache_repro::arch::presets;
use nbti_cache_repro::arch::report::{pct, years, Table};
use nbti_cache_repro::arch::session::StudySession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = StudySession::new();
    let cfg = ExperimentConfig::paper_reference().with_trace_cycles(160_000);

    let mut table = Table::new(
        "Design space: suite-average idleness and lifetime",
        vec![
            "config".into(),
            "avg idleness %".into(),
            "avg LT (years)".into(),
            "worst bench LT".into(),
            "gain vs 2.93y".into(),
        ],
    );

    for kb in [8u64, 16, 32] {
        for banks in [2u32, 4, 8, 16] {
            // Table I's preset (the full suite under Probing), moved to
            // this point of the design space.
            let spec = presets::table1(&cfg).cache_kb([kb]).banks([banks]);
            let results = session.run(&spec)?;
            let results = results.records();
            let n = results.len() as f64;
            let idle = results.iter().map(|r| r.avg_useful_idleness()).sum::<f64>() / n;
            let lt = results.iter().map(|r| r.lt_years()).sum::<f64>() / n;
            let worst = results
                .iter()
                .map(|r| r.lt_years())
                .fold(f64::INFINITY, f64::min);
            table.push_row(vec![
                format!("{kb} kB / M={banks}"),
                pct(idle),
                years(lt),
                years(worst),
                format!("+{} %", pct(lt / 2.93 - 1.0)),
            ]);
        }
    }
    table.push_note(
        "paper Table IV stops at M = 8; M = 16 is the paper's feasibility limit \
         (uniform banks floorplan well), and shows the diminishing return",
    );
    println!("{table}");
    Ok(())
}
