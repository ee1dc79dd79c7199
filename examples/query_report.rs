//! The analysis layer as a library: run one small sweep, then query,
//! aggregate, baseline-join, re-render and diff it — everything after
//! the measurement is pure functions over the [`StudyReport`].
//!
//! Mirrors the "Query and compare studies" walkthrough in
//! EXPERIMENTS.md, which drives the same machinery from the `study`
//! CLI (`--format`, `--group-by`, `--baseline`, `compare`).
//!
//! ```sh
//! cargo run --release --example query_report
//! ```
//!
//! [`StudyReport`]: nbti_cache_repro::arch::study::StudyReport

use nbti_cache_repro::arch::analysis::{Axis, Query, Reduce, ReportDiff};
use nbti_cache_repro::arch::render::{self, Format};
use nbti_cache_repro::arch::report::Table;
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::study::{StudyReport, StudySpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Measure once: the paper's comparative pair — the conventional
    //    identity-indexed cache vs the Probing rotation — over two
    //    sizes and two workloads.
    let session = StudySession::new();
    let spec = StudySpec::new("query demo")
        .cache_kb([8, 16])
        .policies(["identity", "probing"])
        .workload_names(["sha", "CRC32"])?
        .trace_cycles(40_000);
    let report = session.run(&spec)?;

    // 2. Query: filter / group-by / reduce over any axis and metric.
    //    Groups come back in first-appearance order; empty selections
    //    and missing metrics are errors, never silent NaNs.
    println!("mean lifetime by (policy, cache size):");
    let rows = Query::new(&report)
        .group_by([Axis::Policy, Axis::CacheBytes])
        .reduce("lt_years", Reduce::Mean)?;
    for row in &rows {
        println!(
            "  {:>9} @ {:>5} B: {:.2} y",
            row.key[0], row.key[1], row.value
        );
    }

    // 3. Derive the paper's headline: lifetime gain over the baseline,
    //    as a join of scenarios differing only on the policy axis.
    println!("\nlifetime gain vs the conventional (identity) cache:");
    let gains = Query::new(&report).gain_vs(Axis::Policy, "identity", "lt_years")?;
    for g in &gains {
        println!(
            "  {:>7} / {:>5} @ {:>5} B: {:.2}x ({:.2} y over {:.2} y)",
            g.record.scenario.policy,
            g.record.scenario.workload,
            g.record.scenario.cache_bytes,
            g.gain,
            g.value,
            g.base
        );
    }
    let overall = Reduce::Geomean.apply(&gains.iter().map(|g| g.gain).collect::<Vec<_>>())?;
    println!("  geomean: {overall:.2}x");

    // 4. Re-render the derived result as a paper-ready Markdown table
    //    (the `study` CLI's --group-by/--baseline/--format path).
    let mut table = Table::new(
        "Lifetime gain vs identity",
        vec!["cache".into(), "gain".into()],
    );
    for size in Query::new(&report).distinct(Axis::CacheBytes) {
        let at_size: Vec<f64> = gains
            .iter()
            .filter(|g| Axis::CacheBytes.value_of(&g.record.scenario) == size)
            .map(|g| g.gain)
            .collect();
        table.push_row(vec![
            size.to_string(),
            format!("{:.2}x", Reduce::Geomean.apply(&at_size)?),
        ]);
    }
    println!("\n{}", render::table(&table, Format::Markdown));

    // 5. Round-trip and diff: the canonical JSON parses back into a
    //    report that diffs empty against the original, cell for cell —
    //    publishing a report loses nothing.
    let replayed = StudyReport::from_json(&report.to_json())?;
    let diff = ReportDiff::between(&report, &replayed, 0.0);
    assert!(diff.is_empty(), "round-trip must not move a cell: {diff}");
    println!(
        "round-trip diff: {} scenarios matched, clean",
        diff.matched()
    );
    Ok(())
}
