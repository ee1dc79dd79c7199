//! Runs the paper's evaluation on an *external* trace file instead of
//! the synthetic suite — the "bring your own workload" path — through
//! the [`StudySession`] front door, with a persistent result cache.
//!
//! The example fabricates a CSV trace on disk (in real use this is a
//! file from your own tooling: a Dinero `.din`, Valgrind Lackey output,
//! or CSV), then drives the Table II axes — cache size × the Probing
//! policy — over it by passing a `csv:path` key to the workload axis.
//! The report embeds the trace's format and content hash, so the JSON
//! is self-describing: anyone can verify which trace produced it. The
//! same content hash keys the session's result cache, so the second
//! run below replays the journal byte-identically without simulating
//! a single access.
//!
//! ```sh
//! cargo run --release --example trace_ingestion
//! ```
//!
//! [`StudySession`]: nbti_cache_repro::arch::session::StudySession

use nbti_cache_repro::arch::report::{pct, years, Table};
use nbti_cache_repro::arch::rescache::JsonlCache;
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::StudySpec;
use nbti_cache_repro::traces::formats::write_csv;
use nbti_cache_repro::traces::suite;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Fabricate an external trace: 200 k accesses of the calibrated
    //    `sha` generator, serialized as CSV. Any trace producer works —
    //    the pipeline only sees `addr,kind` pairs.
    let accesses: Vec<_> = suite::by_name("sha")
        .expect("suite workload")
        .trace(42)
        .take(200_000)
        .collect();
    let mut text = String::new();
    write_csv(&mut text, &accesses);
    let dir = std::env::temp_dir().join("nbti-trace-ingestion");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("my_workload.csv");
    std::fs::write(&path, &text)?;
    println!("wrote {} ({} accesses)", path.display(), accesses.len());

    // 2. Table II's axes, but with the workload axis pointing at the
    //    file. `csv:`/`din:`/`lackey:` keys resolve like suite names.
    //    The session journals every finished scenario into an on-disk
    //    JSONL cache keyed by the trace's *content hash* (not its
    //    path), the geometry, seeds and model.
    let cache_dir = dir.join("cache");
    let _ = std::fs::remove_dir_all(&cache_dir); // fresh demo
    let key = format!("csv:{}", path.display());
    let session = StudySession::new().cache(JsonlCache::in_dir(&cache_dir)?);
    let spec = StudySpec::new("Table II on an external trace")
        .cache_kb([8, 16, 32])
        .policies(["probing"])
        .workload_names([key.as_str()])?
        .trace_cycles(200_000)
        .policy_seed(1);
    let report = session.run(&spec)?;

    // 3. Render the table and show the provenance the report carries.
    let mut table = Table::new(
        "Esav / LT0 / LT vs cache size (external trace)",
        vec!["kB".into(), "Esav%".into(), "LT0".into(), "LT".into()],
    );
    for r in report.records() {
        table.push_row(vec![
            (r.scenario.cache_bytes / 1024).to_string(),
            pct(r.esav),
            years(r.lt0_years()),
            years(r.lt_years()),
        ]);
    }
    println!("{table}");

    let source = report.records()[0]
        .scenario
        .workload_source
        .as_ref()
        .expect("file-backed workloads carry provenance");
    println!(
        "workload provenance: format={} hash={}",
        source.format, source.hash
    );
    assert!(
        report.to_json().contains(&source.hash),
        "hash is in the JSON"
    );

    // 4. Re-run against the warm journal — as a fresh session, like a
    //    second process resuming an interrupted sweep. Zero
    //    simulations, byte-identical report.
    let resumed = StudySession::new().cache(JsonlCache::in_dir(&cache_dir)?);
    let replay = resumed.run(&spec)?;
    let stats = resumed.stats();
    assert_eq!(stats.simulations, 0, "warm journal: nothing to simulate");
    assert_eq!(replay.to_json(), report.to_json(), "byte-identical replay");
    println!(
        "warm re-run: {} scenarios replayed from {}, 0 simulations",
        stats.cache_hits,
        cache_dir.join(JsonlCache::FILE_NAME).display()
    );
    Ok(())
}
