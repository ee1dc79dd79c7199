//! Shared-journal stress tool: stands in for two processes — two
//! `study` runs, or a `study` run next to `study serve` — appending
//! to one `--cache-dir` at once.
//!
//! Appends a deterministic run of synthetic measurements to a shared
//! [`JsonlCache`] directory:
//!
//! ```text
//! cache_hammer <cache-dir> <start> <count>
//! ```
//!
//! Keys are `v=<ENGINE_VERSION>;hammer;k=<i>` for `i` in
//! `start..start + count`, and the measurement stored under key `i` is
//! a pure function of `i` — so two hammers racing over *overlapping*
//! ranges attempt to journal identical lines for the shared keys, and
//! the journal is correct iff each key ends up on exactly one line.
//! `tests/journal_hammer.rs` drives two of these concurrently and then
//! holds the reopened journal to `check_journal` (zero duplicate or
//! corrupt findings); the CI shared-cache-dir smoke races two real
//! `study` runs the same way.

use aging_cache::rescache::{CachedMeasurement, Fingerprint, JsonlCache, ResultCache};

fn measurement(i: u64) -> CachedMeasurement {
    CachedMeasurement {
        sim_cycles: 1_000 + i,
        esav: (i as f64) / 1_000.0,
        miss_rate: (i as f64 % 97.0) / 97.0,
        useful_idleness: vec![0.25, (i as f64 % 11.0) / 11.0],
        sleep_fractions: vec![0.125, (i as f64 % 13.0) / 13.0],
        metrics: aging_cache::model::Metrics::from_pairs([("lt0_years", 1.0 + i as f64)]),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let [dir, start, count] = args else {
        return Err("usage: cache_hammer <cache-dir> <start> <count>".into());
    };
    let start: u64 = start.parse().map_err(|e| format!("bad start: {e}"))?;
    let count: u64 = count.parse().map_err(|e| format!("bad count: {e}"))?;
    let cache = JsonlCache::in_dir(dir).map_err(|e| e.to_string())?;
    for i in start..start + count {
        let fp = Fingerprint::from_canonical(format!(
            "v={};hammer;k={i}",
            aging_cache::rescache::ENGINE_VERSION
        ));
        cache
            .store(&fp, &measurement(i))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(message) = run(&args) {
        eprintln!("cache_hammer: {message}");
        std::process::exit(1);
    }
}
