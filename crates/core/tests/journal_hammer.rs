//! Two OS processes hammering one shared journal concurrently — the
//! case of two `study` runs, or a `study` run and `study serve`,
//! sharing one `--cache-dir`.
//!
//! The `cache_hammer` binary appends deterministic measurements for a
//! key range; two hammers race over *overlapping* ranges, so both
//! processes repeatedly try to journal the same fingerprints at the
//! same time. The append protocol (advisory file lock + absorb-before-
//! write) must leave exactly one line per distinct key, and the
//! reopened journal must pass `check_journal` with zero duplicate or
//! corrupt findings.

use aging_cache::check::{check_journal, CheckLevel};
use aging_cache::rescache::{JsonlCache, ResultCache};
use std::process::Command;

#[test]
fn two_process_hammer_leaves_a_duplicate_free_journal() {
    let dir = std::env::temp_dir().join(format!("nbti-journal-hammer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exe = env!("CARGO_BIN_EXE_cache_hammer");
    let spawn = |start: &str, count: &str| {
        Command::new(exe)
            .arg(&dir)
            .args([start, count])
            .spawn()
            .expect("spawn cache_hammer")
    };
    // 0..300 and 150..450: the middle 150 keys are contested.
    let mut a = spawn("0", "300");
    let mut b = spawn("150", "300");
    assert!(a.wait().unwrap().success(), "hammer a failed");
    assert!(b.wait().unwrap().success(), "hammer b failed");

    let cache = JsonlCache::in_dir(&dir).unwrap();
    assert_eq!(cache.len(), 450, "every key journaled at least once");
    let path = cache.path().to_path_buf();
    drop(cache);

    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        text.lines().count(),
        450,
        "every key journaled exactly once"
    );

    let checked = check_journal(&path);
    let noisy: Vec<_> = checked
        .report
        .findings()
        .iter()
        .filter(|f| f.level > CheckLevel::Info)
        .collect();
    assert!(
        noisy.is_empty(),
        "journal must have zero duplicate/corrupt findings: {noisy:?}"
    );
    assert_eq!(checked.keys.len(), 450);
    std::fs::remove_dir_all(&dir).unwrap();
}
