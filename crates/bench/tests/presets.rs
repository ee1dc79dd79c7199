//! The preset table behind `study preset`: presets that simulate
//! nothing reproduce their checked-in stdout byte for byte in-process,
//! names are unique and documented, and the verb rejects bad names and
//! sizes with a usage exit instead of a panic.
//!
//! The fixtures under `tests/fixtures/presets/` are the historic
//! stdout of each preset (`all.txt` for `all`, `table2.<format>.txt`
//! for the other formats). The simulating presets take about a minute
//! in release mode, so CI `cmp`s those through the release binary.

use aging_cache::render::Format;
use aging_cache::session::StudySession;
use repro_bench::presets::{self, Out, PRESETS};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn study() -> Command {
    Command::new(env!("CARGO_BIN_EXE_study"))
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/presets")
        .join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn non_simulating_presets_match_their_fixtures() {
    let session = StudySession::new();
    for name in [
        "rng_error",
        "snm_curves",
        "ablation_flip",
        "ablation_temperature",
        "ablation_vlow",
    ] {
        let preset = presets::find(name).expect("preset is in the table");
        let mut out = Out::new(&session, Format::Text);
        (preset.run)(&mut out).unwrap();
        assert_eq!(out.text, fixture(name), "{name}");
    }
    assert_eq!(session.stats().simulations, 0, "none of them simulates");
}

#[test]
fn every_preset_has_a_unique_name_and_a_fixture() {
    let mut names = BTreeSet::new();
    for p in PRESETS {
        assert!(names.insert(p.name), "duplicate preset `{}`", p.name);
        assert!(!p.description.is_empty(), "{}", p.name);
        assert!(!fixture(p.name).is_empty(), "{}", p.name);
    }
    for format in ["md", "csv", "json"] {
        assert!(!fixture(&format!("table2.{format}")).is_empty());
    }
}

#[test]
fn every_preset_is_documented_in_experiments_md() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).unwrap();
    for p in PRESETS {
        assert!(
            doc.contains(&format!("study preset {}", p.name)),
            "EXPERIMENTS.md does not mention preset `{}`",
            p.name
        );
    }
}

#[test]
fn unknown_or_missing_names_exit_2_and_list_the_presets() {
    for args in [&["preset", "nope"][..], &["preset"][..]] {
        let out = study().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for p in PRESETS {
            assert!(stderr.contains(p.name), "{args:?}: {stderr}");
        }
    }
    let out = study()
        .args(["preset", "rng_error", "--format", "pdf"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn the_verb_prints_the_preset_in_the_requested_format() {
    let out = study().args(["preset", "ablation_flip"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        fixture("ablation_flip")
    );
    let out = study()
        .args(["preset", "ablation_flip", "--format", "md"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("| p0 |"));
}

#[test]
fn overflowing_kb_sizes_fail_without_a_panic() {
    // 2^54 + 1 kB wraps to 1 kB in an unchecked multiply.
    for flag in ["--cache-kb", "--l2-kb"] {
        let out = study()
            .args([flag, "18014398509481985", "--workloads", "sha"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains("18014398509481985"), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
}
