//! The preset table behind `study preset`
//! (`aging_cache::presets::PRESETS`): presets that simulate nothing
//! reproduce their checked-in stdout byte for byte in-process, names
//! are unique and documented, `all` plans its studies as one grid, and
//! the verb rejects bad names and sizes with a usage exit instead of a
//! panic.
//!
//! The fixtures under `tests/fixtures/presets/` are the historic
//! stdout of each preset (`all.txt` for `all`, `table2.<format>.txt`
//! for the other formats). The simulating presets take seconds in
//! release mode, so CI `cmp`s those through the release binary.

use aging_cache::experiment::ExperimentConfig;
use aging_cache::presets::{self, Out, PRESETS};
use aging_cache::render::Format;
use aging_cache::search::ScenarioSpace;
use aging_cache::session::StudySession;
use aging_cache::study::{ScenarioGrid, StudySpec};
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
        let mut out = Out::new(Format::Text);
        preset.run(&session, &mut out).unwrap();
        assert_eq!(out.text, fixture(name), "{name}");
    }
    assert_eq!(session.stats().simulations, 0, "none of them simulates");
}

#[test]
fn all_plans_its_studies_as_one_grid() {
    // Tables I-IV, the claims and the policy study are 360 scenarios
    // as separate runs; their union is Table IV's 162 cells plus the
    // 32 B lines and the Scrambling column. Each trace streams once
    // through its 10 geometries (the group cap, ceil(180 / 2), holds
    // a whole trace).
    let cfg = ExperimentConfig::paper_reference().with_trace_cycles(20_000);
    let all = presets::find("all").expect("preset is in the table");
    let specs: Vec<_> = (all.specs)(&cfg)
        .into_iter()
        .map(|spec| spec.threads(2))
        .collect();
    let session = StudySession::new();
    let reports = presets::run_specs(&session, &specs).unwrap();
    let stats = session.stats();
    assert_eq!(union(&specs).cold_stats(2), stats, "predicted on 2 workers");
    assert_eq!(stats.scenarios, 198);
    assert_eq!(stats.simulations, 180);
    assert_eq!(stats.evaluations, 198);
    assert_eq!(stats.trace_opens, 18);

    // Each slice is its spec's own report: name, scenario ids and
    // measurements as a run of that spec alone.
    let table3 = StudySession::new().run(&specs[2]).unwrap();
    assert_eq!(reports[2].to_json(), table3.to_json());
    let sizes: Vec<usize> = reports.iter().map(|r| r.records().len()).collect();
    assert_eq!(sizes, [18, 54, 36, 162, 54, 36]);

    // Every row's plan counts what its union grid predicts, on one
    // worker and on two. Each session starts from the calibrations
    // the last one made.
    let cfg = ExperimentConfig::paper_reference().with_trace_cycles(2_000);
    let mut ctx = session.context().clone();
    for row in PRESETS {
        for threads in [1, 2] {
            let specs: Vec<_> = (row.specs)(&cfg)
                .into_iter()
                .map(|spec| spec.threads(threads))
                .collect();
            if specs.is_empty() {
                continue;
            }
            let session = StudySession::with_context(ctx.clone());
            presets::run_specs(&session, &specs).unwrap();
            let predicted = union(&specs).cold_stats(threads);
            assert_eq!(predicted, session.stats(), "{} on {threads}", row.name);
            ctx = session.context().clone();
        }
    }
}

/// The union grid `run_specs` plans `specs` as.
fn union(specs: &[StudySpec]) -> ScenarioGrid {
    let space = specs.iter().cloned().map(ScenarioSpace::grid);
    space
        .reduce(ScenarioSpace::union)
        .unwrap()
        .expand()
        .unwrap()
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
