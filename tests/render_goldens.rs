//! Renderer determinism goldens: the Table II preset's Markdown and
//! CSV renderings, pinned byte-for-byte against checked-in fixtures,
//! and every study-backed paper view's text rendering, pinned against
//! the `study preset` stdout fixtures.
//!
//! The input is the PR-2-era Table II report fixture (see
//! `report_compat.rs` — generated by the pre-model-axis codebase and
//! never regenerated), so these tests pin the *renderers*: any change
//! to column layout, number formatting, quoting or line endings shows
//! up as a fixture diff, not as silent drift in published tables.
//!
//! To regenerate after an *intentional* rendering change:
//! `UPDATE_GOLDENS=1 cargo test --test render_goldens` — then review
//! the fixture diff like any other code change.

use nbti_cache_repro::arch::analysis::{self, Axis};
use nbti_cache_repro::arch::render::{self, Format};
use nbti_cache_repro::arch::report::Table;
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::study::{StudyReport, StudySpec};
use nbti_cache_repro::arch::views;
use nbti_cache_repro::arch::CoreError;

const REPORT_JSON: &str = include_str!("fixtures/pr2_table2_report.json");
const RENDERED_TEXT: &str = include_str!("fixtures/pr2_table2_rendered.txt");
const RENDERED_MD: &str = include_str!("fixtures/pr2_table2_rendered.md");
const RENDERED_CSV: &str = include_str!("fixtures/pr2_table2_rendered.csv");

const GEOMETRY_JSON: &str = include_str!("fixtures/geometry_grid_report.json");
const GEOMETRY_TEXT: &str = include_str!("fixtures/geometry_grid_rendered.txt");
const GEOMETRY_MD: &str = include_str!("fixtures/geometry_grid_rendered.md");
const GEOMETRY_CSV: &str = include_str!("fixtures/geometry_grid_rendered.csv");

fn fixture_report() -> StudyReport {
    StudyReport::from_json(REPORT_JSON).expect("PR-2 report must parse")
}

fn assert_or_update(rendered: &str, golden_path: &str, golden: &str, what: &str) {
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        let path = format!("{}/tests/{golden_path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    assert_eq!(
        rendered, golden,
        "{what} drifted from {golden_path} \
         (UPDATE_GOLDENS=1 regenerates after an intentional change)"
    );
}

fn check_golden(format: Format, golden_path: &str, golden: &str) {
    let rendered = render::report(&fixture_report(), views::table2, format).expect("render");
    assert_or_update(
        &rendered,
        golden_path,
        golden,
        &format!("{format} rendering of the Table II preset"),
    );
}

#[test]
fn table2_text_golden_is_the_historic_stdout() {
    // Format::Text is `study preset`'s default stdout; the golden
    // is the same fixture report_compat.rs pins, rendered through the
    // renderer family instead of Display directly.
    check_golden(
        Format::Text,
        "fixtures/pr2_table2_rendered.txt",
        RENDERED_TEXT,
    );
}

#[test]
fn table2_markdown_golden() {
    check_golden(
        Format::Markdown,
        "fixtures/pr2_table2_rendered.md",
        RENDERED_MD,
    );
}

#[test]
fn table2_csv_golden() {
    check_golden(
        Format::Csv,
        "fixtures/pr2_table2_rendered.csv",
        RENDERED_CSV,
    );
}

/// The geometry-axis grid behind the new goldens: a ways sweep with an
/// L2 level, small enough to simulate live in the test (everything is
/// seeded, so the bytes are reproducible anywhere).
fn geometry_report() -> StudyReport {
    let spec = StudySpec::new("geometry grid")
        .cache_kb([16])
        .line_bytes([16])
        .banks([4])
        .ways([1, 4])
        .l2_cache_kb([64])
        .l2_ways([4])
        .policies(["identity", "probing"])
        .workload_names(["dijkstra"])
        .expect("suite workload resolves")
        .trace_cycles(40_000);
    StudySession::new().run(&spec).expect("geometry grid runs")
}

fn check_geometry_golden(format: Format, golden_path: &str, golden: &str) {
    let report = geometry_report();
    let table = analysis::summary_table(&report, &[Axis::Ways, Axis::Policy], None)
        .expect("summary over the ways axis");
    assert_or_update(
        &render::table(&table, format),
        golden_path,
        golden,
        &format!("{format} rendering of the geometry grid"),
    );
}

#[test]
fn geometry_grid_report_json_golden() {
    // Pins the grid end to end: expansion order, scenario ids, the
    // ways/replacement/L2 codec fields, and the L2 metrics
    // (`sleep_fraction_l2` / `lt_years_l2`) riding in the open map.
    let json = geometry_report().to_json();
    assert_or_update(
        &json,
        "fixtures/geometry_grid_report.json",
        GEOMETRY_JSON,
        "the geometry grid report JSON",
    );
    if std::env::var_os("UPDATE_GOLDENS").is_none() {
        let back = StudyReport::from_json(GEOMETRY_JSON).expect("golden reparses");
        assert_eq!(back.to_json(), GEOMETRY_JSON, "golden round-trips");
    }
}

#[test]
fn geometry_grid_text_golden() {
    check_geometry_golden(
        Format::Text,
        "fixtures/geometry_grid_rendered.txt",
        GEOMETRY_TEXT,
    );
}

#[test]
fn geometry_grid_markdown_golden() {
    check_geometry_golden(
        Format::Markdown,
        "fixtures/geometry_grid_rendered.md",
        GEOMETRY_MD,
    );
}

#[test]
fn geometry_grid_csv_golden() {
    check_geometry_golden(
        Format::Csv,
        "fixtures/geometry_grid_rendered.csv",
        GEOMETRY_CSV,
    );
}

#[test]
fn table2_json_rendering_is_canonical_and_reparses() {
    let report = fixture_report();
    let json = render::report(&report, views::table2, Format::Json).expect("render");
    assert_eq!(json, REPORT_JSON.trim_end_matches('\n'), "canonical JSON");
    let back = StudyReport::from_json(&json).expect("reparse");
    assert_eq!(
        render::report(&back, views::table2, Format::Markdown).unwrap(),
        RENDERED_MD,
        "a re-parsed report renders identically"
    );
}

/// A paper view: report in, table out.
type View = fn(&StudyReport) -> Result<Table, CoreError>;

/// The view's part of a `study preset` stdout: everything after the
/// section rule some presets open with (a blank line, a rule, the
/// title and a rule), or the whole stdout.
fn after_section(stdout: &str) -> &str {
    match stdout.strip_prefix('\n') {
        Some(rest) => rest.splitn(4, '\n').last().unwrap_or(rest),
        None => stdout,
    }
}

/// Renders a report captured with `study preset <name> --format json`
/// through `view` as text, and checks it equals the view's bytes in the
/// preset's stdout fixture (the rendering plus the newline the verb
/// appends). The fixtures are the ones CI's preset byte-parity step
/// `cmp`s, so no simulation runs here.
fn check_view(view: View, report_json: &str, stdout: &str, what: &str) {
    let report = StudyReport::from_json(report_json).expect("captured report parses");
    let text = render::report(&report, view, Format::Text).expect("view renders");
    assert_eq!(
        format!("{text}\n"),
        after_section(stdout),
        "the {what} view drifted from its preset fixture"
    );
}

/// One view golden: the test, the view, its captured report (a path
/// under `tests/`) and its preset's stdout fixture.
macro_rules! view_golden {
    ($($test:ident: $view:ident, $report:literal, $preset:literal;)*) => {$(
        #[test]
        fn $test() {
            check_view(
                views::$view,
                include_str!($report),
                include_str!(concat!("../crates/bench/tests/fixtures/presets/", $preset)),
                stringify!($view),
            );
        }
    )*};
}

view_golden! {
    table1_view_golden: table1, "fixtures/views/table1.json", "table1.txt";
    table2_view_golden: table2,
        "../crates/bench/tests/fixtures/presets/table2.json.txt", "table2.txt";
    table3_view_golden: table3, "fixtures/views/table3.json", "table3.txt";
    table4_view_golden: table4, "fixtures/views/table4.json", "table4.txt";
    claims_view_golden: claims,
        "../crates/bench/tests/fixtures/presets/table2.json.txt", "claims.txt";
    policy_equivalence_view_golden: policy_equivalence,
        "fixtures/views/policy_equivalence.json", "policy_equivalence.txt";
    ablation_temperature_view_golden: ablation_temperature,
        "fixtures/views/ablation_temperature.json", "ablation_temperature.txt";
    ablation_vlow_view_golden: ablation_vlow,
        "fixtures/views/ablation_vlow.json", "ablation_vlow.txt";
    variation_study_view_golden: variation_study,
        "fixtures/views/variation_study.json", "variation_study.txt";
}
