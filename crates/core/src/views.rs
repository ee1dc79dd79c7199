//! Pure table views over [`StudyReport`]s.
//!
//! The old `tableN` runners measured *and* rendered. After the Study
//! API redesign, measurement lives in [`crate::study`] and these
//! functions are pure: `StudyReport` in, [`Table`] out, with the paper's
//! published values ([`crate::paper`]) laid alongside. They accept any
//! report with the right shape — presets produce that shape, but so can
//! custom specs, and a report parsed back from JSON renders the same
//! table a live run would.
//!
//! Views sit on the analysis layer: grouping order comes from
//! [`crate::analysis`], and the [`Table`]s they return render in any
//! [`crate::render::Format`] (the historic stdout is
//! [`Format::Text`](crate::render::Format::Text), byte for byte). For
//! ad-hoc slices that no fixed view covers, query the report directly
//! with [`crate::analysis::Query`].
//!
//! # Examples
//!
//! Views compose with serialized reports — render first, persist, and
//! re-render later without re-measuring:
//!
//! ```no_run
//! use aging_cache::study::StudyReport;
//! use aging_cache::views;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let json = std::fs::read_to_string("table2.json").expect("saved report");
//! let report = StudyReport::from_json(&json)?;
//! println!("{}", views::table2(&report)?);
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use crate::model::{ModelKey, METRIC_LT, METRIC_LT0, REFERENCE_TEMP_C, REFERENCE_VLOW};
use crate::paper;
use crate::report::{factor, pct, years, Table};
use crate::study::{ScenarioRecord, StudyReport};
use nbti_model::RdModel;
use trace_synth::suite;

fn shape_err<T>(view: &str, detail: String) -> Result<T, CoreError> {
    Err(CoreError::Report {
        message: format!("{view} view: {detail}"),
    })
}

/// Mean of a metric over a record subset, or a shape error naming the
/// view and the axis value whose subset came up empty (an empty subset
/// used to silently render `NaN`).
fn mean_of(
    view: &str,
    what: &str,
    values: impl IntoIterator<Item = Result<f64, CoreError>>,
) -> Result<f64, CoreError> {
    let values = values.into_iter().collect::<Result<Vec<f64>, _>>()?;
    if values.is_empty() {
        return shape_err(view, format!("no records for {what}"));
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// A named metric of one record, or a shape error saying which record
/// lacks it (a model that does not emit the metric).
fn metric_of(view: &str, r: &ScenarioRecord, name: &str) -> Result<f64, CoreError> {
    match r.metric(name) {
        Some(v) => Ok(v),
        None => shape_err(
            view,
            format!(
                "record for `{}` (model `{}`) lacks metric `{name}`",
                r.scenario.workload, r.scenario.model
            ),
        ),
    }
}

/// Distinct values of a scenario key, in order of first appearance —
/// the analysis layer's ordering ([`crate::analysis::distinct_by`]),
/// so views and [`crate::analysis::Query::groups`] always agree on
/// group order.
fn distinct<'a, K: PartialEq + Copy>(
    report: &'a StudyReport,
    key: impl Fn(&'a ScenarioRecord) -> K,
) -> Vec<K> {
    crate::analysis::distinct_by(report.records(), key)
}

/// Records for one value of a key, preserving order.
fn group<'a, K: PartialEq + Copy>(
    report: &'a StudyReport,
    key: impl Fn(&'a ScenarioRecord) -> K + 'a,
    value: K,
) -> Vec<&'a ScenarioRecord> {
    report
        .records()
        .iter()
        .filter(|r| key(r) == value)
        .collect()
}

/// **Table I** — distribution of useful idleness, measured next to the
/// paper's published row. Expects one record per suite benchmark at a
/// single 4-bank configuration.
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn table1(report: &StudyReport) -> Result<Table, CoreError> {
    let records = report.records();
    let reference = suite::table1_reference();
    if records.len() != reference.len() {
        return shape_err(
            "table1",
            format!(
                "expected {} records, got {}",
                reference.len(),
                records.len()
            ),
        );
    }
    let mut t = Table::new(
        "Table I - distribution of idleness in a 4-bank cache (measured | paper)",
        vec![
            "bench".into(),
            "I0".into(),
            "I1".into(),
            "I2".into(),
            "I3".into(),
            "Average".into(),
            "paper avg".into(),
        ],
    );
    for r in records {
        if r.useful_idleness.len() != 4 {
            return shape_err(
                "table1",
                format!(
                    "{} has {} banks, need 4",
                    r.scenario.workload,
                    r.useful_idleness.len()
                ),
            );
        }
        // Pair by name, not position: custom specs may order the
        // workload axis differently from the suite.
        let Some((_, paper_row)) = reference
            .iter()
            .find(|(name, _)| *name == r.scenario.workload)
        else {
            return shape_err(
                "table1",
                format!(
                    "workload `{}` has no Table I reference row",
                    r.scenario.workload
                ),
            );
        };
        let paper_avg = paper_row.iter().sum::<f64>() / 4.0;
        t.push_row(vec![
            r.scenario.workload.clone(),
            pct(r.useful_idleness[0]),
            pct(r.useful_idleness[1]),
            pct(r.useful_idleness[2]),
            pct(r.useful_idleness[3]),
            pct(r.avg_useful_idleness()),
            pct(paper_avg),
        ]);
    }
    let overall_esav = mean_of("table1", "the suite", records.iter().map(|r| Ok(r.esav)))?;
    let avg_idle =
        records.iter().map(|r| r.avg_useful_idleness()).sum::<f64>() / records.len() as f64;
    t.push_note(format!(
        "suite average idleness {} % (paper: 41.71 %); Esav at this configuration {} %",
        pct(avg_idle),
        pct(overall_esav)
    ));
    Ok(t)
}

/// **Table II** — energy savings and lifetime vs cache size. Expects the
/// suite at each of the paper's three sizes (8/16/32 kB).
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn table2(report: &StudyReport) -> Result<Table, CoreError> {
    let sizes = distinct(report, |r| r.scenario.cache_bytes);
    if sizes.len() != 3 {
        return shape_err(
            "table2",
            format!("expected 3 cache sizes, got {}", sizes.len()),
        );
    }
    let data: Vec<(u64, Vec<&ScenarioRecord>)> = sizes
        .iter()
        .map(|&s| (s / 1024, group(report, |r| r.scenario.cache_bytes, s)))
        .collect();
    let benches = data[0].1.len();
    if data.iter().any(|(_, records)| records.len() != benches) {
        return shape_err(
            "table2",
            format!(
                "unbalanced size groups: {:?}",
                data.iter()
                    .map(|(kb, r)| (*kb, r.len()))
                    .collect::<Vec<_>>()
            ),
        );
    }
    let mut headers = vec!["bench".into()];
    for (kb, _) in &data {
        headers.push(format!("{kb}k Esav%"));
        headers.push(format!("{kb}k LT0"));
        headers.push(format!("{kb}k LT"));
    }
    let mut t = Table::new(
        "Table II - energy savings and lifetime vs cache size (measured)",
        headers,
    );
    for i in 0..benches {
        let mut row = vec![data[0].1[i].scenario.workload.clone()];
        for (_, records) in &data {
            let r = records[i];
            row.push(pct(r.esav));
            row.push(years(metric_of("table2", r, METRIC_LT0)?));
            row.push(years(metric_of("table2", r, METRIC_LT)?));
        }
        t.push_row(row);
    }
    let mut avg_row = vec!["Average".to_string()];
    let mut paper_row = vec!["(paper avg)".to_string()];
    for (s, (kb, records)) in data.iter().enumerate() {
        let what = format!("{kb} kB");
        avg_row.push(pct(mean_of(
            "table2",
            &what,
            records.iter().map(|r| Ok(r.esav)),
        )?));
        avg_row.push(years(mean_of(
            "table2",
            &what,
            records.iter().map(|r| metric_of("table2", r, METRIC_LT0)),
        )?));
        avg_row.push(years(mean_of(
            "table2",
            &what,
            records.iter().map(|r| metric_of("table2", r, METRIC_LT)),
        )?));
        paper_row.push(pct(paper::TABLE2_AVG.0[s]));
        paper_row.push(years(paper::TABLE2_AVG.1[s]));
        paper_row.push(years(paper::TABLE2_AVG.2[s]));
    }
    t.push_row(avg_row);
    t.push_row(paper_row);
    t.push_note("paper averages: Esav 32.2/44.3/55.5 %, LT0 3.22/3.19/3.20 y, LT 4.34/4.31/4.62 y");
    Ok(t)
}

/// **Table III** — energy savings and lifetime vs line size. Expects the
/// suite at two line sizes.
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn table3(report: &StudyReport) -> Result<Table, CoreError> {
    let lines = distinct(report, |r| r.scenario.line_bytes);
    if lines.len() != 2 {
        return shape_err(
            "table3",
            format!("expected 2 line sizes, got {}", lines.len()),
        );
    }
    let ls16 = group(report, |r| r.scenario.line_bytes, lines[0]);
    let ls32 = group(report, |r| r.scenario.line_bytes, lines[1]);
    if ls16.len() != ls32.len() {
        return shape_err(
            "table3",
            format!(
                "unbalanced line-size groups: {} vs {}",
                ls16.len(),
                ls32.len()
            ),
        );
    }
    let mut t = Table::new(
        "Table III - energy savings and lifetime vs line size (measured)",
        vec![
            "bench".into(),
            "LS16 Esav%".into(),
            "LS16 LT".into(),
            "LS32 Esav%".into(),
            "LS32 LT".into(),
        ],
    );
    for i in 0..ls16.len() {
        t.push_row(vec![
            ls16[i].scenario.workload.clone(),
            pct(ls16[i].esav),
            years(metric_of("table3", ls16[i], METRIC_LT)?),
            pct(ls32[i].esav),
            years(metric_of("table3", ls32[i], METRIC_LT)?),
        ]);
    }
    t.push_row(vec![
        "Average".into(),
        pct(mean_of("table3", "LS16", ls16.iter().map(|r| Ok(r.esav)))?),
        years(mean_of(
            "table3",
            "LS16",
            ls16.iter().map(|r| metric_of("table3", r, METRIC_LT)),
        )?),
        pct(mean_of("table3", "LS32", ls32.iter().map(|r| Ok(r.esav)))?),
        years(mean_of(
            "table3",
            "LS32",
            ls32.iter().map(|r| metric_of("table3", r, METRIC_LT)),
        )?),
    ]);
    t.push_note(format!(
        "paper averages: Esav {} / {} %, LT {} / {} y",
        pct(paper::TABLE3_AVG[0]),
        pct(paper::TABLE3_AVG[2]),
        years(paper::TABLE3_AVG[1]),
        years(paper::TABLE3_AVG[3]),
    ));
    Ok(t)
}

/// **Table IV** — average idleness and lifetime over the (size × banks)
/// grid, measured next to the paper's rows.
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn table4(report: &StudyReport) -> Result<Table, CoreError> {
    let sizes = distinct(report, |r| r.scenario.cache_bytes);
    let bank_counts = {
        let mut b = distinct(report, |r| r.scenario.banks);
        b.sort_unstable();
        b
    };
    if sizes.len() != 3 || bank_counts.len() != 3 {
        return shape_err(
            "table4",
            format!(
                "expected a 3x3 (size x banks) grid, got {}x{}",
                sizes.len(),
                bank_counts.len()
            ),
        );
    }
    let mut t = Table::new(
        "Table IV - average idleness and lifetime vs cache size and banks (measured | paper)",
        vec![
            "size".into(),
            "M=2 idl%".into(),
            "M=2 LT".into(),
            "M=4 idl%".into(),
            "M=4 LT".into(),
            "M=8 idl%".into(),
            "M=8 LT".into(),
        ],
    );
    for (row_idx, &bytes) in sizes.iter().enumerate() {
        let mut row = vec![format!("{}kB", bytes / 1024)];
        for &banks in &bank_counts {
            let cell: Vec<&ScenarioRecord> = report
                .records()
                .iter()
                .filter(|r| r.scenario.cache_bytes == bytes && r.scenario.banks == banks)
                .collect();
            // A sparse grid can leave a (size, banks) cell empty even
            // when both axes pass the 3×3 check; an empty mean used to
            // render NaN here.
            let what = format!("{}kB / M={banks}", bytes / 1024);
            let idle = mean_of(
                "table4",
                &what,
                cell.iter().map(|r| Ok(r.avg_useful_idleness())),
            )?;
            let lt = mean_of(
                "table4",
                &what,
                cell.iter().map(|r| metric_of("table4", r, METRIC_LT)),
            )?;
            row.push(pct(idle));
            row.push(years(lt));
        }
        t.push_row(row);
        let p = paper::TABLE4[row_idx];
        t.push_row(vec![
            format!("(paper {}kB)", p.size_kb),
            pct(p.per_banks[0].0),
            years(p.per_banks[0].1),
            pct(p.per_banks[1].0),
            years(p.per_banks[1].1),
            pct(p.per_banks[2].0),
            years(p.per_banks[2].1),
        ]);
    }
    Ok(t)
}

/// The headline quantities of §IV-B1, computed from measured data.
struct ClaimsSummary {
    /// Mean LT0 / 2.93 − 1 at the first size (paper: ≈ 9 % at 8 kB).
    lt0_gain: f64,
    /// Mean (LT − LT0)/LT0 at the first size (paper: ≈ 38 % at 8 kB).
    reindex_further_gain: f64,
    /// `(kB, mean LT / 2.93 − 1)` per size (paper: 48 / 47.1 / 57.6 %).
    extension_per_size: Vec<(u64, f64)>,
    /// The largest single LT / 2.93 across suite and sizes with its
    /// benchmark (paper: sha, ≈ 2x).
    best_case: (String, f64),
    /// The smallest single LT / 2.93 across suite and sizes (paper:
    /// ≥ 22 % gain for the worst configuration).
    worst_case: (String, f64),
}

/// Computes the headline claims from a Table II-shaped report: records
/// grouped by cache size in grid order, the first size standing for
/// the paper's 8 kB column.
fn claims_from(report: &StudyReport) -> Result<ClaimsSummary, CoreError> {
    let base = paper::CELL_LIFETIME_YEARS;
    let mut lifetimes = Vec::new();
    for bytes in distinct(report, |r| r.scenario.cache_bytes) {
        let mut cell = Vec::new();
        for r in group(report, |r| r.scenario.cache_bytes, bytes) {
            let lt0 = metric_of("claims", r, METRIC_LT0)?;
            let lt = metric_of("claims", r, METRIC_LT)?;
            cell.push((r.scenario.workload.as_str(), lt0, lt));
        }
        lifetimes.push((bytes / 1024, cell));
    }
    let Some((_, first)) = lifetimes.first() else {
        return shape_err("claims", "report is empty".into());
    };
    let n = first.len() as f64;
    let lt0_gain = first.iter().map(|c| c.1).sum::<f64>() / n / base - 1.0;
    let reindex_further_gain = first
        .iter()
        .map(|&(_, lt0, lt)| (lt - lt0) / lt0)
        .sum::<f64>()
        / n;
    let extension_per_size = lifetimes
        .iter()
        .map(|(kb, cell)| {
            let mean = cell.iter().map(|c| c.2).sum::<f64>() / cell.len() as f64;
            (*kb, mean / base - 1.0)
        })
        .collect();
    let mut best = ("", 0.0f64);
    let mut worst = ("", f64::INFINITY);
    for &(name, _, lt) in lifetimes.iter().flat_map(|(_, cell)| cell) {
        let f = lt / base;
        if f > best.1 {
            best = (name, f);
        }
        if f < worst.1 {
            worst = (name, f);
        }
    }
    Ok(ClaimsSummary {
        lt0_gain,
        reindex_further_gain,
        extension_per_size,
        best_case: (best.0.to_string(), best.1),
        worst_case: (worst.0.to_string(), worst.1),
    })
}

/// §IV-B1 headline-claims comparison, from a Table II-shaped report.
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn claims(report: &StudyReport) -> Result<Table, CoreError> {
    let s = claims_from(report)?;
    if s.extension_per_size.len() != paper::claims::EXTENSION_PER_SIZE.len() {
        return shape_err(
            "claims",
            format!("expected 3 cache sizes, got {}", s.extension_per_size.len()),
        );
    }
    let mut t = Table::new(
        "Headline claims (measured vs paper)",
        vec!["claim".into(), "measured".into(), "paper".into()],
    );
    t.push_row(vec![
        "LT0 gain from power mgmt alone (8kB)".into(),
        format!("{} %", pct(s.lt0_gain)),
        format!("{} %", pct(paper::claims::LT0_IMPROVEMENT)),
    ]);
    t.push_row(vec![
        "further gain from re-indexing (8kB)".into(),
        format!("{} %", pct(s.reindex_further_gain)),
        format!("{} %", pct(paper::claims::REINDEX_FURTHER_IMPROVEMENT)),
    ]);
    for ((kb, ext), published) in s
        .extension_per_size
        .iter()
        .zip(paper::claims::EXTENSION_PER_SIZE)
    {
        t.push_row(vec![
            format!("lifetime extension at {kb} kB"),
            format!("{} %", pct(*ext)),
            format!("{} %", pct(published)),
        ]);
    }
    t.push_row(vec![
        format!("best case ({})", s.best_case.0),
        factor(s.best_case.1),
        format!("{} (sha)", factor(paper::claims::BEST_CASE_FACTOR)),
    ]);
    t.push_row(vec![
        format!("worst case ({})", s.worst_case.0),
        factor(s.worst_case.1),
        format!(">= {}", factor(1.0 + paper::claims::WORST_CASE_GAIN)),
    ]);
    Ok(t)
}

/// §IV-B2 — per-benchmark lifetimes under two policies, side by side.
/// Expects a report over exactly two policies (by default Probing and
/// Scrambling) at one geometry.
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn policy_equivalence(report: &StudyReport) -> Result<Table, CoreError> {
    let policies = distinct(report, |r| r.scenario.policy.as_str());
    if policies.len() != 2 {
        return shape_err(
            "policy_equivalence",
            format!("expected 2 policies, got {:?}", policies),
        );
    }
    let a = group(report, |r| r.scenario.policy.as_str(), policies[0]);
    let b = group(report, |r| r.scenario.policy.as_str(), policies[1]);
    if a.len() != b.len() {
        return shape_err(
            "policy_equivalence",
            format!("unbalanced policy groups: {} vs {}", a.len(), b.len()),
        );
    }
    let mut t = Table::new(
        format!(
            "{} vs {} lifetimes",
            capitalize(policies[0]),
            capitalize(policies[1])
        ),
        vec![
            "bench".into(),
            format!("LT {}", policies[0]),
            format!("LT {}", policies[1]),
            "delta %".into(),
        ],
    );
    for (ra, rb) in a.iter().zip(&b) {
        let lta = metric_of("policy_equivalence", ra, METRIC_LT)?;
        let ltb = metric_of("policy_equivalence", rb, METRIC_LT)?;
        t.push_row(vec![
            ra.scenario.workload.clone(),
            years(lta),
            years(ltb),
            format!("{:+.2}", 100.0 * (ltb - lta) / lta),
        ]);
    }
    Ok(t)
}

/// The drowsy rail a record's model operates at (the reference 0.75 V
/// unless its key overrides `vlow`).
fn vlow_of(model: &str) -> Result<f64, CoreError> {
    Ok(ModelKey::parse(model)?
        .and_then(|k| k.params.vdd_low)
        .unwrap_or(REFERENCE_VLOW))
}

/// Ablation view: operating temperature vs LT0/LT, one row per model
/// on the temperature axis (see
/// [`presets::ablation_temperature`](crate::presets::ablation_temperature)).
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn ablation_temperature(report: &StudyReport) -> Result<Table, CoreError> {
    let models = distinct(report, |r| r.scenario.model.as_str());
    if models.is_empty() {
        return shape_err("ablation_temperature", "report is empty".into());
    }
    let mut t = Table::new(
        "Ablation: operating temperature (calibration fixed at 85 degC)",
        vec![
            "temperature".into(),
            "LT0".into(),
            "LT (probing)".into(),
            "reindex gain %".into(),
        ],
    );
    for key in models {
        let records = group(report, |r| r.scenario.model.as_str(), key);
        let celsius = ModelKey::parse(key)?
            .and_then(|k| k.params.temp_c)
            .unwrap_or(REFERENCE_TEMP_C);
        let lt0 = mean_of(
            "ablation_temperature",
            key,
            records
                .iter()
                .map(|r| metric_of("ablation_temperature", r, METRIC_LT0)),
        )?;
        let lt = mean_of(
            "ablation_temperature",
            key,
            records
                .iter()
                .map(|r| metric_of("ablation_temperature", r, METRIC_LT)),
        )?;
        t.push_row(vec![
            format!("{celsius:.0} degC"),
            years(lt0),
            years(lt),
            format!("{:+.1}", 100.0 * (lt - lt0) / lt0),
        ]);
    }
    t.push_note("the re-indexing gain is a pure ratio and survives any uniform rate scaling");
    Ok(t)
}

/// Ablation view: the drowsy-voltage design knob — aging deceleration
/// and lifetime (from the `nbti` records) next to the fresh/aged DRV
/// safety margins (from the `drv` records), one row per rail value
/// (see [`presets::ablation_vlow`](crate::presets::ablation_vlow)).
///
/// # Errors
///
/// Returns [`CoreError::Report`] if a rail value lacks either its
/// lifetime or its retention-margin records.
pub fn ablation_vlow(report: &StudyReport) -> Result<Table, CoreError> {
    let mut vlows: Vec<f64> = Vec::new();
    for r in report.records() {
        let v = vlow_of(&r.scenario.model)?;
        if !vlows.contains(&v) {
            vlows.push(v);
        }
    }
    if vlows.is_empty() {
        return shape_err("ablation_vlow", "report is empty".into());
    }
    vlows.sort_by(f64::total_cmp);
    // Calibration only re-fits the drift coefficient; the voltage
    // acceleration exponent and voltage anchors are design constants,
    // so the published R–D model reproduces the solver's ratio exactly.
    let rd = RdModel::default_45nm();
    let mut t = Table::new(
        "Ablation: drowsy rail voltage (sha-like idleness, Probing)",
        vec![
            "Vdd,low".into(),
            "aging accel in sleep".into(),
            "LT (years)".into(),
            "fresh DRV margin".into(),
            "aged DRV margin".into(),
        ],
    );
    for &vlow in &vlows {
        let at_rail: Vec<&ScenarioRecord> = report
            .records()
            .iter()
            .filter(|r| vlow_of(&r.scenario.model).is_ok_and(|v| v == vlow))
            .collect();
        let pick = |metric: &str| -> Result<f64, CoreError> {
            mean_of(
                "ablation_vlow",
                &format!("vlow={vlow} metric {metric}"),
                at_rail
                    .iter()
                    .filter_map(|r| r.metric(metric))
                    .map(Ok)
                    .collect::<Vec<_>>(),
            )
        };
        t.push_row(vec![
            format!("{vlow:.2} V"),
            format!("{:.2}x", rd.voltage_acceleration(vlow)),
            years(pick(METRIC_LT)?),
            format!("{:+.0} mV", 1000.0 * pick("drv_margin_fresh_v")?),
            format!("{:+.0} mV", 1000.0 * pick("drv_margin_aged_v")?),
        ]);
    }
    t.push_note(
        "lower rails slow aging but aging costs ~80 mV of retention margin over life; \
         the paper's 0.75 V keeps a comfortable aged margin while tripling sleep relief",
    );
    Ok(t)
}

/// Extension view: process variation × NBTI — bank-lifetime quantiles
/// per mismatch sigma, one row per `variation:<sigma>` model (see
/// [`presets::variation_study`](crate::presets::variation_study)).
///
/// # Errors
///
/// Returns [`CoreError::Report`] if a record's model is not a
/// variation model or lacks the quantile metrics.
pub fn variation_study(report: &StudyReport) -> Result<Table, CoreError> {
    let models = distinct(report, |r| r.scenario.model.as_str());
    if models.is_empty() {
        return shape_err("variation_study", "report is empty".into());
    }
    let mut t = Table::new(
        "Bank lifetime quantiles vs Vth mismatch sigma (years)",
        vec![
            "sigma".into(),
            "q10 busy".into(),
            "q50 busy".into(),
            "q50 drowsy+reindex".into(),
            "reindex gain %".into(),
        ],
    );
    for key in models {
        let Some(sigma) = ModelKey::parse(key)?.and_then(|k| k.sigma_mv) else {
            return shape_err(
                "variation_study",
                format!("model `{key}` is not a variation model"),
            );
        };
        let records = group(report, |r| r.scenario.model.as_str(), key);
        let pick = |metric: &str| -> Result<f64, CoreError> {
            mean_of(
                "variation_study",
                key,
                records
                    .iter()
                    .map(|r| metric_of("variation_study", r, metric)),
            )
        };
        let q10 = pick("lt0_q10_years")?;
        let q50 = pick(METRIC_LT0)?;
        let q50_re = pick(METRIC_LT)?;
        t.push_row(vec![
            format!("{sigma:.0} mV"),
            years(q10),
            years(q50),
            years(q50_re),
            format!("{:+.1}", 100.0 * (q50_re - q50) / q50),
        ]);
    }
    t.push_note(
        "variation shortens absolute lifetimes (worst cell of 37k), but the \
         re-indexing gain is rate-relative and survives unchanged",
    );
    Ok(t)
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::Scenario;

    use crate::model::Metrics;

    fn record(workload: &str, wi: usize, kb: u64, banks: u32, policy: &str) -> ScenarioRecord {
        ScenarioRecord {
            scenario: Scenario {
                id: 0,
                cache_bytes: kb * 1024,
                line_bytes: 16,
                banks,
                ways: 1,
                replacement: "lru".into(),
                l2_cache_bytes: 0,
                l2_ways: 1,
                update_days: 1.0,
                policy: policy.into(),
                workload: workload.into(),
                workload_index: wi,
                workload_source: None,
                model: "nbti-45nm".into(),
                trace_cycles: 1000,
                trace_seed: 1000 + wi as u64,
                policy_seed: 1,
            },
            sim_cycles: 1000,
            esav: 0.4,
            miss_rate: 0.05,
            useful_idleness: vec![0.4; banks as usize],
            sleep_fractions: vec![0.35; banks as usize],
            metrics: Metrics::from_pairs([("lt0_years", 3.0), ("lt_years", 4.2)]),
        }
    }

    #[test]
    fn table1_rejects_wrong_shapes() {
        let report = StudyReport::from_records("bad", vec![record("sha", 12, 16, 4, "probing")]);
        assert!(table1(&report).is_err());
    }

    #[test]
    fn policy_equivalence_renders_two_groups() {
        let report = StudyReport::from_records(
            "eq",
            vec![
                record("sha", 12, 16, 4, "probing"),
                record("sha", 12, 16, 4, "scrambling"),
            ],
        );
        let t = policy_equivalence(&report).unwrap();
        assert_eq!(t.rows().len(), 1);
        assert!(t.to_string().contains("Probing vs Scrambling"));
    }

    #[test]
    fn claims_groups_by_size() {
        let mut records = Vec::new();
        for kb in [8u64, 16, 32] {
            for (wi, w) in ["a", "b"].iter().enumerate() {
                records.push(record(w, wi, kb, 4, "probing"));
            }
        }
        let t = claims(&StudyReport::from_records("t2", records.clone())).unwrap();
        let text = t.to_string();
        assert!(text.contains("lifetime extension at 8 kB"), "{text}");
        assert!(text.contains("lifetime extension at 32 kB"), "{text}");
        records.retain(|r| r.scenario.cache_bytes != 32 * 1024);
        let e = claims(&StudyReport::from_records("t2", records)).unwrap_err();
        assert!(
            e.to_string().contains("expected 3 cache sizes, got 2"),
            "{e}"
        );
    }

    #[test]
    fn claims_math_is_consistent() {
        // Synthetic dataset exercising the aggregation.
        let mk = |name: &str, wi: usize, kb: u64, lt0: f64, lt: f64| {
            let mut r = record(name, wi, kb, 4, "probing");
            r.metrics = Metrics::from_pairs([("lt0_years", lt0), ("lt_years", lt)]);
            r
        };
        let records = vec![
            mk("a", 0, 8, 3.0, 4.0),
            mk("b", 1, 8, 3.2, 6.0),
            mk("a", 0, 16, 3.0, 4.4),
            mk("b", 1, 16, 3.1, 4.5),
            mk("a", 0, 32, 3.0, 4.6),
            mk("b", 1, 32, 3.2, 4.9),
        ];
        let s = claims_from(&StudyReport::from_records("t2", records)).unwrap();
        assert!((s.lt0_gain - (3.1 / 2.93 - 1.0)).abs() < 1e-9);
        assert_eq!(s.best_case.0, "b");
        assert!((s.best_case.1 - 6.0 / 2.93).abs() < 1e-9);
        assert_eq!(s.worst_case.0, "a");
        assert_eq!(s.extension_per_size.len(), 3);
    }

    #[test]
    fn missing_metrics_are_a_shape_error_not_nan() {
        let mut r = record("sha", 0, 16, 4, "probing");
        r.metrics = Metrics::from_pairs([("drv_margin_fresh_v", 0.2)]);
        let report = StudyReport::from_records("wrong model", vec![r]);
        let e = claims(&report).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("lacks metric `lt0_years`"), "{text}");
        assert!(text.contains("sha"), "{text}");
    }

    #[test]
    fn empty_table4_cell_is_a_shape_error_not_nan() {
        // Sizes {8,16,32} and banks {2,4,8} both appear, but the
        // (32 kB, M=8) cell is empty: this used to render NaN.
        let mut records = Vec::new();
        for (kb, banks) in [
            (8u64, 2u32),
            (8, 4),
            (8, 8),
            (16, 2),
            (16, 4),
            (16, 8),
            (32, 2),
            (32, 4),
        ] {
            records.push(record("a", 0, kb, banks, "probing"));
        }
        let e = table4(&StudyReport::from_records("sparse", records)).unwrap_err();
        let text = e.to_string();
        assert!(text.contains("table4"), "{text}");
        assert!(text.contains("32kB / M=8"), "{text}");
    }

    fn model_record(model: &str, metrics: Metrics) -> ScenarioRecord {
        let mut r = record("profile:0.1,0.8,0.6,0.3", 0, 16, 4, "probing");
        r.scenario.model = model.into();
        r.metrics = metrics;
        r
    }

    #[test]
    fn ablation_temperature_renders_one_row_per_model() {
        let report = StudyReport::from_records(
            "temps",
            vec![
                model_record(
                    "nbti:temp=45",
                    Metrics::from_pairs([("lt0_years", 20.0), ("lt_years", 30.0)]),
                ),
                model_record(
                    "nbti:temp=125",
                    Metrics::from_pairs([("lt0_years", 0.5), ("lt_years", 0.75)]),
                ),
            ],
        );
        let t = ablation_temperature(&report).unwrap();
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[0][0], "45 degC");
        assert_eq!(t.rows()[1][0], "125 degC");
        assert_eq!(t.rows()[0][3], "+50.0");
    }

    #[test]
    fn ablation_vlow_pairs_lifetime_and_margin_records() {
        let report = StudyReport::from_records(
            "vlow",
            vec![
                model_record(
                    "nbti:vlow=0.55",
                    Metrics::from_pairs([("lt0_years", 3.0), ("lt_years", 6.0)]),
                ),
                model_record(
                    "drv:vlow=0.55",
                    Metrics::from_pairs([("drv_margin_fresh_v", 0.1), ("drv_margin_aged_v", 0.02)]),
                ),
            ],
        );
        let t = ablation_vlow(&report).unwrap();
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.rows()[0][0], "0.55 V");
        assert_eq!(t.rows()[0][3], "+100 mV");
        assert_eq!(t.rows()[0][4], "+20 mV");

        // A rail with lifetimes but no margins is a shape error.
        let broken = StudyReport::from_records(
            "vlow",
            vec![model_record(
                "nbti:vlow=0.55",
                Metrics::from_pairs([("lt0_years", 3.0), ("lt_years", 6.0)]),
            )],
        );
        let e = ablation_vlow(&broken).unwrap_err();
        assert!(e.to_string().contains("drv_margin_fresh_v"), "{e}");
    }

    #[test]
    fn variation_study_requires_variation_models() {
        let report = StudyReport::from_records(
            "var",
            vec![model_record(
                "variation:30",
                Metrics::from_pairs([
                    ("lt0_years", 2.0),
                    ("lt_years", 3.0),
                    ("lt0_q10_years", 1.5),
                ]),
            )],
        );
        let t = variation_study(&report).unwrap();
        assert_eq!(t.rows().len(), 1);
        assert_eq!(t.rows()[0][0], "30 mV");
        assert_eq!(t.rows()[0][4], "+50.0");

        let wrong = StudyReport::from_records(
            "var",
            vec![model_record(
                "nbti-45nm",
                Metrics::from_pairs([("lt0_years", 2.0), ("lt_years", 3.0)]),
            )],
        );
        assert!(variation_study(&wrong).is_err());
    }
}
