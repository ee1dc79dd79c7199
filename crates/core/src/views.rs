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
//! Each view is a query plus a layout: groupings and means are
//! [`analysis::Query`] and [`Reduce::Mean`], so a view and an ad-hoc
//! query agree on group order and on every bit of a mean. The [`Table`]s
//! render in any [`crate::render::Format`] (the historic stdout is
//! [`Format::Text`](crate::render::Format::Text), byte for byte). For
//! ad-hoc slices that no fixed view covers, query the report directly.
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

use crate::analysis::{self, Axis, AxisValue, Group, Query, Reduce};
use crate::error::CoreError;
use crate::model::{ModelKey, METRIC_LT, METRIC_LT0, REFERENCE_TEMP_C, REFERENCE_VLOW};
use crate::paper;
use crate::report::{factor, pct, years, Table};
use crate::study::{Scenario, ScenarioRecord, StudyReport};
use nbti_model::RdModel;
use trace_synth::suite;

/// A report without the shape `view` expects.
fn shape_err<T>(view: &'static str, detail: String) -> Result<T, CoreError> {
    Err(in_view(view)(CoreError::Report { message: detail }))
}

/// Names the view in a report error: its own shape checks, and the
/// analysis layer's (a record that lacks a metric).
fn in_view(view: &'static str) -> impl Fn(CoreError) -> CoreError {
    move |e| match e {
        CoreError::Report { message } => CoreError::Report {
            message: format!("{view} view: {message}"),
        },
        other => other,
    }
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
        let &[i0, i1, i2, i3] = r.useful_idleness.as_slice() else {
            return shape_err(
                "table1",
                format!(
                    "{} has {} banks, need 4",
                    r.scenario.workload,
                    r.useful_idleness.len()
                ),
            );
        };
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
        let mut row = vec![r.scenario.workload.clone()];
        row.extend([i0, i1, i2, i3, r.avg_useful_idleness()].map(pct));
        row.push(pct(Reduce::Mean.apply(paper_row)?));
        t.push_row(row);
    }
    let paper_avgs = reference
        .iter()
        .map(|(_, row)| Reduce::Mean.apply(row))
        .collect::<Result<Vec<_>, _>>()?;
    let avg_idle = Reduce::Mean.apply(
        &records
            .iter()
            .map(ScenarioRecord::avg_useful_idleness)
            .collect::<Vec<_>>(),
    )?;
    let esav = Reduce::Mean.apply(&records.iter().map(|r| r.esav).collect::<Vec<_>>())?;
    t.push_note(format!(
        "suite average idleness {} % (paper: {:.2} %); Esav at this configuration {} %",
        pct(avg_idle),
        100.0 * Reduce::Mean.apply(&paper_avgs)?,
        pct(esav)
    ));
    Ok(t)
}

/// A column of a [`Blocks`] table: its header after the block label,
/// the metric it shows ([`analysis::metric_value`] names) and how the
/// value prints.
type Column = (&'static str, &'static str, fn(f64) -> String);

const ESAV: Column = ("Esav%", "esav", pct);
const LT0: Column = ("LT0", METRIC_LT0, years);
const LT: Column = ("LT", METRIC_LT, years);

/// Pairs the records of `groups` (column blocks named by `labels`) by
/// benchmark: one row per record of the first block, in its order,
/// holding that record and, from each other block, the record of the
/// same workload (a workload's k-th record pairs with its k-th). A
/// block without the row's workload is a shape error naming the view,
/// the block and the workload.
fn pair_by_workload<'a>(
    view: &'static str,
    labels: &[String],
    groups: &[Group<'a>],
) -> Result<Vec<Vec<&'a ScenarioRecord>>, CoreError> {
    let Some((first, rest)) = groups.split_first() else {
        return Ok(Vec::new());
    };
    let mut rows = Vec::with_capacity(first.records.len());
    for (i, &r) in first.records.iter().enumerate() {
        let workload = &r.scenario.workload;
        let same = |p: &&&ScenarioRecord| p.scenario.workload == *workload;
        let nth = first.records.iter().take(i).filter(same).count();
        let mut row = vec![r];
        for (label, block) in labels.iter().skip(1).zip(rest) {
            let Some(&p) = block.records.iter().filter(same).nth(nth) else {
                return shape_err(view, format!("{label} has no record for `{workload}`"));
            };
            row.push(p);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// The layout of Tables II and III: one column block per value of one
/// axis, in report order, and one row per benchmark. Every block must
/// hold the same count, and blocks pair their records by workload
/// ([`pair_by_workload`]).
struct Blocks {
    view: &'static str,
    title: &'static str,
    axis: Axis,
    /// How many axis values the table expects, and what they are.
    count: usize,
    noun: &'static str,
    /// A block's header label, from one of its scenarios.
    label: fn(&Scenario) -> String,
    /// The shape error for blocks of unequal size.
    unbalanced: fn(&[(&Scenario, usize)]) -> String,
    columns: &'static [Column],
}

impl Blocks {
    /// The table: each benchmark's columns block by block, then an
    /// `Average` row of each block's means.
    fn table(&self, report: &StudyReport) -> Result<Table, CoreError> {
        let query = Query::new(report).group_by([self.axis]);
        let groups = query.groups();
        if groups.len() != self.count {
            let detail = format!(
                "expected {} {}, got {}",
                self.count,
                self.noun,
                groups.len()
            );
            return shape_err(self.view, detail);
        }
        let blocks: Vec<(&Scenario, usize)> = groups
            .iter()
            .filter_map(|g| Some((&g.records.first()?.scenario, g.records.len())))
            .collect();
        let rows = blocks.first().map_or(0, |&(_, n)| n);
        if blocks.iter().any(|&(_, n)| n != rows) {
            return shape_err(self.view, (self.unbalanced)(&blocks));
        }
        let labels: Vec<String> = blocks.iter().map(|(s, _)| (self.label)(s)).collect();
        let mut headers = vec!["bench".to_string()];
        for label in &labels {
            headers.extend(
                self.columns
                    .iter()
                    .map(|(name, ..)| format!("{label} {name}")),
            );
        }
        let mut t = Table::new(self.title, headers);
        for records in pair_by_workload(self.view, &labels, &groups)? {
            let mut row = Vec::new();
            for r in records {
                if row.is_empty() {
                    row.push(r.scenario.workload.clone());
                }
                for &(_, metric, show) in self.columns {
                    row.push(show(
                        analysis::require_metric(r, metric).map_err(in_view(self.view))?,
                    ));
                }
            }
            t.push_row(row);
        }
        let means = self
            .columns
            .iter()
            .map(|&(_, metric, show)| {
                let rows = query
                    .reduce(metric, Reduce::Mean)
                    .map_err(in_view(self.view))?;
                Ok(rows.iter().map(|row| show(row.value)).collect::<Vec<_>>())
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        let mut average = vec!["Average".to_string()];
        for block in 0..groups.len() {
            average.extend(means.iter().filter_map(|m| m.get(block)).cloned());
        }
        t.push_row(average);
        Ok(t)
    }
}

/// **Table II** — energy savings and lifetime vs cache size. Expects the
/// suite at each of the paper's three sizes (8/16/32 kB).
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn table2(report: &StudyReport) -> Result<Table, CoreError> {
    let mut t = Blocks {
        view: "table2",
        title: "Table II - energy savings and lifetime vs cache size (measured)",
        axis: Axis::CacheBytes,
        count: 3,
        noun: "cache sizes",
        label: |s| format!("{}k", s.cache_bytes / 1024),
        unbalanced: |sizes| {
            let kb: Vec<_> = sizes
                .iter()
                .map(|(s, n)| (s.cache_bytes / 1024, *n))
                .collect();
            format!("unbalanced size groups: {kb:?}")
        },
        columns: &[ESAV, LT0, LT],
    }
    .table(report)?;
    let (esav, lt0, lt) = paper::TABLE2_AVG;
    let mut paper_row = vec!["(paper avg)".to_string()];
    for ((esav, lt0), lt) in esav.into_iter().zip(lt0).zip(lt) {
        paper_row.extend([pct(esav), years(lt0), years(lt)]);
    }
    t.push_row(paper_row);
    t.push_note(format!(
        "paper averages: Esav {} %, LT0 {} y, LT {} y",
        esav.map(pct).join("/"),
        lt0.map(years).join("/"),
        lt.map(years).join("/"),
    ));
    Ok(t)
}

/// **Table III** — energy savings and lifetime vs line size. Expects the
/// suite at two line sizes.
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn table3(report: &StudyReport) -> Result<Table, CoreError> {
    let mut t = Blocks {
        view: "table3",
        title: "Table III - energy savings and lifetime vs line size (measured)",
        axis: Axis::LineBytes,
        count: 2,
        noun: "line sizes",
        label: |s| format!("LS{}", s.line_bytes),
        unbalanced: |sizes| {
            let counts: Vec<_> = sizes.iter().map(|(_, n)| n.to_string()).collect();
            format!("unbalanced line-size groups: {}", counts.join(" vs "))
        },
        columns: &[ESAV, LT],
    }
    .table(report)?;
    let [esav16, lt16, esav32, lt32] = paper::TABLE3_AVG;
    t.push_note(format!(
        "paper averages: Esav {} / {} %, LT {} / {} y",
        pct(esav16),
        pct(esav32),
        years(lt16),
        years(lt32),
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
    let sizes = analysis::distinct_by(report.records(), |r| r.scenario.cache_bytes);
    let mut bank_counts = analysis::distinct_by(report.records(), |r| r.scenario.banks);
    bank_counts.sort_unstable();
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
    let cells = Query::new(report).group_by([Axis::CacheBytes, Axis::Banks]);
    let idle = cells
        .reduce("useful_idleness", Reduce::Mean)
        .map_err(in_view("table4"))?;
    let lt = cells
        .reduce(METRIC_LT, Reduce::Mean)
        .map_err(in_view("table4"))?;
    let mut headers = vec!["size".to_string()];
    for banks in &bank_counts {
        headers.extend([format!("M={banks} idl%"), format!("M={banks} LT")]);
    }
    let mut t = Table::new(
        "Table IV - average idleness and lifetime vs cache size and banks (measured | paper)",
        headers,
    );
    for (bytes, published) in sizes.into_iter().zip(paper::TABLE4) {
        let mut row = vec![format!("{}kB", bytes / 1024)];
        for &banks in &bank_counts {
            let key = [AxisValue::from(bytes), AxisValue::from(banks)];
            // A sparse grid can leave a (size, banks) cell empty even
            // when both axes pass the 3×3 check.
            let Some((idle, lt)) = idle.iter().zip(&lt).find(|(cell, _)| cell.key == key) else {
                let cell = format!("{}kB / M={banks}", bytes / 1024);
                return shape_err("table4", format!("no records for {cell}"));
            };
            row.extend([pct(idle.value), years(lt.value)]);
        }
        t.push_row(row);
        let mut paper_row = vec![format!("(paper {}kB)", published.size_kb)];
        for (idle, lt) in published.per_banks {
            paper_row.extend([pct(idle), years(lt)]);
        }
        t.push_row(paper_row);
    }
    Ok(t)
}

/// §IV-B1 headline-claims comparison, from a Table II-shaped report:
/// records grouped by cache size in grid order, the first size standing
/// for the paper's 8 kB column, and lifetimes measured against the
/// paper's 2.93-year cell.
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn claims(report: &StudyReport) -> Result<Table, CoreError> {
    let base = paper::CELL_LIFETIME_YEARS;
    let by_size = Query::new(report).group_by([Axis::CacheBytes]);
    let groups = by_size.groups();
    let mut lifetimes = Vec::new();
    for r in groups.iter().flat_map(|g| &g.records) {
        let lt0 = analysis::require_metric(r, METRIC_LT0).map_err(in_view("claims"))?;
        let lt = analysis::require_metric(r, METRIC_LT).map_err(in_view("claims"))?;
        lifetimes.push((r.scenario.workload.as_str(), lt0, lt));
    }
    let Some(first) = groups.first() else {
        return shape_err("claims", "report is empty".into());
    };
    if groups.len() != paper::claims::EXTENSION_PER_SIZE.len() {
        return shape_err(
            "claims",
            format!("expected 3 cache sizes, got {}", groups.len()),
        );
    }
    let first_size = lifetimes.get(..first.records.len()).unwrap_or_default();
    let lt0_mean = Reduce::Mean.apply(&first_size.iter().map(|c| c.1).collect::<Vec<_>>())?;
    let gains: Vec<f64> = first_size
        .iter()
        .map(|&(_, lt0, lt)| (lt - lt0) / lt0)
        .collect();
    let percent = |v: f64| format!("{} %", pct(v));
    let mut t = Table::new(
        "Headline claims (measured vs paper)",
        vec!["claim".into(), "measured".into(), "paper".into()],
    );
    t.push_row(vec![
        "LT0 gain from power mgmt alone (8kB)".into(),
        percent(lt0_mean / base - 1.0),
        percent(paper::claims::LT0_IMPROVEMENT),
    ]);
    t.push_row(vec![
        "further gain from re-indexing (8kB)".into(),
        percent(Reduce::Mean.apply(&gains)?),
        percent(paper::claims::REINDEX_FURTHER_IMPROVEMENT),
    ]);
    let lt_means = by_size.reduce(METRIC_LT, Reduce::Mean)?;
    for ((g, mean), published) in groups
        .iter()
        .zip(lt_means)
        .zip(paper::claims::EXTENSION_PER_SIZE)
    {
        let kb = g
            .records
            .first()
            .map_or(0, |r| r.scenario.cache_bytes / 1024);
        t.push_row(vec![
            format!("lifetime extension at {kb} kB"),
            percent(mean.value / base - 1.0),
            percent(published),
        ]);
    }
    // The largest and smallest single LT / 2.93 across suite and sizes
    // (paper: sha at about 2x; at least 22 % for the worst).
    let mut best = ("", 0.0f64);
    let mut worst = ("", f64::INFINITY);
    for &(name, _, lt) in &lifetimes {
        let f = lt / base;
        if f > best.1 {
            best = (name, f);
        }
        if f < worst.1 {
            worst = (name, f);
        }
    }
    t.push_row(vec![
        format!("best case ({})", best.0),
        factor(best.1),
        format!("{} (sha)", factor(paper::claims::BEST_CASE_FACTOR)),
    ]);
    t.push_row(vec![
        format!("worst case ({})", worst.0),
        factor(worst.1),
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
    let groups = Query::new(report).group_by([Axis::Policy]).groups();
    let [a, b] = groups.as_slice() else {
        let policies: Vec<String> = groups.iter().map(|g| g.label()).collect();
        return shape_err(
            "policy_equivalence",
            format!("expected 2 policies, got {policies:?}"),
        );
    };
    if a.records.len() != b.records.len() {
        return shape_err(
            "policy_equivalence",
            format!(
                "unbalanced policy groups: {} vs {}",
                a.records.len(),
                b.records.len()
            ),
        );
    }
    let (pa, pb) = (a.label(), b.label());
    let rows = pair_by_workload("policy_equivalence", &[pa.clone(), pb.clone()], &groups)?;
    let mut t = Table::new(
        format!("{} vs {} lifetimes", capitalize(&pa), capitalize(&pb)),
        vec![
            "bench".into(),
            format!("LT {pa}"),
            format!("LT {pb}"),
            "delta %".into(),
        ],
    );
    for row in &rows {
        let &[ra, rb] = row.as_slice() else {
            continue; // every row holds one record per policy
        };
        let lta = analysis::require_metric(ra, METRIC_LT).map_err(in_view("policy_equivalence"))?;
        let ltb = analysis::require_metric(rb, METRIC_LT).map_err(in_view("policy_equivalence"))?;
        t.push_row(vec![
            ra.scenario.workload.clone(),
            years(lta),
            years(ltb),
            format!("{:+.2}", 100.0 * (ltb - lta) / lta),
        ]);
    }
    Ok(t)
}

/// The layout of the model-axis ablations: one row per model key, in
/// report order, labelled from the key; the mean of each of `metrics`
/// and then of LT0 and LT over the key's records; and the re-indexing
/// gain between those two means. `t` holds the title and headers.
fn model_rows(
    view: &'static str,
    report: &StudyReport,
    mut t: Table,
    label: impl Fn(&str) -> Result<String, CoreError>,
    metrics: &[&str],
) -> Result<Table, CoreError> {
    let by_model = Query::new(report).group_by([Axis::Model]);
    let groups = by_model.groups();
    if groups.is_empty() {
        return shape_err(view, "report is empty".into());
    }
    let mut means = metrics
        .iter()
        .chain(&[METRIC_LT0, METRIC_LT])
        .map(|m| {
            Ok(by_model
                .reduce(m, Reduce::Mean)
                .map_err(in_view(view))?
                .into_iter())
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    for g in &groups {
        let mut row = vec![label(&g.label())?];
        let values: Vec<f64> = means
            .iter_mut()
            .filter_map(|m| Some(m.next()?.value))
            .collect();
        row.extend(values.iter().map(|&v| years(v)));
        if let &[.., lt0, lt] = values.as_slice() {
            row.push(format!("{:+.1}", 100.0 * (lt - lt0) / lt0));
        }
        t.push_row(row);
    }
    Ok(t)
}

/// Ablation view: operating temperature vs LT0/LT, one row per model
/// on the temperature axis (see
/// [`presets::ablation_temperature`](crate::presets::ablation_temperature)).
///
/// # Errors
///
/// Returns [`CoreError::Report`] if the report shape does not match.
pub fn ablation_temperature(report: &StudyReport) -> Result<Table, CoreError> {
    let t = Table::new(
        format!(
            "Ablation: operating temperature (calibration fixed at {REFERENCE_TEMP_C:.0} degC)"
        ),
        vec![
            "temperature".into(),
            "LT0".into(),
            "LT (probing)".into(),
            "reindex gain %".into(),
        ],
    );
    let celsius = |key: &str| {
        let temp = ModelKey::parse(key)?.and_then(|k| k.params.temp_c);
        Ok(format!("{:.0} degC", temp.unwrap_or(REFERENCE_TEMP_C)))
    };
    let mut t = model_rows("ablation_temperature", report, t, celsius, &[])?;
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
    // The rail is part of the model key, not a query axis: group by it
    // here, and average each metric over the rail's records that emit it.
    let rails = report
        .records()
        .iter()
        .map(|r| {
            // The reference rail unless the key overrides `vlow`.
            let vlow = ModelKey::parse(&r.scenario.model)?.and_then(|k| k.params.vdd_low);
            Ok((vlow.unwrap_or(REFERENCE_VLOW), r))
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    let mut vlows: Vec<f64> = rails.iter().map(|&(vlow, _)| vlow).collect();
    if vlows.is_empty() {
        return shape_err("ablation_vlow", "report is empty".into());
    }
    vlows.sort_by(f64::total_cmp);
    vlows.dedup();
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
    for vlow in vlows {
        let pick = |metric: &str| {
            let values: Vec<f64> = rails
                .iter()
                .filter(|&&(v, _)| v == vlow)
                .filter_map(|(_, r)| r.metric(metric))
                .collect();
            Reduce::Mean.apply(&values).or_else(|_| {
                shape_err(
                    "ablation_vlow",
                    format!("no records for vlow={vlow} metric {metric}"),
                )
            })
        };
        t.push_row(vec![
            format!("{vlow:.2} V"),
            format!("{:.2}x", rd.voltage_acceleration(vlow)),
            years(pick(METRIC_LT)?),
            format!("{:+.0} mV", 1000.0 * pick("drv_margin_fresh_v")?),
            format!("{:+.0} mV", 1000.0 * pick("drv_margin_aged_v")?),
        ]);
    }
    t.push_note(format!(
        "lower rails slow aging but aging costs ~80 mV of retention margin over life; \
         the paper's {REFERENCE_VLOW:.2} V keeps a comfortable aged margin while tripling sleep relief"
    ));
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
    let t = Table::new(
        "Bank lifetime quantiles vs Vth mismatch sigma (years)",
        vec![
            "sigma".into(),
            "q10 busy".into(),
            "q50 busy".into(),
            "q50 drowsy+reindex".into(),
            "reindex gain %".into(),
        ],
    );
    let sigma = |key: &str| match ModelKey::parse(key)?.and_then(|k| k.sigma_mv) {
        Some(sigma) => Ok(format!("{sigma:.0} mV")),
        None => shape_err(
            "variation_study",
            format!("model `{key}` is not a variation model"),
        ),
    };
    let mut t = model_rows("variation_study", report, t, sigma, &["lt0_q10_years"])?;
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
    fn policy_equivalence_pairs_records_by_workload_not_position() {
        let sha = record("sha", 0, 16, 4, "probing");
        let mut crc = record("CRC32", 1, 16, 4, "probing");
        crc.metrics = Metrics::from_pairs([("lt0_years", 3.0), ("lt_years", 6.0)]);
        let scrambled = |r: &ScenarioRecord| {
            let mut r = r.clone();
            r.scenario.policy = "scrambling".into();
            r
        };
        // The second block lists the benchmarks in the other order.
        let swapped = vec![sha.clone(), crc.clone(), scrambled(&crc), scrambled(&sha)];
        let t = policy_equivalence(&StudyReport::from_records("eq", swapped)).unwrap();
        let rows: Vec<_> = t
            .rows()
            .iter()
            .map(|r| (r[0].as_str(), r[3].as_str()))
            .collect();
        assert_eq!(rows, [("sha", "+0.00"), ("CRC32", "+0.00")]);
        let mut other = scrambled(&crc);
        other.scenario.workload = "dijkstra".into();
        let lacking = vec![sha, crc.clone(), scrambled(&crc), other];
        assert_eq!(
            shape_error(policy_equivalence, lacking),
            "study report error: policy_equivalence view: scrambling has no record for `sha`"
        );
    }

    #[test]
    fn table2_pairs_records_by_workload_not_position() {
        let mut records = grid(&[8, 16, 32], &[16]);
        for r in records.iter_mut().filter(|r| r.scenario.workload == "b") {
            r.esav = 0.5;
            r.metrics = Metrics::from_pairs([("lt0_years", 3.5), ("lt_years", 5.5)]);
        }
        let in_order = table2(&StudyReport::from_records("t2", records.clone())).unwrap();
        assert_ne!(in_order.rows()[0][1..], in_order.rows()[1][1..]);
        records.swap(2, 3); // the 16 kB block lists `b` before `a`
        let swapped = table2(&StudyReport::from_records("t2", records.clone())).unwrap();
        assert_eq!(swapped.to_string(), in_order.to_string());
        records[5].scenario.workload = "c".into(); // the 32 kB block: `a`, `c`
        assert_eq!(
            shape_error(table2, records),
            "study report error: table2 view: 32k has no record for `b`"
        );
    }

    /// The suite `a`, `b` at each of `sizes` (kB) and `lines` (bytes).
    fn grid(sizes: &[u64], lines: &[u32]) -> Vec<ScenarioRecord> {
        let mut records = Vec::new();
        for &kb in sizes {
            for &line in lines {
                for (wi, w) in ["a", "b"].iter().enumerate() {
                    let mut r = record(w, wi, kb, 4, "probing");
                    r.scenario.line_bytes = line;
                    records.push(r);
                }
            }
        }
        records
    }

    fn shape_error(
        view: fn(&StudyReport) -> Result<Table, CoreError>,
        records: Vec<ScenarioRecord>,
    ) -> String {
        view(&StudyReport::from_records("bad", records))
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn table2_shape_errors_name_the_view_and_the_fault() {
        assert!(table2(&StudyReport::from_records("ok", grid(&[8, 16, 32], &[16]))).is_ok());
        assert_eq!(
            shape_error(table2, grid(&[8, 16], &[16])),
            "study report error: table2 view: expected 3 cache sizes, got 2"
        );
        let mut unbalanced = grid(&[8, 16, 32], &[16]);
        unbalanced.remove(3);
        assert_eq!(
            shape_error(table2, unbalanced),
            "study report error: table2 view: unbalanced size groups: [(8, 2), (16, 1), (32, 2)]"
        );
        let mut missing = grid(&[8, 16, 32], &[16]);
        missing[5].metrics = Metrics::from_pairs([("lt0_years", 3.0)]);
        assert_eq!(
            shape_error(table2, missing),
            "study report error: table2 view: record for `b` (model `nbti-45nm`) \
             lacks metric `lt_years`"
        );
    }

    #[test]
    fn table3_shape_errors_name_the_view_and_the_fault() {
        assert!(table3(&StudyReport::from_records("ok", grid(&[16], &[16, 32]))).is_ok());
        assert_eq!(
            shape_error(table3, grid(&[16], &[16, 32, 64])),
            "study report error: table3 view: expected 2 line sizes, got 3"
        );
        let mut unbalanced = grid(&[16], &[16, 32]);
        unbalanced.remove(0);
        assert_eq!(
            shape_error(table3, unbalanced),
            "study report error: table3 view: unbalanced line-size groups: 1 vs 2"
        );
        let mut missing = grid(&[16], &[16, 32]);
        missing[2].metrics = Metrics::from_pairs([("lt0_years", 3.0)]);
        assert_eq!(
            shape_error(table3, missing),
            "study report error: table3 view: record for `a` (model `nbti-45nm`) \
             lacks metric `lt_years`"
        );
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
        let t = claims(&StudyReport::from_records("t2", records)).unwrap();
        let measured = |row: usize| t.rows()[row][1].clone();
        assert_eq!(measured(0), format!("{} %", pct(3.1 / 2.93 - 1.0)));
        assert_eq!(
            measured(1),
            format!("{} %", pct((1.0 / 3.0 + 2.8 / 3.2) / 2.0))
        );
        assert_eq!(measured(2), format!("{} %", pct(5.0 / 2.93 - 1.0)));
        assert_eq!(t.rows().len(), 7, "two gains, three sizes, best, worst");
        assert_eq!(t.rows()[5][0], "best case (b)");
        assert_eq!(measured(5), factor(6.0 / 2.93));
        assert_eq!(t.rows()[6][0], "worst case (a)");
        assert_eq!(measured(6), factor(4.0 / 2.93));
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
