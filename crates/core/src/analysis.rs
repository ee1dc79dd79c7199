//! The analysis layer: typed queries, aggregations, baseline joins and
//! cell-by-cell diffs over [`StudyReport`]s.
//!
//! The paper's contribution is ultimately *comparative* — lifetime gain
//! of partitioned + rotating configurations over a plain direct-mapped
//! baseline, across geometry, policy and workload axes — and after the
//! input side of the engine opened (policies, workloads, models,
//! execution), this module opens the output side:
//!
//! * [`Query`] filters and groups records over any scenario [`Axis`]
//!   and reduces any named metric ([`Reduce`]: mean / min / max /
//!   geomean / count);
//! * [`Query::gain_vs`] computes *derived baseline-relative metrics*
//!   by joining scenarios that differ only on the compared axis — e.g.
//!   lifetime gain of every policy over `identity` (the conventional
//!   modulo-indexed cache the paper compares against);
//! * [`ReportDiff`] compares two reports — or a report against a
//!   result-cache journal ([`crate::rescache`]) — cell by cell with a
//!   numeric tolerance, naming every diverging scenario by its
//!   position-independent key ([`scenario_key`]);
//! * the renderer family lives next door in [`crate::render`], so a
//!   query result (or a whole report) prints as aligned text,
//!   paper-style Markdown, CSV, or the canonical JSON.
//!
//! Everything here is pure: reports in, values out. A report parsed
//! back from JSON (or replayed from a cache) analyzes exactly like a
//! live run.
//!
//! # Examples
//!
//! Group a sweep by policy and reduce lifetimes:
//!
//! ```
//! use aging_cache::analysis::{Axis, Query, Reduce};
//! use aging_cache::study::StudyReport;
//!
//! # fn demo(report: &StudyReport) -> Result<(), aging_cache::CoreError> {
//! let rows = Query::new(report)
//!     .filter(Axis::Banks, 4u32)
//!     .group_by([Axis::Policy])
//!     .reduce("lt_years", Reduce::Mean)?;
//! for row in &rows {
//!     println!("{}: {:.2} y", row.key[0], row.value);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! Baseline-relative gain — the paper's headline number — as a join
//! over the policy axis:
//!
//! ```
//! use aging_cache::analysis::{Axis, Query};
//! use aging_cache::study::StudyReport;
//!
//! # fn demo(report: &StudyReport) -> Result<(), aging_cache::CoreError> {
//! for gain in Query::new(report).gain_vs(Axis::Policy, "identity", "lt_years")? {
//!     println!(
//!         "{} on {}: {:.2}x the identity lifetime",
//!         gain.record.scenario.policy, gain.record.scenario.workload, gain.gain
//!     );
//! }
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use crate::report::{pct, years, Table};
use crate::rescache::{CachedMeasurement, Fingerprint, ResultCache};
use crate::study::{Scenario, ScenarioRecord, StudyReport};
use crate::workload::WorkloadRegistry;
use std::fmt;
use std::fmt::Write as _;

/// A scenario axis of the evaluation grid — everything a
/// [`crate::study::StudySpec`] can sweep, as a typed, queryable key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Cache capacity in bytes.
    CacheBytes,
    /// Line size in bytes.
    LineBytes,
    /// Bank count `M`.
    Banks,
    /// Set-associative ways per set (`1` = direct-mapped).
    Ways,
    /// Replacement-policy registry name.
    Replacement,
    /// L2 capacity in bytes (`0` = no L2).
    L2CacheBytes,
    /// L2 ways per set.
    L2Ways,
    /// Days between re-indexing updates.
    UpdateDays,
    /// Indexing-policy registry name.
    Policy,
    /// Workload name (suite name, trace key or pinned profile).
    Workload,
    /// Canonical device-model key.
    Model,
}

impl Axis {
    /// Every axis, in canonical grid order (outermost first).
    pub const ALL: [Axis; 11] = [
        Axis::CacheBytes,
        Axis::LineBytes,
        Axis::Banks,
        Axis::Ways,
        Axis::Replacement,
        Axis::L2CacheBytes,
        Axis::L2Ways,
        Axis::UpdateDays,
        Axis::Policy,
        Axis::Workload,
        Axis::Model,
    ];

    /// The canonical axis name (what [`Axis::parse`] accepts, among
    /// aliases).
    pub fn name(self) -> &'static str {
        match self {
            Axis::CacheBytes => "cache_bytes",
            Axis::LineBytes => "line_bytes",
            Axis::Banks => "banks",
            Axis::Ways => "ways",
            Axis::Replacement => "replacement",
            Axis::L2CacheBytes => "l2_cache_bytes",
            Axis::L2Ways => "l2_ways",
            Axis::UpdateDays => "update_days",
            Axis::Policy => "policy",
            Axis::Workload => "workload",
            Axis::Model => "model",
        }
    }

    /// Parses an axis from its canonical name or a common alias
    /// (`cache`, `size`, `line`, `update`, …) — the grammar behind the
    /// `study --group-by` flag.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] naming the known axes for an
    /// unrecognized key.
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_cache::analysis::Axis;
    ///
    /// assert_eq!(Axis::parse("policy").unwrap(), Axis::Policy);
    /// assert_eq!(Axis::parse("cache-kb").unwrap(), Axis::CacheBytes);
    /// assert!(Axis::parse("warp").is_err());
    /// ```
    pub fn parse(key: &str) -> Result<Axis, CoreError> {
        match key.trim().to_ascii_lowercase().as_str() {
            "cache_bytes" | "cache-bytes" | "cache" | "cache_kb" | "cache-kb" | "size" => {
                Ok(Axis::CacheBytes)
            }
            "line_bytes" | "line-bytes" | "line" => Ok(Axis::LineBytes),
            "banks" | "m" => Ok(Axis::Banks),
            "ways" | "assoc" | "associativity" => Ok(Axis::Ways),
            "replacement" | "repl" => Ok(Axis::Replacement),
            "l2_cache_bytes" | "l2-cache-bytes" | "l2" | "l2_kb" | "l2-kb" => {
                Ok(Axis::L2CacheBytes)
            }
            "l2_ways" | "l2-ways" | "l2w" => Ok(Axis::L2Ways),
            "update_days" | "update-days" | "update" => Ok(Axis::UpdateDays),
            "policy" | "policies" => Ok(Axis::Policy),
            "workload" | "workloads" | "bench" => Ok(Axis::Workload),
            "model" | "models" => Ok(Axis::Model),
            other => Err(CoreError::Report {
                message: format!(
                    "unknown axis `{other}` (known: {})",
                    Axis::ALL.map(Axis::name).join(", ")
                ),
            }),
        }
    }

    /// The axis value of one scenario.
    pub fn value_of(self, s: &Scenario) -> AxisValue {
        match self {
            Axis::CacheBytes => AxisValue::Num(s.cache_bytes as f64),
            Axis::LineBytes => AxisValue::Num(s.line_bytes as f64),
            Axis::Banks => AxisValue::Num(s.banks as f64),
            Axis::Ways => AxisValue::Num(s.ways as f64),
            Axis::Replacement => AxisValue::Str(s.replacement.clone()),
            Axis::L2CacheBytes => AxisValue::Num(s.l2_cache_bytes as f64),
            Axis::L2Ways => AxisValue::Num(s.l2_ways as f64),
            Axis::UpdateDays => AxisValue::Num(s.update_days),
            Axis::Policy => AxisValue::Str(s.policy.clone()),
            Axis::Workload => AxisValue::Str(s.workload.clone()),
            Axis::Model => AxisValue::Str(s.model.clone()),
        }
    }

    /// Whether one scenario's value on this axis equals `value`: the
    /// test `value_of(s) == *value`, with string axes compared by
    /// reference instead of cloned.
    pub(crate) fn matches(self, s: &Scenario, value: &AxisValue) -> bool {
        let text = match self {
            Axis::Replacement => &s.replacement,
            Axis::Policy => &s.policy,
            Axis::Workload => &s.workload,
            Axis::Model => &s.model,
            _ => return self.value_of(s) == *value,
        };
        matches!(value, AxisValue::Str(want) if want == text)
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One value on an [`Axis`]: numeric for geometry axes, string for the
/// registry-keyed ones. Integral numbers display without a decimal
/// point (`8192`, not `8192.0`), so group labels read like the CLI
/// flags that produced them.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// A numeric axis value (sizes, bank counts, update periods).
    Num(f64),
    /// A string axis value (policy, workload and model keys).
    Str(String),
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Num(v) if v.fract() == 0.0 && v.abs() < 1e15 => {
                write!(f, "{}", *v as i64)
            }
            AxisValue::Num(v) => write!(f, "{v}"),
            AxisValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<f64> for AxisValue {
    fn from(v: f64) -> Self {
        AxisValue::Num(v)
    }
}

impl From<u64> for AxisValue {
    fn from(v: u64) -> Self {
        AxisValue::Num(v as f64)
    }
}

impl From<u32> for AxisValue {
    fn from(v: u32) -> Self {
        AxisValue::Num(v as f64)
    }
}

impl From<&str> for AxisValue {
    fn from(v: &str) -> Self {
        AxisValue::Str(v.to_string())
    }
}

impl From<String> for AxisValue {
    fn from(v: String) -> Self {
        AxisValue::Str(v)
    }
}

/// A reduction over a named metric within each group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Arithmetic mean.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Geometric mean (the natural reduction for ratio metrics such as
    /// baseline-relative gains; requires strictly positive values).
    Geomean,
    /// Number of records in the group (ignores the metric's values but
    /// still requires the metric to be present on every record, so a
    /// count never silently includes records a mean would reject).
    Count,
    /// Half-width of the 95% confidence interval on the group mean
    /// (`1.96 · s / √n` with the sample standard deviation `s`), the
    /// decision statistic of the seed-ensemble search drivers
    /// ([`search`](crate::search)): `mean ± ci95` brackets where the
    /// true mean plausibly lies, so two configurations only count as
    /// *really* different when their brackets separate. A singleton
    /// group reduces to `0.0` — one observation constrains nothing,
    /// and the driver's tie-breaking handles the rest.
    CiHalfWidth95,
}

impl Reduce {
    /// The canonical reduction name.
    pub fn name(self) -> &'static str {
        match self {
            Reduce::Mean => "mean",
            Reduce::Min => "min",
            Reduce::Max => "max",
            Reduce::Geomean => "geomean",
            Reduce::Count => "count",
            Reduce::CiHalfWidth95 => "ci95",
        }
    }

    /// Parses a reduction name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] naming the known reductions.
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_cache::analysis::Reduce;
    ///
    /// assert_eq!(Reduce::parse("geomean").unwrap(), Reduce::Geomean);
    /// assert!(Reduce::parse("median").is_err());
    /// ```
    pub fn parse(key: &str) -> Result<Reduce, CoreError> {
        match key.trim().to_ascii_lowercase().as_str() {
            "mean" | "avg" | "average" => Ok(Reduce::Mean),
            "min" => Ok(Reduce::Min),
            "max" => Ok(Reduce::Max),
            "geomean" => Ok(Reduce::Geomean),
            "count" | "n" => Ok(Reduce::Count),
            "ci95" | "ci" | "ci-half-width" => Ok(Reduce::CiHalfWidth95),
            other => Err(CoreError::Report {
                message: format!(
                    "unknown reduction `{other}` (known: mean, min, max, geomean, count, ci95)"
                ),
            }),
        }
    }

    /// Applies the reduction to a non-empty value slice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] for an empty slice, or for
    /// non-positive values under [`Reduce::Geomean`].
    pub fn apply(self, values: &[f64]) -> Result<f64, CoreError> {
        if values.is_empty() {
            return Err(CoreError::Report {
                message: format!("reduction `{}` over an empty group", self.name()),
            });
        }
        // f64::min/max silently drop NaN operands (IEEE minNum), which
        // would fabricate ±inf for an all-NaN group; propagate NaN the
        // way Mean's sum does instead, so "not measured" stays visible.
        let has_nan = values.iter().any(|v| v.is_nan());
        Ok(match self {
            Reduce::Mean => values.iter().sum::<f64>() / values.len() as f64,
            Reduce::Min if has_nan => f64::NAN,
            Reduce::Max if has_nan => f64::NAN,
            Reduce::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Reduce::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Reduce::Geomean => {
                for &v in values {
                    if v <= 0.0 || v.is_nan() {
                        return Err(CoreError::Report {
                            message: format!("geomean needs strictly positive values, got {v}"),
                        });
                    }
                }
                (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
            }
            Reduce::Count => values.len() as f64,
            Reduce::CiHalfWidth95 => ci_half_width_95(values),
        })
    }
}

/// `1.96 · s / √n`: the half-width of the normal-approximation 95%
/// confidence interval on the mean, with the sample (n−1) standard
/// deviation `s`. Empty slices are rejected by [`Reduce::apply`]
/// before this runs; a singleton group returns `0.0` (one observation
/// constrains nothing); NaN inputs propagate through the sums.
fn ci_half_width_95(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    1.96 * (var / n).sqrt()
}

/// The value of a named metric on one record.
///
/// Resolves the three measured simulation outputs (`esav`,
/// `miss_rate`, `sim_cycles`), the per-bank vectors reduced to their
/// bank average (`useful_idleness`, `sleep_fractions`), and any named
/// model metric from the record's [`Metrics`](crate::model::Metrics)
/// map (`lt_years`, `lt0_years`, `drv_margin_aged_v`, …). `None` if
/// the record's model does not emit the metric.
pub fn metric_value(r: &ScenarioRecord, metric: &str) -> Option<f64> {
    match metric {
        "esav" => Some(r.esav),
        "miss_rate" => Some(r.miss_rate),
        "sim_cycles" => Some(r.sim_cycles as f64),
        "useful_idleness" => Some(r.avg_useful_idleness()),
        "sleep_fractions" => {
            Some(r.sleep_fractions.iter().sum::<f64>() / r.sleep_fractions.len() as f64)
        }
        named => r.metric(named),
    }
}

/// [`metric_value`], or an error naming the record that lacks the
/// metric.
///
/// # Errors
///
/// Returns [`CoreError::Report`] naming the record's workload, model
/// and the missing metric.
pub fn require_metric(r: &ScenarioRecord, metric: &str) -> Result<f64, CoreError> {
    metric_value(r, metric).ok_or_else(|| CoreError::Report {
        message: format!(
            "record for `{}` (model `{}`) lacks metric `{metric}`",
            r.scenario.workload, r.scenario.model
        ),
    })
}

/// Distinct values of a key over a report, in order of first
/// appearance — the ordering every table view and group-by shares.
pub fn distinct_by<'a, K: PartialEq>(
    records: impl IntoIterator<Item = &'a ScenarioRecord>,
    key: impl Fn(&'a ScenarioRecord) -> K,
) -> Vec<K> {
    let mut out: Vec<K> = Vec::new();
    for r in records {
        let k = key(r);
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

/// One group of a [`Query::groups`] partition: the group's key values
/// (one per `group_by` axis) and its records in report order.
#[derive(Debug, Clone)]
pub struct Group<'a> {
    /// The group's value on each grouping axis, in `group_by` order.
    pub key: Vec<AxisValue>,
    /// The group's records, preserving report order.
    pub records: Vec<&'a ScenarioRecord>,
}

impl Group<'_> {
    /// The group key as a single display label (` / `-separated).
    pub fn label(&self) -> String {
        self.key
            .iter()
            .map(AxisValue::to_string)
            .collect::<Vec<_>>()
            .join(" / ")
    }
}

/// One row of a reduced query: a group key and the reduced value.
#[derive(Debug, Clone)]
pub struct Row {
    /// The group's value on each grouping axis, in `group_by` order.
    pub key: Vec<AxisValue>,
    /// The reduced metric value.
    pub value: f64,
}

/// One baseline-relative join result from [`Query::gain_vs`].
#[derive(Debug, Clone)]
pub struct Gain<'a> {
    /// The record being compared (off-baseline on the compared axis).
    pub record: &'a ScenarioRecord,
    /// Its baseline partner (same everywhere but the compared axis).
    pub baseline: &'a ScenarioRecord,
    /// The metric on `record`.
    pub value: f64,
    /// The metric on `baseline`.
    pub base: f64,
    /// `value / base` — the derived baseline-relative metric.
    pub gain: f64,
}

/// A filtered, optionally grouped view over a [`StudyReport`].
///
/// Construction is free and nothing is copied: filters and groupings
/// are applied lazily when [`Query::records`], [`Query::groups`],
/// [`Query::reduce`] or [`Query::gain_vs`] walk the report.
#[derive(Debug, Clone)]
pub struct Query<'a> {
    report: &'a StudyReport,
    filters: Vec<(Axis, AxisValue)>,
    groups: Vec<Axis>,
}

impl<'a> Query<'a> {
    /// A query over every record of `report`.
    pub fn new(report: &'a StudyReport) -> Self {
        Self {
            report,
            filters: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Keeps only records whose `axis` value equals `value`. Filters
    /// on different axes compose as AND.
    #[must_use]
    pub fn filter(mut self, axis: Axis, value: impl Into<AxisValue>) -> Self {
        self.filters.push((axis, value.into()));
        self
    }

    /// Sets the grouping axes (replacing any previous grouping). An
    /// empty grouping treats the whole selection as one group.
    #[must_use]
    pub fn group_by(mut self, axes: impl IntoIterator<Item = Axis>) -> Self {
        self.groups = axes.into_iter().collect();
        self
    }

    /// The filtered records, preserving report order.
    pub fn records(&self) -> Vec<&'a ScenarioRecord> {
        self.report
            .records()
            .iter()
            .filter(|r| {
                self.filters
                    .iter()
                    .all(|(axis, want)| axis.matches(&r.scenario, want))
            })
            .collect()
    }

    /// Distinct values of `axis` over the filtered records, in order
    /// of first appearance.
    pub fn distinct(&self, axis: Axis) -> Vec<AxisValue> {
        distinct_by(self.records(), |r| axis.value_of(&r.scenario))
    }

    /// Partitions the filtered records by the grouping axes, groups in
    /// order of first appearance. One pass: each record is keyed once
    /// and appended to its group.
    pub fn groups(&self) -> Vec<Group<'a>> {
        let mut groups: Vec<Group<'a>> = Vec::new();
        for r in self.records() {
            let key: Vec<AxisValue> = self
                .groups
                .iter()
                .map(|a| a.value_of(&r.scenario))
                .collect();
            match groups.iter_mut().find(|g| g.key == key) {
                Some(group) => group.records.push(r),
                None => groups.push(Group {
                    key,
                    records: vec![r],
                }),
            }
        }
        groups
    }

    /// Reduces a named metric within each group: one [`Row`] per
    /// group, in group order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] if the selection is empty, a
    /// record lacks the metric (naming the record), or the reduction
    /// itself rejects its inputs (geomean of a non-positive value).
    pub fn reduce(&self, metric: &str, how: Reduce) -> Result<Vec<Row>, CoreError> {
        let groups = self.groups();
        if groups.is_empty() {
            return Err(CoreError::Report {
                message: format!("reduce `{metric}`: the query selected no records"),
            });
        }
        groups
            .into_iter()
            .map(|g| {
                let values = g
                    .records
                    .iter()
                    .map(|r| require_metric(r, metric))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Row {
                    value: how.apply(&values).map_err(|e| CoreError::Report {
                        message: format!("group `{}`: {e}", g.label()),
                    })?,
                    key: g.key,
                })
            })
            .collect()
    }

    /// Joins each off-baseline record with the baseline record that
    /// matches it on *every other* axis, and derives the
    /// baseline-relative metric `value / base` — e.g. lifetime gain of
    /// every policy over the conventional `identity` (modulo-indexed)
    /// cache, or of every model operating point over the reference.
    ///
    /// The join deliberately ignores seeds derived from the compared
    /// axis (`policy_seed` for [`Axis::Policy`], `trace_seed` and
    /// provenance for [`Axis::Workload`]): two scenarios that differ
    /// only there are the *same experiment* under a different setting
    /// of the compared knob.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] if no record sits at the baseline
    /// value, a record has no (or more than one) baseline partner, or
    /// a joined record lacks the metric.
    pub fn gain_vs(
        &self,
        axis: Axis,
        baseline: impl Into<AxisValue>,
        metric: &str,
    ) -> Result<Vec<Gain<'a>>, CoreError> {
        let baseline = baseline.into();
        let records = self.records();
        // Index the baseline side once: join keys are multi-field
        // strings, and rebuilding or rescanning them per off-baseline
        // record would make a wide sweep quadratic. BTreeMap keeps
        // every walk over the index deterministic.
        let mut base_index: std::collections::BTreeMap<String, Vec<&ScenarioRecord>> =
            std::collections::BTreeMap::new();
        let mut any_baseline = false;
        for r in records.iter().copied() {
            if axis.matches(&r.scenario, &baseline) {
                any_baseline = true;
                base_index
                    .entry(join_key(&r.scenario, axis))
                    .or_default()
                    .push(r);
            }
        }
        if !any_baseline {
            return Err(CoreError::Report {
                message: format!("gain_vs: no records at baseline {axis}={baseline}"),
            });
        }
        let mut out = Vec::new();
        for r in records {
            if axis.matches(&r.scenario, &baseline) {
                continue;
            }
            let key = join_key(&r.scenario, axis);
            let partners = base_index.get(&key).map(Vec::as_slice).unwrap_or(&[]);
            let [partner] = partners else {
                if partners.is_empty() {
                    return Err(CoreError::Report {
                        message: format!(
                            "gain_vs: no {axis}={baseline} partner for scenario `{key}`"
                        ),
                    });
                }
                return Err(CoreError::Report {
                    message: format!(
                        "gain_vs: multiple {axis}={baseline} partners for scenario `{key}`"
                    ),
                });
            };
            let partner = *partner;
            let value = require_metric(r, metric)?;
            let base = require_metric(partner, metric)?;
            out.push(Gain {
                record: r,
                baseline: partner,
                value,
                base,
                gain: value / base,
            });
        }
        Ok(out)
    }
}

/// The position-independent identity of a scenario as a join key over
/// every axis *except* `exclude` (and the seeds that axis derives).
fn join_key(s: &Scenario, exclude: Axis) -> String {
    let mut key = String::new();
    for axis in Axis::ALL {
        if axis == exclude {
            continue;
        }
        let _ = write!(key, "{}={};", axis.name(), axis.value_of(s));
    }
    let _ = write!(key, "cycles={}", s.trace_cycles);
    if exclude != Axis::Policy {
        let _ = write!(key, ";pseed={}", s.policy_seed);
    }
    if exclude != Axis::Workload {
        let _ = write!(key, ";tseed={}", s.trace_seed);
        if let Some(src) = &s.workload_source {
            let _ = write!(key, ";src={}:{}", src.format, src.hash);
        }
    }
    key
}

/// The full position-independent identity of a scenario — every axis
/// value, both seeds, the horizon and (for file-backed workloads) the
/// trace's content hash, but *not* the grid id: the key a scenario
/// keeps when its study is widened or reordered. [`ReportDiff`]
/// matches records across reports by this string and names diverging
/// scenarios with it.
///
/// # Examples
///
/// ```
/// use aging_cache::analysis::scenario_key;
/// # use aging_cache::study::{StudySpec};
/// let grid = StudySpec::new("demo").workload_names(["sha"]).unwrap().expand().unwrap();
/// let key = scenario_key(&grid.scenarios()[0]);
/// assert!(key.contains("policy=probing"));
/// assert!(key.contains("workload=sha"));
/// ```
pub fn scenario_key(s: &Scenario) -> String {
    let mut key = String::new();
    for axis in Axis::ALL {
        let _ = write!(key, "{}={};", axis.name(), axis.value_of(s));
    }
    let _ = write!(
        key,
        "cycles={};pseed={};tseed={}",
        s.trace_cycles, s.policy_seed, s.trace_seed
    );
    if let Some(src) = &s.workload_source {
        let _ = write!(key, ";src={}:{}", src.format, src.hash);
    }
    key
}

/// Whether two measured cells agree: exact for the same bit pattern,
/// `NaN` equals `NaN` (the honest "not measured" marker for
/// pinned-profile scenarios must not diverge from itself), otherwise
/// within `tol` absolutely.
fn cells_agree(a: f64, b: f64, tol: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    a == b || (a - b).abs() <= tol
}

/// One diverging cell of a [`ReportDiff`]: which scenario, which
/// field, and both values.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDiff {
    /// The diverging scenario's position-independent key
    /// ([`scenario_key`]).
    pub scenario: String,
    /// The diverging field (`esav`, `useful_idleness[2]`,
    /// `lt_years`, …).
    pub field: String,
    /// The value on the left side.
    pub left: f64,
    /// The value on the right side.
    pub right: f64,
}

/// A cell-by-cell comparison of two studies (or a study against a
/// result-cache journal): every scenario matched by its
/// position-independent key, every measured field compared with
/// tolerance, every divergence named.
///
/// # Examples
///
/// A report always diffs empty against itself:
///
/// ```
/// use aging_cache::analysis::ReportDiff;
/// use aging_cache::study::StudyReport;
///
/// let report = StudyReport::from_records("empty", vec![]);
/// let diff = ReportDiff::between(&report, &report, 0.0);
/// assert!(diff.is_empty());
/// assert_eq!(diff.matched(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    tolerance: f64,
    matched: usize,
    divergent: Vec<CellDiff>,
    only_left: Vec<String>,
    only_right: Vec<String>,
}

impl ReportDiff {
    /// Compares two reports cell by cell with absolute tolerance
    /// `tolerance` (`0.0` demands bit-identical values; `NaN` always
    /// equals `NaN`). Records are matched by [`scenario_key`], so grid
    /// position is irrelevant: a widened or reordered study diffs
    /// clean against the original on every scenario they share.
    pub fn between(left: &StudyReport, right: &StudyReport, tolerance: f64) -> ReportDiff {
        // Index the right side so the match is O(n log n), not a
        // linear key-string scan per left record (reports are
        // routinely thousands of scenarios). Buckets hold duplicates
        // in report order; matching pops the earliest unmatched twin.
        // BTreeMap makes the leftover walk below insertion-order-free.
        let mut right_index: std::collections::BTreeMap<String, Vec<&ScenarioRecord>> =
            std::collections::BTreeMap::new();
        for r in right.records() {
            right_index
                .entry(scenario_key(&r.scenario))
                .or_default()
                .push(r);
        }
        let mut diff = ReportDiff {
            tolerance,
            matched: 0,
            divergent: Vec::new(),
            only_left: Vec::new(),
            only_right: Vec::new(),
        };
        for l in left.records() {
            let key = scenario_key(&l.scenario);
            let partner = right_index
                .get_mut(&key)
                .and_then(|bucket| (!bucket.is_empty()).then(|| bucket.remove(0)));
            let Some(r) = partner else {
                diff.only_left.push(key);
                continue;
            };
            diff.matched += 1;
            diff.compare_measurement(&key, l, &CachedMeasurement::of_record(r));
        }
        diff.only_right = right_index
            .into_iter()
            .flat_map(|(k, bucket)| std::iter::repeat_n(k, bucket.len()))
            .collect();
        // Already key-ordered by the BTreeMap walk; kept explicit so
        // the sorted-output contract survives an index change.
        diff.only_right.sort_unstable();
        diff
    }

    /// The same diff seen from the other side: left/right values of
    /// every diverging cell and the one-sided scenario lists swap;
    /// matched count and tolerance are symmetric. Lets a caller who
    /// compared `(journal, report)` present the result in the operand
    /// order the user actually wrote.
    #[must_use]
    pub fn swapped(mut self) -> ReportDiff {
        std::mem::swap(&mut self.only_left, &mut self.only_right);
        for d in &mut self.divergent {
            std::mem::swap(&mut d.left, &mut d.right);
        }
        self
    }

    /// Compares a report against a result-cache journal
    /// ([`crate::rescache`]): each record's scenario is fingerprinted
    /// (resolving its workload through `workloads` for provenance and
    /// `p0`, exactly as the grid runner does) and looked up — **no
    /// simulation and no model evaluation runs**. A scenario absent
    /// from the journal counts as "only left"; journal entries the
    /// report never asks about are not visited (a journal is a
    /// superset of many studies, so unvisited entries are not a
    /// divergence).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unknown`] / [`CoreError::Trace`]
    /// when a record's workload key no longer resolves (e.g. a moved
    /// trace file), or [`CoreError::Cache`] on journal backend
    /// failures.
    pub fn against_cache(
        report: &StudyReport,
        cache: &dyn ResultCache,
        workloads: &WorkloadRegistry,
        tolerance: f64,
    ) -> Result<ReportDiff, CoreError> {
        let mut diff = ReportDiff {
            tolerance,
            matched: 0,
            divergent: Vec::new(),
            only_left: Vec::new(),
            only_right: Vec::new(),
        };
        // One resolve per distinct workload key, not per record:
        // file-backed keys (`csv:path`, …) re-read and re-hash the
        // whole trace on every resolve, and a sweep typically crosses
        // one workload with many geometry/policy points.
        let mut resolved: std::collections::BTreeMap<
            String,
            std::sync::Arc<dyn crate::workload::Workload>,
        > = std::collections::BTreeMap::new();
        for l in report.records() {
            let key = scenario_key(&l.scenario);
            let workload = match resolved.get(&l.scenario.workload) {
                Some(w) => std::sync::Arc::clone(w),
                None => {
                    let w = workloads.resolve(&l.scenario.workload)?;
                    resolved.insert(l.scenario.workload.clone(), std::sync::Arc::clone(&w));
                    w
                }
            };
            let fp = Fingerprint::for_scenario(&l.scenario, workload.as_ref());
            match cache.lookup(&fp)? {
                None => diff.only_left.push(key),
                Some(cached) => {
                    diff.matched += 1;
                    diff.compare_measurement(&key, l, &cached);
                }
            }
        }
        Ok(diff)
    }

    fn compare_cell(&mut self, scenario: &str, field: impl Into<String>, left: f64, right: f64) {
        if !cells_agree(left, right, self.tolerance) {
            self.divergent.push(CellDiff {
                scenario: scenario.to_string(),
                field: field.into(),
                left,
                right,
            });
        }
    }

    /// Compares every measured cell of a record against a (cached or
    /// record-extracted) measurement.
    fn compare_measurement(&mut self, key: &str, l: &ScenarioRecord, r: &CachedMeasurement) {
        self.compare_cell(key, "sim_cycles", l.sim_cycles as f64, r.sim_cycles as f64);
        self.compare_cell(key, "esav", l.esav, r.esav);
        self.compare_cell(key, "miss_rate", l.miss_rate, r.miss_rate);
        for (name, left, right) in [
            ("useful_idleness", &l.useful_idleness, &r.useful_idleness),
            ("sleep_fractions", &l.sleep_fractions, &r.sleep_fractions),
        ] {
            if left.len() != right.len() {
                self.compare_cell(
                    key,
                    format!("{name}.len"),
                    left.len() as f64,
                    right.len() as f64,
                );
                continue;
            }
            for (i, (&a, &b)) in left.iter().zip(right.iter()).enumerate() {
                self.compare_cell(key, format!("{name}[{i}]"), a, b);
            }
        }
        // A metric missing on one side is a divergence *uncondition-
        // ally* — routing it through compare_cell with a NaN stand-in
        // would silently agree when the present side's value is itself
        // NaN, and "the journal dropped the metric" must never pass a
        // regression gate. The NaN appears only as the display value.
        for (metric, a) in l.metrics.iter() {
            match r.metrics.get(metric) {
                Some(b) => self.compare_cell(key, metric, a, b),
                None => self.divergent.push(CellDiff {
                    scenario: key.to_string(),
                    field: metric.to_string(),
                    left: a,
                    right: f64::NAN,
                }),
            }
        }
        for (metric, b) in r.metrics.iter() {
            if l.metrics.get(metric).is_none() {
                self.divergent.push(CellDiff {
                    scenario: key.to_string(),
                    field: metric.to_string(),
                    left: f64::NAN,
                    right: b,
                });
            }
        }
    }

    /// Whether the two sides agree completely: every scenario matched,
    /// every cell within tolerance.
    pub fn is_empty(&self) -> bool {
        self.divergent.is_empty() && self.only_left.is_empty() && self.only_right.is_empty()
    }

    /// Scenarios present on both sides.
    pub fn matched(&self) -> usize {
        self.matched
    }

    /// The diverging cells, in left-report order.
    pub fn divergent(&self) -> &[CellDiff] {
        &self.divergent
    }

    /// Keys of scenarios only the left side has.
    pub fn only_left(&self) -> &[String] {
        &self.only_left
    }

    /// Keys of scenarios only the right side has.
    pub fn only_right(&self) -> &[String] {
        &self.only_right
    }

    /// The comparison tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

impl fmt::Display for ReportDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "compare: {} scenarios matched, {} diverging cells, {} only left, {} only right (tol {})",
            self.matched,
            self.divergent.len(),
            self.only_left.len(),
            self.only_right.len(),
            self.tolerance
        )?;
        for d in &self.divergent {
            writeln!(
                f,
                "  != {}: {} left {} right {}",
                d.scenario, d.field, d.left, d.right
            )?;
        }
        for key in &self.only_left {
            writeln!(f, "  <  {key}")?;
        }
        for key in &self.only_right {
            writeln!(f, "  >  {key}")?;
        }
        Ok(())
    }
}

/// Per-record baseline gains (`lt_years` vs the baseline policy),
/// keyed by scenario id; records *at* the baseline have no entry.
///
/// Records whose model emits no `lt_years` (e.g. the retention-margin
/// `drv` model in a mixed-model sweep) are excluded from the join
/// before it runs — they render `-`, like every other missing metric
/// in the summary table, instead of aborting the render. Within the
/// lifetime-bearing subset a missing baseline partner is still a real
/// error (the grid lacks the comparison the user asked for).
fn baseline_gains(
    report: &StudyReport,
    baseline: &str,
    // aging-lint: allow(no-unordered-iter) keyed gain map, only ever probed by scenario id
) -> Result<std::collections::HashMap<usize, f64>, CoreError> {
    // A sweep with no baseline scenarios at all cannot answer the
    // comparison the user asked for — that is a misconfiguration to
    // report, not a column of dashes.
    if !report
        .records()
        .iter()
        .any(|r| r.scenario.policy == baseline)
    {
        return Err(CoreError::Report {
            message: format!(
                "--baseline: the sweep contains no `{baseline}` scenarios \
                 (add it to --policies)"
            ),
        });
    }
    let with_lt: Vec<_> = report
        .records()
        .iter()
        .filter(|r| r.metric("lt_years").is_some())
        .cloned()
        .collect();
    let has_baseline = with_lt.iter().any(|r| r.scenario.policy == baseline);
    if with_lt.is_empty() || !has_baseline {
        // aging-lint: allow(no-unordered-iter) keyed gain map, only ever probed by scenario id
        return Ok(std::collections::HashMap::new()); // every row renders `-`
    }
    let lifetimes = StudyReport::from_records(report.name(), with_lt);
    Ok(Query::new(&lifetimes)
        .gain_vs(Axis::Policy, baseline, "lt_years")?
        .into_iter()
        .map(|g| (g.record.scenario.id, g.gain))
        .collect())
}

/// The one-row-per-scenario summary table (the `study` CLI's and the
/// study server's shared default view), with an `LT x<baseline>` gain
/// column appended when `baseline` is given.
fn per_record_table(report: &StudyReport, baseline: Option<&str>) -> Result<Table, CoreError> {
    let gains = baseline
        .map(|base| baseline_gains(report, base))
        .transpose()?;
    let mut headers = vec![
        "kB".into(),
        "line".into(),
        "M".into(),
        "model".into(),
        "policy".into(),
        "workload".into(),
        "Esav%".into(),
        "idl%".into(),
        "LT0".into(),
        "LT".into(),
    ];
    if let Some(base) = baseline {
        headers.push(format!("LT x{base}"));
    }
    let mut t = Table::new(
        format!("study: {} scenarios", report.records().len()),
        headers,
    );
    for r in report.records() {
        let s = &r.scenario;
        t.push_row_with(|row| {
            row.uint(s.cache_bytes / 1024)
                .uint(u64::from(s.line_bytes))
                .uint(u64::from(s.banks))
                .text(&s.model)
                .text(&s.policy)
                .text(&s.workload)
                .pct(r.esav)
                .pct(r.avg_useful_idleness());
            for name in ["lt0_years", "lt_years"] {
                match r.metric(name) {
                    Some(v) => row.years(v),
                    None => row.text("-"),
                };
            }
            if let Some(gains) = &gains {
                match gains.get(&s.id) {
                    Some(&gain) => row.factor(gain),
                    None => row.text("-"), // the baseline row itself
                };
            }
        });
    }
    Ok(t)
}

/// The group-by aggregation: one row per group, mean metrics over
/// the group's records, plus the geomean baseline-relative lifetime
/// gain when `baseline` is given.
fn grouped_table(
    report: &StudyReport,
    group_by: &[Axis],
    baseline: Option<&str>,
) -> Result<Table, CoreError> {
    let gains = baseline
        .map(|base| baseline_gains(report, base))
        .transpose()?;
    let query = Query::new(report).group_by(group_by.iter().copied());
    let mut headers: Vec<String> = group_by.iter().map(|a| a.name().to_string()).collect();
    headers.extend([
        "n".into(),
        "Esav%".into(),
        "idl%".into(),
        "LT0".into(),
        "LT".into(),
    ]);
    if let Some(base) = baseline {
        headers.push(format!("LT x{base}"));
    }
    let groups = query.groups();
    let mut t = Table::new(
        format!(
            "study: {} scenarios in {} groups",
            report.records().len(),
            groups.len()
        ),
        headers,
    );
    for group in groups {
        // Mean over the records that carry the metric, `-` when none
        // do — the grouped counterpart of the per-record table's `-`
        // for a missing metric (a mixed-model sweep must render, not
        // abort).
        let mean = |metric: &str, fmt: fn(f64) -> String| -> Result<String, CoreError> {
            let values: Vec<f64> = group
                .records
                .iter()
                .filter_map(|r| metric_value(r, metric))
                .collect();
            if values.is_empty() {
                return Ok("-".into());
            }
            Ok(fmt(Reduce::Mean.apply(&values)?))
        };
        let mut row: Vec<String> = group.key.iter().map(ToString::to_string).collect();
        row.push(group.records.len().to_string());
        row.push(mean("esav", pct)?);
        row.push(mean("useful_idleness", pct)?);
        row.push(mean("lt0_years", years)?);
        row.push(mean("lt_years", years)?);
        if let Some(gains) = &gains {
            let group_gains: Vec<f64> = group
                .records
                .iter()
                .filter_map(|r| gains.get(&r.scenario.id).copied())
                .collect();
            row.push(if group_gains.is_empty() {
                "-".into() // entirely at the baseline, or no lifetimes
            } else {
                format!("{:.2}x", Reduce::Geomean.apply(&group_gains)?)
            });
        }
        t.push_row(row);
    }
    Ok(t)
}

/// The shared summary view behind the `study` CLI's default output
/// *and* the study server's `/render` and `/query` endpoints: one row
/// per scenario (empty `group_by`), or one row per group with mean
/// metrics. `baseline` appends the `LT x<baseline>` gain column
/// (per-record, or geomean within each group) derived by a
/// [`Query::gain_vs`] join over the policy axis.
///
/// Both front ends calling this one function is what makes the served
/// bytes and the CLI bytes provably identical for the same report.
///
/// # Errors
///
/// Returns [`CoreError::Report`] when the baseline policy has no
/// scenarios in the report, and propagates reduction errors.
pub fn summary_table(
    report: &StudyReport,
    group_by: &[Axis],
    baseline: Option<&str>,
) -> Result<Table, CoreError> {
    if group_by.is_empty() {
        per_record_table(report, baseline)
    } else {
        grouped_table(report, group_by, baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Metrics;

    fn record(workload: &str, kb: u64, banks: u32, policy: &str, lt: f64) -> ScenarioRecord {
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
                workload_index: 0,
                workload_source: None,
                model: "nbti-45nm".into(),
                trace_cycles: 1000,
                trace_seed: 1000,
                policy_seed: 1,
            },
            sim_cycles: 1000,
            esav: 0.4,
            miss_rate: 0.05,
            useful_idleness: vec![0.4; banks as usize],
            sleep_fractions: vec![0.35; banks as usize],
            metrics: Metrics::from_pairs([("lt0_years", 3.0), ("lt_years", lt)]),
        }
    }

    fn sample() -> StudyReport {
        StudyReport::from_records(
            "sample",
            vec![
                record("sha", 8, 4, "identity", 3.0),
                record("sha", 8, 4, "probing", 4.2),
                record("CRC32", 8, 4, "identity", 3.5),
                record("CRC32", 8, 4, "probing", 4.9),
                record("sha", 16, 4, "identity", 3.1),
                record("sha", 16, 4, "probing", 4.5),
            ],
        )
    }

    #[test]
    fn filter_group_reduce() {
        let report = sample();
        let rows = Query::new(&report)
            .filter(Axis::CacheBytes, 8u64 * 1024)
            .group_by([Axis::Policy])
            .reduce("lt_years", Reduce::Mean)
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key[0], AxisValue::Str("identity".into()));
        assert!((rows[0].value - 3.25).abs() < 1e-12);
        assert!((rows[1].value - 4.55).abs() < 1e-12);
    }

    #[test]
    fn reduce_count_and_minmax() {
        let report = sample();
        let q = Query::new(&report).group_by([Axis::Workload]);
        let counts = q.reduce("lt_years", Reduce::Count).unwrap();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0].value, 4.0, "sha appears at both sizes x policies");
        assert_eq!(counts[1].value, 2.0);
        let min = q.reduce("lt_years", Reduce::Min).unwrap();
        assert_eq!(min[0].value, 3.0);
        let max = q.reduce("lt_years", Reduce::Max).unwrap();
        assert_eq!(max[0].value, 4.5);
    }

    #[test]
    fn ci95_half_width_brackets_the_mean() {
        // Known closed form: {1, 2, 3} has mean 2, sample stddev 1, so
        // the half-width is 1.96 / √3.
        let ci = Reduce::CiHalfWidth95.apply(&[1.0, 2.0, 3.0]).unwrap();
        assert!((ci - 1.96 / 3.0_f64.sqrt()).abs() < 1e-12, "{ci}");
        // A singleton constrains nothing and an identical ensemble is
        // perfectly certain; both collapse to zero width.
        assert_eq!(Reduce::CiHalfWidth95.apply(&[7.0]).unwrap(), 0.0);
        assert_eq!(Reduce::CiHalfWidth95.apply(&[2.0, 2.0, 2.0]).unwrap(), 0.0);
        // Empty groups are rejected like every other reduction; NaN
        // propagates instead of vanishing.
        assert!(Reduce::CiHalfWidth95.apply(&[]).is_err());
        assert!(Reduce::CiHalfWidth95
            .apply(&[1.0, f64::NAN])
            .unwrap()
            .is_nan());
        // And it parses from the CLI spellings.
        assert_eq!(Reduce::parse("ci95").unwrap(), Reduce::CiHalfWidth95);
        assert_eq!(Reduce::parse("ci").unwrap(), Reduce::CiHalfWidth95);
        assert_eq!(Reduce::CiHalfWidth95.name(), "ci95");
    }

    #[test]
    fn min_max_propagate_nan_instead_of_dropping_it() {
        // f64::min/max would silently skip NaN and fabricate ±inf for
        // an all-NaN group; the reduction must keep "not measured"
        // visible, like Mean does.
        assert!(Reduce::Min.apply(&[1.0, f64::NAN]).unwrap().is_nan());
        assert!(Reduce::Max.apply(&[f64::NAN]).unwrap().is_nan());
        assert_eq!(Reduce::Min.apply(&[2.0, 1.0]).unwrap(), 1.0);
        assert_eq!(Reduce::Max.apply(&[2.0, 1.0]).unwrap(), 2.0);
    }

    #[test]
    fn geomean_rejects_nonpositive() {
        let report = StudyReport::from_records("z", vec![record("sha", 8, 4, "probing", 0.0)]);
        let e = Query::new(&report)
            .reduce("lt_years", Reduce::Geomean)
            .unwrap_err();
        assert!(e.to_string().contains("strictly positive"), "{e}");
    }

    #[test]
    fn empty_selection_is_an_error_not_nan() {
        let report = sample();
        let e = Query::new(&report)
            .filter(Axis::Policy, "warp-drive")
            .reduce("lt_years", Reduce::Mean)
            .unwrap_err();
        assert!(e.to_string().contains("selected no records"), "{e}");
    }

    #[test]
    fn missing_metric_names_the_record() {
        let report = sample();
        let e = Query::new(&report)
            .reduce("no_such_metric", Reduce::Mean)
            .unwrap_err();
        assert!(
            e.to_string().contains("lacks metric `no_such_metric`"),
            "{e}"
        );
    }

    #[test]
    fn gain_vs_joins_on_all_other_axes() {
        let report = sample();
        let gains = Query::new(&report)
            .gain_vs(Axis::Policy, "identity", "lt_years")
            .unwrap();
        assert_eq!(gains.len(), 3, "one join per off-baseline record");
        let g = &gains[0];
        assert_eq!(g.record.scenario.workload, "sha");
        assert_eq!(g.baseline.scenario.policy, "identity");
        assert!((g.gain - 4.2 / 3.0).abs() < 1e-12);
        // The 16 kB sha point joins the 16 kB identity, not the 8 kB one.
        let g16 = gains
            .iter()
            .find(|g| g.record.scenario.cache_bytes == 16 * 1024)
            .unwrap();
        assert!((g16.gain - 4.5 / 3.1).abs() < 1e-12);
    }

    #[test]
    fn gain_vs_ignores_policy_seed_across_the_policy_axis() {
        let mut base = record("sha", 8, 4, "identity", 3.0);
        base.scenario.policy_seed = 77;
        let probing = record("sha", 8, 4, "probing", 4.5);
        let report = StudyReport::from_records("seeds", vec![base, probing]);
        let gains = Query::new(&report)
            .gain_vs(Axis::Policy, "identity", "lt_years")
            .unwrap();
        assert_eq!(gains.len(), 1);
        assert!((gains[0].gain - 1.5).abs() < 1e-12);
    }

    #[test]
    fn gain_vs_without_baseline_or_partner_is_an_error() {
        let report = sample();
        let e = Query::new(&report)
            .gain_vs(Axis::Policy, "gray", "lt_years")
            .unwrap_err();
        assert!(e.to_string().contains("no records at baseline"), "{e}");

        let lonely = StudyReport::from_records(
            "lonely",
            vec![
                record("sha", 8, 4, "identity", 3.0),
                record("CRC32", 8, 4, "probing", 4.0),
            ],
        );
        let e = Query::new(&lonely)
            .gain_vs(Axis::Policy, "identity", "lt_years")
            .unwrap_err();
        assert!(e.to_string().contains("no policy=identity partner"), "{e}");
    }

    #[test]
    fn diff_of_identical_reports_is_empty() {
        let report = sample();
        let diff = ReportDiff::between(&report, &report, 0.0);
        assert!(diff.is_empty(), "{diff}");
        assert_eq!(diff.matched(), 6);
    }

    #[test]
    fn diff_matches_by_identity_not_position() {
        let report = sample();
        let mut shuffled: Vec<ScenarioRecord> = report.records().to_vec();
        shuffled.reverse();
        for (i, r) in shuffled.iter_mut().enumerate() {
            r.scenario.id = i; // grid position must be irrelevant
        }
        let reordered = StudyReport::from_records("reordered", shuffled);
        let diff = ReportDiff::between(&report, &reordered, 0.0);
        assert!(diff.is_empty(), "{diff}");
    }

    #[test]
    fn diff_names_diverging_cells_and_respects_tolerance() {
        let report = sample();
        let mut tweaked: Vec<ScenarioRecord> = report.records().to_vec();
        tweaked[1].metrics = Metrics::from_pairs([("lt0_years", 3.0), ("lt_years", 4.2 + 1e-6)]);
        let right = StudyReport::from_records("tweaked", tweaked);
        let exact = ReportDiff::between(&report, &right, 0.0);
        assert_eq!(exact.divergent().len(), 1);
        let d = &exact.divergent()[0];
        assert_eq!(d.field, "lt_years");
        assert!(d.scenario.contains("policy=probing"), "{}", d.scenario);
        assert!(d.scenario.contains("workload=sha"), "{}", d.scenario);
        let tolerant = ReportDiff::between(&report, &right, 1e-3);
        assert!(tolerant.is_empty(), "{tolerant}");
    }

    #[test]
    fn diff_reports_one_sided_scenarios() {
        let report = sample();
        let narrow = StudyReport::from_records("narrow", report.records()[..4].to_vec());
        let diff = ReportDiff::between(&report, &narrow, 0.0);
        assert_eq!(diff.matched(), 4);
        assert_eq!(diff.only_left().len(), 2);
        assert!(diff.only_right().is_empty());
        let reverse = ReportDiff::between(&narrow, &report, 0.0);
        assert_eq!(reverse.only_right().len(), 2);
    }

    #[test]
    fn swapped_mirrors_sides_exactly() {
        let report = sample();
        let narrow = StudyReport::from_records("narrow", report.records()[..4].to_vec());
        let mut tweaked: Vec<ScenarioRecord> = narrow.records().to_vec();
        tweaked[0].esav = 0.9;
        let narrow = StudyReport::from_records("narrow", tweaked);
        let diff = ReportDiff::between(&report, &narrow, 0.0).swapped();
        let mirror = ReportDiff::between(&narrow, &report, 0.0);
        assert_eq!(diff.matched(), mirror.matched());
        assert_eq!(diff.only_left(), mirror.only_left());
        assert_eq!(diff.only_right(), mirror.only_right());
        assert_eq!(diff.divergent()[0].left, mirror.divergent()[0].left);
        assert_eq!(diff.divergent()[0].right, mirror.divergent()[0].right);
    }

    #[test]
    fn diff_treats_nan_as_equal_to_nan() {
        let mut a = record("sha", 8, 4, "probing", 4.0);
        a.esav = f64::NAN;
        a.miss_rate = f64::NAN;
        let report = StudyReport::from_records("nan", vec![a]);
        assert!(ReportDiff::between(&report, &report, 0.0).is_empty());
    }

    #[test]
    fn diff_flags_metrics_missing_on_one_side() {
        let left = StudyReport::from_records("l", vec![record("sha", 8, 4, "probing", 4.0)]);
        let mut stripped = record("sha", 8, 4, "probing", 4.0);
        stripped.metrics = Metrics::from_pairs([("lt0_years", 3.0)]);
        let right = StudyReport::from_records("r", vec![stripped]);
        let diff = ReportDiff::between(&left, &right, 0.0);
        assert_eq!(diff.divergent().len(), 1);
        assert_eq!(diff.divergent()[0].field, "lt_years");
        assert!(diff.divergent()[0].right.is_nan());
    }

    #[test]
    fn a_dropped_metric_diverges_even_when_its_value_was_nan() {
        // "Present as NaN" and "absent" are different facts: a journal
        // that drops a NaN-valued metric must not pass a regression
        // gate just because the NaN stand-in equals NaN.
        let mut with_nan = record("sha", 8, 4, "probing", 4.0);
        with_nan.metrics = Metrics::from_pairs([("lt0_years", 3.0), ("odd_metric", f64::NAN)]);
        let left = StudyReport::from_records("l", vec![with_nan]);
        let mut stripped = record("sha", 8, 4, "probing", 4.0);
        stripped.metrics = Metrics::from_pairs([("lt0_years", 3.0)]);
        let right = StudyReport::from_records("r", vec![stripped]);
        let diff = ReportDiff::between(&left, &right, 0.0);
        assert_eq!(diff.divergent().len(), 1, "{diff}");
        assert_eq!(diff.divergent()[0].field, "odd_metric");
        // …while the same metric present as NaN on both sides agrees.
        assert!(ReportDiff::between(&left, &left, 0.0).is_empty());
    }

    #[test]
    fn axis_roundtrip_and_values() {
        for axis in Axis::ALL {
            assert_eq!(Axis::parse(axis.name()).unwrap(), axis);
        }
        let r = record("sha", 8, 4, "probing", 4.0);
        assert_eq!(Axis::CacheBytes.value_of(&r.scenario).to_string(), "8192");
        assert_eq!(Axis::Policy.value_of(&r.scenario).to_string(), "probing");
        assert_eq!(AxisValue::Num(1.5).to_string(), "1.5");
    }

    #[test]
    fn matches_is_value_of_equality() {
        let r = record("sha", 8, 4, "probing", 4.0);
        for axis in Axis::ALL {
            let own = axis.value_of(&r.scenario);
            for want in [
                own.clone(),
                AxisValue::Num(8192.0),
                AxisValue::Num(4.0),
                AxisValue::Num(f64::NAN),
                AxisValue::from("probing"),
                AxisValue::from("sha"),
                AxisValue::from("4"),
            ] {
                assert_eq!(
                    axis.matches(&r.scenario, &want),
                    own == want,
                    "{axis} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn metric_value_resolves_builtins_and_named() {
        let r = record("sha", 8, 4, "probing", 4.0);
        assert_eq!(metric_value(&r, "esav"), Some(0.4));
        assert_eq!(metric_value(&r, "sim_cycles"), Some(1000.0));
        assert_eq!(metric_value(&r, "useful_idleness"), Some(0.4));
        assert_eq!(metric_value(&r, "lt_years"), Some(4.0));
        assert_eq!(metric_value(&r, "nope"), None);
    }
}
