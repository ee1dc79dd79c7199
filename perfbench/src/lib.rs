//! The repository benchmark: three workloads driven through the study
//! engine's public front doors, measured end to end and, in a separate
//! traced run, layer by layer.
//!
//! * `table2-cold` — the Table II reference study (54 scenarios of
//!   640k cycles), each study on a fresh session and a fresh on-disk
//!   journal ([`cold`]);
//! * `hierarchy-cold` — a 16 kB 4-way L1 in front of a 64 kB 4-way L2
//!   over the same suite (18 scenarios), again cold ([`cold`]);
//! * `serve-mixed` — one in-process `StudyServer` over a warm journal,
//!   driven by one keep-alive client with a seeded read/write mix
//!   ([`serve`]).
//!
//! The traced run installs wrappers only through public extension
//! points ([`trace`]): same-named workload wrappers, a `ResultCache`
//! wrapper, and timed direct calls into the model and render layers.
//! See `perfbench/README.md` for the metric map.

pub mod cold;
pub mod serve;
pub mod trace;

use aging_cache::analysis::{self, Axis, Query, Reduce};
use aging_cache::model::{ModelContext, ModelEval};
use aging_cache::registry::PolicyRegistry;
use aging_cache::render::{self, Format};
use aging_cache::study::{ScenarioRecord, StudyReport};
use aging_cache::workload::WorkloadRegistry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The default workload seed: the paper's historic base seed, under
/// which the cold reports match their pinned digests.
pub const DEFAULT_SEED: u64 = 1000;

/// Trace horizon of the cold studies, in cycles (the ROADMAP reference
/// study).
pub const REFERENCE_CYCLES: u64 = 640_000;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("study_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
/// Counts are per operation (a study on the cold workloads, a request
/// on `serve-mixed`); a layer that does no work on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read_p99_ms", "ms"),
    ("traces.opens", "count"),
    ("traces.accesses", "count"),
    ("traces.busy_s", "s"),
    ("traces.ns_per_access", "ns"),
    ("traces.reuse_ratio", "ratio"),
    ("sim.busy_s", "s"),
    ("sim.ns_per_access", "ns"),
    ("sim.simulations", "count"),
    ("sim.memo_hits", "count"),
    ("sim.miss_rate_mean", "fraction"),
    ("sim.sleep_fraction_mean", "fraction"),
    ("sim.l2_sleep_fraction_mean", "fraction"),
    ("model.calibrate_ms.nbti-45nm", "ms"),
    ("model.calibrate_ms.drv", "ms"),
    ("model.evaluate_us", "us"),
    ("model.evaluations", "count"),
    ("rescache.store_us", "us"),
    ("rescache.stores", "count"),
    ("rescache.lookup_us", "us"),
    ("rescache.hits", "count"),
    ("rescache.open_ms", "ms"),
    ("exec.workers", "count"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.other_s", "s"),
    ("render.md_us", "us"),
    ("render.json_us", "us"),
    ("analysis.query_us", "us"),
    ("serve.render_md_p50_ms", "ms"),
    ("serve.render_json_p50_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.run_p50_ms", "ms"),
    ("serve.run_p99_ms", "ms"),
    ("serve.requests_per_s", "1/s"),
    ("serve.http_overhead_us", "us"),
    ("serve.coalesced_waits", "count"),
    ("serve.window_simulations", "count"),
    ("trace.overhead_pct", "%"),
    ("anchor_err_pct", "%"),
    ("error_rate", "fraction"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The Table II reference study, cold.
    Table2Cold,
    /// The L1+L2 hierarchy study, cold.
    HierarchyCold,
    /// A warm study server under a read/write mix.
    ServeMixed,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Table2Cold,
        WorkloadKind::HierarchyCold,
        WorkloadKind::ServeMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Table2Cold => "table2-cold",
            WorkloadKind::HierarchyCold => "hierarchy-cold",
            WorkloadKind::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: WorkloadKind,
    /// The workload seed: the trace base seed of the cold studies, the
    /// request-mix and profile-value seed of `serve-mixed`.
    pub seed: u64,
    /// How long the measured window lasts.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Trace horizon of the cold studies (the self-test shrinks it).
    pub cycles: u64,
    /// Scratch directory for journals and the span file; removed and
    /// recreated by the run.
    pub work_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Operations attempted: one per cold study, one per request.
    pub attempted: u64,
    /// Operations that failed (error, wrong output, timeout).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            problems: Vec::new(),
        }
    }

    /// Records a failed check.
    fn problem(&mut self, message: String) {
        self.correct = false;
        self.problems.push(message);
    }

    /// Records one operation and whether it succeeded.
    fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The metric table for this run's mode: every declared metric, in
    /// declaration order, with its unit.
    pub fn table(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let declared = if trace { PER_LAYER } else { END_TO_END };
        declared
            .iter()
            .map(|&(name, unit)| (name, self.metric(name).unwrap_or(f64::NAN), unit))
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the mode's metrics. A metric that is missing or not
    /// finite makes the run incorrect (and prints as 0, since JSON has
    /// no NaN).
    pub fn to_json(&self, trace: bool) -> String {
        let mut correct = self.correct && self.attempted > 0;
        let mut fields = Vec::new();
        for (name, value, unit) in self.table(trace) {
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                0.0
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when the run could not be set up or measured at
/// all; checked outputs that come out wrong are failed operations in
/// the [`Outcome`] instead.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    let outcome = match cfg.workload {
        WorkloadKind::Table2Cold | WorkloadKind::HierarchyCold => cold::run(cfg),
        WorkloadKind::ServeMixed => serve::run(cfg),
    };
    let _ = std::fs::remove_dir_all(cfg.work_dir.join("journals"));
    let mut outcome = outcome?;
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metrics.insert("error_rate", error_rate);
    outcome.metrics.insert("peak_rss_mb", peak_rss_mb()?);
    Ok(outcome)
}

/// Worker threads of the default executor and of the server: the
/// host's available parallelism.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The process's resident-memory high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The three ways a finished report is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadKind {
    /// The per-scenario summary table as Markdown.
    Markdown,
    /// The canonical report JSON.
    Json,
    /// Mean lifetime grouped by cache size.
    Query,
}

impl ReadKind {
    pub(crate) const ALL: [ReadKind; 3] = [ReadKind::Markdown, ReadKind::Json, ReadKind::Query];

    /// Renders `report` this way, in process.
    pub(crate) fn render(self, report: &StudyReport) -> Result<String, String> {
        Ok(match self {
            ReadKind::Markdown => {
                let table =
                    analysis::summary_table(report, &[], None).map_err(|e| e.to_string())?;
                render::table(&table, Format::Markdown)
            }
            ReadKind::Json => report.to_json(),
            ReadKind::Query => Query::new(report)
                .group_by([Axis::CacheBytes])
                .reduce("lt_years", Reduce::Mean)
                .map_err(|e| e.to_string())?
                .iter()
                .map(|row| format!("{:?} {}\n", row.key, row.value))
                .collect(),
        })
    }
}

/// Median microseconds of 50 calls of `f`.
fn median_us(mut f: impl FnMut() -> Result<usize, String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(50);
    for _ in 0..50 {
        let t = Instant::now();
        std::hint::black_box(f()?);
        samples.push(secs(t) * 1e6);
    }
    Ok(median(&samples))
}

/// The per-layer metrics every workload takes from direct calls and
/// from its (finished or warm) report: model calibration and
/// evaluation, rendering, the simulated statistics and, for a Table II
/// report, the paper-anchor error.
fn report_layers(
    out: &mut Outcome,
    ctx: &ModelContext,
    report: &StudyReport,
    anchored: bool,
) -> Result<(), String> {
    for key in ["nbti-45nm", "drv"] {
        let mut samples = Vec::with_capacity(3);
        for _ in 0..3 {
            let fresh = ModelContext::new();
            let t = Instant::now();
            fresh
                .calibrated(key)
                .map_err(|e| format!("calibrate {key}: {e}"))?;
            samples.push(secs(t) * 1e3);
        }
        let name = match key {
            "drv" => "model.calibrate_ms.drv",
            _ => "model.calibrate_ms.nbti-45nm",
        };
        out.metrics.insert(name, median(&samples));
    }

    // Direct evaluations must reproduce each record's lifetime.
    let policies = PolicyRegistry::builtin();
    let workloads = WorkloadRegistry::builtin();
    let mut samples = Vec::with_capacity(report.records().len());
    for record in report.records() {
        let s = &record.scenario;
        let model = ctx.calibrated(&s.model).map_err(|e| e.to_string())?;
        let p0 = workloads
            .resolve(&s.workload)
            .map_err(|e| e.to_string())?
            .p0();
        let policy = || policies.build(&s.policy, s.banks, s.policy_seed);
        let eval = ModelEval {
            sleep_fractions: &record.sleep_fractions,
            p0,
            update_days: s.update_days,
            policy: &policy,
        };
        let t = Instant::now();
        let metrics = model.evaluate(&eval).map_err(|e| e.to_string())?;
        samples.push(secs(t) * 1e6);
        let lt = metrics.get(aging_cache::model::METRIC_LT);
        if lt.map(f64::to_bits) != Some(record.lt_years().to_bits()) {
            out.problem(format!(
                "a direct evaluation of {} disagrees with its record",
                s.workload
            ));
        }
    }
    out.metrics.insert("model.evaluate_us", median(&samples));

    for (name, kind) in ["render.md_us", "render.json_us", "analysis.query_us"]
        .into_iter()
        .zip(ReadKind::ALL)
    {
        let us = median_us(|| Ok(kind.render(report)?.len()))?;
        out.metrics.insert(name, us);
    }

    let mean = |f: &dyn Fn(&ScenarioRecord) -> f64| {
        report.records().iter().map(f).sum::<f64>() / report.records().len().max(1) as f64
    };
    let mean_of = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let m = &mut out.metrics;
    m.insert("sim.miss_rate_mean", mean(&|r| r.miss_rate));
    m.insert(
        "sim.sleep_fraction_mean",
        mean(&|r| mean_of(&r.sleep_fractions)),
    );
    m.insert(
        "sim.l2_sleep_fraction_mean",
        mean(&|r| r.metric("sleep_fraction_l2").unwrap_or(0.0)),
    );
    let anchor = if anchored {
        table2_anchor(report).0
    } else {
        0.0
    };
    m.insert("anchor_err_pct", anchor);
    Ok(())
}

/// Table II suite averages per cache size against the paper's
/// averages: the largest relative error over Esav/LT0/LT (percent), and
/// whether every Esav average lies within the repository's stated
/// ±0.05 tolerance (`tests/paper_claims.rs`).
fn table2_anchor(report: &StudyReport) -> (f64, bool) {
    use aging_cache::paper::TABLE2_AVG;
    let mut worst: f64 = 0.0;
    let mut within = true;
    for (i, kb) in [8u64, 16, 32].into_iter().enumerate() {
        let records: Vec<_> = report
            .records()
            .iter()
            .filter(|r| r.scenario.cache_bytes == kb * 1024)
            .collect();
        let n = records.len().max(1) as f64;
        let esav = records.iter().map(|r| r.esav).sum::<f64>() / n;
        let lt0 = records.iter().map(|r| r.lt0_years()).sum::<f64>() / n;
        let lt = records.iter().map(|r| r.lt_years()).sum::<f64>() / n;
        within &= !records.is_empty() && (esav - TABLE2_AVG.0[i]).abs() < 0.05;
        for (got, paper) in [
            (esav, TABLE2_AVG.0[i]),
            (lt0, TABLE2_AVG.1[i]),
            (lt, TABLE2_AVG.2[i]),
        ] {
            worst = worst.max((got - paper).abs() / paper);
        }
    }
    (100.0 * worst, within)
}
