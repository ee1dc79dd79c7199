//! The cold workloads: `table2-cold` (the Table II reference study) and
//! `hierarchy-cold` (a 16 kB 4-way L1 in front of a 64 kB 4-way L2).
//!
//! Every study runs on a fresh `StudySession` (sharing only the
//! calibrated model context made at set-up) over a fresh on-disk
//! `JsonlCache`, on the default threaded executor. After each study the
//! benchmark reads it back warm, the way a later CLI invocation would:
//! a fresh session over the study's journal replays the report, which
//! is rendered as the Markdown summary, the canonical JSON or a
//! grouped query.

use crate::trace::{self, LayerTimes, TracedCache, Tracer};
use crate::{
    median, quantile, report_layers, secs, table2_anchor, workers, Outcome, ReadKind, RunConfig,
    WorkloadKind, DEFAULT_SEED, REFERENCE_CYCLES,
};
use aging_cache::experiment::ExperimentConfig;
use aging_cache::model::{ModelContext, DEFAULT_MODEL};
use aging_cache::presets;
use aging_cache::rescache::JsonlCache;
use aging_cache::session::{SessionStats, StudySession};
use aging_cache::study::{StudyReport, StudySpec};
use aging_cache::workload::WorkloadRegistry;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace_synth::source::Fnv64;

/// FNV-1a 64 digest of the `table2-cold` report JSON at the default
/// seed and the reference horizon.
pub const TABLE2_DIGEST: u64 = 0x3b9e_1804_50d5_f472;
/// FNV-1a 64 digest of the `hierarchy-cold` report JSON at the default
/// seed and the reference horizon.
pub const HIERARCHY_DIGEST: u64 = 0x9b37_a66d_ff6e_b3b3;

/// Set-up repetitions: a cold set-up takes about a millisecond, so
/// many repetitions keep its median steady.
const SETUP_REPS: usize = 51;
/// Fewest studies a run measures, however short `--seconds` is.
const MIN_STUDIES: usize = 3;
/// Warm reads of each finished study (cycling Markdown, JSON, query).
const READS_PER_STUDY: usize = 120;

/// The study a cold workload runs, at trace base seed `seed` and
/// horizon `cycles`; with `registry`, the suite resolves through it.
///
/// # Errors
///
/// Returns a message if the spec cannot be built.
pub fn spec(
    kind: WorkloadKind,
    seed: u64,
    cycles: u64,
    registry: Option<WorkloadRegistry>,
) -> Result<StudySpec, String> {
    let spec = match kind {
        WorkloadKind::Table2Cold => {
            let mut cfg = ExperimentConfig::paper_reference().with_trace_cycles(cycles);
            cfg.seed = seed;
            presets::table2(&cfg)
        }
        WorkloadKind::HierarchyCold => StudySpec::new("L1+L2 hierarchy")
            .cache_kb([16])
            .ways([4])
            .replacement(["lru"])
            .l2_cache_kb([64])
            .l2_ways([4])
            .banks([4])
            .policies(["probing"])
            .trace_cycles(cycles)
            .base_seed(seed)
            .policy_seed(1),
        WorkloadKind::ServeMixed => return Err("serve-mixed is not a cold workload".into()),
    };
    let Some(registry) = registry else {
        return Ok(spec);
    };
    // Suite order, as the default workload axis has it: the trace
    // seed of workload `i` is `base + i`.
    let names: Vec<String> = trace_synth::suite::mediabench()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    spec.workload_registry(registry)
        .workload_names(&names)
        .map_err(|e| e.to_string())
}

/// One finished cold study.
struct Study {
    report: StudyReport,
    json: String,
    wall_s: f64,
    open_ms: f64,
    stats: SessionStats,
}

/// Runs one cold study on a fresh session over a fresh journal in
/// `dir`, timed from opening the journal to the finished report. The
/// journal stays for the reads that follow.
fn run_study(
    spec: &StudySpec,
    ctx: &ModelContext,
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Study, String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let cache = JsonlCache::in_dir(dir).map_err(|e| e.to_string())?;
    let open_ms = secs(t) * 1e3;
    let session = StudySession::with_context(ctx.clone());
    let session = match tracer {
        Some(tracer) => session.cache(TracedCache::new(cache, tracer)),
        None => session.cache(cache),
    };
    let report = session.run(spec).map_err(|e| e.to_string())?;
    let wall_s = secs(t);
    Ok(Study {
        json: report.to_json(),
        report,
        wall_s,
        open_ms,
        stats: session.stats(),
    })
}

/// One warm read of a finished study, as a later CLI invocation makes
/// it: a fresh session over the study's journal replays the report,
/// which is then rendered. Fails unless every cell replayed and the
/// replayed report is byte-equal to the study's.
fn warm_read(
    spec: &StudySpec,
    ctx: &ModelContext,
    dir: &Path,
    kind: ReadKind,
    want: &str,
) -> Result<usize, String> {
    let cache = JsonlCache::in_dir(dir).map_err(|e| e.to_string())?;
    let session = StudySession::with_context(ctx.clone()).cache(cache);
    let report = session.run(spec).map_err(|e| e.to_string())?;
    if session.stats().cache_hits != report.records().len() {
        return Err("a warm read recomputed cells".into());
    }
    let body = kind.render(&report)?;
    if kind == ReadKind::Json && body != want {
        return Err("a warm read replayed a different report".into());
    }
    Ok(body.len())
}

/// What one traced study measured.
struct TracedStudy {
    times: LayerTimes,
    counts: trace::Counts,
    stats: SessionStats,
    wall_s: f64,
}

/// Runs a cold workload.
///
/// # Errors
///
/// Returns a message if set-up fails.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let kind = cfg.workload;
    let mut out = Outcome::new();

    // Set-up, repeated: first calibration of the study's model on a
    // fresh context, and the spec expansion.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ctx = ModelContext::new();
    let mut plain = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        ctx = ModelContext::new();
        ctx.calibrated(DEFAULT_MODEL).map_err(|e| e.to_string())?;
        let s = spec(kind, cfg.seed, cfg.cycles, None)?;
        black_box(s.expand().map_err(|e| e.to_string())?);
        setup_s.push(secs(t));
        plain = Some(s);
    }
    let plain = plain.ok_or("no set-up ran")?;
    let scenarios = plain.expand().map_err(|e| e.to_string())?.len();

    let tracer = cfg.trace.then(Tracer::new);
    let traced = match &tracer {
        Some(t) => Some(spec(
            kind,
            cfg.seed,
            cfg.cycles,
            Some(trace::traced_registry(t)),
        )?),
        None => None,
    };

    let dir = cfg.work_dir.join("journals").join("study");
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut reference: Option<Study> = None;
    let mut walls = Vec::new();
    let mut open_ms = Vec::new();
    let mut reads = Vec::new();
    let mut traced_studies = Vec::new();
    let mut i = 0usize;
    while i < MIN_STUDIES || Instant::now() < deadline {
        // The traced run alternates untraced and traced studies, so the
        // tracing overhead is measured under the same conditions.
        let traced_turn = i % 2 == 1 && traced.is_some();
        i += 1;
        let (spec, tracer) = match (&traced, &tracer) {
            (Some(s), Some(t)) if traced_turn => (s, Some(t)),
            _ => (&plain, None),
        };
        let (cursor, dropped) = tracer.map_or((0, 0), |t| (t.cursor(), t.dropped()));
        let root = tracer.and_then(|t| t.begin_study());
        let study = run_study(spec, &ctx, &dir, tracer);
        if let Some(t) = tracer {
            t.end_study(root);
        }
        let study = match study {
            Ok(study) => study,
            Err(e) => {
                out.operation(false);
                out.problem(format!("study {i}: {e}"));
                continue;
            }
        };
        let mut ok = check(cfg, &study, reference.as_ref(), &mut out);
        if let Some(t) = tracer {
            let spans = t.since(cursor);
            // A study whose spans overflowed the store is left out of
            // the layer figures (its counters would still be exact).
            let complete = t.dropped() == dropped;
            let counts = t.take_counts();
            if let Some(root) = root
                .and_then(|r| spans.get(r - cursor))
                .filter(|_| complete)
            {
                traced_studies.push(TracedStudy {
                    times: LayerTimes::of(root, &spans),
                    counts,
                    stats: study.stats,
                    wall_s: study.wall_s,
                });
            }
        } else {
            walls.push(study.wall_s);
        }
        open_ms.push(study.open_ms);
        for kind in ReadKind::ALL.into_iter().cycle().take(READS_PER_STUDY) {
            let t = Instant::now();
            match warm_read(&plain, &ctx, &dir, kind, &study.json) {
                Ok(n) => {
                    black_box(n);
                    reads.push(secs(t) * 1e3);
                }
                Err(e) => {
                    out.problem(format!("read {kind:?}: {e}"));
                    ok = false;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        out.operation(ok);
        if reference.is_none() {
            reference = Some(study);
        }
    }
    let reference = reference.ok_or("no study finished")?;

    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("study_wall_s", median(&walls));
    m.insert("read_p50_ms", median(&reads));
    m.insert("read_p99_ms", quantile(&reads, 0.99));

    if let Some(tracer) = &tracer {
        let workers = workers().min(scenarios);
        layer_metrics(&mut out, tracer, &traced_studies, workers, &walls, &open_ms);
        report_layers(
            &mut out,
            &ctx,
            &reference.report,
            kind == WorkloadKind::Table2Cold,
        )?;
        let path = cfg.work_dir.join(format!("spans-{}.jsonl", kind.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Checks one study's output; returns whether it is right. The first
/// study is checked against the pinned digest (default seed, reference
/// horizon) and the paper anchors; every later one must be byte-equal
/// to it.
fn check(cfg: &RunConfig, study: &Study, reference: Option<&Study>, out: &mut Outcome) -> bool {
    if let Some(reference) = reference {
        if study.json != reference.json {
            out.problem("a study's report differs from the run's first".into());
            return false;
        }
        return true;
    }
    let mut ok = true;
    let at_reference = cfg.seed == DEFAULT_SEED && cfg.cycles == REFERENCE_CYCLES;
    let pinned = match cfg.workload {
        WorkloadKind::Table2Cold => TABLE2_DIGEST,
        _ => HIERARCHY_DIGEST,
    };
    let digest = Fnv64::hash(study.json.as_bytes());
    if at_reference && digest != pinned {
        out.problem(format!(
            "report digest {digest:016x} differs from the pinned {pinned:016x}"
        ));
        ok = false;
    }
    if cfg.workload == WorkloadKind::Table2Cold && cfg.cycles >= REFERENCE_CYCLES {
        let (err_pct, within) = table2_anchor(&study.report);
        if !within {
            out.problem(format!(
                "Table II Esav averages outside the stated tolerance (worst error {err_pct:.2} %)"
            ));
            ok = false;
        }
    }
    ok
}

/// Fills the span- and counter-based per-layer metrics of a traced
/// cold run.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    traced: &[TracedStudy],
    workers: usize,
    untraced_walls: &[f64],
    open_ms: &[f64],
) {
    let med = |f: &dyn Fn(&TracedStudy) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&TracedStudy) -> f64| traced.iter().map(f).sum::<f64>();
    let accesses = sum(&|t| t.counts.accesses as f64).max(1.0);
    let capacity_s = sum(&|t| t.wall_s * workers as f64);
    let spans = tracer.since(0);
    let durations_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    };

    let m = &mut out.metrics;
    m.insert("traces.opens", med(&|t| t.counts.opens as f64));
    m.insert("traces.accesses", med(&|t| t.counts.accesses as f64));
    m.insert("traces.busy_s", med(&|t| t.times.traces_ns as f64 / 1e9));
    m.insert(
        "traces.ns_per_access",
        sum(&|t| t.times.traces_ns as f64) / accesses,
    );
    m.insert(
        "traces.reuse_ratio",
        med(&|t| t.counts.distinct as f64 / t.counts.opens.max(1) as f64),
    );
    m.insert("sim.busy_s", med(&|t| t.times.sim_ns as f64 / 1e9));
    m.insert(
        "sim.ns_per_access",
        sum(&|t| t.times.sim_ns as f64) / accesses,
    );
    m.insert("sim.simulations", med(&|t| t.stats.simulations as f64));
    m.insert("sim.memo_hits", med(&|t| t.stats.sim_memo_hits as f64));
    m.insert("model.evaluations", med(&|t| t.stats.evaluations as f64));
    m.insert("rescache.store_us", median(&durations_us(trace::STORE)));
    m.insert("rescache.stores", med(&|t| t.stats.cache_stores as f64));
    m.insert("rescache.lookup_us", median(&durations_us(trace::LOOKUP)));
    m.insert("rescache.hits", med(&|t| t.counts.hits as f64));
    m.insert("rescache.open_ms", median(open_ms));
    m.insert("exec.workers", workers as f64);
    m.insert(
        "exec.parallel_efficiency",
        sum(&|t| t.times.busy_ns as f64 / 1e9) / capacity_s.max(f64::MIN_POSITIVE),
    );
    m.insert("exec.other_s", med(&|t| t.times.uncovered_ns as f64 / 1e9));
    for name in [
        "serve.render_md_p50_ms",
        "serve.render_json_p50_ms",
        "serve.query_p50_ms",
        "serve.run_p50_ms",
        "serve.run_p99_ms",
        "serve.requests_per_s",
        "serve.http_overhead_us",
        "serve.coalesced_waits",
        "serve.window_simulations",
    ] {
        m.insert(name, 0.0);
    }
    m.insert(
        "trace.overhead_pct",
        100.0 * (med(&|t| t.wall_s) / median(untraced_walls) - 1.0),
    );
}
