//! The [`StudySession`] front door of the execution layer: one
//! long-lived object owning the [`ModelContext`], the policy and
//! workload registries, a session-scoped simulation memo and an
//! optional [`ResultCache`] — so repeated and overlapping studies are
//! incremental instead of from-scratch.
//!
//! [`StudySession::run`] is the one way to execute a study. Holding
//! one session across runs is what makes them incremental:
//!
//! * the **simulation memo** outlives each run, so grids that share
//!   `(geometry, workload, seed, horizon)` points — `study preset all`'s
//!   Tables I–IV, a preset re-run with one widened axis — simulate
//!   each distinct (geometry, trace) pair exactly once per session;
//! * **trace groups** synthesize each trace once per run: the first
//!   scenario to miss the memo marks every geometry of the run that
//!   streams the same trace — and is neither memoized, in flight, nor
//!   fully cached — as in flight, then streams the trace once through
//!   all of them ([`simulate_fanout`]). A group carries at most
//!   `ceil(pairs / workers)` geometries, so a grid with fewer traces
//!   than workers still keeps every worker busy.
//!   Scenarios whose key is in flight wait for it; a group that fails
//!   clears its in-flight entries, so they recompute instead of
//!   hanging. No task waits on the memo while it holds an in-flight
//!   group, and a group computation never waits, so waiting cannot
//!   deadlock;
//! * the **[`ResultCache`]** (in-memory or on-disk JSONL) skips
//!   simulation *and* model evaluation for any scenario measured
//!   before, in this process or a previous one: a warm re-run
//!   executes zero simulations and still emits a byte-identical
//!   report, and an interrupted sweep resumes from its journal. Each
//!   run probes the cache once per scenario on the calling thread,
//!   replays the hits inline and dispatches only the misses, so a
//!   fully cached grid starts no worker threads; the trace groups
//!   plan from that same snapshot instead of probing again;
//! * the spec's [`StudySpec::threads`] caps the worker pool (default:
//!   available parallelism; `threads(1)` runs every scenario on the
//!   calling thread, in grid order); an **[`ExecObserver`]** streams
//!   per-record progress;
//! * [`StudySession::stats`] exposes the counters behind all of the
//!   above — simulations actually run, trace streams opened, memo
//!   hits, cache hits/stores, model evaluations — so "the cache
//!   worked" is an assertable fact, not a hope.
//!
//! # Examples
//!
//! Two overlapping presets sharing one session (the second run's
//! 16 kB column re-uses every simulation of the first):
//!
//! ```no_run
//! use aging_cache::session::StudySession;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let session = StudySession::new();
//! let narrow = session.spec("narrow").cache_kb([16]).workload_names(["sha"])?;
//! let wide = session.spec("wide").cache_kb([8, 16]).workload_names(["sha"])?;
//! session.run(&narrow)?;
//! session.run(&wide)?;
//! let stats = session.stats();
//! assert_eq!(stats.scenarios, 3);
//! assert_eq!(stats.simulations, 2, "the 16 kB point simulated once");
//! # Ok(())
//! # }
//! ```
//!
//! A persistent on-disk cache: the second process re-emits the same
//! report without simulating anything:
//!
//! ```no_run
//! use aging_cache::rescache::JsonlCache;
//! use aging_cache::session::StudySession;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let session = StudySession::new().cache(JsonlCache::in_dir("./study-cache")?);
//! let spec = session.spec("sweep").cache_kb([8, 16]).workload_names(["sha"])?;
//! let report = session.run(&spec)?;
//! // … later, in a fresh process:
//! let resumed = StudySession::new().cache(JsonlCache::in_dir("./study-cache")?);
//! let replay = resumed.run(&spec)?;
//! assert_eq!(resumed.stats().simulations, 0);
//! assert_eq!(replay.to_json(), report.to_json());
//! # Ok(())
//! # }
//! ```

use crate::arch::{simulate_fanout, PartitionedCache, SimTarget, UpdateSchedule};
use crate::error::CoreError;
use crate::exec::{self, ExecObserver, RecordOrigin};
use crate::model::{CalibratedModel, ModelContext, ModelEval};
use crate::registry::PolicyRegistry;
use crate::rescache::{
    grid_fingerprints, relock, workload_identity, CachedMeasurement, Fingerprint, ResultCache,
};
use crate::study::{Scenario, ScenarioGrid, ScenarioRecord, StudyReport, StudySpec};
use crate::workload::{Workload, WorkloadRegistry};
use cache_sim::CacheGeometry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Measured simulation outputs shared by scenarios that differ only in
/// policy, model or update period.
pub(crate) struct SimMeasurement {
    cycles: u64,
    esav: f64,
    miss_rate: f64,
    useful_idleness: Vec<f64>,
    sleep_fractions: Vec<f64>,
    /// Per-bank L2 sleep fractions for hierarchy scenarios
    /// (`l2_cache_bytes > 0`); `None` for single-level runs.
    l2_sleep_fractions: Option<Vec<f64>>,
}

/// `(cache_bytes, line_bytes, banks, ways, replacement, l2_cache_bytes,
/// l2_ways)`: every property of a scenario's cache that its simulation
/// depends on.
type GeomKey = (u64, u32, u32, u32, String, u64, u32);

/// `(workload identity, trace_seed, trace_cycles)`: the stream a
/// scenario simulates. The workload identity string (name, or format +
/// content hash for files — see [`workload_identity`]) replaces the
/// historic per-grid workload *index*, so the memo is meaningful across
/// grids within a session. Seed-independent workloads (files, pinned
/// profiles) key seed 0.
type TraceKey = (String, u64, u64);

/// Geometry × trace → memoized simulation.
type SimKey = (GeomKey, TraceKey);

/// One memo slot: a finished measurement, or a marker that some task's
/// trace group is computing it right now.
enum MemoEntry {
    Ready(Arc<SimMeasurement>),
    InFlight,
}

/// The session-scoped simulation memo, shared across workers and runs.
/// Every (geometry, trace) pair is simulated at most once per session:
/// a task that finds its key in flight waits on `resolved` instead of
/// recomputing.
#[derive(Default)]
struct SimMemo {
    // aging-lint: allow(no-unordered-iter) keyed memo, only ever probed by key; never iterated
    entries: Mutex<HashMap<SimKey, MemoEntry>>,
    /// Signalled whenever in-flight entries resolve or are abandoned.
    resolved: Condvar,
}

/// Cumulative execution counters, snapshot by [`StudySession::stats`].
///
/// For runs that complete without a scenario error,
/// `scenarios = cache_hits + evaluations`: every record was either
/// replayed whole or model-evaluated. (A failed scenario counts
/// toward `scenarios` but nothing else, so errored runs undercount on
/// the right-hand side.) `simulations` and `sim_memo_hits` need not
/// sum to anything: pinned-profile scenarios measure without
/// simulating, and scenarios sharing a trace split between the two.
/// In error-free runs `trace_opens <= simulations`: one opened stream
/// feeds every geometry of its trace group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Scenario records produced (computed or replayed).
    pub scenarios: usize,
    /// (geometry, trace) pairs actually simulated.
    pub simulations: usize,
    /// Trace streams actually opened: one per trace group, however
    /// many geometries the group fans the stream out to.
    pub trace_opens: usize,
    /// Scenarios whose simulation was replayed from the session memo,
    /// including scenarios whose geometry a peer's trace group
    /// simulated.
    pub sim_memo_hits: usize,
    /// Device-model evaluations actually executed.
    pub evaluations: usize,
    /// Scenarios replayed whole from the result cache (no simulation,
    /// no model evaluation).
    pub cache_hits: usize,
    /// Measurements newly journaled into the result cache.
    pub cache_stores: usize,
}

#[derive(Default)]
pub(crate) struct Counters {
    scenarios: AtomicUsize,
    simulations: AtomicUsize,
    trace_opens: AtomicUsize,
    sim_memo_hits: AtomicUsize,
    evaluations: AtomicUsize,
    cache_hits: AtomicUsize,
    cache_stores: AtomicUsize,
}

impl Counters {
    fn snapshot(&self) -> SessionStats {
        SessionStats {
            scenarios: self.scenarios.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
            trace_opens: self.trace_opens.load(Ordering::Relaxed),
            sim_memo_hits: self.sim_memo_hits.load(Ordering::Relaxed),
            evaluations: self.evaluations.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_stores: self.cache_stores.load(Ordering::Relaxed),
        }
    }
}

/// The long-lived front door of the execution layer.
///
/// See the [module docs](self) for the full tour. Construction is
/// free; models calibrate lazily (once per distinct canonical key,
/// session-wide) and the simulation memo fills as grids run.
pub struct StudySession {
    ctx: ModelContext,
    policies: PolicyRegistry,
    workloads: WorkloadRegistry,
    replacements: cache_sim::ReplacementRegistry,
    memo: SimMemo,
    cache: Option<Box<dyn ResultCache>>,
    observer: Option<Box<dyn ExecObserver>>,
    counters: Counters,
}

impl std::fmt::Debug for StudySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudySession")
            .field("cached", &self.cache.as_ref().map(|c| c.len()))
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for StudySession {
    fn default() -> Self {
        Self::new()
    }
}

impl StudySession {
    /// A session over the built-in registries and a fresh
    /// [`ModelContext`], no result cache.
    pub fn new() -> Self {
        Self::with_context(ModelContext::new())
    }

    /// A session over a custom [`ModelContext`] (e.g. one whose
    /// registry carries user-registered device models).
    pub fn with_context(ctx: ModelContext) -> Self {
        Self {
            ctx,
            policies: PolicyRegistry::global().clone(),
            workloads: WorkloadRegistry::global().clone(),
            replacements: cache_sim::ReplacementRegistry::global().clone(),
            memo: SimMemo::default(),
            cache: None,
            observer: None,
            counters: Counters::default(),
        }
    }

    /// Attaches a result cache (in-memory or on-disk JSONL).
    #[must_use]
    pub fn cache(mut self, cache: impl ResultCache + 'static) -> Self {
        self.cache = Some(Box::new(cache));
        self
    }

    /// Attaches a streaming progress observer.
    #[must_use]
    pub fn observer(mut self, observer: impl ExecObserver + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Replaces the session's policy registry (used by
    /// [`StudySession::spec`]).
    #[must_use]
    pub fn policy_registry(mut self, registry: PolicyRegistry) -> Self {
        self.policies = registry;
        self
    }

    /// Replaces the session's workload registry (used by
    /// [`StudySession::spec`]).
    #[must_use]
    pub fn workload_registry(mut self, registry: WorkloadRegistry) -> Self {
        self.workloads = registry;
        self
    }

    /// Replaces the session's replacement-policy registry (used by
    /// [`StudySession::spec`]).
    #[must_use]
    pub fn replacement_registry(mut self, registry: cache_sim::ReplacementRegistry) -> Self {
        self.replacements = registry;
        self
    }

    /// The model context (registry + calibration memo) this session
    /// owns.
    pub fn context(&self) -> &ModelContext {
        &self.ctx
    }

    /// The attached result cache, if any.
    pub fn result_cache(&self) -> Option<&dyn ResultCache> {
        self.cache.as_deref()
    }

    /// The session's workload registry (the server resolves request
    /// workload keys against it).
    pub(crate) fn workload_registry_ref(&self) -> &WorkloadRegistry {
        &self.workloads
    }

    /// A new [`StudySpec`] pre-wired with the session's policy,
    /// workload and replacement registries — the spec-building front
    /// door.
    pub fn spec(&self, name: impl Into<String>) -> StudySpec {
        StudySpec::new(name)
            .registry(self.policies.clone())
            .workload_registry(self.workloads.clone())
            .replacement_registry(self.replacements.clone())
    }

    /// Expands and runs a spec through this session.
    ///
    /// # Errors
    ///
    /// Propagates expansion and execution errors.
    pub fn run(&self, spec: &StudySpec) -> Result<StudyReport, CoreError> {
        self.run_grid(&spec.expand()?)
    }

    /// Runs an expanded grid through this session: session memo,
    /// result cache, the grid's worker cap and the observer all apply.
    ///
    /// # Errors
    ///
    /// Returns model resolution/calibration errors, cache backend
    /// errors, the first scenario error by grid order, or
    /// [`CoreError::ScenarioPanicked`] if a scenario task panicked.
    pub fn run_grid(&self, grid: &ScenarioGrid) -> Result<StudyReport, CoreError> {
        execute(grid, self)
    }

    /// Replays `grid` from `cache` when every cell is warm, and
    /// computes nothing. One pass: refresh `cache`, fingerprint and
    /// look up each cell once, then either replay those lookups through
    /// the inline path [`StudySession::run_grid`] takes (the counters
    /// and the observer move exactly as they do there) or report the
    /// coverage. `cache` must be one whose `lookup` never claims (the
    /// server passes its undecorated cache), so a cold read leaves
    /// nothing behind. A lookup error fails the read.
    pub(crate) fn read_warm(
        &self,
        grid: &ScenarioGrid,
        cache: &dyn ResultCache,
    ) -> Result<WarmRead, CoreError> {
        cache.refresh()?;
        let fingerprints = grid_fingerprints(grid)?;
        let lookups = lookup_all(&fingerprints, cache);
        let mut warm = 0;
        for lookup in &lookups {
            match lookup {
                Ok(Some(_)) => warm += 1,
                Ok(None) => {}
                Err(e) => return Err(e.clone()),
            }
        }
        if warm < grid.len() {
            let missing = grid.len() - warm;
            return Ok(WarmRead::Cold { warm, missing });
        }
        let models = calibrate(grid, self)?;
        replay_or_compute(grid, self, &models, &fingerprints, lookups).map(WarmRead::Replayed)
    }

    /// A snapshot of the session's cumulative execution counters.
    pub fn stats(&self) -> SessionStats {
        self.counters.snapshot()
    }

    /// Verifies a report against this session's result cache, cell by
    /// cell with absolute tolerance `tolerance` — the analysis layer's
    /// [`ReportDiff::against_cache`](crate::analysis::ReportDiff::against_cache)
    /// wired to the session's cache and workload registry. No
    /// simulation and no model evaluation runs: a report replayed from
    /// a warm journal diffs empty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] when the session has no cache
    /// attached, and propagates workload-resolution and cache backend
    /// errors.
    pub fn diff_cached(
        &self,
        report: &StudyReport,
        tolerance: f64,
    ) -> Result<crate::analysis::ReportDiff, CoreError> {
        let Some(cache) = self.cache.as_deref() else {
            return Err(CoreError::Report {
                message: "diff_cached: this session has no result cache attached".into(),
            });
        };
        crate::analysis::ReportDiff::against_cache(report, cache, &self.workloads, tolerance)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What [`StudySession::read_warm`] found.
pub(crate) enum WarmRead {
    /// Every cell was warm: the replayed report.
    Replayed(StudyReport),
    /// Some cell was cold: how many were warm and how many missing.
    Cold { warm: usize, missing: usize },
}

/// The calibrated model of every scenario, keyed by model key.
// aging-lint: allow(no-unordered-iter) probed per scenario; iteration order never observed
type Models<'g> = HashMap<&'g str, Arc<dyn CalibratedModel>>;

/// Runs a grid: calibrates its models, probes the result cache once
/// per scenario on the calling thread ([`lookup_all`]), then replays
/// and computes ([`replay_or_compute`]).
fn execute(grid: &ScenarioGrid, session: &StudySession) -> Result<StudyReport, CoreError> {
    let models = calibrate(grid, session)?;
    let (fingerprints, lookups) = match session.cache.as_deref() {
        Some(cache) => {
            let fingerprints = grid_fingerprints(grid)?;
            let lookups = lookup_all(&fingerprints, cache);
            (fingerprints, lookups)
        }
        None => (Vec::new(), Vec::new()),
    };
    replay_or_compute(grid, session, &models, &fingerprints, lookups)
}

/// Calibrates every distinct model of `grid` once, serially and in
/// grid order: deterministic first-error, and the workers only ever
/// hit the context's calibration memo.
fn calibrate<'g>(grid: &'g ScenarioGrid, session: &StudySession) -> Result<Models<'g>, CoreError> {
    let mut models = Models::new();
    for scenario in grid.scenarios() {
        if !models.contains_key(scenario.model.as_str()) {
            models.insert(&scenario.model, session.ctx.calibrated(&scenario.model)?);
        }
    }
    Ok(models)
}

/// Replays every hit of `lookups` (one outcome per scenario, in grid
/// order; empty without a cache) inline and dispatches only the misses
/// to the worker pool. A fully cached grid therefore starts no worker
/// threads at all, and every `on_record` fires on the calling thread.
fn replay_or_compute(
    grid: &ScenarioGrid,
    session: &StudySession,
    models: &Models<'_>,
    fingerprints: &[Fingerprint],
    lookups: Vec<Result<Option<CachedMeasurement>, CoreError>>,
) -> Result<StudyReport, CoreError> {
    if let Some(obs) = session.observer.as_deref() {
        obs.on_start(grid.name(), grid.len());
    }
    let n = grid.len();
    // One slot per scenario, each behind its own lock: workers write
    // their own slot independently (no shared results mutex), and the
    // id-indexed layout keeps the report order deterministic.
    let slots: Vec<Mutex<Option<Result<ScenarioRecord, CoreError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let done = AtomicUsize::new(0);
    let finish = |i: usize, outcome: Result<(ScenarioRecord, RecordOrigin), CoreError>| {
        if let (Some(obs), Ok((record, origin))) = (session.observer.as_deref(), &outcome) {
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            obs.on_record(record, *origin, finished, n);
        }
        *relock(slots[i].lock()) = Some(outcome.map(|(record, _)| record));
    };

    let mut lookups = lookups.into_iter();
    // Which scenarios replayed: the snapshot trace groups plan from.
    let mut replayed = vec![false; n];
    let mut misses = Vec::with_capacity(n);
    for (i, scenario) in grid.scenarios().iter().enumerate() {
        match lookups.next() {
            Some(Ok(Some(hit))) => {
                session.counters.scenarios.fetch_add(1, Ordering::Relaxed);
                session.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                replayed[i] = true;
                finish(
                    i,
                    Ok((hit.into_record(scenario.clone()), RecordOrigin::Cached)),
                );
            }
            Some(Err(e)) => {
                session.counters.scenarios.fetch_add(1, Ordering::Relaxed);
                finish(i, Err(e));
            }
            Some(Ok(None)) | None => misses.push(i),
        }
    }

    if !misses.is_empty() {
        let workers = exec::workers(grid.threads_cap(), misses.len());
        let plan = TracePlan::new(workers, &replayed);
        let task = |j: usize| {
            let i = misses[j];
            // Catch panics so one bad scenario surfaces as a first-class
            // error — with its id and message — instead of tearing down
            // the whole process at scope join.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_one(grid, i, fingerprints.get(i), models, &plan, session)
            }))
            .unwrap_or_else(|payload| {
                Err(CoreError::ScenarioPanicked {
                    scenario: i,
                    message: panic_message(payload),
                })
            });
            finish(i, outcome);
        };
        exec::run_tasks(misses.len(), workers, &task);
    }
    assemble(grid, slots, session)
}

/// Looks every fingerprint up in `cache` exactly once, returning the
/// outcomes in grid order.
///
/// The lookups run in fingerprint order, not grid order. A claiming
/// cache (the server's coalescing decorator) claims each miss for this
/// run and blocks on fingerprints another run has claimed; taking
/// claims in one global order means two runs can never wait on each
/// other in a cycle. A fingerprint repeated within the grid is looked
/// up once and shares the outcome, since a second lookup would wait on
/// this run's own claim.
fn lookup_all(
    fingerprints: &[Fingerprint],
    cache: &dyn ResultCache,
) -> Vec<Result<Option<CachedMeasurement>, CoreError>> {
    let mut order: Vec<usize> = (0..fingerprints.len()).collect();
    order.sort_unstable_by(|&a, &b| fingerprints[a].canonical().cmp(fingerprints[b].canonical()));
    let mut lookups = vec![Ok(None); fingerprints.len()];
    let mut previous: Option<usize> = None;
    for i in order {
        lookups[i] = match previous {
            Some(p) if fingerprints[p] == fingerprints[i] => lookups[p].clone(),
            _ => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.lookup(&fingerprints[i])
            }))
            .unwrap_or_else(|payload| {
                Err(CoreError::ScenarioPanicked {
                    scenario: i,
                    message: panic_message(payload),
                })
            }),
        };
        previous = Some(i);
    }
    lookups
}

/// Collects the per-scenario slots into the id-ordered report and
/// fires the observer's finish callback.
fn assemble(
    grid: &ScenarioGrid,
    slots: Vec<Mutex<Option<Result<ScenarioRecord, CoreError>>>>,
    session: &StudySession,
) -> Result<StudyReport, CoreError> {
    let mut records = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(record)) => records.push(record),
            Some(Err(e)) => return Err(e),
            None => return Err(CoreError::WorkerPanicked),
        }
    }
    let report = StudyReport::from_records(grid.name().to_string(), records);
    if let Some(obs) = session.observer.as_deref() {
        obs.on_finish(&report, &session.counters.snapshot());
    }
    Ok(report)
}

/// Computes scenario `index`, which missed the result cache (or runs
/// without one): measure it (from the session memo, or by leading its
/// trace group), hand the measured sleep fractions to the scenario's
/// calibrated device model, and journal the record under
/// `fingerprint`, the one [`execute`] looked up.
fn run_one(
    grid: &ScenarioGrid,
    index: usize,
    fingerprint: Option<&Fingerprint>,
    models: &Models<'_>,
    plan: &TracePlan<'_>,
    session: &StudySession,
) -> Result<(ScenarioRecord, RecordOrigin), CoreError> {
    session.counters.scenarios.fetch_add(1, Ordering::Relaxed);
    let scenario = &grid.scenarios()[index];
    let workload = &grid.workloads()[scenario.workload_index];
    let measured = measure(grid, index, plan, session)?;
    let model = &models[scenario.model.as_str()];
    let policy_builder = || {
        grid.policy_registry()
            .build(&scenario.policy, scenario.banks, scenario.policy_seed)
    };
    let mut metrics = model.evaluate(&ModelEval {
        sleep_fractions: &measured.sleep_fractions,
        p0: workload.p0(),
        update_days: scenario.update_days,
        policy: &policy_builder,
    })?;
    session.counters.evaluations.fetch_add(1, Ordering::Relaxed);
    // Metrics inline as top-level record fields in JSON, so a metric
    // shadowing a record field would emit a duplicate key and vanish
    // on parse — reject it loudly instead. Hierarchy scenarios append
    // `sleep_fraction_l2` / `lt_years_l2` below, so those names are
    // reserved too when an L2 is present.
    for name in metrics.names() {
        if ScenarioRecord::RESERVED_FIELDS.contains(&name)
            || (measured.l2_sleep_fractions.is_some()
                && (name == "sleep_fraction_l2" || name == "lt_years_l2"))
        {
            return Err(CoreError::Report {
                message: format!(
                    "model `{}` emits metric `{name}`, which shadows a record field",
                    scenario.model
                ),
            });
        }
    }
    // Hierarchy scenarios carry the L2's view as two extra metrics:
    // the average L2 sleep fraction (the induced-idleness headline) and
    // the L2 lifetime under the same device model. Both ride the open
    // metrics map, so pre-hierarchy readers parse them like any other
    // model output.
    if let Some(l2_fractions) = &measured.l2_sleep_fractions {
        let avg = l2_fractions.iter().sum::<f64>() / l2_fractions.len().max(1) as f64;
        let l2_metrics = model.evaluate(&ModelEval {
            sleep_fractions: l2_fractions,
            p0: workload.p0(),
            update_days: scenario.update_days,
            policy: &policy_builder,
        })?;
        metrics.push("sleep_fraction_l2", avg);
        metrics.push(
            "lt_years_l2",
            l2_metrics.get(crate::model::METRIC_LT).unwrap_or(f64::NAN),
        );
    }

    let record = ScenarioRecord {
        scenario: scenario.clone(),
        sim_cycles: measured.cycles,
        esav: measured.esav,
        miss_rate: measured.miss_rate,
        useful_idleness: measured.useful_idleness.clone(),
        sleep_fractions: measured.sleep_fractions.clone(),
        metrics,
    };
    if let (Some(cache), Some(fp)) = (session.cache.as_deref(), fingerprint) {
        cache.store(fp, &CachedMeasurement::of_record(&record))?;
        session
            .counters
            .cache_stores
            .fetch_add(1, Ordering::Relaxed);
    }
    Ok((record, RecordOrigin::Computed))
}

/// For each trace, the distinct geometries that stream it in
/// first-seen grid order, each with the ids of the scenarios that need
/// it.
type TraceMembers = BTreeMap<TraceKey, Vec<(GeomKey, Vec<usize>)>>;

/// A run's trace groups.
struct TracePlan<'a> {
    /// The run's worker count, which bounds a group's size.
    workers: usize,
    /// Which scenarios the run replayed from the result cache.
    replayed: &'a [bool],
    /// Every trace's members and the group size cap, built on the
    /// run's first memo miss, so a memo-warm run never pays for it.
    traces: OnceLock<(TraceMembers, usize)>,
}

impl<'a> TracePlan<'a> {
    fn new(workers: usize, replayed: &'a [bool]) -> Self {
        Self {
            workers,
            replayed,
            traces: OnceLock::new(),
        }
    }

    fn traces(&self, grid: &ScenarioGrid) -> &(TraceMembers, usize) {
        self.traces.get_or_init(|| {
            let mut traces = TraceMembers::new();
            for (id, scenario) in grid.scenarios().iter().enumerate() {
                let workload = grid.workloads()[scenario.workload_index].as_ref();
                if workload.pinned_profile().is_some() {
                    continue;
                }
                let (geom, trace) = sim_key(scenario, workload);
                let members = traces.entry(trace).or_default();
                match members.iter_mut().find(|(g, _)| *g == geom) {
                    Some((_, ids)) => ids.push(id),
                    None => members.push((geom, vec![id])),
                }
            }
            let pairs: usize = traces.values().map(Vec::len).sum();
            let cap = pairs.div_ceil(self.workers).max(1);
            (traces, cap)
        })
    }

    /// The other geometries of `key`'s trace in its group that the run
    /// still needs: those with a scenario that did not replay from the
    /// result cache (without a cache, every one).
    ///
    /// A trace's geometries split into strided classes of at most
    /// `ceil(pairs / workers)` each, where `pairs` counts every
    /// (geometry, trace) pair of the run. A grid with fewer traces
    /// than workers thus still spreads its simulations over every
    /// worker, and the stride sends neighbouring geometries in grid
    /// order to different groups, so consecutive scenarios lead
    /// separate groups on separate workers. Table II on two workers
    /// keeps one group, and one stream, per trace.
    fn needed_peers<'p>(
        &'p self,
        grid: &ScenarioGrid,
        key: &SimKey,
    ) -> impl Iterator<Item = &'p (GeomKey, Vec<usize>)> {
        let (traces, cap) = self.traces(grid);
        let members = traces.get(&key.1).map_or(&[][..], Vec::as_slice);
        let classes = members.len().div_ceil(*cap).max(1);
        let own = members.iter().position(|(g, _)| *g == key.0);
        members
            .iter()
            .enumerate()
            .filter(move |(i, _)| own.is_some_and(|own| *i != own && i % classes == own % classes))
            .map(|(_, member)| member)
            .filter(|(_, ids)| ids.iter().any(|&id| self.replayed.get(id) != Some(&true)))
    }
}

fn sim_key(scenario: &Scenario, workload: &dyn Workload) -> SimKey {
    let (identity, seeded) = workload_identity(workload);
    (
        (
            scenario.cache_bytes,
            scenario.line_bytes,
            scenario.banks,
            scenario.ways,
            scenario.replacement.clone(),
            scenario.l2_cache_bytes,
            scenario.l2_ways,
        ),
        (
            identity,
            if seeded { scenario.trace_seed } else { 0 },
            scenario.trace_cycles,
        ),
    )
}

/// Measures scenario `index`'s trace under its geometry: the simulation
/// executes under the identity mapping with no mid-trace updates, so
/// its outcome depends only on the geometry and trace keys — not on
/// the policy, model or update-period axes. Pinned-profile workloads
/// skip simulation entirely: their sleep fractions *are* the
/// measurement, and the trace-derived metrics are honestly absent
/// (`NaN` / zero cycles).
///
/// A memo hit replays; a key in flight waits for its group. A miss
/// makes this task the leader of a trace group: in one memo critical
/// section it claims its own key plus every peer geometry from
/// [`TracePlan::needed_peers`] that nobody holds, then streams the trace
/// once through all of them ([`simulate_group`]). Deadlock freedom: a
/// task only waits here before it claims anything, and a group
/// computation never waits.
fn measure(
    grid: &ScenarioGrid,
    index: usize,
    plan: &TracePlan<'_>,
    session: &StudySession,
) -> Result<Arc<SimMeasurement>, CoreError> {
    let scenario = &grid.scenarios()[index];
    let workload = grid.workloads()[scenario.workload_index].as_ref();
    if let Some(profile) = workload.pinned_profile() {
        return Ok(Arc::new(SimMeasurement {
            cycles: 0,
            esav: f64::NAN,
            miss_rate: f64::NAN,
            useful_idleness: profile.to_vec(),
            sleep_fractions: profile.to_vec(),
            l2_sleep_fractions: None,
        }));
    }
    let key = sim_key(scenario, workload);
    let mut entries = relock(session.memo.entries.lock());
    loop {
        match entries.get(&key) {
            Some(MemoEntry::Ready(hit)) => {
                session
                    .counters
                    .sim_memo_hits
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(hit));
            }
            Some(MemoEntry::InFlight) => entries = relock(session.memo.resolved.wait(entries)),
            None => break,
        }
    }
    entries.insert(key.clone(), MemoEntry::InFlight);
    let mut claimed = vec![(key.clone(), index)];
    for (geom, ids) in plan.needed_peers(grid, &key) {
        let peer = (geom.clone(), key.1.clone());
        if !entries.contains_key(&peer) {
            entries.insert(peer.clone(), MemoEntry::InFlight);
            claimed.push((peer, ids[0]));
        }
    }
    drop(entries);
    let guard = InFlightGuard {
        memo: &session.memo,
        keys: claimed.iter().map(|(key, _)| key.clone()).collect(),
    };
    simulate_group(grid, &claimed, guard, session)
}

/// The memo entries a group computation holds in flight. Dropping the
/// guard unresolved — an error or a panic mid-stream — removes them,
/// and every waiter wakes to recompute on its own.
struct InFlightGuard<'a> {
    memo: &'a SimMemo,
    keys: Vec<SimKey>,
}

impl InFlightGuard<'_> {
    /// Resolves every claimed key — those in `results` become ready,
    /// the rest leave the memo — and wakes every waiter.
    fn resolve(&mut self, results: &[(SimKey, Arc<SimMeasurement>)]) {
        if self.keys.is_empty() {
            return;
        }
        let mut entries = relock(self.memo.entries.lock());
        for key in self.keys.drain(..) {
            entries.remove(&key);
        }
        for (key, measured) in results {
            entries.insert(key.clone(), MemoEntry::Ready(Arc::clone(measured)));
        }
        drop(entries);
        self.memo.resolved.notify_all();
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.resolve(&[]);
    }
}

/// Builds scenario's single-level cache, or its L1+L2 hierarchy.
fn build_target(
    scenario: &Scenario,
    replacements: &cache_sim::ReplacementRegistry,
) -> Result<SimTarget, CoreError> {
    let level = |bytes: u64, ways: u32| -> Result<PartitionedCache, CoreError> {
        let geom = CacheGeometry::new(bytes, scenario.line_bytes, ways, scenario.banks)?;
        PartitionedCache::new(geom, "identity", PolicyRegistry::global().clone())?
            .with_replacement(&scenario.replacement, replacements.clone())
    };
    let l1 = level(scenario.cache_bytes, scenario.ways)?;
    Ok(if scenario.l2_cache_bytes > 0 {
        let l2 = level(scenario.l2_cache_bytes, scenario.l2_ways)?;
        SimTarget::Hierarchy(l1.hierarchy(&l2)?)
    } else {
        SimTarget::Level(l1.simulator()?)
    })
}

impl SimMeasurement {
    /// Finishes a streamed target of `workload`'s trace.
    fn of(target: SimTarget, workload: &str) -> Result<Self, CoreError> {
        let (out, l2_out) = target.finish();
        if out.accesses == 0 {
            return Err(CoreError::Report {
                message: format!("workload `{workload}` produced no accesses (empty trace?)"),
            });
        }
        debug_assert!(out.validate().is_ok(), "{:?}", out.validate());
        Ok(SimMeasurement {
            cycles: out.cycles,
            esav: out.energy_saving(),
            miss_rate: out.miss_rate(),
            useful_idleness: out.useful_idleness_all(),
            sleep_fractions: out.sleep_fraction_all(),
            l2_sleep_fractions: l2_out.map(|l2| l2.sleep_fraction_all()),
        })
    }
}

/// Computes a trace group: opens the trace once and streams it, chunk
/// by chunk, through the cache of every claimed `(key, representative
/// scenario)` pair — the leader's own first — then publishes every
/// measurement to the memo and returns the leader's. A peer whose
/// cache fails to build is left out; its own task will report the
/// error when it leads.
fn simulate_group(
    grid: &ScenarioGrid,
    claimed: &[(SimKey, usize)],
    mut guard: InFlightGuard<'_>,
    session: &StudySession,
) -> Result<Arc<SimMeasurement>, CoreError> {
    let leader = &grid.scenarios()[claimed[0].1];
    let mut keys = Vec::with_capacity(claimed.len());
    let mut targets = Vec::with_capacity(claimed.len());
    for (i, (key, id)) in claimed.iter().enumerate() {
        match build_target(&grid.scenarios()[*id], grid.replacement_registry()) {
            Ok(target) => {
                keys.push(key);
                targets.push(target);
            }
            Err(e) if i == 0 => return Err(e),
            Err(_) => {}
        }
    }
    // Stream the workload through the batched fast path: synthetic
    // generators and multi-GB trace files both run in constant memory,
    // with bitwise-identical outcomes to the scalar loop.
    let mut source = grid.workloads()[leader.workload_index].open(leader.trace_seed)?;
    session.counters.trace_opens.fetch_add(1, Ordering::Relaxed);
    simulate_fanout(
        source.as_mut(),
        &mut targets,
        Some(leader.trace_cycles),
        UpdateSchedule::Never,
    )?;
    drop(source);
    let mut results = Vec::with_capacity(targets.len());
    for (key, target) in keys.into_iter().zip(targets) {
        results.push((
            key.clone(),
            Arc::new(SimMeasurement::of(target, &leader.workload)?),
        ));
    }
    session
        .counters
        .simulations
        .fetch_add(results.len(), Ordering::Relaxed);
    guard.resolve(&results);
    Ok(Arc::clone(&results[0].1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Metrics;
    use crate::rescache::MemoryCache;

    fn tiny_spec(session: &StudySession, name: &str) -> StudySpec {
        session
            .spec(name)
            .workload_names(["sha", "CRC32"])
            .unwrap()
            .trace_cycles(40_000)
    }

    #[test]
    fn session_memo_shares_simulations_across_runs() {
        let session = StudySession::new();
        let spec = tiny_spec(&session, "first").policies(["probing", "gray"]);
        session.run(&spec).unwrap();
        let s1 = session.stats();
        assert_eq!(s1.scenarios, 4);
        assert_eq!(s1.simulations, 2, "two workloads, one geometry");
        assert_eq!(s1.sim_memo_hits, 2);
        // A second, overlapping run simulates nothing new.
        let again = tiny_spec(&session, "second").policies(["scrambling"]);
        session.run(&again).unwrap();
        let s2 = session.stats();
        assert_eq!(s2.scenarios, 6);
        assert_eq!(s2.simulations, 2, "the memo outlives the run");
        assert_eq!(s2.evaluations, 6, "model evals are per-scenario");
    }

    #[test]
    fn warm_cache_skips_simulation_and_evaluation() {
        let session = StudySession::new().cache(MemoryCache::new());
        let spec = tiny_spec(&session, "cached");
        let cold = session.run(&spec).unwrap();
        assert_eq!(session.stats().cache_stores, 2);
        let warm = session.run(&spec).unwrap();
        let stats = session.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.simulations, 2, "no new simulations");
        assert_eq!(stats.evaluations, 2, "no new model evaluations");
        assert_eq!(warm.to_json(), cold.to_json(), "byte-identical replay");
    }

    #[test]
    fn scenario_panics_carry_id_and_message() {
        use crate::model::{CalibratedModel, ModelRegistry};
        struct Bomb;
        impl CalibratedModel for Bomb {
            fn evaluate(&self, _eval: &ModelEval<'_>) -> Result<Metrics, CoreError> {
                panic!("the bomb model always explodes")
            }
        }
        let mut registry = ModelRegistry::builtin();
        registry
            .register_fn("bomb", "panics on evaluate", "none", || Ok(Arc::new(Bomb)))
            .unwrap();
        let session = StudySession::with_context(ModelContext::with_registry(registry));
        let spec = tiny_spec(&session, "boom").models(["bomb"]).threads(1);
        let e = session.run(&spec).unwrap_err();
        let CoreError::ScenarioPanicked { scenario, message } = &e else {
            panic!("expected ScenarioPanicked, got {e:?}");
        };
        assert_eq!(*scenario, 0, "first scenario in grid order");
        assert!(message.contains("explodes"), "{message}");
        assert!(e.to_string().contains("scenario 0"), "{e}");
    }

    #[test]
    fn observer_streams_every_record() {
        use std::sync::atomic::AtomicUsize;
        #[derive(Default)]
        struct Counting {
            started: AtomicUsize,
            records: AtomicUsize,
            cached: AtomicUsize,
            finished: AtomicUsize,
        }
        impl ExecObserver for Arc<Counting> {
            fn on_start(&self, _name: &str, total: usize) {
                self.started.fetch_add(total, Ordering::Relaxed);
            }
            fn on_record(
                &self,
                _record: &ScenarioRecord,
                origin: RecordOrigin,
                _done: usize,
                _total: usize,
            ) {
                self.records.fetch_add(1, Ordering::Relaxed);
                if origin == RecordOrigin::Cached {
                    self.cached.fetch_add(1, Ordering::Relaxed);
                }
            }
            fn on_finish(&self, report: &StudyReport, stats: &SessionStats) {
                assert_eq!(report.records().len(), 2);
                assert!(stats.scenarios > 0);
                self.finished.fetch_add(1, Ordering::Relaxed);
            }
        }
        let counting = Arc::new(Counting::default());
        let session = StudySession::new()
            .cache(MemoryCache::new())
            .observer(Arc::clone(&counting));
        let spec = tiny_spec(&session, "observed");
        session.run(&spec).unwrap();
        session.run(&spec).unwrap();
        assert_eq!(counting.started.load(Ordering::Relaxed), 4);
        assert_eq!(counting.records.load(Ordering::Relaxed), 4);
        assert_eq!(counting.cached.load(Ordering::Relaxed), 2);
        assert_eq!(counting.finished.load(Ordering::Relaxed), 2);
    }
}
