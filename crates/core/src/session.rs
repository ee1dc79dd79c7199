//! The [`StudySession`] front door of the execution layer: one
//! long-lived object owning the [`ModelContext`], a session-scoped
//! simulation memo and an optional [`ResultCache`] — so repeated and
//! overlapping studies are incremental instead of from-scratch. The
//! policy, workload and replacement registries ride on each
//! [`StudySpec`] (and the grid it expands into), not on the session.
//!
//! [`StudySession::run`] is the one way to execute a study. Holding
//! one session across runs is what makes them incremental:
//!
//! * the **simulation memo** outlives each run, so grids that share
//!   `(geometry, workload, seed, horizon)` points — `study preset all`'s
//!   Tables I–IV, a preset re-run with one widened axis — simulate
//!   each distinct (geometry, trace) pair exactly once per session;
//! * **trace groups** synthesize each trace once per run. The run plans
//!   them from the cells its lookup pass missed (`trace_groups`, the
//!   list [`ScenarioGrid::cold_stats`] counts): one trace and at most
//!   `ceil(pairs / workers)` of its geometries each. Pass 1 runs a task
//!   per group, which streams the trace once through the geometries
//!   the memo lacks ([`simulate_fanout`]) and publishes them; pass 2
//!   runs a task per missed cell, which evaluates its model. No task
//!   waits on its own run: a group waits only for a geometry another
//!   run holds in flight, after publishing its own, and computes it if
//!   that run abandons it. A group computation never waits, so waiting
//!   cannot deadlock;
//! * the **[`ResultCache`]** (in-memory or on-disk JSONL) skips
//!   simulation *and* model evaluation for any scenario measured
//!   before, in this process or a previous one: a warm re-run
//!   executes zero simulations and still emits a byte-identical
//!   report, and an interrupted sweep resumes from its journal. Each
//!   run probes the cache once per scenario on the calling thread,
//!   replays the hits inline and dispatches only the misses, so a
//!   fully cached grid starts no worker threads; the trace groups
//!   plan from those same misses instead of probing again. The probe
//!   claims each miss until the run stores it, so concurrent runs of
//!   one session (the study server's requests) compute a shared cell
//!   once: the others wait for the store and replay it;
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
//! use aging_cache::study::StudySpec;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let session = StudySession::new();
//! let narrow = StudySpec::new("narrow").cache_kb([16]).workload_names(["sha"])?;
//! let wide = StudySpec::new("wide").cache_kb([8, 16]).workload_names(["sha"])?;
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
//! use aging_cache::study::StudySpec;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let session = StudySession::new().cache(JsonlCache::in_dir("./study-cache")?);
//! let spec = StudySpec::new("sweep").cache_kb([8, 16]).workload_names(["sha"])?;
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
use crate::replacement::ReplacementRegistry;
use crate::rescache::{
    grid_fingerprints, relock, workload_identity, CachedMeasurement, Fingerprint, ResultCache,
};
use crate::study::{Scenario, ScenarioGrid, ScenarioRecord, StudyReport, StudySpec};
use cache_sim::CacheGeometry;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

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
/// a task that finds a key in flight for another run waits on
/// `resolved` instead of recomputing.
#[derive(Default)]
struct SimMemo {
    // aging-lint: allow(no-unordered-iter) keyed memo, only ever probed by key; never iterated
    entries: Mutex<HashMap<SimKey, MemoEntry>>,
    /// Signalled whenever in-flight entries resolve or are abandoned.
    resolved: Condvar,
}

/// The result-cache cells some run of this session missed and is
/// computing right now, by fingerprint, so concurrent runs that miss
/// the same cell compute it once: the others wait for the holder's
/// store and replay it.
#[derive(Default)]
struct CellClaims {
    held: Mutex<BTreeSet<String>>,
    /// Signalled whenever claims are released.
    released: Condvar,
    /// Lookups that waited for another run's claim.
    waits: AtomicUsize,
}

impl CellClaims {
    /// Looks `fingerprint` up in `cache` once no other run holds it: a
    /// hit replays, a miss claims the cell for the caller. The lookup
    /// runs under the claim lock, so a holder's store and release
    /// cannot land between a miss and the claim.
    fn lookup(
        &self,
        cache: &dyn ResultCache,
        fingerprint: &Fingerprint,
    ) -> Result<Option<CachedMeasurement>, CoreError> {
        let key = fingerprint.canonical();
        let mut held = relock(self.held.lock());
        if held.contains(key) {
            self.waits.fetch_add(1, Ordering::Relaxed);
            while held.contains(key) {
                held = relock(self.released.wait(held));
            }
        }
        let hit = cache.lookup(fingerprint)?;
        if hit.is_none() {
            held.insert(key.to_string());
        }
        Ok(hit)
    }

    /// Releases `keys` and wakes every waiter.
    fn release<'k>(&self, keys: impl IntoIterator<Item = &'k str>) {
        let mut held = relock(self.held.lock());
        for key in keys {
            held.remove(key);
        }
        drop(held);
        self.released.notify_all();
    }
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
    /// Scenarios whose simulation was replayed from the session memo:
    /// every scenario of a geometry the memo already held, and every
    /// scenario a trace group's simulations served but the first.
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
    memo: SimMemo,
    claims: CellClaims,
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
    /// A session over a fresh [`ModelContext`], no result cache.
    pub fn new() -> Self {
        Self::with_context(ModelContext::new())
    }

    /// A session over a custom [`ModelContext`] (e.g. one whose
    /// registry carries user-registered device models).
    pub fn with_context(ctx: ModelContext) -> Self {
        Self {
            ctx,
            memo: SimMemo::default(),
            claims: CellClaims::default(),
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

    /// The model context (registry + calibration memo) this session
    /// owns.
    pub fn context(&self) -> &ModelContext {
        &self.ctx
    }

    /// The attached result cache, if any.
    pub fn result_cache(&self) -> Option<&dyn ResultCache> {
        self.cache.as_deref()
    }

    /// Expands and runs a spec through this session.
    ///
    /// # Errors
    ///
    /// Propagates expansion and execution errors.
    pub fn run(&self, spec: &StudySpec) -> Result<StudyReport, CoreError> {
        self.run_counted(Cow::Owned(spec.expand()?))
            .map(|(report, _)| report)
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
        self.run_counted(Cow::Borrowed(grid))
            .map(|(report, _)| report)
    }

    /// [`StudySession::run_grid`], also answering how many cells its
    /// lookup pass replayed and how many it left to compute. A grid
    /// given up to the run whose every cell replays moves its scenarios
    /// into the records ([`replay_all`]) instead of copying them.
    pub(crate) fn run_counted(
        &self,
        grid: Cow<'_, ScenarioGrid>,
    ) -> Result<(StudyReport, Coverage), CoreError> {
        let models = calibrate(&grid, self)?;
        let lookups = self.lookup_pass(&grid, true)?;
        let coverage = lookups.coverage();
        if coverage.computed > 0 || matches!(grid, Cow::Borrowed(_)) {
            return replay_or_compute(&grid, self, &models, lookups)
                .map(|report| (report, coverage));
        }
        drop(models);
        replay_all(grid.into_owned(), self, lookups).map(|report| (report, coverage))
    }

    /// Replays `grid` when every cell is warm, and computes nothing:
    /// one lookup pass that claims nothing, then either a replay of
    /// those lookups ([`replay_all`], the counters and the observer
    /// moving exactly as a warm [`StudySession::run_grid`] moves them)
    /// or the coverage. A lookup error fails the read.
    pub(crate) fn read_warm(&self, grid: ScenarioGrid) -> Result<WarmRead, CoreError> {
        let lookups = self.lookup_pass(&grid, false)?;
        if let Some(Err(e)) = lookups.outcomes.iter().find(|o| o.is_err()) {
            return Err(e.clone());
        }
        let coverage = lookups.coverage();
        if coverage.computed > 0 {
            return Ok(WarmRead::Cold(coverage));
        }
        calibrate(&grid, self)?;
        replay_all(grid, self, lookups).map(WarmRead::Replayed)
    }

    /// The one lookup pass of a run or a warm read: fingerprints each
    /// cell and looks it up once in the result cache. With `claim`, each
    /// miss is claimed for the caller ([`CellClaims::lookup`]). Without
    /// a cache it looks nothing up, and every cell is a miss.
    ///
    /// The lookups run in fingerprint order, not grid order: taking
    /// claims in one global order means two runs can never wait on
    /// each other in a cycle. A fingerprint repeated within the grid is
    /// looked up once and shares the outcome, since a second lookup
    /// would wait on the pass's own claim.
    fn lookup_pass(&self, grid: &ScenarioGrid, claim: bool) -> Result<Lookups<'_>, CoreError> {
        let n = grid.len();
        let mut lookups = Lookups {
            fingerprints: Vec::new(),
            outcomes: vec![Ok(None); n],
            held: (0..n).map(|_| AtomicBool::new(false)).collect(),
            claims: &self.claims,
        };
        let Some(cache) = self.cache.as_deref() else {
            return Ok(lookups);
        };
        lookups.fingerprints = grid_fingerprints(grid)?;
        let fingerprints = &lookups.fingerprints;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            fingerprints[a].canonical().cmp(fingerprints[b].canonical())
        });
        let mut previous: Option<usize> = None;
        for i in order {
            lookups.outcomes[i] = match previous {
                Some(p) if fingerprints[p] == fingerprints[i] => lookups.outcomes[p].clone(),
                _ => {
                    let outcome = catch_panic(i, || {
                        if claim {
                            self.claims.lookup(cache, &fingerprints[i])
                        } else {
                            cache.lookup(&fingerprints[i])
                        }
                    });
                    *lookups.held[i].get_mut() = claim && matches!(outcome, Ok(None));
                    outcome
                }
            };
            previous = Some(i);
        }
        Ok(lookups)
    }

    /// How many lookups waited for a cell another run was computing.
    pub(crate) fn claim_waits(&self) -> usize {
        self.claims.waits.load(Ordering::Relaxed)
    }

    /// A snapshot of the session's cumulative execution counters.
    pub fn stats(&self) -> SessionStats {
        self.counters.snapshot()
    }
}

/// Runs `f`, turning a panic into a first-class error that carries
/// scenario `id` and the panic's message, instead of tearing down the
/// whole process at scope join.
fn catch_panic<T>(id: usize, f: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(CoreError::ScenarioPanicked {
            scenario: id,
            message: panic_message(payload),
        })
    })
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
    /// Some cell was cold.
    Cold(Coverage),
}

/// What one lookup pass found, by cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coverage {
    /// Cells the result cache answers.
    pub(crate) replayed: usize,
    /// Cells left to compute.
    pub(crate) computed: usize,
}

/// One lookup pass over a grid ([`StudySession::lookup_pass`]): each
/// cell's fingerprint and lookup outcome, in grid order, and which
/// cells' claims the pass holds. Each computed cell's task releases
/// its claim once it returns; dropping the pass releases whatever is
/// left (errors, caught panics, cells never dispatched), so a failed
/// run never strands a waiter.
pub(crate) struct Lookups<'s> {
    /// Empty without a result cache.
    fingerprints: Vec<Fingerprint>,
    outcomes: Vec<Result<Option<CachedMeasurement>, CoreError>>,
    held: Vec<AtomicBool>,
    claims: &'s CellClaims,
}

impl Lookups<'_> {
    fn coverage(&self) -> Coverage {
        let replayed = self
            .outcomes
            .iter()
            .filter(|o| matches!(o, Ok(Some(_))))
            .count();
        Coverage {
            replayed,
            computed: self.outcomes.len() - replayed,
        }
    }

    /// Releases cell `index`'s claim, if this pass still holds it.
    fn release(&self, index: usize) {
        if self.held[index].swap(false, Ordering::SeqCst) {
            self.claims.release([self.fingerprints[index].canonical()]);
        }
    }
}

impl Drop for Lookups<'_> {
    fn drop(&mut self) {
        let left: Vec<&str> = (self.held.iter().zip(&self.fingerprints))
            .filter(|(held, _)| held.swap(false, Ordering::SeqCst))
            .map(|(_, fingerprint)| fingerprint.canonical())
            .collect();
        if !left.is_empty() {
            self.claims.release(left);
        }
    }
}

/// The calibrated model of every scenario, keyed by model key.
// aging-lint: allow(no-unordered-iter) probed per scenario; iteration order never observed
type Models<'g> = HashMap<&'g str, Arc<dyn CalibratedModel>>;

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

/// Replays every hit of `lookups` inline and dispatches only the
/// misses to the worker pool. A fully cached grid therefore starts no
/// worker threads at all, and every `on_record` fires on the calling
/// thread.
fn replay_or_compute(
    grid: &ScenarioGrid,
    session: &StudySession,
    models: &Models<'_>,
    mut lookups: Lookups<'_>,
) -> Result<StudyReport, CoreError> {
    if let Some(obs) = session.observer.as_deref() {
        obs.on_start(grid.name(), grid.len());
    }
    let n = grid.len();
    // One slot per scenario, each set once: workers write their own
    // slot independently (no shared results mutex), and the id-indexed
    // layout keeps the report order deterministic.
    let slots: Vec<OnceLock<Result<ScenarioRecord, CoreError>>> =
        (0..n).map(|_| OnceLock::new()).collect();
    let done = AtomicUsize::new(0);
    let finish = |i: usize, origin, outcome: Result<ScenarioRecord, CoreError>| {
        if let (Some(obs), Ok(record)) = (session.observer.as_deref(), &outcome) {
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            obs.on_record(record, origin, finished, n);
        }
        let _ = slots[i].set(outcome);
    };

    let mut outcomes = std::mem::take(&mut lookups.outcomes).into_iter();
    let mut misses = Vec::with_capacity(n);
    for (i, scenario) in grid.scenarios().iter().enumerate() {
        match outcomes.next() {
            Some(Ok(Some(hit))) => {
                session.counters.scenarios.fetch_add(1, Ordering::Relaxed);
                session.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                finish(
                    i,
                    RecordOrigin::Cached,
                    Ok(hit.into_record(scenario.clone())),
                );
            }
            Some(Err(e)) => {
                session.counters.scenarios.fetch_add(1, Ordering::Relaxed);
                finish(i, RecordOrigin::Cached, Err(e));
            }
            Some(Ok(None)) | None => misses.push(i),
        }
    }

    if !misses.is_empty() {
        let workers = exec::workers(grid.threads, misses.len());
        // Pass 1: one task per trace group streams its trace once and
        // fills its members' measurement slots.
        let groups = trace_groups(grid, misses.iter().copied(), workers);
        let measured: Vec<OnceLock<Measured>> = (0..n).map(|_| OnceLock::new()).collect();
        let measure_task = |g: usize| {
            let group = &groups[g];
            let first = group[0].1[0];
            if let Err(e) = catch_panic(first, || measure_group(grid, group, &measured, session)) {
                group
                    .iter()
                    .for_each(|(_, ids)| fill(&measured, ids, Err(e.clone())));
            }
        };
        exec::run_tasks(groups.len(), workers, &measure_task);
        // Pass 2: one task per missed cell evaluates its model.
        let evaluate_task = |j: usize| {
            let i = misses[j];
            let outcome = catch_panic(i, || {
                let fingerprint = lookups.fingerprints.get(i);
                run_one(grid, i, fingerprint, models, measured[i].get(), session)
            });
            // `run_one` stored first, so a run waiting on the claim
            // hits when it looks again.
            lookups.release(i);
            finish(i, RecordOrigin::Computed, outcome);
        };
        exec::run_tasks(misses.len(), workers, &evaluate_task);
    }
    assemble(grid, slots, session)
}

/// Replays `grid`, every cell of which `lookups` found in the result
/// cache, moving each scenario into its record. The counters and the
/// observer move as they do for [`replay_or_compute`]'s inline hits.
fn replay_all(
    grid: ScenarioGrid,
    session: &StudySession,
    mut lookups: Lookups<'_>,
) -> Result<StudyReport, CoreError> {
    let ScenarioGrid {
        name, scenarios, ..
    } = grid;
    let n = scenarios.len();
    let observer = session.observer.as_deref();
    if let Some(obs) = observer {
        obs.on_start(&name, n);
    }
    let mut records = Vec::with_capacity(n);
    let outcomes = std::mem::take(&mut lookups.outcomes);
    for (scenario, outcome) in scenarios.into_iter().zip(outcomes) {
        let Some(hit) = outcome? else {
            return Err(CoreError::Report {
                message: format!("scenario {} missed a fully warm replay", scenario.id),
            });
        };
        session.counters.scenarios.fetch_add(1, Ordering::Relaxed);
        session.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        let record = hit.into_record(scenario);
        if let Some(obs) = observer {
            obs.on_record(&record, RecordOrigin::Cached, records.len() + 1, n);
        }
        records.push(record);
    }
    let report = StudyReport::from_records(name, records);
    if let Some(obs) = observer {
        obs.on_finish(&report, &session.counters.snapshot());
    }
    Ok(report)
}

/// Collects the per-scenario slots into the id-ordered report and
/// fires the observer's finish callback.
fn assemble(
    grid: &ScenarioGrid,
    slots: Vec<OnceLock<Result<ScenarioRecord, CoreError>>>,
    session: &StudySession,
) -> Result<StudyReport, CoreError> {
    let mut records = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.into_inner() {
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
/// without one): hand its measured sleep fractions — pass 1's
/// `measured` slot, or its pinned profile — to the scenario's
/// calibrated device model, and journal the record under
/// `fingerprint`, the one [`StudySession::lookup_pass`] looked up.
fn run_one(
    grid: &ScenarioGrid,
    index: usize,
    fingerprint: Option<&Fingerprint>,
    models: &Models<'_>,
    measured: Option<&Measured>,
    session: &StudySession,
) -> Result<ScenarioRecord, CoreError> {
    session.counters.scenarios.fetch_add(1, Ordering::Relaxed);
    let scenario = &grid.scenarios()[index];
    let workload = &grid.workloads[scenario.workload_index];
    // Pinned-profile workloads skip simulation entirely: their sleep
    // fractions *are* the measurement, and the trace-derived metrics
    // are honestly absent (`NaN` / zero cycles).
    let measured = match (workload.pinned_profile(), measured) {
        (Some(profile), _) => Arc::new(SimMeasurement {
            cycles: 0,
            esav: f64::NAN,
            miss_rate: f64::NAN,
            useful_idleness: profile.to_vec(),
            sleep_fractions: profile.to_vec(),
            l2_sleep_fractions: None,
        }),
        (None, Some(measured)) => measured.clone()?,
        (None, None) => return Err(CoreError::WorkerPanicked),
    };
    let model = &models[scenario.model.as_str()];
    let policy_builder = || {
        grid.registry
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
    Ok(record)
}

/// A pass-1 outcome: one geometry's measurement of one trace, shared
/// by every scenario it serves.
type Measured = Result<Arc<SimMeasurement>, CoreError>;

/// One trace group: geometries that stream the same trace, each as its
/// memo key with the ids of the scenarios it serves, in first-seen
/// grid order.
type TraceGroup = Vec<(SimKey, Vec<usize>)>;

/// The trace groups of `cells` (scenario ids, ascending) on `workers`
/// workers, ordered by their lowest scenario id, so one worker streams
/// them in grid order. Pinned profiles simulate nothing and join no
/// group.
///
/// A trace's geometries split into strided classes of at most
/// `ceil(pairs / workers)` each, where `pairs` counts every (geometry,
/// trace) pair of `cells`. A grid with fewer traces than workers thus
/// still has a group for every worker, and the stride sends
/// neighbouring geometries in grid order to different groups. Table II
/// on two workers keeps one group, and one stream, per trace.
fn trace_groups(
    grid: &ScenarioGrid,
    cells: impl IntoIterator<Item = usize>,
    workers: usize,
) -> Vec<TraceGroup> {
    let mut traces = BTreeMap::<TraceKey, Vec<(GeomKey, Vec<usize>)>>::new();
    for id in cells {
        let scenario = &grid.scenarios()[id];
        let workload = grid.workloads[scenario.workload_index].as_ref();
        if workload.pinned_profile().is_some() {
            continue;
        }
        let geom = (
            scenario.cache_bytes,
            scenario.line_bytes,
            scenario.banks,
            scenario.ways,
            scenario.replacement.clone(),
            scenario.l2_cache_bytes,
            scenario.l2_ways,
        );
        let (identity, seeded) = workload_identity(workload);
        let seed = if seeded { scenario.trace_seed } else { 0 };
        let trace = (identity, seed, scenario.trace_cycles);
        let members = traces.entry(trace).or_default();
        match members.iter_mut().find(|(g, _)| *g == geom) {
            Some((_, ids)) => ids.push(id),
            None => members.push((geom, vec![id])),
        }
    }
    let pairs: usize = traces.values().map(Vec::len).sum();
    let cap = pairs.div_ceil(workers.max(1)).max(1);
    let mut groups = Vec::new();
    for (trace, members) in traces {
        let classes = members.len().div_ceil(cap);
        let first = groups.len();
        groups.resize_with(first + classes, Vec::new);
        for (i, (geom, ids)) in members.into_iter().enumerate() {
            groups[first + i % classes].push(((geom, trace.clone()), ids));
        }
    }
    groups.sort_unstable_by_key(|group: &TraceGroup| group[0].1[0]);
    groups
}

impl ScenarioGrid {
    /// The counters a run of this grid ends with on a fresh session
    /// without a result cache, on `workers` workers, read off the trace
    /// groups such a run executes: an evaluation per scenario, a
    /// simulation per (geometry, trace) pair, a trace open per group
    /// and a memo hit for every other simulating scenario. The grid and
    /// the worker count fix the groups, so this holds however the
    /// workers interleave.
    pub fn cold_stats(&self, workers: usize) -> SessionStats {
        let groups = trace_groups(self, 0..self.len(), workers);
        let pairs = groups.iter().flatten();
        SessionStats {
            scenarios: self.len(),
            simulations: pairs.clone().count(),
            trace_opens: groups.len(),
            sim_memo_hits: pairs.map(|(_, ids)| ids.len()).sum::<usize>() - groups.len(),
            evaluations: self.len(),
            ..SessionStats::default()
        }
    }
}

/// Pass 1 for one trace group: measures each geometry under the
/// identity mapping with no mid-trace updates — so not the policy,
/// model or update-period axes — into the slot of every scenario it
/// serves. In one memo critical section the task replays what the memo
/// holds and claims what it lacks, then streams the claimed geometries
/// ([`simulate_group`]). Only then, holding nothing, does it wait for
/// geometries another run holds in flight, computing any that run
/// abandons.
fn measure_group(
    grid: &ScenarioGrid,
    group: &TraceGroup,
    measured: &[OnceLock<Measured>],
    session: &StudySession,
) -> Result<(), CoreError> {
    let hits = &session.counters.sim_memo_hits;
    let mut pending: Vec<&(SimKey, Vec<usize>)> = group.iter().collect();
    let mut entries = relock(session.memo.entries.lock());
    loop {
        let mut claimed = Vec::new();
        pending.retain(|&member| match entries.get(&member.0) {
            Some(MemoEntry::Ready(hit)) => {
                hits.fetch_add(member.1.len(), Ordering::Relaxed);
                fill(measured, &member.1, Ok(Arc::clone(hit)));
                false
            }
            Some(MemoEntry::InFlight) => true,
            None => {
                entries.insert(member.0.clone(), MemoEntry::InFlight);
                claimed.push(member);
                false
            }
        });
        drop(entries);
        if !claimed.is_empty() {
            simulate_group(grid, &claimed, measured, session)?;
        }
        if pending.is_empty() {
            return Ok(());
        }
        entries = relock(session.memo.entries.lock());
        while pending
            .iter()
            .all(|member| matches!(entries.get(&member.0), Some(MemoEntry::InFlight)))
        {
            entries = relock(session.memo.resolved.wait(entries));
        }
    }
}

/// Writes `outcome` to the slot of every scenario in `ids`.
fn fill(measured: &[OnceLock<Measured>], ids: &[usize], outcome: Measured) {
    for &id in ids {
        let _ = measured[id].set(outcome.clone());
    }
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
    replacements: &ReplacementRegistry,
) -> Result<SimTarget, CoreError> {
    let level = |bytes: u64, ways: u32| -> Result<PartitionedCache, CoreError> {
        let geom = CacheGeometry::new(bytes, scenario.line_bytes, ways, scenario.banks)?;
        PartitionedCache::new(geom, "identity", PolicyRegistry::global())?
            .with_replacement(&scenario.replacement, replacements)
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

/// Computes the `claimed` geometries of a trace group, which the
/// caller marked in flight: opens the trace once and streams it, chunk
/// by chunk, through each geometry's cache, then writes every
/// measurement to its scenarios' slots and publishes it to the memo.
fn simulate_group(
    grid: &ScenarioGrid,
    claimed: &[&(SimKey, Vec<usize>)],
    measured: &[OnceLock<Measured>],
    session: &StudySession,
) -> Result<(), CoreError> {
    let mut guard = InFlightGuard {
        memo: &session.memo,
        keys: claimed.iter().map(|(key, _)| key.clone()).collect(),
    };
    let scenario = |ids: &[usize]| &grid.scenarios()[ids[0]];
    let mut targets = claimed
        .iter()
        .map(|(_, ids)| build_target(scenario(ids), &grid.replacement_registry))
        .collect::<Result<Vec<_>, _>>()?;
    // Stream the workload through the batched fast path: synthetic
    // generators and multi-GB trace files both run in constant memory,
    // with bitwise-identical outcomes to the scalar loop.
    let leader = scenario(&claimed[0].1);
    let mut source = grid.workloads[leader.workload_index].open(leader.trace_seed)?;
    session.counters.trace_opens.fetch_add(1, Ordering::Relaxed);
    simulate_fanout(
        source.as_mut(),
        &mut targets,
        Some(leader.trace_cycles),
        UpdateSchedule::Never,
    )?;
    drop(source);
    let mut results = Vec::with_capacity(targets.len());
    for (&(key, ids), target) in claimed.iter().zip(targets) {
        let measurement = Arc::new(SimMeasurement::of(target, &leader.workload)?);
        fill(measured, ids, Ok(Arc::clone(&measurement)));
        results.push((key.clone(), measurement));
    }
    let cells: usize = claimed.iter().map(|(_, ids)| ids.len()).sum();
    let counters = &session.counters;
    counters
        .simulations
        .fetch_add(results.len(), Ordering::Relaxed);
    counters
        .sim_memo_hits
        .fetch_add(cells - 1, Ordering::Relaxed);
    guard.resolve(&results);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Metrics;
    use crate::rescache::MemoryCache;

    fn tiny_spec(name: &str) -> StudySpec {
        StudySpec::new(name)
            .workload_names(["sha", "CRC32"])
            .unwrap()
            .trace_cycles(40_000)
    }

    #[test]
    fn session_memo_shares_simulations_across_runs() {
        let session = StudySession::new();
        let spec = tiny_spec("first").policies(["probing", "gray"]);
        session.run(&spec).unwrap();
        let s1 = session.stats();
        assert_eq!(s1.scenarios, 4);
        assert_eq!(s1.simulations, 2, "two workloads, one geometry");
        assert_eq!(s1.sim_memo_hits, 2);
        // A second, overlapping run simulates nothing new.
        let again = tiny_spec("second").policies(["scrambling"]);
        session.run(&again).unwrap();
        let s2 = session.stats();
        assert_eq!(s2.scenarios, 6);
        assert_eq!(s2.simulations, 2, "the memo outlives the run");
        assert_eq!(s2.evaluations, 6, "model evals are per-scenario");
    }

    #[test]
    fn warm_cache_skips_simulation_and_evaluation() {
        let session = StudySession::new().cache(MemoryCache::new());
        let spec = tiny_spec("cached");
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
        let spec = tiny_spec("boom").models(["bomb"]).threads(1);
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
        let spec = tiny_spec("observed");
        session.run(&spec).unwrap();
        session.run(&spec).unwrap();
        assert_eq!(counting.started.load(Ordering::Relaxed), 4);
        assert_eq!(counting.records.load(Ordering::Relaxed), 4);
        assert_eq!(counting.cached.load(Ordering::Relaxed), 2);
        assert_eq!(counting.finished.load(Ordering::Relaxed), 2);
    }
}
