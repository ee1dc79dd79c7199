//! Execution-layer invariants: every worker count — and a cache-warm
//! replay, in-process or from a reopened on-disk journal — must
//! produce byte-identical `StudyReport` JSON; corrupted journal
//! entries must be rejected loudly, naming their fingerprint; and a run
//! looks each cell up in the result cache exactly once, replaying the
//! hits on the calling thread.

use aging_cache::exec::{ExecObserver, RecordOrigin};
use aging_cache::experiment::ExperimentConfig;
use aging_cache::model::DEFAULT_MODEL;
use aging_cache::presets;
use aging_cache::rescache::{CachedMeasurement, Fingerprint, JsonlCache, MemoryCache, ResultCache};
use aging_cache::search::{Driver, Objective, ScenarioSpace, Search};
use aging_cache::serve::{ServeOptions, StudyServer};
use aging_cache::session::StudySession;
use aging_cache::study::{ScenarioRecord, StudySpec};
use aging_cache::CoreError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

fn grid_spec() -> StudySpec {
    StudySpec::new("exec equivalence")
        .cache_kb([8, 16])
        .policies(["probing", "gray"])
        .workload_names(["sha", "CRC32"])
        .unwrap()
        .trace_cycles(40_000)
}

#[test]
fn sequential_threaded_and_cache_warm_reports_are_byte_identical() {
    let sequential = StudySession::new();
    let reference = sequential.run(&grid_spec().threads(1)).unwrap().to_json();

    let threaded = StudySession::new();
    assert_eq!(
        threaded.run(&grid_spec()).unwrap().to_json(),
        reference,
        "threaded vs sequential"
    );

    let two_workers = StudySession::new();
    assert_eq!(
        two_workers.run(&grid_spec().threads(2)).unwrap().to_json(),
        reference,
        "capped worker pool"
    );

    let cached = StudySession::new().cache(MemoryCache::new());
    let spec = grid_spec();
    assert_eq!(cached.run(&spec).unwrap().to_json(), reference, "cold");
    assert_eq!(cached.run(&spec).unwrap().to_json(), reference, "warm");
    let stats = cached.stats();
    assert_eq!(stats.cache_hits, 8, "the warm run was all hits");
    assert_eq!(stats.evaluations, 8, "only the cold run evaluated");
}

#[test]
fn reopened_journal_replays_without_simulating() {
    let dir = std::env::temp_dir().join(format!("nbti-exec-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let reference = cold.run(&grid_spec()).unwrap().to_json();
    assert_eq!(cold.stats().cache_stores, 8);

    // A fresh session over the reopened journal — a second process, in
    // effect. Zero simulations, zero model evaluations, same bytes.
    let warm = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    assert_eq!(warm.run(&grid_spec()).unwrap().to_json(), reference);
    let stats = warm.stats();
    assert_eq!(stats.simulations, 0);
    assert_eq!(stats.evaluations, 0);
    assert_eq!(stats.cache_hits, 8);

    // A widened grid computes only the missing points (the presets pin
    // the policy seed, so shared points keep their fingerprints).
    let wider = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let spec = grid_spec().policy_seed(1);
    wider.run(&spec).unwrap();
    let before = wider.stats();
    let widened = grid_spec().policy_seed(1).cache_kb([8, 16, 32]);
    wider.run(&widened).unwrap();
    let after = wider.stats();
    assert_eq!(
        after.evaluations - before.evaluations,
        4,
        "only the new 32 kB column computes"
    );
    // Trace groups skip peer geometries whose every scenario is
    // journaled: the 32 kB column's groups carry no 8 or 16 kB target.
    assert_eq!(
        after.simulations - before.simulations,
        2,
        "only the 32 kB geometry simulates, once per workload"
    );
    assert_eq!(
        after.trace_opens - before.trace_opens,
        2,
        "one stream per workload, opened for the 32 kB column alone"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn poisoned_journal_is_rejected_with_fingerprint_not_deserialized() {
    let dir = std::env::temp_dir().join(format!("nbti-exec-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let spec = StudySpec::new("poison")
        .workload_names(["sha"])
        .unwrap()
        .trace_cycles(40_000);
    session.run(&spec).unwrap();
    drop(session);

    // Flip one digit of a measured value inside the journal.
    let path = dir.join(JsonlCache::FILE_NAME);
    let text = std::fs::read_to_string(&path).unwrap();
    let fp = text
        .split('"')
        .nth(3)
        .expect("first line starts {\"fp\":\"…\"}")
        .to_string();
    assert!(fp.starts_with("fnv1a64:"), "{fp}");
    let poisoned = text.replacen("\"esav\":0.", "\"esav\":9.", 1);
    assert_ne!(poisoned, text, "the corruption must apply");
    std::fs::write(&path, poisoned).unwrap();

    let e = JsonlCache::in_dir(&dir).unwrap_err();
    assert!(matches!(e, CoreError::Cache { .. }), "{e:?}");
    let msg = e.to_string();
    assert!(msg.contains(&fp), "error must name the fingerprint: {msg}");
    assert!(msg.contains("mismatch"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_after_interruption_computes_only_missing_points() {
    // Simulate an interrupted sweep: journal only half the grid, then
    // "resume" — the replayed half must not recompute and the report
    // must match an uninterrupted run byte for byte.
    // (The policy seed is pinned: a *sub*-grid renumbers scenario ids,
    // and derived policy seeds — correctly — follow the id. A truly
    // interrupted run keeps its grid and needs no pinning.)
    let dir = std::env::temp_dir().join(format!("nbti-exec-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let full = StudySession::new();
    let reference = full.run(&grid_spec().policy_seed(1)).unwrap();

    let half = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let half_spec = grid_spec().policy_seed(1).policies(["probing"]); // 4 of 8 points
    half.run(&half_spec).unwrap();
    assert_eq!(half.stats().cache_stores, 4);

    let resumed = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let report = resumed.run(&grid_spec().policy_seed(1)).unwrap();
    let stats = resumed.stats();
    assert_eq!(stats.cache_hits, 4, "the journaled half replays");
    assert_eq!(stats.evaluations, 4, "only the missing half computes");
    assert_eq!(report.to_json(), reference.to_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `ResultCache` decorator over a [`MemoryCache`] that counts every
/// call the session makes. Clones share the cache and the counts.
#[derive(Debug, Clone, Default)]
struct Counting(Arc<Counts>);

#[derive(Debug, Default)]
struct Counts {
    inner: MemoryCache,
    lookups: AtomicUsize,
    contains: AtomicUsize,
    stores: AtomicUsize,
}

impl Counting {
    /// `(lookups, contains, stores)` since the last call.
    fn take(&self) -> (usize, usize, usize) {
        (
            self.0.lookups.swap(0, Ordering::SeqCst),
            self.0.contains.swap(0, Ordering::SeqCst),
            self.0.stores.swap(0, Ordering::SeqCst),
        )
    }
}

impl ResultCache for Counting {
    fn lookup(&self, fingerprint: &Fingerprint) -> Result<Option<CachedMeasurement>, CoreError> {
        self.0.lookups.fetch_add(1, Ordering::SeqCst);
        self.0.inner.lookup(fingerprint)
    }

    fn contains(&self, fingerprint: &Fingerprint) -> Result<bool, CoreError> {
        self.0.contains.fetch_add(1, Ordering::SeqCst);
        self.0.inner.contains(fingerprint)
    }

    fn store(
        &self,
        fingerprint: &Fingerprint,
        measurement: &CachedMeasurement,
    ) -> Result<(), CoreError> {
        self.0.stores.fetch_add(1, Ordering::SeqCst);
        self.0.inner.store(fingerprint, measurement)
    }

    fn len(&self) -> usize {
        self.0.inner.len()
    }
}

/// Records the thread and origin of every `on_record`. Clones share
/// the log.
#[derive(Debug, Clone, Default)]
struct Deliveries(Arc<Mutex<Vec<(ThreadId, RecordOrigin)>>>);

impl ExecObserver for Deliveries {
    fn on_record(&self, _: &ScenarioRecord, origin: RecordOrigin, _: usize, _: usize) {
        self.0
            .lock()
            .unwrap()
            .push((std::thread::current().id(), origin));
    }
}

#[test]
fn table2_replay_probes_each_cell_once_and_replays_on_the_calling_thread() {
    let spec = presets::table2(&ExperimentConfig::paper_reference())
        .trace_cycles(40_000)
        .threads(2);
    let cells = 54;
    let threaded = StudySession::new;
    let counting = Counting::default();

    // Cold: one lookup per cell, and the trace groups plan their peers
    // from those outcomes instead of probing the cache again.
    let cold = threaded().cache(counting.clone());
    let reference = cold.run(&spec).unwrap().to_json();
    assert_eq!(
        counting.take(),
        (cells, 0, cells),
        "(lookups, contains, stores)"
    );

    // Warm, on a fresh threaded session: one lookup per cell, nothing
    // else, and every record delivered on this thread.
    let deliveries = Deliveries::default();
    let warm = threaded()
        .cache(counting.clone())
        .observer(deliveries.clone());
    assert_eq!(
        warm.run(&spec).unwrap().to_json(),
        reference,
        "byte-equal replay"
    );
    assert_eq!(
        counting.take(),
        (cells, 0, 0),
        "(lookups, contains, stores)"
    );
    let stats = warm.stats();
    assert_eq!((stats.cache_hits, stats.simulations), (cells, 0));
    let delivered = deliveries.0.lock().unwrap();
    assert_eq!(delivered.len(), cells);
    let caller = std::thread::current().id();
    assert!(
        delivered
            .iter()
            .all(|&(thread, origin)| thread == caller && origin == RecordOrigin::Cached),
        "every replayed record arrives on the calling thread"
    );
}

#[test]
fn a_search_keeps_the_specs_worker_cap() {
    // Both search grids — the expanded space and each probe batch —
    // run under the spec's cap: `threads(1)` computes every probe on
    // the calling thread.
    let session = StudySession::new();
    let spec = StudySpec::new("one-thread search")
        .cache_kb([8, 16, 32])
        .policies(["probing", "gray"])
        .workload_names(["sha"])
        .unwrap()
        .trace_cycles(40_000)
        .threads(1);
    let deliveries = Deliveries::default();
    let session = session.observer(deliveries.clone());
    let objective = Objective::parse("max:lt_years").unwrap();
    let report = Search::new(ScenarioSpace::grid(spec), objective)
        .driver(Driver::Exhaustive)
        .run(&session)
        .unwrap();
    assert!(report.incumbent().is_some());
    let delivered = deliveries.0.lock().unwrap();
    assert_eq!(delivered.len(), 6, "every point probed once");
    let caller = std::thread::current().id();
    assert!(
        delivered
            .iter()
            .all(|&(thread, origin)| thread == caller && origin == RecordOrigin::Computed),
        "every probe computed on the calling thread"
    );
}

#[test]
fn a_cell_repeated_in_one_grid_is_looked_up_once() {
    // With the policy seed pinned, both 8 kB points share a fingerprint.
    let spec = || {
        StudySpec::new("repeated cell")
            .cache_kb([8, 8])
            .workload_names(["sha"])
            .unwrap()
            .trace_cycles(40_000)
            .policy_seed(1)
    };
    let reference = StudySession::new();
    let reference = reference.run(&spec()).unwrap().to_json();
    let counting = Counting::default();
    let session = StudySession::new().cache(counting.clone());
    assert_eq!(session.run(&spec()).unwrap().to_json(), reference);
    assert_eq!(counting.take().0, 1, "cold");
    assert_eq!(session.run(&spec()).unwrap().to_json(), reference);
    assert_eq!(counting.take().0, 1, "warm");
}

/// A [`MemoryCache`] whose lookups take a few milliseconds, so two
/// runs that start together walk their lookups in lockstep.
#[derive(Debug, Default)]
struct Slow(MemoryCache);

impl ResultCache for Slow {
    fn lookup(&self, fingerprint: &Fingerprint) -> Result<Option<CachedMeasurement>, CoreError> {
        std::thread::sleep(Duration::from_millis(5));
        self.0.lookup(fingerprint)
    }

    fn store(
        &self,
        fingerprint: &Fingerprint,
        measurement: &CachedMeasurement,
    ) -> Result<(), CoreError> {
        self.0.store(fingerprint, measurement)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

#[test]
fn overlapping_runs_in_opposite_orders_do_not_wait_on_each_other() {
    // The server's session claims each cell it misses until it stores
    // it. Two runs that meet the same cells in opposite grid orders
    // must not each hold one claim while waiting for the other's: a
    // cycle would stall both until the (here: far longer than the
    // bound) coalescing backstop.
    let server = StudyServer::bind(
        Slow::default(),
        ServeOptions {
            coalesce_wait_ms: 600_000,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let server = Arc::new(server);
    // Calibrate up front, so neither run starts its lookups late.
    server
        .session()
        .context()
        .calibrated(DEFAULT_MODEL)
        .unwrap();
    let start = Arc::new(Barrier::new(2));
    let (tx, rx) = mpsc::channel();
    for sizes in [[8, 16, 32], [32, 16, 8]] {
        let (server, start, tx) = (Arc::clone(&server), Arc::clone(&start), tx.clone());
        std::thread::spawn(move || {
            let session = server.session();
            let spec = StudySpec::new("opposite orders")
                .cache_kb(sizes)
                .workload_names(["sha", "CRC32"])
                .unwrap()
                .trace_cycles(20_000)
                .policy_seed(1);
            start.wait();
            let _ = tx.send(session.run(&spec).map(|r| r.records().len()));
        });
    }
    for _ in 0..2 {
        let done = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("both runs finish without waiting out the backstop");
        assert_eq!(done.unwrap(), 6);
    }
    assert_eq!(server.session().stats().simulations, 6, "each cell once");
}
