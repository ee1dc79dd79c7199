//! Trace groups in the study session: each distinct trace is opened
//! once per run and fanned out to every geometry that needs it, with
//! byte-identical reports, exact counters, no duplicate simulation
//! under concurrent runs, and no stale in-flight claims after a group
//! fails.

use nbti_cache_repro::arch::experiment::ExperimentConfig;
use nbti_cache_repro::arch::presets;
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::study::StudySpec;
use nbti_cache_repro::arch::workload::{Workload, WorkloadRegistry};
use nbti_cache_repro::arch::CoreError;
use nbti_cache_repro::sim::Access;
use nbti_cache_repro::traces::{suite, TraceError, TraceSource};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Generous: a hang is the failure mode, not slowness.
const BOUND: Duration = Duration::from_secs(300);

/// Runs `f` on its own thread and fails the test if it does not finish
/// within [`BOUND`].
fn within_bound<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let value = rx
        .recv_timeout(BOUND)
        .unwrap_or_else(|e| panic!("{what} did not finish within {BOUND:?}: {e}"));
    handle.join().expect("the bounded thread finished cleanly");
    value
}

#[test]
fn table2_opens_each_trace_once_and_simulates_every_geometry() {
    let spec = presets::table2(&ExperimentConfig::paper_reference()).trace_cycles(40_000);

    let sequential = StudySession::new();
    let reference = sequential.run(&spec.clone().threads(1)).unwrap().to_json();
    let stats = sequential.stats();
    assert_eq!(stats.scenarios, 54);
    assert_eq!(stats.trace_opens, 18, "one stream per suite workload");
    assert_eq!(stats.simulations, 54, "three cache sizes per stream");
    assert_eq!(
        stats.sim_memo_hits, 36,
        "the two peer geometries of each group"
    );

    let threaded = StudySession::new();
    assert_eq!(threaded.run(&spec.threads(2)).unwrap().to_json(), reference);
    let stats = threaded.stats();
    assert_eq!(stats.trace_opens, 18);
    assert_eq!(stats.simulations, 54);
}

#[test]
fn one_trace_many_geometries_splits_across_workers() {
    // Six geometries on one trace: a single group would run every
    // simulation on one worker while the other waits, so the groups are
    // capped at ceil(6 pairs / 2 workers) = 3 geometries each.
    let geometry_grid = |threads: usize| {
        StudySpec::new("one-trace")
            .threads(threads)
            .ways([1, 2, 4])
            .replacement(["lru", "mru"])
            .l2_cache_kb([64])
            .workload_names(["dijkstra"])
            .unwrap()
            .trace_cycles(40_000)
    };

    let sequential = StudySession::new();
    let reference = sequential.run(&geometry_grid(1)).unwrap().to_json();
    let stats = sequential.stats();
    assert_eq!(stats.simulations, 6);
    assert_eq!(stats.trace_opens, 1, "one worker, one group");

    let threaded = StudySession::new();
    let report = threaded.run(&geometry_grid(2)).unwrap().to_json();
    assert_eq!(report, reference);
    let stats = threaded.stats();
    assert_eq!(stats.simulations, 6);
    assert_eq!(stats.trace_opens, 2, "two groups of three, one per worker");
}

/// A suite stream that panics once it has handed out `batches`
/// batches.
struct Fuse {
    inner: Box<dyn TraceSource>,
    batches: usize,
}

impl TraceSource for Fuse {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        assert!(self.batches > 0, "the fused source blew");
        self.batches -= 1;
        self.inner.next_batch(buf, max)
    }
}

struct FusedWorkload;

impl Workload for FusedWorkload {
    fn name(&self) -> &str {
        "fused"
    }

    fn open(&self, seed: u64) -> Result<Box<dyn TraceSource>, CoreError> {
        let profile = suite::by_name("sha").unwrap();
        Ok(Box::new(Fuse {
            inner: Box::new(profile.trace(seed)),
            batches: 3,
        }))
    }
}

fn fused_spec(registry: &WorkloadRegistry, workloads: &[&str]) -> StudySpec {
    StudySpec::new("fused")
        .workload_registry(registry.clone())
        .threads(2)
        .cache_kb([8, 16, 32])
        .workload_names(workloads.iter().copied())
        .unwrap()
        .trace_cycles(40_000)
}

#[test]
fn a_panicking_group_fails_its_lowest_scenario_and_releases_its_claims() {
    let mut registry = WorkloadRegistry::builtin();
    registry.register(Arc::new(FusedWorkload)).unwrap();
    let session = Arc::new(StudySession::new());
    let spec = fused_spec(&registry, &["sha", "fused"]);
    let lowest = spec
        .expand()
        .unwrap()
        .scenarios()
        .iter()
        .filter(|s| s.workload == "fused")
        .map(|s| s.id)
        .min()
        .unwrap();
    for attempt in 0..2 {
        let (session, spec) = (Arc::clone(&session), spec.clone());
        let err = within_bound("a run over a panicking group", move || {
            session.run(&spec).unwrap_err()
        });
        let CoreError::ScenarioPanicked { scenario, message } = &err else {
            panic!("attempt {attempt}: expected ScenarioPanicked, got {err:?}");
        };
        assert_eq!(*scenario, lowest, "attempt {attempt}");
        assert!(message.contains("blew"), "{message}");
    }
    // The session stays usable: the healthy workload still runs.
    let healthy = fused_spec(&registry, &["sha"]);
    let runner = Arc::clone(&session);
    let report = within_bound("a healthy run after the failure", move || {
        runner.run(&healthy)
    });
    assert_eq!(report.unwrap().records().len(), 3);
}

#[test]
fn concurrent_overlapping_runs_simulate_each_pair_once() {
    let session = Arc::new(StudySession::new());
    let workloads = ["sha", "CRC32", "dijkstra"];
    let spec = |kb: [u64; 2]| {
        StudySpec::new("overlap")
            .cache_kb(kb)
            .workload_names(workloads)
            .unwrap()
            .trace_cycles(40_000)
            .threads(2)
    };
    let specs = [spec([8, 16]), spec([16, 32])];
    // Both runs start together and share the 16 kB column and every
    // trace, so their groups race for the same memo keys.
    let start = Arc::new(Barrier::new(specs.len()));
    let runs: Vec<_> = specs
        .iter()
        .map(|spec| {
            let (session, spec, start) = (Arc::clone(&session), spec.clone(), Arc::clone(&start));
            let (tx, rx) = mpsc::channel();
            let handle = std::thread::spawn(move || {
                start.wait();
                let _ = tx.send(session.run(&spec).unwrap().to_json());
            });
            (rx, handle)
        })
        .collect();
    let reports: Vec<String> = runs
        .into_iter()
        .map(|(rx, handle)| {
            let report = rx
                .recv_timeout(BOUND)
                .expect("both concurrent runs finish within the bound");
            handle.join().expect("the run's thread finished cleanly");
            report
        })
        .collect();

    let stats = session.stats();
    assert_eq!(
        stats.simulations,
        3 * workloads.len(),
        "three distinct geometries × three traces, each simulated once"
    );
    assert!(stats.trace_opens >= workloads.len() && stats.trace_opens <= stats.simulations);
    for (spec, report) in specs.iter().zip(&reports) {
        let alone = StudySession::new();
        assert_eq!(
            &alone.run(&spec.clone().threads(1)).unwrap().to_json(),
            report
        );
    }
}
