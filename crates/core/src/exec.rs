//! The open execution layer: [`Executor`] backends behind the grid
//! runner, selected through [`ExecOptions`], with streaming progress
//! via [`ExecObserver`].
//!
//! Before this layer existed, [`ScenarioGrid::run`] was a closed
//! one-shot loop: it spawned its own scoped threads, funnelled every
//! result through one mutex, and its simulation memo died with the
//! call. The execution layer splits that loop into replaceable parts:
//!
//! * an [`Executor`] decides *where* scenario tasks run — in the
//!   calling thread ([`SequentialExecutor`]) or across a
//!   self-scheduling worker pool ([`ThreadedExecutor`]) whose idle
//!   workers steal the next unclaimed scenario from a shared atomic
//!   counter;
//! * [`ExecOptions`] is the declarative knob a caller hands to a
//!   [`StudySession`](crate::session::StudySession): backend choice
//!   plus an optional worker cap;
//! * an [`ExecObserver`] streams progress — `on_start` once per grid,
//!   `on_record` as each scenario completes (cache replays first, on
//!   the calling thread, then computed scenarios from whichever worker
//!   finished them, so arrival order is *not* scenario order), and
//!   `on_finish` with the assembled report and the session's counters.
//!
//! Determinism is unaffected by the backend: records land in
//! scenario-id slots, so sequential, threaded and cache-warm runs emit
//! byte-identical reports (pinned by `tests/exec_cache.rs`).
//!
//! [`ScenarioGrid::run`]: crate::study::ScenarioGrid::run

use crate::session::SessionStats;
use crate::study::{ScenarioRecord, StudyReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Where a task pool runs scenario tasks.
///
/// Every index in `0..count` is executed exactly once; `task` must be
/// safe to call from any thread (it stores its own result — the
/// executor never sees scenario outcomes).
pub trait Executor: Send + Sync {
    /// A short human-readable backend name (for logs and errors).
    fn name(&self) -> &'static str;

    /// Runs `count` independent tasks to completion.
    fn execute(&self, count: usize, task: &(dyn Fn(usize) + Sync));
}

/// Runs every task in the calling thread, in index order.
///
/// The reference backend: the threaded executor is required (and
/// tested) to produce byte-identical reports to this one.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn execute(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..count {
            task(i);
        }
    }
}

/// A scoped pool of workers that self-schedule over a shared atomic
/// index — work stealing in its simplest form: an idle worker claims
/// the next unstarted scenario, so long scenarios never leave the
/// other workers idle behind a static partition.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedExecutor {
    threads: Option<usize>,
}

impl ThreadedExecutor {
    /// A pool sized to available parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool capped at `threads` workers (`1` degenerates to the
    /// sequential loop, in-thread).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
        }
    }

    fn workers(&self, count: usize) -> usize {
        // Read once per process: the query re-reads the cgroup CPU
        // quota files, tens of microseconds per call (more when the
        // kernel's caches have gone cold), which a served write would
        // otherwise pay on every request.
        static HARDWARE: OnceLock<usize> = OnceLock::new();
        let hw = *HARDWARE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
        self.threads.unwrap_or(hw).clamp(1, count.max(1))
    }
}

impl Executor for ThreadedExecutor {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn execute(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        let workers = self.workers(count);
        if workers <= 1 {
            return SequentialExecutor.execute(count, task);
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    task(i);
                });
            }
        });
    }
}

/// Which executor a session builds, plus its worker cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// [`ThreadedExecutor`] — the default.
    #[default]
    Threaded,
    /// [`SequentialExecutor`].
    Sequential,
}

/// Declarative executor selection for a
/// [`StudySession`](crate::session::StudySession).
///
/// The default is the threaded backend at available parallelism —
/// exactly what [`ScenarioGrid::run`](crate::study::ScenarioGrid::run)
/// always did. A [`StudySpec::threads`](crate::study::StudySpec::threads)
/// cap on the spec overrides the option's cap for that grid.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// The backend to build.
    pub backend: ExecBackend,
    /// Worker cap for the threaded backend (`None` = available
    /// parallelism; ignored by the sequential backend).
    pub threads: Option<usize>,
}

impl ExecOptions {
    /// The threaded backend at available parallelism (the default).
    pub fn threaded() -> Self {
        Self::default()
    }

    /// The sequential backend.
    pub fn sequential() -> Self {
        Self {
            backend: ExecBackend::Sequential,
            ..Self::default()
        }
    }

    /// Caps the threaded backend's worker count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// How many of `count` tasks the built executor runs at once.
    pub(crate) fn workers(&self, count: usize) -> usize {
        match self.backend {
            ExecBackend::Sequential => 1,
            ExecBackend::Threaded => ThreadedExecutor {
                threads: self.threads,
            }
            .workers(count),
        }
    }

    /// Builds the configured executor.
    pub fn build(&self) -> Box<dyn Executor> {
        match self.backend {
            ExecBackend::Sequential => Box::new(SequentialExecutor),
            ExecBackend::Threaded => Box::new(ThreadedExecutor {
                threads: self.threads,
            }),
        }
    }
}

/// How a record was obtained, as reported to [`ExecObserver::on_record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOrigin {
    /// Simulated and/or model-evaluated in this run (a session-memo
    /// hit on the simulation still counts as computed — the model
    /// evaluation ran).
    Computed,
    /// Replayed from the session's
    /// [`ResultCache`](crate::rescache::ResultCache): neither the
    /// simulator nor the device model ran.
    Cached,
}

/// Streaming progress callbacks for a grid run.
///
/// Records replayed from the result cache arrive first, on the thread
/// that called `run`, before any scenario is dispatched; computed
/// records follow from worker threads as they complete. `on_record`
/// arrival order is therefore not scenario order (the report itself
/// stays in scenario-id order regardless). Implementations must be
/// cheap and must not panic; `done`/`total` make a progress meter
/// one-line to implement.
pub trait ExecObserver: Send + Sync {
    /// A grid run is starting: `total` scenarios under `name`.
    fn on_start(&self, name: &str, total: usize) {
        let _ = (name, total);
    }

    /// One scenario finished (`done` of `total` complete, counting
    /// this one).
    fn on_record(&self, record: &ScenarioRecord, origin: RecordOrigin, done: usize, total: usize) {
        let _ = (record, origin, done, total);
    }

    /// The run completed; `stats` is the owning session's counter
    /// snapshot (cumulative across the session, not per-run).
    fn on_finish(&self, report: &StudyReport, stats: &SessionStats) {
        let _ = (report, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn sequential_runs_in_order() {
        let seen = Mutex::new(Vec::new());
        SequentialExecutor.execute(5, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn threaded_runs_every_index_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        ThreadedExecutor::with_threads(4).execute(64, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn one_worker_degenerates_to_sequential() {
        let seen = Mutex::new(Vec::new());
        ThreadedExecutor::with_threads(1).execute(4, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn options_build_the_named_backend() {
        assert_eq!(ExecOptions::sequential().build().name(), "sequential");
        assert_eq!(ExecOptions::threaded().build().name(), "threaded");
        assert_eq!(
            ExecOptions::threaded().with_threads(2),
            ExecOptions {
                backend: ExecBackend::Threaded,
                threads: Some(2),
            }
        );
    }

    #[test]
    fn empty_grids_are_a_no_op() {
        ThreadedExecutor::new().execute(0, &|_| panic!("no tasks to run"));
        SequentialExecutor.execute(0, &|_| panic!("no tasks to run"));
    }
}
