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
//!   calling thread ([`SequentialExecutor`]), across a
//!   self-scheduling worker pool ([`ThreadedExecutor`]) whose idle
//!   workers steal the next unclaimed scenario from a shared atomic
//!   counter, or across worker *processes* coordinated through a
//!   shared cache directory ([`ProcessExecutor`] +
//!   [`crate::distrib`]);
//! * [`ExecOptions`] is the declarative knob a caller hands to a
//!   [`StudySession`](crate::session::StudySession): backend choice
//!   plus an optional worker cap;
//! * an [`ExecObserver`] streams progress — `on_start` once per grid,
//!   `on_record` as each scenario completes (from whichever worker
//!   finished it, so arrival order is *not* scenario order), and
//!   `on_finish` with the assembled report and the session's counters.
//!
//! Determinism is unaffected by the backend: records land in
//! scenario-id slots, so sequential, threaded, multi-process and
//! cache-warm runs emit byte-identical reports (pinned by
//! `tests/exec_cache.rs` — including runs where a worker process is
//! killed mid-sweep, see `tests/worker_crash.rs`).
//!
//! [`ScenarioGrid::run`]: crate::study::ScenarioGrid::run

use crate::session::SessionStats;
use crate::study::{ScenarioRecord, StudyReport};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
        let hw = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
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

/// The finish-line half of the multi-process backend.
///
/// The *distribution* phase of a process-sharded run — writing the
/// grid manifest, spawning `--worker` processes, leasing shards,
/// waiting for the journals to merge — happens inside the session
/// before any executor runs (see [`crate::distrib`]): an `Executor`
/// only ever sees opaque index tasks, which is too late to shard a
/// grid across processes. What remains for this executor is the
/// coordinator's replay pass over the merged journal: every task is
/// expected to be a cache hit (zero recomputation), and any scenario a
/// crashed worker left behind is computed here, in-process. Replay is
/// cheap and leftovers are rare, so it delegates to the threaded pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcessExecutor {
    threads: Option<usize>,
}

impl ProcessExecutor {
    /// A replay pass at available parallelism.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Executor for ProcessExecutor {
    fn name(&self) -> &'static str {
        "process"
    }

    fn execute(&self, count: usize, task: &(dyn Fn(usize) + Sync)) {
        ThreadedExecutor {
            threads: self.threads,
        }
        .execute(count, task);
    }
}

/// How a coordinator re-spawns itself (or a dedicated worker binary)
/// as a `--worker` process.
///
/// `program` is invoked with `args` first, then the protocol flags the
/// coordinator appends (`--worker <cache-dir> --coord <dir> --id <id>
/// --lease <a>..<b> --ttl-ms <n> --poll-ms <n>`), then any per-worker
/// extras from [`ProcessOptions::worker_extra_args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCommand {
    /// The executable to spawn.
    pub program: PathBuf,
    /// Arguments placed before the protocol flags (e.g. a subcommand).
    pub args: Vec<String>,
}

impl WorkerCommand {
    /// A worker command line.
    pub fn new(program: impl Into<PathBuf>, args: impl IntoIterator<Item = String>) -> Self {
        Self {
            program: program.into(),
            args: args.into_iter().collect(),
        }
    }
}

/// Configuration of a process-sharded run: the shared cache directory
/// the workers coordinate through, how many to spawn, and the lease
/// protocol's timing knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessOptions {
    /// The shared cache directory — the [`JsonlCache`] journal all
    /// workers append to, and the home of the run's coordination
    /// state (`coord-<digest>/`).
    ///
    /// [`JsonlCache`]: crate::rescache::JsonlCache
    pub dir: PathBuf,
    /// Worker processes to spawn.
    pub workers: usize,
    /// How to spawn one.
    pub command: WorkerCommand,
    /// Lease staleness threshold: a lease whose heartbeat (file
    /// mtime) is older than this is considered abandoned and may be
    /// stolen. Default 10 000 ms.
    pub lease_ttl_ms: u64,
    /// How long an idle worker sleeps before re-scanning for claimable
    /// shards. Default 250 ms.
    pub poll_ms: u64,
    /// Shard granularity: the grid is split into
    /// `workers × shards_per_worker` shards (clamped to the scenario
    /// count), finer than one-per-worker so a stolen crashed share
    /// redistributes in pieces. Default 4.
    pub shards_per_worker: usize,
    /// Extra argv appended to worker `i`'s command line — the fault
    /// injection hook the crash tests use (e.g. `--die-after 2`).
    pub worker_extra_args: Vec<Vec<String>>,
    /// Grids smaller than this run on the threaded backend instead of
    /// sharding across processes (with an
    /// [`ExecObserver::on_notice`]): process spawn + lease-poll
    /// overhead dominates small sweeps — the 54-scenario reference
    /// grid is ~2× *slower* sharded than sequential. `0` disables the
    /// fallback (the crash drills pin it off to test real process
    /// execution on small grids). Default 128.
    pub fallback_threshold: usize,
}

impl ProcessOptions {
    /// Options with default protocol timing.
    pub fn new(dir: impl Into<PathBuf>, workers: usize, command: WorkerCommand) -> Self {
        Self {
            dir: dir.into(),
            workers,
            command,
            lease_ttl_ms: 10_000,
            poll_ms: 250,
            shards_per_worker: 4,
            worker_extra_args: Vec::new(),
            fallback_threshold: 128,
        }
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
    /// [`ProcessExecutor`]: the grid is sharded across worker
    /// *processes* coordinated through a shared cache directory, then
    /// replayed in-process from the merged journal. Requires
    /// [`ExecOptions::process`] configuration and a session with an
    /// on-disk result cache over the same directory.
    Process,
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
    /// Process-sharding configuration; required by (and only read by)
    /// [`ExecBackend::Process`]. Behind an `Arc` so cloning the
    /// options stays cheap.
    pub process: Option<Arc<ProcessOptions>>,
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

    /// The multi-process backend: shard the grid across
    /// `options.workers` worker processes coordinated through
    /// `options.dir`, then replay the merged journal.
    pub fn process(options: ProcessOptions) -> Self {
        Self {
            backend: ExecBackend::Process,
            threads: None,
            process: Some(Arc::new(options)),
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
            ExecBackend::Threaded | ExecBackend::Process => ThreadedExecutor {
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
            ExecBackend::Process => Box::new(ProcessExecutor {
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
/// Callbacks fire from worker threads as scenarios complete, so
/// `on_record` arrival order is not scenario order (the report itself
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

    /// A worker *process* of a distributed run exited and reported its
    /// counters: scenarios it computed and scenarios it replayed from
    /// the shared journal. Fires once per surviving worker, after the
    /// workers finish and before the coordinator's replay pass (a
    /// worker that crashed reports nothing — its finished work is
    /// still in the journal).
    fn on_worker(&self, worker: &str, computed: usize, cached: usize) {
        let _ = (worker, computed, cached);
    }

    /// The session changed how it will execute and the user should
    /// know why — e.g. a small grid fell back from the process backend
    /// to the threaded one ([`ProcessOptions::fallback_threshold`]).
    /// Never fires on the result path: a notice changes *where* work
    /// runs, not what it produces.
    fn on_notice(&self, message: &str) {
        let _ = message;
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
        let process = ExecOptions::process(ProcessOptions::new(
            "/tmp/grid",
            2,
            WorkerCommand::new("study", ["--quiet".to_string()]),
        ));
        assert_eq!(process.build().name(), "process");
        assert_eq!(process.process.as_ref().unwrap().workers, 2);
        assert_eq!(
            ExecOptions::threaded().with_threads(2),
            ExecOptions {
                backend: ExecBackend::Threaded,
                threads: Some(2),
                process: None,
            }
        );
    }

    #[test]
    fn empty_grids_are_a_no_op() {
        ThreadedExecutor::new().execute(0, &|_| panic!("no tasks to run"));
        SequentialExecutor.execute(0, &|_| panic!("no tasks to run"));
    }
}
