//! How a grid's scenario tasks run, and how a caller watches them:
//! the crate-private task runner behind
//! [`StudySession::run`](crate::session::StudySession::run), plus the
//! public [`ExecObserver`] progress callbacks.
//!
//! The runner is a scoped pool of workers that self-schedule over a
//! shared atomic index: an idle worker claims the next unstarted
//! scenario, so long scenarios never leave the others idle behind a
//! static partition. [`StudySpec::threads`](crate::study::StudySpec::threads)
//! is the one worker cap (default: available parallelism), and
//! `threads(1)` is the reference loop: every task on the calling
//! thread, in index order.
//!
//! An [`ExecObserver`] streams progress — `on_start` once per grid,
//! `on_record` as each scenario completes (cache replays first, on
//! the calling thread, then computed scenarios from whichever worker
//! finished them, so arrival order is *not* scenario order), and
//! `on_finish` with the assembled report and the session's counters.
//!
//! Determinism is unaffected by the worker count: records land in
//! scenario-id slots, so one-thread, many-thread and cache-warm runs
//! emit byte-identical reports (pinned by `tests/exec_cache.rs`).

use crate::session::SessionStats;
use crate::study::{ScenarioRecord, StudyReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How many workers run `count` tasks under the worker cap `threads`
/// (`None` = available parallelism): at least one, at most `count`.
pub(crate) fn workers(threads: Option<usize>, count: usize) -> usize {
    // Read once per process: the query re-reads the cgroup CPU quota
    // files, tens of microseconds per call (more when the kernel's
    // caches have gone cold), which a served write would otherwise pay
    // on every request.
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    let hw = *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    threads.unwrap_or(hw).clamp(1, count.max(1))
}

/// Runs `task(i)` exactly once for every `i` in `0..count` on
/// `workers` threads. One worker runs every task on the calling
/// thread, in index order. `task` stores its own result; the runner
/// never sees scenario outcomes.
pub(crate) fn run_tasks(count: usize, workers: usize, task: &(dyn Fn(usize) + Sync)) {
    if workers <= 1 {
        return (0..count).for_each(task);
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
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        run_tasks(5, 1, &|i| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn threaded_runs_every_index_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_tasks(64, 4, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn one_worker_degenerates_to_sequential() {
        assert_eq!(workers(Some(1), 64), 1);
        assert_eq!(workers(Some(0), 64), 1, "a zero cap still runs");
        assert_eq!(workers(None, 0), 1, "an empty grid still sizes a pool");
    }

    #[test]
    fn the_cap_and_the_task_count_bound_the_workers() {
        assert_eq!(workers(Some(4), 64), 4);
        assert_eq!(workers(Some(4), 2), 2);
        assert!((1..=64).contains(&workers(None, 64)));
    }

    #[test]
    fn empty_grids_are_a_no_op() {
        run_tasks(0, 4, &|_| panic!("no tasks to run"));
        run_tasks(0, 1, &|_| panic!("no tasks to run"));
    }
}
