//! Allocation pins for the warm read path: how many times the
//! allocator is asked for memory while a later CLI call reads a
//! finished Table II study back — opening its 54-line journal, replaying
//! the report on a fresh session, and rendering the Markdown summary.
//!
//! A counting global allocator wraps the system allocator and counts,
//! per thread, every `alloc`, `alloc_zeroed` and `realloc`. A warm
//! replay runs every cell on the calling thread, so the calling
//! thread's count is the whole read's. The pins are equalities: a change
//! that adds or removes an allocation per cell moves a pin by 54, and
//! the constant moves with it, on purpose.
//!
//! `cargo test --test alloc_pins`

use nbti_cache_repro::arch::analysis;
use nbti_cache_repro::arch::experiment::ExperimentConfig;
use nbti_cache_repro::arch::model::{ModelContext, DEFAULT_MODEL};
use nbti_cache_repro::arch::presets;
use nbti_cache_repro::arch::render::{self, Format};
use nbti_cache_repro::arch::rescache::JsonlCache;
use nbti_cache_repro::arch::session::StudySession;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

/// Allocator calls to open the journal: four per line (the index key,
/// the two bank vectors and the metrics map) and three for the whole
/// read (the path, the file's bytes and the index).
const OPEN: u64 = 4 * 54 + 3;
/// Allocator calls of a warm `StudySession::run` over the open journal:
/// the spec expansion (one validating pass that composes each model key
/// once, the geometry list, a scenario vector reserved at the grid's
/// size, four names per scenario), and per cell its key and the cache's
/// copy of its measurement (three vectors), plus the per-run
/// bookkeeping.
const WARM_RUN: u64 = 521;
/// Allocator calls of `summary_table` plus the Markdown render: the
/// table's headers, cell buffer and cell ends, and the output.
const SUMMARY_MD: u64 = 32;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell`, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, answering how many allocator calls it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// One warm read of the journal at `path`: the open, the warm run and
/// the Markdown summary, each as its allocator calls.
fn warm_read(ctx: &ModelContext, path: &Path) -> (u64, u64, u64) {
    let spec = presets::table2(&ExperimentConfig::paper_reference().with_trace_cycles(40_000));
    let (open, cache) = allocations(|| JsonlCache::open(path).expect("open journal"));
    let session = StudySession::with_context(ctx.clone()).cache(cache);
    let (run, report) = allocations(|| session.run(&spec).expect("warm run"));
    assert_eq!(session.stats().cache_hits, 54, "every cell replays");
    let (md, text) = allocations(|| {
        let table = analysis::summary_table(&report, &[], None).expect("summary table");
        render::table(&table, Format::Markdown)
    });
    assert_eq!(
        text.lines().count(),
        4 + 54,
        "title, blank, header, rule, rows"
    );
    (open, run, md)
}

#[test]
fn warm_table2_read_allocations_are_pinned() {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("alloc-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = ModelContext::new();
    ctx.calibrated(DEFAULT_MODEL).expect("calibrate");
    let spec = presets::table2(&ExperimentConfig::paper_reference().with_trace_cycles(40_000));
    let cold = StudySession::with_context(ctx.clone())
        .cache(JsonlCache::in_dir(&dir).expect("create journal"));
    cold.run(&spec).expect("cold run");
    let path = dir.join(JsonlCache::FILE_NAME);
    let journal = std::fs::read_to_string(&path).expect("read journal");
    assert_eq!(journal.lines().count(), 54);

    let first = warm_read(&ctx, &path);
    let second = warm_read(&ctx, &path);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(first, second, "a warm read allocates the same every time");
    assert_eq!(
        first,
        (OPEN, WARM_RUN, SUMMARY_MD),
        "(open, warm run, summary md)"
    );
}
