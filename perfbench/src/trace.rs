//! The traced run's instrumentation, installed only through public
//! extension points:
//!
//! * [`traced_registry`] — a `WorkloadRegistry::empty()` filled with
//!   same-named wrappers around the suite workloads, so names,
//!   identities and fingerprints are unchanged. Each opened stream is a
//!   `sim` span (open to drop) whose children are the `traces.open`
//!   and `traces.next_batch` calls;
//! * [`TracedCache`] — a `ResultCache` wrapper timing `lookup` and
//!   `store`.
//!
//! Spans are kept in memory and written as JSONL when the run ends. A
//! layer's self time is its span minus the time its children cover.

use aging_cache::error::CoreError;
use aging_cache::rescache::{CachedMeasurement, Fingerprint, ResultCache};
use aging_cache::workload::{Workload, WorkloadRegistry, WorkloadSourceInfo};
use cache_sim::Access;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use trace_synth::{TraceError, TraceSource};

/// Span names.
pub const STUDY: &str = "study";
/// A stream's life inside the simulate call, open to drop.
pub const SIM: &str = "sim";
/// `Workload::open`.
pub const TRACES_OPEN: &str = "traces.open";
/// `TraceSource::next_batch`.
pub const TRACES_BATCH: &str = "traces.next_batch";
/// `ResultCache::lookup`.
pub const LOOKUP: &str = "rescache.lookup";
/// `ResultCache::store`.
pub const STORE: &str = "rescache.store";

/// Spans kept in memory; later spans are dropped (their counters still
/// count), which bounds memory and the span file on long served runs.
pub const MAX_SPANS: usize = 100_000;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small per-thread id for span records.
fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed (one of the span-name constants).
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The recording thread.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store plus the counters recorded at the same
/// boundaries.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    /// The open `study` span that worker-side spans attach to
    /// (`usize::MAX` for none).
    root: AtomicUsize,
    /// When false the wrappers pass straight through.
    disabled: AtomicBool,
    opens: AtomicUsize,
    accesses: AtomicU64,
    distinct: Mutex<BTreeSet<(String, u64)>>,
    hits: AtomicUsize,
    stores: AtomicUsize,
    dropped: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("tracer lock poisoned")
}

/// Counters read back per operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Streams opened.
    pub opens: usize,
    /// Distinct (workload, seed) streams among them.
    pub distinct: usize,
    /// Accesses delivered by `next_batch`.
    pub accesses: u64,
    /// Result-cache lookups that hit.
    pub hits: usize,
    /// Result-cache stores.
    pub stores: usize,
}

impl Tracer {
    /// A fresh, enabled tracer.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            root: AtomicUsize::new(usize::MAX),
            ..Tracer::default()
        })
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.disabled.store(!on, Ordering::SeqCst);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        !self.disabled.load(Ordering::Relaxed)
    }

    /// Keeps `span` unless the store is full; returns its index (or
    /// `None` when dropped).
    fn push(&self, span: Span) -> Option<usize> {
        let mut spans = lock(&self.spans);
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            return None;
        }
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        self.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            thread: thread_id(),
        })
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<usize>) {
        let end = now_ns();
        let mut spans = lock(&self.spans);
        if let Some(span) = id.and_then(|id| spans.get_mut(id)) {
            span.end_ns = end;
        }
    }

    /// Records a finished span.
    pub fn record(&self, name: &'static str, parent: Option<usize>, start_ns: u64) {
        self.push(Span {
            name,
            start_ns,
            end_ns: now_ns(),
            parent,
            thread: thread_id(),
        });
    }

    /// Opens the `study` span that worker-side spans attach to, and
    /// resets the per-operation counters.
    pub fn begin_study(&self) -> Option<usize> {
        self.take_counts();
        let id = self.begin(STUDY, None);
        self.root.store(id.unwrap_or(usize::MAX), Ordering::SeqCst);
        id
    }

    /// Closes the current `study` span.
    pub fn end_study(&self, id: Option<usize>) {
        self.end(id);
        self.root.store(usize::MAX, Ordering::SeqCst);
    }

    fn root(&self) -> Option<usize> {
        Some(self.root.load(Ordering::SeqCst)).filter(|&r| r != usize::MAX)
    }

    /// Reads and resets the counters.
    pub fn take_counts(&self) -> Counts {
        Counts {
            opens: self.opens.swap(0, Ordering::SeqCst),
            distinct: std::mem::take(&mut *lock(&self.distinct)).len(),
            accesses: self.accesses.swap(0, Ordering::SeqCst),
            hits: self.hits.swap(0, Ordering::SeqCst),
            stores: self.stores.swap(0, Ordering::SeqCst),
        }
    }

    /// How many spans were dropped because the store was full.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::SeqCst)
    }

    /// How many spans are recorded so far: a cursor for
    /// [`Tracer::since`].
    pub fn cursor(&self) -> usize {
        lock(&self.spans).len()
    }

    /// The spans recorded since cursor `from`.
    pub fn since(&self, from: usize) -> Vec<Span> {
        lock(&self.spans).get(from..).unwrap_or_default().to_vec()
    }

    /// Writes every span as one JSON line (`name`, `start_ns`, `end_ns`,
    /// `parent`, `thread`).
    ///
    /// # Errors
    ///
    /// Returns the I/O error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in lock(&self.spans).iter() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"thread\":{}}}",
                span.name, span.start_ns, span.end_ns, span.thread
            )?;
        }
        out.flush()
    }
}

/// Busy time per layer within one operation, from its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `traces.open` + `traces.next_batch` time.
    pub traces_ns: u64,
    /// `sim` self time: stream spans minus their trace children.
    pub sim_ns: u64,
    /// `rescache.lookup` + `rescache.store` time.
    pub rescache_ns: u64,
    /// Wall time of the operation that no layer span covers.
    pub uncovered_ns: u64,
    /// Sum of self times over every layer span.
    pub busy_ns: u64,
}

impl LayerTimes {
    /// Attributes the spans of one operation (`root` is its `study`
    /// span, `spans` everything recorded during it).
    pub fn of(root: &Span, spans: &[Span]) -> LayerTimes {
        let mut t = LayerTimes::default();
        let mut intervals = Vec::new();
        for span in spans {
            let d = span.duration_ns();
            match span.name {
                TRACES_OPEN | TRACES_BATCH => t.traces_ns += d,
                SIM => {
                    t.sim_ns += d;
                    intervals.push((span.start_ns, span.end_ns));
                }
                LOOKUP | STORE => {
                    t.rescache_ns += d;
                    intervals.push((span.start_ns, span.end_ns));
                }
                _ => {}
            }
        }
        // Trace spans nest inside their stream's `sim` span.
        t.sim_ns = t.sim_ns.saturating_sub(t.traces_ns);
        t.busy_ns = t.traces_ns + t.sim_ns + t.rescache_ns;
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = root.start_ns;
        for (start, end) in intervals {
            let (start, end) = (start.max(cursor), end.min(root.end_ns));
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        t.uncovered_ns = root.duration_ns().saturating_sub(covered);
        t
    }
}

/// A same-named wrapper around a workload: every method delegates, and
/// `open` returns a [`TracedSource`].
struct TracedWorkload {
    inner: Arc<dyn Workload>,
    tracer: Arc<Tracer>,
}

impl Workload for TracedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn description(&self) -> &str {
        self.inner.description()
    }

    fn p0(&self) -> f64 {
        self.inner.p0()
    }

    fn source_info(&self) -> Option<WorkloadSourceInfo> {
        self.inner.source_info()
    }

    fn pinned_profile(&self) -> Option<&[f64]> {
        self.inner.pinned_profile()
    }

    fn open(&self, seed: u64) -> Result<Box<dyn TraceSource>, CoreError> {
        let tracer = Arc::clone(&self.tracer);
        let span = tracer.begin(SIM, tracer.root());
        let start = now_ns();
        let inner = self.inner.open(seed)?;
        tracer.record(TRACES_OPEN, span, start);
        tracer.opens.fetch_add(1, Ordering::SeqCst);
        lock(&tracer.distinct).insert((self.inner.name().to_string(), seed));
        Ok(Box::new(TracedSource {
            inner,
            tracer,
            span,
        }))
    }
}

/// A stream whose batches are timed; dropping it closes its `sim` span.
struct TracedSource {
    inner: Box<dyn TraceSource>,
    tracer: Arc<Tracer>,
    span: Option<usize>,
}

impl TraceSource for TracedSource {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        let start = now_ns();
        let n = self.inner.next_batch(buf, max)?;
        self.tracer.record(TRACES_BATCH, self.span, start);
        self.tracer.accesses.fetch_add(n as u64, Ordering::SeqCst);
        Ok(n)
    }
}

impl Drop for TracedSource {
    fn drop(&mut self) {
        self.tracer.end(self.span);
    }
}

/// The built-in suite, each workload wrapped under its own name.
///
/// # Panics
///
/// Never: the wrapped names are the (unique) built-in names.
pub fn traced_registry(tracer: &Arc<Tracer>) -> WorkloadRegistry {
    let mut registry = WorkloadRegistry::empty();
    for (_, workload) in WorkloadRegistry::builtin().iter() {
        registry
            .register(Arc::new(TracedWorkload {
                inner: Arc::clone(workload),
                tracer: Arc::clone(tracer),
            }))
            .expect("built-in workload names are unique");
    }
    registry
}

/// A [`ResultCache`] wrapper timing `lookup` and `store`.
pub struct TracedCache<C> {
    inner: C,
    tracer: Arc<Tracer>,
}

impl<C> TracedCache<C> {
    /// Wraps `inner`.
    pub fn new(inner: C, tracer: &Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<C: ResultCache> ResultCache for TracedCache<C> {
    fn lookup(&self, fingerprint: &Fingerprint) -> Result<Option<CachedMeasurement>, CoreError> {
        if !self.tracer.is_enabled() {
            return self.inner.lookup(fingerprint);
        }
        let start = now_ns();
        let hit = self.inner.lookup(fingerprint)?;
        self.tracer.record(LOOKUP, self.tracer.root(), start);
        if hit.is_some() {
            self.tracer.hits.fetch_add(1, Ordering::SeqCst);
        }
        Ok(hit)
    }

    fn store(
        &self,
        fingerprint: &Fingerprint,
        measurement: &CachedMeasurement,
    ) -> Result<(), CoreError> {
        if !self.tracer.is_enabled() {
            return self.inner.store(fingerprint, measurement);
        }
        let start = now_ns();
        self.inner.store(fingerprint, measurement)?;
        self.tracer.record(STORE, self.tracer.root(), start);
        self.tracer.stores.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn refresh(&self) -> Result<usize, CoreError> {
        self.inner.refresh()
    }
}
