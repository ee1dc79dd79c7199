//! The content-addressed scenario result cache: [`Fingerprint`]s,
//! the [`ResultCache`] trait, and its in-memory ([`MemoryCache`]) and
//! on-disk JSONL ([`JsonlCache`]) implementations.
//!
//! A scenario's measured outcome is a pure function of its inputs, so
//! the cache keys on exactly those inputs and nothing else: geometry,
//! seeds, the policy key, the canonical model key, the workload's
//! identity (content hash for file-backed traces), the trace horizon,
//! the stored-bit skew `p0` — and an engine version salt
//! ([`ENGINE_VERSION`]) that invalidates every entry wholesale when
//! the simulator or physics semantics change. Grid *position* (the
//! scenario id, the workload's index on its axis) is deliberately
//! excluded: a widened or reordered study still hits on every point it
//! shares with a previous run.
//!
//! A cache hit replays the full measurement — simulation outputs *and*
//! model metrics — so neither the simulator nor the device model runs.
//! Records rebuilt from hits are byte-identical to computed ones
//! (pinned by `tests/exec_cache.rs`): the JSON codec's
//! shortest-round-trip number formatting makes
//! emit→parse→emit stable.
//!
//! The [`JsonlCache`] persists entries as one self-checking JSON line
//! each, appended atomically (a single `write` to a file opened in
//! append mode), so an interrupted study leaves a valid journal and a
//! second run computes only the missing grid points. Corrupted entries
//! are rejected loudly at open time, naming their fingerprint — a
//! poisoned journal never silently deserializes.
//!
//! **Caveat — custom names are trusted identities.** File-backed
//! workloads are fingerprinted by content hash and the built-in
//! engine by [`ENGINE_VERSION`], but *user-registered* workloads and
//! models enter the fingerprint by registry name alone: redefining
//! what `"my-workload"` or `"my-model"` means while keeping its name
//! will replay stale entries from a persistent cache. Rename on
//! redefinition (or point `--cache-dir` somewhere fresh) when custom
//! code changes.

use crate::error::CoreError;
use crate::json::Json;
use crate::model::Metrics;
use crate::study::{Scenario, ScenarioRecord};
use crate::workload::Workload;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use trace_synth::source::Fnv64;

/// The engine version salt baked into every fingerprint.
///
/// Bump this whenever the meaning of a cached measurement changes —
/// simulator semantics, model physics, seed derivation — and every
/// existing cache entry stops matching, instead of silently replaying
/// stale numbers.
///
/// `engine-v2`: the geometry axis opened (ways / replacement / L2
/// hierarchy joined the fingerprint), so `engine-v1` journals are
/// cleanly stale rather than ambiguous about fields they never named.
pub const ENGINE_VERSION: &str = "engine-v2";

/// The stable identity of a workload for caching purposes, plus
/// whether the trace seed participates in it.
///
/// File-backed workloads are identified by format and content hash —
/// the file may move, the bytes are the anchor — and ignore the seed
/// (the file *is* the stream). Pinned profiles encode their full
/// profile in the name and simulate nothing. Synthetic and
/// user-registered workloads are identified by name and are
/// seed-dependent.
pub(crate) fn workload_identity(workload: &dyn Workload) -> (String, bool) {
    match workload.source_info() {
        Some(info) => (format!("{}:{}", info.format, info.hash), false),
        None if workload.pinned_profile().is_some() => (workload.name().to_string(), false),
        None => (workload.name().to_string(), true),
    }
}

pub(crate) fn digest_hex(bytes: &[u8]) -> String {
    format!("fnv1a64:{:016x}", Fnv64::hash(bytes))
}

/// The content-addressed identity of one scenario measurement.
///
/// Built by [`Fingerprint::for_scenario`] from every input the
/// measurement depends on; the canonical string is the cache key, the
/// digest its compact display handle (used in error messages and the
/// JSONL journal's integrity fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    canonical: String,
}

impl Fingerprint {
    /// Fingerprints a scenario as measured over `workload` (which must
    /// be the workload object the scenario's `workload_index` resolves
    /// to — the grid runner guarantees this pairing).
    pub fn for_scenario(scenario: &Scenario, workload: &dyn Workload) -> Self {
        let (identity, seeded) = workload_identity(workload);
        let mut canonical = String::new();
        let _ = write!(
            canonical,
            "v={ENGINE_VERSION};cache={};line={};banks={};ways={};repl={};l2={};l2ways={};update={};policy={}#{};model={};workload={};seed=",
            scenario.cache_bytes,
            scenario.line_bytes,
            scenario.banks,
            scenario.ways,
            scenario.replacement,
            scenario.l2_cache_bytes,
            scenario.l2_ways,
            scenario.update_days,
            scenario.policy,
            scenario.policy_seed,
            scenario.model,
            identity,
        );
        if seeded {
            let _ = write!(canonical, "{}", scenario.trace_seed);
        } else {
            canonical.push('-');
        }
        let _ = write!(
            canonical,
            ";cycles={};p0={}",
            scenario.trace_cycles,
            workload.p0()
        );
        Self { canonical }
    }

    /// Builds a fingerprint directly from a canonical key string,
    /// bypassing [`Fingerprint::for_scenario`].
    ///
    /// This exists for stress tooling and protocol tests that need
    /// many distinct, cheap identities (the `cache-hammer` binary);
    /// study code always goes through `for_scenario`. Keys that should
    /// survive `study check --journal` must carry the
    /// `v=`[`ENGINE_VERSION`]`;` prefix.
    #[doc(hidden)]
    pub fn from_canonical(canonical: impl Into<String>) -> Self {
        Self {
            canonical: canonical.into(),
        }
    }

    /// The canonical key string (every input, spelled out).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The compact content digest, `fnv1a64:<16 hex>`.
    pub fn digest(&self) -> String {
        digest_hex(self.canonical.as_bytes())
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.digest())
    }
}

/// The cached, position-independent part of a [`ScenarioRecord`]: the
/// measured simulation outputs plus the model's metrics. The scenario
/// itself (grid id, axis indices) is re-attached on a hit via
/// [`CachedMeasurement::into_record`].
#[derive(Debug, Clone, PartialEq)]
pub struct CachedMeasurement {
    /// Cycles actually simulated.
    pub sim_cycles: u64,
    /// Energy saving vs the monolithic always-on cache.
    pub esav: f64,
    /// Cache miss rate on the trace.
    pub miss_rate: f64,
    /// Per-bank useful idleness.
    pub useful_idleness: Vec<f64>,
    /// Per-bank sleep fractions.
    pub sleep_fractions: Vec<f64>,
    /// The model's named outputs, in emission order.
    pub metrics: Metrics,
}

impl CachedMeasurement {
    /// Extracts the cacheable measurement from a computed record.
    pub fn of_record(record: &ScenarioRecord) -> Self {
        Self {
            sim_cycles: record.sim_cycles,
            esav: record.esav,
            miss_rate: record.miss_rate,
            useful_idleness: record.useful_idleness.clone(),
            sleep_fractions: record.sleep_fractions.clone(),
            metrics: record.metrics.clone(),
        }
    }

    /// Re-attaches a (current-grid) scenario, rebuilding the full
    /// record a computed run would have produced.
    pub fn into_record(self, scenario: Scenario) -> ScenarioRecord {
        ScenarioRecord {
            scenario,
            sim_cycles: self.sim_cycles,
            esav: self.esav,
            miss_rate: self.miss_rate,
            useful_idleness: self.useful_idleness,
            sleep_fractions: self.sleep_fractions,
            metrics: self.metrics,
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("sim_cycles", Json::Num(self.sim_cycles as f64)),
            ("esav", Json::Num(self.esav)),
            ("miss_rate", Json::Num(self.miss_rate)),
            ("useful_idleness", Json::nums(&self.useful_idleness)),
            ("sleep_fractions", Json::nums(&self.sleep_fractions)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| (name.to_string(), Json::Num(value)))
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self, CoreError> {
        let nums = |key: &str| -> Result<Vec<f64>, CoreError> {
            v.field(key)?
                .as_arr(key)?
                .iter()
                .map(|item| item.as_num(key).map_err(CoreError::from))
                .collect()
        };
        let Json::Obj(metric_pairs) = v.field("metrics")? else {
            return Err(CoreError::Cache {
                message: "cache entry field `metrics` is not an object".into(),
            });
        };
        let mut metrics = Metrics::new();
        for (name, value) in metric_pairs {
            // The computed path rejects models whose metrics shadow
            // record-level JSON fields; a journal written by foreign
            // tooling must clear the same bar before it replays.
            if ScenarioRecord::RESERVED_FIELDS.contains(&name.as_str()) {
                return Err(CoreError::Cache {
                    message: format!("cached metric `{name}` shadows a record field"),
                });
            }
            metrics.push(name.as_str(), value.as_num(name)?);
        }
        Ok(Self {
            sim_cycles: v.field("sim_cycles")?.as_num("sim_cycles")? as u64,
            esav: v.field("esav")?.as_num("esav")?,
            miss_rate: v.field("miss_rate")?.as_num("miss_rate")?,
            useful_idleness: nums("useful_idleness")?,
            sleep_fractions: nums("sleep_fractions")?,
            metrics,
        })
    }
}

/// A store of finished scenario measurements, keyed by
/// [`Fingerprint`].
///
/// Implementations are shared across worker threads; `lookup` and
/// `store` must be safe to call concurrently. Storing a fingerprint
/// that is already present is a no-op (identical inputs produce
/// identical measurements, so either value is correct).
pub trait ResultCache: Send + Sync {
    /// Looks up a measurement.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] on backend failures.
    fn lookup(&self, fingerprint: &Fingerprint) -> Result<Option<CachedMeasurement>, CoreError>;

    /// Whether a measurement is cached, without side effects: unlike a
    /// decorator's `lookup`, this never claims the fingerprint or waits
    /// on one. The session itself never calls it: a run looks each
    /// scenario up exactly once and plans its trace groups from those
    /// outcomes. The default answers through `lookup`, so it is only
    /// correct for caches whose `lookup` has no side effects: a
    /// decorator whose `lookup` claims, waits or records must override
    /// it (as [`MemoryCache`], [`JsonlCache`] and the serving layer's
    /// coalescing cache do with a direct probe).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] on backend failures.
    fn contains(&self, fingerprint: &Fingerprint) -> Result<bool, CoreError> {
        Ok(self.lookup(fingerprint)?.is_some())
    }

    /// Stores a measurement (no-op if the fingerprint is present).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] on backend failures.
    fn store(
        &self,
        fingerprint: &Fingerprint,
        measurement: &CachedMeasurement,
    ) -> Result<(), CoreError>;

    /// Number of cached measurements.
    fn len(&self) -> usize;

    /// Whether the cache holds no measurements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absorbs entries written by *other* handles onto the same
    /// backing store since this handle last looked, returning how many
    /// new measurements appeared.
    ///
    /// Purely in-memory caches have nothing to absorb; the default is
    /// a no-op. [`JsonlCache`] re-reads the journal's growth so a
    /// long-lived handle — `study serve`'s coverage checks and
    /// `/compare` — sees cells another process (a CLI run on the same
    /// `--cache-dir`) appended since it opened.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] on backend failures.
    fn refresh(&self) -> Result<usize, CoreError> {
        Ok(0)
    }
}

/// A process-lifetime in-memory cache — session-to-session reuse
/// without touching disk.
#[derive(Debug, Default)]
pub struct MemoryCache {
    // aging-lint: allow(no-unordered-iter) lookup-only index keyed by canonical string; never iterated
    entries: Mutex<HashMap<String, CachedMeasurement>>,
}

/// Recovers the guarded state from a poisoned lock: poisoning only
/// means another thread panicked while holding the lock, and every
/// step under these locks leaves the map/file pair valid (an
/// interrupted `store` at worst re-appends an identical line), so
/// recovering beats cascading the panic into every later caller.
pub(crate) fn relock<T>(
    r: std::sync::LockResult<std::sync::MutexGuard<'_, T>>,
) -> std::sync::MutexGuard<'_, T> {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MemoryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ResultCache for MemoryCache {
    fn lookup(&self, fingerprint: &Fingerprint) -> Result<Option<CachedMeasurement>, CoreError> {
        Ok(relock(self.entries.lock())
            .get(fingerprint.canonical())
            .cloned())
    }

    fn contains(&self, fingerprint: &Fingerprint) -> Result<bool, CoreError> {
        Ok(relock(self.entries.lock()).contains_key(fingerprint.canonical()))
    }

    fn store(
        &self,
        fingerprint: &Fingerprint,
        measurement: &CachedMeasurement,
    ) -> Result<(), CoreError> {
        relock(self.entries.lock())
            .entry(fingerprint.canonical().to_string())
            .or_insert_with(|| measurement.clone());
        Ok(())
    }

    fn len(&self) -> usize {
        relock(self.entries.lock()).len()
    }
}

fn cache_err(message: impl Into<String>) -> CoreError {
    CoreError::Cache {
        message: message.into(),
    }
}

struct JsonlInner {
    // aging-lint: allow(no-unordered-iter) lookup-only index keyed by canonical string; never iterated
    index: HashMap<String, CachedMeasurement>,
    file: File,
    /// How many journal bytes are already reflected in `index`.
    /// Everything past this offset was appended by another process (or
    /// is a crashed writer's fragment) and is absorbed on the next
    /// locked access.
    absorbed: u64,
    /// Complete journal lines counted so far — keeps error messages
    /// pointing at absolute line numbers even when entries are
    /// absorbed incrementally.
    lines: usize,
}

/// Holds the OS-level advisory lock on the journal file; unlocks on
/// drop so every early return releases it. The lock serializes
/// append/absorb critical sections *across processes*; the `Mutex`
/// around [`JsonlInner`] already serializes threads within one.
struct JournalLock<'a>(&'a File);

impl<'a> JournalLock<'a> {
    fn acquire(file: &'a File, path: &Path) -> Result<Self, CoreError> {
        file.lock()
            .map_err(|e| cache_err(format!("lock {}: {e}", path.display())))?;
        Ok(Self(file))
    }
}

impl Drop for JournalLock<'_> {
    fn drop(&mut self) {
        let _ = self.0.unlock();
    }
}

/// An on-disk JSONL result cache: one self-checking JSON line per
/// measurement, appended atomically.
///
/// Each line carries the canonical key, the measurement, and two
/// digests — `fp` over the key (the entry's fingerprint) and `check`
/// over the emitted measurement JSON — so truncation or bit-rot is
/// detected at open time and rejected loudly with the entry's
/// fingerprint. Appends are a single `write` to a file opened in
/// append mode, so concurrent writers never interleave and an
/// interrupted run leaves a valid journal of every completed line.
///
/// The journal is safe to share between *processes* — two CLI runs on
/// one `--cache-dir`, or a CLI run next to `study serve`: every append
/// takes an OS-level advisory lock on the file, absorbs lines other
/// writers appended since this handle last looked (deduplicating by
/// fingerprint, so each measurement is journaled exactly once), and
/// only then writes its own line. [`JsonlCache::refresh`]
/// (via [`ResultCache::refresh`]) runs the same absorb step without
/// writing — the server calls it so cells another process journaled
/// become visible without a restart.
pub struct JsonlCache {
    path: PathBuf,
    inner: Mutex<JsonlInner>,
}

impl std::fmt::Debug for JsonlCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlCache")
            .field("path", &self.path)
            .field("entries", &self.len())
            .finish()
    }
}

impl JsonlCache {
    /// The journal file name used by [`JsonlCache::in_dir`].
    pub const FILE_NAME: &'static str = "results.jsonl";

    /// Opens (or creates) the journal at `path`, loading and
    /// verifying every existing entry.
    ///
    /// Every *complete* line (newline-terminated — appends write the
    /// line and its newline in one `write`) must verify, or the open
    /// fails. A trailing fragment with no newline is the signature of
    /// an append cut short (disk full, power loss): it is dropped and
    /// the file truncated back to the last complete entry, so an
    /// interrupted run keeps every measurement it finished.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] when the file cannot be opened or
    /// any complete journaled entry is malformed or fails its
    /// integrity check (the error names the offending line and its
    /// fingerprint).
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| cache_err(format!("open {} for append: {e}", path.display())))?;
        let mut inner = JsonlInner {
            // aging-lint: allow(no-unordered-iter) lookup-only index; never iterated
            index: HashMap::new(),
            file,
            absorbed: 0,
            lines: 0,
        };
        {
            let JsonlInner {
                index,
                file,
                absorbed,
                lines,
            } = &mut inner;
            let lock = JournalLock::acquire(file, &path)?;
            Self::absorb_locked(&path, file, index, absorbed, lines)?;
            drop(lock);
        }
        Ok(Self {
            path,
            inner: Mutex::new(inner),
        })
    }

    /// Reads every complete journal line past `absorbed` into the
    /// index, returning how many distinct new measurements appeared.
    ///
    /// Must be called with the journal lock held: under the lock no
    /// live writer can be mid-append, so a trailing fragment without a
    /// newline can only be the residue of a writer that died mid-write
    /// — it is dropped and the file truncated back to the last
    /// complete entry (the crashed entry recomputes and re-journals
    /// cleanly).
    fn absorb_locked(
        path: &Path,
        file: &File,
        // aging-lint: allow(no-unordered-iter) lookup-only index; never iterated
        index: &mut HashMap<String, CachedMeasurement>,
        absorbed: &mut u64,
        lines: &mut usize,
    ) -> Result<usize, CoreError> {
        let len = file
            .metadata()
            .map_err(|e| cache_err(format!("stat {}: {e}", path.display())))?
            .len();
        if len <= *absorbed {
            return Ok(0);
        }
        let mut reader = File::open(path)
            .map_err(|e| cache_err(format!("open {} to read: {e}", path.display())))?;
        reader
            .seek(SeekFrom::Start(*absorbed))
            .map_err(|e| cache_err(format!("seek {}: {e}", path.display())))?;
        let mut bytes = Vec::with_capacity((len - *absorbed) as usize);
        reader
            .take(len - *absorbed)
            .read_to_end(&mut bytes)
            .map_err(|e| cache_err(format!("read {}: {e}", path.display())))?;
        let text = String::from_utf8(bytes)
            .map_err(|_| cache_err(format!("{}: journal is not valid UTF-8", path.display())))?;
        let mut consumed = 0usize;
        let mut added = 0usize;
        while consumed < text.len() {
            let rest = text.get(consumed..).unwrap_or("");
            let Some(nl) = rest.find('\n') else {
                // No newline: an append died mid-write (we hold the
                // lock, so no live writer can account for it). Drop
                // the fragment.
                file.set_len(*absorbed + consumed as u64)
                    .map_err(|e| cache_err(format!("truncate {}: {e}", path.display())))?;
                break;
            };
            let line = rest.get(..nl).unwrap_or(rest);
            *lines += 1;
            consumed += nl + 1;
            if line.trim().is_empty() {
                continue;
            }
            let (key, measurement) = Self::parse_line(line).map_err(|e| {
                cache_err(format!(
                    "corrupted cache entry at {}:{}: {e}",
                    path.display(),
                    *lines
                ))
            })?;
            if index.insert(key, measurement).is_none() {
                added += 1;
            }
        }
        *absorbed += consumed as u64;
        Ok(added)
    }

    /// Opens (or creates) `dir/`[`JsonlCache::FILE_NAME`], creating
    /// the directory if needed — the `--cache-dir` front door.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cache`] on filesystem failures or a
    /// corrupted journal.
    pub fn in_dir(dir: impl AsRef<Path>) -> Result<Self, CoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| cache_err(format!("create cache dir {}: {e}", dir.display())))?;
        Self::open(dir.join(Self::FILE_NAME))
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn parse_line(line: &str) -> Result<(String, CachedMeasurement), CoreError> {
        let v = Json::parse(line).map_err(|e| cache_err(e.to_string()))?;
        let fp = v.field("fp")?.as_str("fp")?.to_string();
        let check = v.field("check")?.as_str("check")?;
        let key = v.field("key")?.as_str("key")?;
        if digest_hex(key.as_bytes()) != fp {
            return Err(cache_err(format!(
                "entry {fp}: key digest mismatch (the key or the fp field was altered)"
            )));
        }
        let record = v.field("record")?;
        if digest_hex(record.emit().as_bytes()) != check {
            return Err(cache_err(format!(
                "entry {fp}: measurement digest mismatch (the record was altered)"
            )));
        }
        let measurement = CachedMeasurement::from_json(record)
            .map_err(|e| cache_err(format!("entry {fp}: {e}")))?;
        Ok((key.to_string(), measurement))
    }

    fn emit_line(fingerprint: &Fingerprint, measurement: &CachedMeasurement) -> String {
        let record = measurement.to_json();
        let check = digest_hex(record.emit().as_bytes());
        let mut line = Json::obj(vec![
            ("fp", Json::Str(fingerprint.digest())),
            ("check", Json::Str(check)),
            ("key", Json::Str(fingerprint.canonical().to_string())),
            ("record", record),
        ])
        .emit();
        line.push('\n');
        line
    }
}

impl ResultCache for JsonlCache {
    fn lookup(&self, fingerprint: &Fingerprint) -> Result<Option<CachedMeasurement>, CoreError> {
        Ok(relock(self.inner.lock())
            .index
            .get(fingerprint.canonical())
            .cloned())
    }

    fn contains(&self, fingerprint: &Fingerprint) -> Result<bool, CoreError> {
        Ok(relock(self.inner.lock())
            .index
            .contains_key(fingerprint.canonical()))
    }

    fn store(
        &self,
        fingerprint: &Fingerprint,
        measurement: &CachedMeasurement,
    ) -> Result<(), CoreError> {
        let mut inner = relock(self.inner.lock());
        // Fast path: anything in the index is already on disk, so a
        // warm single-process sweep never takes the file lock.
        if inner.index.contains_key(fingerprint.canonical()) {
            return Ok(());
        }
        let JsonlInner {
            index,
            file,
            absorbed,
            lines,
        } = &mut *inner;
        let lock = JournalLock::acquire(file, &self.path)?;
        // Another process may have journaled this fingerprint since we
        // last looked; absorbing its appends under the lock keeps the
        // journal duplicate-free across concurrent writers.
        Self::absorb_locked(&self.path, file, index, absorbed, lines)?;
        if index.contains_key(fingerprint.canonical()) {
            return Ok(());
        }
        let line = Self::emit_line(fingerprint, measurement);
        let mut writer = &*file;
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| cache_err(format!("append {}: {e}", self.path.display())))?;
        drop(lock);
        *absorbed += line.len() as u64;
        *lines += 1;
        index.insert(fingerprint.canonical().to_string(), measurement.clone());
        Ok(())
    }

    fn len(&self) -> usize {
        relock(self.inner.lock()).index.len()
    }

    fn refresh(&self) -> Result<usize, CoreError> {
        let mut inner = relock(self.inner.lock());
        let JsonlInner {
            index,
            file,
            absorbed,
            lines,
        } = &mut *inner;
        let lock = JournalLock::acquire(file, &self.path)?;
        let added = Self::absorb_locked(&self.path, file, index, absorbed, lines)?;
        drop(lock);
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model;
    use crate::workload::WorkloadRegistry;

    fn scenario() -> Scenario {
        Scenario {
            id: 3,
            cache_bytes: 16 * 1024,
            line_bytes: 16,
            banks: 4,
            ways: 1,
            replacement: "lru".into(),
            l2_cache_bytes: 0,
            l2_ways: 1,
            update_days: 1.0,
            policy: "probing".into(),
            workload: "sha".into(),
            workload_index: 1,
            workload_source: None,
            model: model::DEFAULT_MODEL.into(),
            trace_cycles: 40_000,
            trace_seed: 1001,
            policy_seed: 1,
        }
    }

    fn measurement() -> CachedMeasurement {
        CachedMeasurement {
            sim_cycles: 40_000,
            esav: 0.443,
            miss_rate: f64::NAN,
            useful_idleness: vec![0.1, 0.9],
            sleep_fractions: vec![0.08, 0.88],
            metrics: Metrics::from_pairs([("lt0_years", 2.97), ("lt_years", f64::INFINITY)]),
        }
    }

    fn fp() -> Fingerprint {
        let w = WorkloadRegistry::builtin().resolve("sha").unwrap();
        Fingerprint::for_scenario(&scenario(), w.as_ref())
    }

    #[test]
    fn fingerprints_exclude_grid_position() {
        let w = WorkloadRegistry::builtin().resolve("sha").unwrap();
        let a = Fingerprint::for_scenario(&scenario(), w.as_ref());
        let mut moved = scenario();
        moved.id = 99;
        moved.workload_index = 7;
        let b = Fingerprint::for_scenario(&moved, w.as_ref());
        assert_eq!(a, b, "grid position must not change the fingerprint");
        let mut hotter = scenario();
        hotter.model = "nbti:temp=105".into();
        let c = Fingerprint::for_scenario(&hotter, w.as_ref());
        assert_ne!(a, c, "the model key is load-bearing");
        assert!(a.canonical().contains(ENGINE_VERSION));
        assert!(a.digest().starts_with("fnv1a64:"), "{}", a.digest());
    }

    #[test]
    fn file_workload_fingerprints_ignore_the_seed() {
        let trace: Vec<_> = trace_synth::suite::by_name("sha")
            .unwrap()
            .trace(1)
            .take(100)
            .collect();
        let mut text = String::new();
        trace_synth::formats::write_csv(&mut text, &trace);
        let dir = std::env::temp_dir().join("nbti-rescache-seed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, &text).unwrap();
        let w = WorkloadRegistry::builtin()
            .resolve(&format!("csv:{}", path.display()))
            .unwrap();
        let mut a = scenario();
        a.trace_seed = 1;
        let mut b = scenario();
        b.trace_seed = 2;
        assert_eq!(
            Fingerprint::for_scenario(&a, w.as_ref()),
            Fingerprint::for_scenario(&b, w.as_ref()),
            "the file is the stream; the seed is irrelevant"
        );
        // Synthetic workloads are seed-dependent.
        let sha = WorkloadRegistry::builtin().resolve("sha").unwrap();
        assert_ne!(
            Fingerprint::for_scenario(&a, sha.as_ref()),
            Fingerprint::for_scenario(&b, sha.as_ref())
        );
    }

    #[test]
    fn memory_cache_round_trips() {
        let cache = MemoryCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&fp()).unwrap(), None);
        cache.store(&fp(), &measurement()).unwrap();
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup(&fp()).unwrap().expect("stored entry");
        assert_eq!(hit.esav, measurement().esav);
        assert!(hit.miss_rate.is_nan(), "NaN survives the round trip");
        assert_eq!(hit.metrics.get("lt0_years"), Some(2.97));
        // Re-storing is a no-op.
        cache.store(&fp(), &measurement()).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn jsonl_cache_persists_across_opens() {
        let dir = std::env::temp_dir().join(format!("nbti-rescache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = JsonlCache::in_dir(&dir).unwrap();
            cache.store(&fp(), &measurement()).unwrap();
            assert_eq!(cache.len(), 1);
        }
        let cache = JsonlCache::in_dir(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup(&fp()).unwrap().expect("persisted entry");
        assert_eq!(hit.sim_cycles, 40_000);
        assert!(hit.miss_rate.is_nan(), "NaN survives the journal");
        assert_eq!(hit.metrics.get("lt_years"), Some(f64::INFINITY));
        assert_eq!(
            hit.metrics.names().collect::<Vec<_>>(),
            vec!["lt0_years", "lt_years"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_journal_entries_are_rejected_with_their_fingerprint() {
        let dir = std::env::temp_dir().join(format!("nbti-rescache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = JsonlCache::in_dir(&dir).unwrap();
        cache.store(&fp(), &measurement()).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);
        // Flip a measured value inside the journaled record.
        let text = std::fs::read_to_string(&path).unwrap();
        let poisoned = text.replace("\"esav\":0.443", "\"esav\":9.9");
        assert_ne!(text, poisoned, "the corruption must apply");
        std::fs::write(&path, poisoned).unwrap();
        let e = JsonlCache::open(&path).unwrap_err();
        assert!(matches!(e, CoreError::Cache { .. }), "{e:?}");
        let msg = e.to_string();
        assert!(msg.contains(&fp().digest()), "{msg}");
        assert!(msg.contains("digest mismatch"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_append_is_dropped_and_the_journal_repaired() {
        // A trailing fragment with no newline is an append that died
        // mid-write (disk full, power loss): the complete entries
        // before it must survive, the fragment must not.
        let dir = std::env::temp_dir().join(format!("nbti-rescache-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = JsonlCache::in_dir(&dir).unwrap();
        cache.store(&fp(), &measurement()).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut cut = text.clone();
        cut.push_str(&text[..text.len() / 2]); // half a second line, no '\n'
        std::fs::write(&path, &cut).unwrap();

        let repaired = JsonlCache::open(&path).unwrap();
        assert_eq!(repaired.len(), 1, "the complete entry survives");
        assert!(repaired.lookup(&fp()).unwrap().is_some());
        drop(repaired);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "the fragment was truncated away, not left to corrupt appends"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_handles_share_one_journal_without_duplicates() {
        let dir = std::env::temp_dir().join(format!("nbti-rescache-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = JsonlCache::in_dir(&dir).unwrap();
        let b = JsonlCache::in_dir(&dir).unwrap();
        a.store(&fp(), &measurement()).unwrap();
        // b's index predates the append; refresh absorbs it.
        assert_eq!(b.lookup(&fp()).unwrap(), None);
        assert_eq!(b.refresh().unwrap(), 1);
        assert!(b.lookup(&fp()).unwrap().is_some());
        assert_eq!(b.refresh().unwrap(), 0, "absorbing is incremental");
        // A second handle re-storing the fingerprint appends nothing.
        b.store(&fp(), &measurement()).unwrap();
        // And a handle that has not refreshed still deduplicates by
        // absorbing under the append lock before writing.
        let c = JsonlCache::in_dir(&dir).unwrap();
        let mut other = scenario();
        other.trace_seed = 9999;
        let w = WorkloadRegistry::builtin().resolve("sha").unwrap();
        let fp2 = Fingerprint::for_scenario(&other, w.as_ref());
        c.store(&fp2, &measurement()).unwrap();
        c.store(&fp(), &measurement()).unwrap();
        drop((a, b, c));
        let text = std::fs::read_to_string(dir.join(JsonlCache::FILE_NAME)).unwrap();
        assert_eq!(
            text.lines().count(),
            2,
            "one line per distinct fingerprint:\n{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_metrics_shadowing_record_fields_are_rejected() {
        let dir = std::env::temp_dir().join(format!("nbti-rescache-shadow-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = JsonlCache::in_dir(&dir).unwrap();
        let mut shadowed = measurement();
        shadowed.metrics = Metrics::from_pairs([("esav", 1.0)]);
        cache.store(&fp(), &shadowed).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);
        // The entry is internally consistent (digests verify) but its
        // metrics would collide with record fields on emit.
        let e = JsonlCache::open(&path).unwrap_err();
        assert!(matches!(e, CoreError::Cache { .. }), "{e:?}");
        assert!(e.to_string().contains("shadows a record field"), "{e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
