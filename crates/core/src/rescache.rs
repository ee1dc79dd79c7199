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
use crate::json::{Json, JsonError};
use crate::model::Metrics;
use crate::study::{Scenario, ScenarioGrid, ScenarioRecord};
use crate::workload::Workload;
use std::borrow::Cow;
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
    /// to — the grid runner guarantees this pairing). The grid runner
    /// builds the same keys a grid at a time, through the same
    /// builder.
    pub fn for_scenario(scenario: &Scenario, workload: &dyn Workload) -> Self {
        WorkloadKey::of(workload).fingerprint(scenario, &scenario.update_days.to_string())
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

/// The parts of a canonical key that depend on the workload alone —
/// its identity, whether the trace seed joins the key, and `p0` —
/// formatted once, however many cells share the workload.
struct WorkloadKey {
    identity: String,
    seeded: bool,
    p0: String,
}

impl WorkloadKey {
    fn of(workload: &dyn Workload) -> Self {
        let (identity, seeded) = workload_identity(workload);
        Self {
            identity,
            seeded,
            p0: workload.p0().to_string(),
        }
    }

    /// The key of `scenario` over this workload, `update` being its
    /// formatted `update_days`. The one place the key layout is
    /// spelled; the buffer is sized up front so it never regrows.
    fn fingerprint(&self, s: &Scenario, update: &str) -> Fingerprint {
        // The literal text (under 120 bytes) plus nine integers of at
        // most 20 digits each.
        let capacity = 120
            + 9 * 20
            + s.replacement.len()
            + update.len()
            + s.policy.len()
            + s.model.len()
            + self.identity.len()
            + self.p0.len();
        let mut canonical = String::with_capacity(capacity);
        let _ = write!(
            canonical,
            "v={ENGINE_VERSION};cache={};line={};banks={};ways={};repl={};l2={};l2ways={};update={update};policy={}#{};model={};workload={};seed=",
            s.cache_bytes,
            s.line_bytes,
            s.banks,
            s.ways,
            s.replacement,
            s.l2_cache_bytes,
            s.l2_ways,
            s.policy,
            s.policy_seed,
            s.model,
            self.identity,
        );
        if self.seeded {
            let _ = write!(canonical, "{}", s.trace_seed);
        } else {
            canonical.push('-');
        }
        let _ = write!(canonical, ";cycles={};p0={}", s.trace_cycles, self.p0);
        Fingerprint { canonical }
    }
}

/// Every scenario's fingerprint, in grid order — the keys
/// [`Fingerprint::for_scenario`] gives, with each workload's parts and
/// each distinct `update_days` formatted once per grid rather than
/// once per cell.
///
/// # Errors
///
/// Returns [`CoreError::Report`] if a scenario's `workload_index` is
/// outside the grid's workload axis.
pub(crate) fn grid_fingerprints(grid: &ScenarioGrid) -> Result<Vec<Fingerprint>, CoreError> {
    let workloads: Vec<WorkloadKey> = grid
        .workloads
        .iter()
        .map(|w| WorkloadKey::of(w.as_ref()))
        .collect();
    // Grids sweep few `update_days` values; a scan beats hashing.
    let mut updates: Vec<(u64, String)> = Vec::new();
    let mut out = Vec::with_capacity(grid.len());
    for s in grid.scenarios() {
        let workload = workloads
            .get(s.workload_index)
            .ok_or_else(|| CoreError::Report {
                message: format!(
                    "scenario {} references workload index {} out of range",
                    s.id, s.workload_index
                ),
            })?;
        let bits = s.update_days.to_bits();
        if !updates.iter().any(|(b, _)| *b == bits) {
            updates.push((bits, s.update_days.to_string()));
        }
        let update = updates.iter().find(|(b, _)| *b == bits);
        out.push(workload.fingerprint(s, update.map_or("", |(_, text)| text)));
    }
    Ok(out)
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
        let mut pairs = Vec::with_capacity(metric_pairs.len());
        for (name, value) in metric_pairs {
            // The computed path rejects models whose metrics shadow
            // record-level JSON fields; a journal written by foreign
            // tooling must clear the same bar before it replays.
            if ScenarioRecord::RESERVED_FIELDS.contains(&name.as_str()) {
                return Err(CoreError::Cache {
                    message: format!("cached metric `{name}` shadows a record field"),
                });
            }
            pairs.push((name.as_str(), value.as_num(name)?));
        }
        let metrics = Metrics::from_pairs(pairs);
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

/// Recovers the guard (or a condvar wait's result) from a poisoned lock.
/// Poisoning only means another thread panicked while holding the lock,
/// and every lock in this crate guards state valid at every step (an
/// interrupted `store` at worst re-appends an identical line; a
/// panicking calibration inserts nothing), so recovering beats
/// cascading the panic into every later caller.
pub(crate) fn relock<G>(r: std::sync::LockResult<G>) -> G {
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

/// One journal line, read by [`read_journal_line`]: the entry's
/// handle and key, whether they agree, and its measurement or why the
/// record fails.
pub(crate) struct JournalLine<'a> {
    /// The `fp` field, as written.
    pub(crate) fp: Cow<'a, str>,
    /// The canonical key.
    pub(crate) key: Cow<'a, str>,
    /// Whether `fp` is the digest of `key`.
    pub(crate) key_ok: bool,
    /// The measurement, or why the record does not yield one.
    pub(crate) record: Result<CachedMeasurement, RecordFault>,
}

/// Why a journal line's record yields no measurement.
pub(crate) enum RecordFault {
    /// The line has no `record` field.
    Missing(JsonError),
    /// `check` is not the digest of the record's canonical bytes.
    Digest,
    /// The record verifies but is not a measurement.
    Invalid(CoreError),
}

/// Reads one journal line, the one integrity rule for
/// [`JsonlCache`] and `study check --journal`.
///
/// The rule: the line parses as JSON with string `fp`, `check` and
/// `key` fields; `fp` is the digest of `key`; `check` is the digest of
/// the `record` field as [`Json::emit`] writes it; and the record
/// decodes as a [`CachedMeasurement`]. A line in the writer's own
/// layout is decoded in one pass, straight from its bytes; any other
/// line (inserted whitespace, reordered fields, a `0.50`) takes the
/// tree route, which applies the same rule literally. `Err` is a line
/// that does not parse or lacks a string `fp`, `check` or `key`.
pub(crate) fn read_journal_line(line: &str) -> Result<JournalLine<'_>, JsonError> {
    match read_canonical(line) {
        Some(entry) => Ok(entry),
        None => read_tree(line),
    }
}

/// The tree route: parse the line, then check its record's re-emitted
/// bytes.
fn read_tree(line: &str) -> Result<JournalLine<'static>, JsonError> {
    let v = Json::parse(line)?;
    let fp = v.field("fp")?.as_str("fp")?.to_string();
    let check = v.field("check")?.as_str("check")?;
    let key = v.field("key")?.as_str("key")?.to_string();
    let record = match v.field("record") {
        Err(e) => Err(RecordFault::Missing(e)),
        Ok(record) if !digest_is(record.emit().as_bytes(), check) => Err(RecordFault::Digest),
        Ok(record) => CachedMeasurement::from_json(record).map_err(RecordFault::Invalid),
    };
    Ok(JournalLine {
        key_ok: digest_is(key.as_bytes(), &fp),
        fp: Cow::Owned(fp),
        key: Cow::Owned(key),
        record,
    })
}

/// The single pass: decodes a line laid out exactly as
/// [`JsonlCache::emit_line`] writes it, or answers `None` at the first
/// byte that is not (or when a check fails), leaving the verdict to
/// [`read_tree`]. Every byte of the record it accepts is one the tree
/// route's [`Json::emit`] would write back, so hashing the record's
/// bytes as they stand is hashing its re-emission.
fn read_canonical(line: &str) -> Option<JournalLine<'_>> {
    let mut c = Canonical {
        text: line,
        pos: 0,
        scratch: String::new(),
    };
    c.lit("{\"fp\":")?;
    let fp = c.string()?;
    c.lit(",\"check\":")?;
    let check = c.string()?;
    c.lit(",\"key\":")?;
    let key = c.string()?;
    if !digest_is(key.as_bytes(), &fp) {
        return None;
    }
    c.lit(",\"record\":")?;
    let start = c.pos;
    c.lit("{\"sim_cycles\":")?;
    let sim_cycles = c.num()? as u64;
    c.lit(",\"esav\":")?;
    let esav = c.num()?;
    c.lit(",\"miss_rate\":")?;
    let miss_rate = c.num()?;
    c.lit(",\"useful_idleness\":")?;
    let useful_idleness = c.nums()?;
    c.lit(",\"sleep_fractions\":")?;
    let sleep_fractions = c.nums()?;
    c.lit(",\"metrics\":{")?;
    let mut pairs = Vec::new();
    if c.lit("}").is_none() {
        loop {
            let name = c.string()?;
            if ScenarioRecord::RESERVED_FIELDS.contains(&name.as_ref()) {
                return None;
            }
            c.lit(":")?;
            pairs.push((name, c.num()?));
            if c.lit(",").is_none() {
                c.lit("}")?;
                break;
            }
        }
    }
    c.lit("}")?;
    let record = line.get(start..c.pos)?;
    c.lit("}")?;
    if c.pos != line.len() || !digest_is(record.as_bytes(), &check) {
        return None;
    }
    Some(JournalLine {
        fp,
        key,
        key_ok: true,
        record: Ok(CachedMeasurement {
            sim_cycles,
            esav,
            miss_rate,
            useful_idleness,
            sleep_fractions,
            metrics: Metrics::from_pairs(pairs),
        }),
    })
}

/// Whether `expected` is [`digest_hex`]`(bytes)`, without formatting
/// the digest.
fn digest_is(bytes: &[u8], expected: &str) -> bool {
    let Some(hex) = expected.strip_prefix("fnv1a64:") else {
        return false;
    };
    let hash = Fnv64::hash(bytes);
    hex.len() == 16
        && hex.bytes().enumerate().all(|(i, digit)| {
            let nibble = (hash >> (60 - 4 * i)) & 0xf;
            b"0123456789abcdef".get(nibble as usize) == Some(&digit)
        })
}

/// Whether `text`, which parses to the finite `value`, is exactly what
/// `Display` writes for `value`: its shortest round-trip digits, laid
/// out plainly. Decided without formatting for a plain decimal (no
/// exponent, no `+`, no leading or trailing zero) of at most 15
/// significant digits whose value is normal: two distinct such decimals
/// never round to the same double (15 is `f64::DIGITS`), so no other
/// decimal as short round-trips to `value`, and `text` is its shortest
/// form. Any other `text` is compared with `Display`'s output in
/// `scratch`.
fn is_display_of(text: &str, value: f64, scratch: &mut String) -> bool {
    let body = text.strip_prefix('-').unwrap_or(text);
    let (int, frac) = match body.split_once('.') {
        Some((int, frac)) => (int, Some(frac)),
        None => (body, None),
    };
    let plain = !int.is_empty()
        && int.bytes().all(|b| b.is_ascii_digit())
        && (int == "0" || !int.starts_with('0'))
        && frac.is_none_or(|f| {
            !f.is_empty() && f.bytes().all(|b| b.is_ascii_digit()) && !f.ends_with('0')
        });
    if plain && value == 0.0 {
        return int == "0" && frac.is_none();
    }
    let significant = match frac {
        Some(frac) if int == "0" => frac.trim_start_matches('0').len(),
        Some(frac) => int.len() + frac.len(),
        None => int.trim_end_matches('0').len(),
    };
    if plain && value.is_normal() && significant <= f64::DIGITS as usize {
        return true;
    }
    scratch.clear();
    let _ = write!(scratch, "{value}");
    scratch == text
}

/// A cursor that moves only over canonical bytes: each reader consumes
/// what the emitter would write for the value it returns, or answers
/// `None` and leaves the line to the tree route.
struct Canonical<'a> {
    text: &'a str,
    pos: usize,
    /// Reused to re-format each number.
    scratch: String,
}

impl<'a> Canonical<'a> {
    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or(&[])
    }

    /// Consumes `lit` exactly.
    fn lit(&mut self, lit: &str) -> Option<()> {
        if self.rest().starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    /// A string as `emit_string` writes it: raw characters from U+0020
    /// up, except `"` and `\`, which are escaped, as are control
    /// characters (`\n`, `\r`, `\t`, else `\u00xx` in lowercase hex).
    /// Borrowed unless it holds an escape.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        self.lit("\"")?;
        let start = self.pos;
        let run = self.raw_run();
        if self.lit("\"").is_some() {
            return self.text.get(start..start + run).map(Cow::Borrowed);
        }
        let mut out = self.text.get(start..start + run)?.to_string();
        loop {
            if self.lit("\"").is_some() {
                return Some(Cow::Owned(out));
            }
            self.lit("\\")?;
            let escape = match *self.rest().first()? {
                b'"' => '"',
                b'\\' => '\\',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let code = self.rest().get(1..5)?.iter().try_fold(0u32, |code, &d| {
                        let nibble = match d {
                            b'0'..=b'9' => d - b'0',
                            b'a'..=b'f' => d - b'a' + 10,
                            _ => return None,
                        };
                        Some(code * 16 + u32::from(nibble))
                    })?;
                    if code >= 0x20 || matches!(code, 0x09 | 0x0a | 0x0d) {
                        return None;
                    }
                    self.pos += 4;
                    char::from_u32(code)?
                }
                _ => return None,
            };
            self.pos += 1;
            out.push(escape);
            let start = self.pos;
            let run = self.raw_run();
            out.push_str(self.text.get(start..start + run)?);
        }
    }

    /// Skips the longest run of bytes a string holds unescaped,
    /// returning its length.
    fn raw_run(&mut self) -> usize {
        let rest = self.rest();
        let run = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        self.pos += run;
        run
    }

    /// A number as `Json::Num(v).emit()` writes it: the shortest
    /// round-trip decimal of a finite value, or a tagged `"NaN"`,
    /// `"+Inf"` or `"-Inf"`. The token spans what `Json::parse` would
    /// read as one number, and must re-format to itself.
    fn num(&mut self) -> Option<f64> {
        for (tag, value) in [
            ("\"NaN\"", f64::NAN),
            ("\"+Inf\"", f64::INFINITY),
            ("\"-Inf\"", f64::NEG_INFINITY),
        ] {
            if self.lit(tag).is_some() {
                return Some(value);
            }
        }
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(rest.len());
        let text = self.text.get(self.pos..self.pos + len)?;
        let value: f64 = text.parse().ok()?;
        if !value.is_finite() || !is_display_of(text, value, &mut self.scratch) {
            return None;
        }
        self.pos += len;
        Some(value)
    }

    /// An array of [`Canonical::num`]s.
    fn nums(&mut self) -> Option<Vec<f64>> {
        self.lit("[")?;
        let mut out = Vec::new();
        if self.lit("]").is_some() {
            return Some(out);
        }
        loop {
            out.push(self.num()?);
            if self.lit(",").is_none() {
                self.lit("]")?;
                return Some(out);
            }
        }
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
/// become visible without a restart. It stats the file first and
/// takes the lock only when the journal grew.
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
        let len = Self::journal_len(path, file)?;
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

    fn journal_len(path: &Path, file: &File) -> Result<u64, CoreError> {
        Ok(file
            .metadata()
            .map_err(|e| cache_err(format!("stat {}: {e}", path.display())))?
            .len())
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
        let entry = read_journal_line(line).map_err(|e| cache_err(e.to_string()))?;
        let fp = &entry.fp;
        if !entry.key_ok {
            return Err(cache_err(format!(
                "entry {fp}: key digest mismatch (the key or the fp field was altered)"
            )));
        }
        match entry.record {
            Ok(measurement) => Ok((entry.key.into_owned(), measurement)),
            Err(RecordFault::Missing(e)) => Err(cache_err(e.to_string())),
            Err(RecordFault::Digest) => Err(cache_err(format!(
                "entry {fp}: measurement digest mismatch (the record was altered)"
            ))),
            Err(RecordFault::Invalid(e)) => Err(cache_err(format!("entry {fp}: {e}"))),
        }
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
        // Stat before locking: appends only ever grow the file, so a
        // journal no longer than what is absorbed holds nothing new,
        // and a served read never waits on another process's append.
        if Self::journal_len(&self.path, file)? <= *absorbed {
            return Ok(0);
        }
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
    fn refresh_takes_the_lock_only_when_the_journal_grew() {
        let dir =
            std::env::temp_dir().join(format!("nbti-rescache-refresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = JsonlCache::in_dir(&dir).unwrap();
        let b = JsonlCache::in_dir(&dir).unwrap();
        a.store(&fp(), &measurement()).unwrap();
        assert_eq!(b.refresh().unwrap(), 1);
        // Another open file holds the journal lock, as a peer process
        // mid-append would; nothing new is on disk, so a refresh must
        // answer without waiting for it.
        let holder = File::open(b.path()).unwrap();
        holder.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let refresher = std::thread::spawn(move || {
            let _ = tx.send(b.refresh().map_err(|e| e.to_string()));
            b
        });
        let answer = rx.recv_timeout(std::time::Duration::from_secs(10));
        holder.unlock().unwrap();
        let b = refresher.join().unwrap();
        assert_eq!(answer, Ok(Ok(0)), "refresh waited on the lock");
        // Growth is still absorbed.
        let mut other = scenario();
        other.trace_seed = 77;
        let w = WorkloadRegistry::builtin().resolve("sha").unwrap();
        let fp2 = Fingerprint::for_scenario(&other, w.as_ref());
        a.store(&fp2, &measurement()).unwrap();
        assert_eq!(b.refresh().unwrap(), 1);
        assert!(b.lookup(&fp2).unwrap().is_some());
        assert_eq!(b.refresh().unwrap(), 0);
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

/// The canonical key bytes of the paper's grids and of every kind of
/// key part, pinned: a faster key builder must not move one byte.
#[cfg(test)]
mod key_pins {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::presets;
    use crate::study::StudySpec;

    /// The key layout as it was first spelled, cell by cell, kept as
    /// the oracle for [`WorkloadKey::fingerprint`].
    fn oracle(scenario: &Scenario, workload: &dyn Workload) -> String {
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
        canonical
    }

    /// The grid's keys, newline-joined, after checking that the grid
    /// builder, the one-cell builder and the oracle agree on each.
    fn keys(spec: &StudySpec) -> String {
        let grid = spec.expand().unwrap();
        let built = grid_fingerprints(&grid).unwrap();
        assert_eq!(built.len(), grid.len());
        let mut joined = String::new();
        for (scenario, fp) in grid.scenarios().iter().zip(&built) {
            let workload = grid.workloads[scenario.workload_index].as_ref();
            assert_eq!(fp, &Fingerprint::for_scenario(scenario, workload));
            assert_eq!(fp.canonical(), oracle(scenario, workload));
            joined.push_str(fp.canonical());
            joined.push('\n');
        }
        joined
    }

    fn pin(spec: &StudySpec, cells: usize, digest: &str) {
        let joined = keys(spec);
        assert_eq!(joined.lines().count(), cells, "{}", spec.name());
        assert_eq!(
            digest_hex(joined.as_bytes()),
            digest,
            "{}:\n{joined}",
            spec.name()
        );
    }

    #[test]
    fn paper_table_keys_are_pinned() {
        let cfg = ExperimentConfig::paper_reference().with_trace_cycles(640_000);
        pin(&presets::table1(&cfg), 18, "fnv1a64:a42e6bb4aa859bd8");
        pin(&presets::table2(&cfg), 54, "fnv1a64:0ac53a91e7eae0ae");
        pin(&presets::table3(&cfg), 36, "fnv1a64:477fb8dac42670c1");
        pin(&presets::table4(&cfg), 162, "fnv1a64:f07e814e338b5e0a");
        let first = keys(&presets::table2(&cfg));
        assert_eq!(
            first.lines().next().unwrap(),
            "v=engine-v2;cache=8192;line=16;banks=4;ways=1;repl=lru;l2=0;l2ways=1;update=1;\
             policy=probing#1;model=nbti-45nm;workload=adpcm.dec;seed=1000;cycles=640000;p0=0.5"
        );
    }

    #[test]
    fn every_key_part_is_pinned() {
        // A file-backed workload: identity by content hash, no seed.
        let trace: Vec<_> = trace_synth::suite::by_name("sha")
            .unwrap()
            .trace(1)
            .take(100)
            .collect();
        let mut text = String::new();
        trace_synth::formats::write_csv(&mut text, &trace);
        let dir = std::env::temp_dir().join(format!("nbti-key-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, &text).unwrap();
        let file = StudySpec::new("file")
            .workload_names([format!("csv:{}", path.display())])
            .unwrap()
            .trace_cycles(40_000);
        pin(&file, 1, "fnv1a64:708098c1bce98c0f");
        std::fs::remove_dir_all(&dir).unwrap();
        // A pinned profile: named by its profile, no seed.
        let profile = StudySpec::new("profile")
            .workload_names(["profile:0.1,0.8,0.6,0.3"])
            .unwrap()
            .policy_seed(1);
        pin(&profile, 1, "fnv1a64:8e8d69db986a36c4");
        // An L1+L2 cell, set-associative with a non-default
        // replacement, two models and non-default update periods and
        // `p0`, across two workloads.
        let mixed = StudySpec::new("mixed")
            .cache_kb([16])
            .ways([4])
            .replacement(["mru"])
            .l2_cache_kb([64])
            .l2_ways([4])
            .update_days([0.5, 7.25, 1e-3])
            .models(["nbti-45nm", "nbti:temp=105"])
            .workloads([
                trace_synth::suite::by_name("sha").unwrap().with_p0(0.9),
                trace_synth::suite::by_name("CRC32")
                    .unwrap()
                    .with_p0(1.0 / 3.0),
            ])
            .trace_cycles(80_000)
            .base_seed(7);
        pin(&mixed, 12, "fnv1a64:c555c3ca0950853d");
    }
}

/// The journal-line reader against today's integrity rule, kept here
/// verbatim as the oracle: the one-pass reader must accept exactly the
/// lines the oracle accepts, decode them to bitwise-equal measurements,
/// and take its single pass on every line the writer writes.
#[cfg(test)]
mod reader_props {
    use super::*;
    use quickprop::Gen;

    /// Parse the line into a tree, check `fp` against the key and
    /// `check` against the re-emitted record, then decode the record.
    fn oracle(line: &str) -> Result<(String, CachedMeasurement), CoreError> {
        let v = Json::parse(line).map_err(|e| cache_err(e.to_string()))?;
        let fp = v.field("fp")?.as_str("fp")?.to_string();
        let check = v.field("check")?.as_str("check")?;
        let key = v.field("key")?.as_str("key")?;
        if digest_hex(key.as_bytes()) != fp {
            return Err(cache_err(format!("entry {fp}: key digest mismatch")));
        }
        let record = v.field("record")?;
        if digest_hex(record.emit().as_bytes()) != check {
            return Err(cache_err(format!(
                "entry {fp}: measurement digest mismatch"
            )));
        }
        let measurement = CachedMeasurement::from_json(record)?;
        Ok((key.to_string(), measurement))
    }

    const SPECIAL: [f64; 16] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        1.5e-310,
        f64::MIN_POSITIVE,
        f64::MAX,
        1.0,
        640_000.0,
        1e21,
        1e-7,
        0.1,
        -2.5,
        0.30000000000000004,
    ];

    /// Characters names and keys are drawn from: the characters the
    /// emitter escapes, control characters, `\u{7f}` and multi-byte
    /// UTF-8.
    const CHARS: &[char] = &[
        'a', 'z', '_', '0', '=', ';', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}',
        '\u{1f}', '\u{7f}', 'é', '€', '中', '😀',
    ];

    fn arb_f64(g: &mut Gen) -> f64 {
        match g.u32_in(0..4) {
            0 => *g.pick(&SPECIAL),
            1 => f64::from_bits(g.next_u64()),
            2 => g.u64_in(0..1 << 53) as f64,
            _ => g.f64_unit(),
        }
    }

    fn arb_text(g: &mut Gen, max: usize) -> String {
        (0..g.usize_in(0..max)).map(|_| *g.pick(CHARS)).collect()
    }

    fn arb_name(g: &mut Gen) -> String {
        match g.u32_in(0..8) {
            0 => g.pick(&ScenarioRecord::RESERVED_FIELDS).to_string(),
            1 | 2 => g
                .pick(&["lt0_years", "lt_years", "sleep_fraction_l2"])
                .to_string(),
            _ => arb_text(g, 8),
        }
    }

    fn arb_measurement(g: &mut Gen) -> CachedMeasurement {
        let banks = g.usize_in(0..9);
        let metrics = if g.u32_in(0..8) == 0 {
            g.usize_in(16..160)
        } else {
            g.usize_in(0..4)
        };
        CachedMeasurement {
            sim_cycles: g.u64_in(0..1 << 60),
            esav: arb_f64(g),
            miss_rate: arb_f64(g),
            useful_idleness: (0..banks).map(|_| arb_f64(g)).collect(),
            sleep_fractions: (0..g.usize_in(0..9)).map(|_| arb_f64(g)).collect(),
            metrics: Metrics::from_pairs((0..metrics).map(|_| (arb_name(g), arb_f64(g)))),
        }
    }

    fn arb_line(g: &mut Gen) -> String {
        let mut key = format!(
            "v={ENGINE_VERSION};cache=16384;line=16;banks=4;workload=sha;seed={}",
            g.next_u64()
        );
        if g.u32_in(0..4) == 0 {
            key.push_str(&arb_text(g, 6));
        }
        let line = JsonlCache::emit_line(&Fingerprint::from_canonical(key), &arb_measurement(g));
        line.trim_end_matches('\n').to_string()
    }

    /// Byte offsets where a number token starts: a digit or `-` right
    /// after `:`, `[` or `,`.
    fn number_starts(line: &str) -> Vec<usize> {
        let b = line.as_bytes();
        (1..b.len())
            .filter(|&i| {
                matches!(b[i - 1], b':' | b'[' | b',') && (b[i].is_ascii_digit() || b[i] == b'-')
            })
            .collect()
    }

    fn boundaries(line: &str) -> Vec<usize> {
        (0..=line.len())
            .filter(|&i| line.is_char_boundary(i))
            .collect()
    }

    /// Rewrites one JSON object's members: swaps two or duplicates one.
    fn remix(g: &mut Gen, v: &mut Json) {
        let Json::Obj(pairs) = v else { return };
        if pairs.is_empty() {
            return;
        }
        let i = g.usize_in(0..pairs.len());
        if g.u32_in(0..2) == 0 {
            let j = g.usize_in(0..pairs.len());
            pairs.swap(i, j);
        } else {
            let copy = pairs[i].clone();
            pairs.push(copy);
        }
    }

    /// Respells `text` without changing the JSON it denotes (all
    /// commas spaced, one inserted whitespace, one letter of a string
    /// written as a `\u` escape, one number written non-canonically)
    /// or, rarely, leaves it be.
    fn respell(g: &mut Gen, text: &str) -> String {
        match g.u32_in(0..4) {
            0 => text.replace(",\"", ", \""),
            1 if g.u32_in(0..2) == 0 => {
                // Letters only occur inside strings here; skip those
                // that belong to an escape.
                let b = text.as_bytes();
                let letters: Vec<usize> = (0..b.len())
                    .filter(|&i| {
                        b[i].is_ascii_alphabetic() && !b[i.saturating_sub(5)..i].contains(&b'\\')
                    })
                    .collect();
                let at = *g.pick(&letters);
                let escape = format!("\\u{:04x}", b[at]);
                format!("{}{escape}{}", &text[..at], &text[at + 1..])
            }
            1 => {
                let at = *g.pick(&boundaries(text));
                let ws = *g.pick(&[" ", "\t", "\r", "  "]);
                format!("{}{ws}{}", &text[..at], &text[at..])
            }
            _ => {
                let starts = number_starts(text);
                if starts.is_empty() {
                    return text.to_string();
                }
                let at = *g.pick(&starts);
                let len = text[at..]
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(text.len() - at);
                let token = &text[at..at + len];
                let value: f64 = token.parse().unwrap_or(0.5);
                let spelled = match g.u32_in(0..6) {
                    0 if token.contains('.') => format!("{token}0"),
                    0 => format!("{token}.0"),
                    1 => format!("{value:e}"),
                    2 => format!("{value:E}"),
                    3 => format!("+{token}"),
                    4 => format!("{token}e0"),
                    _ => format!("0{token}"),
                };
                format!("{}{spelled}{}", &text[..at], &text[at + len..])
            }
        }
    }

    /// One mutation of a writer line: a respelling, reordered or
    /// duplicated fields, a flipped byte, truncation — or none.
    fn mutate(g: &mut Gen, line: &str) -> String {
        match g.u32_in(0..7) {
            0 => line.to_string(),
            1 => respell(g, line),
            2 | 3 => {
                let Ok(mut v) = Json::parse(line) else {
                    return line.to_string();
                };
                if g.u32_in(0..2) == 0 {
                    remix(g, &mut v);
                } else if let Json::Obj(pairs) = &mut v {
                    if let Some((_, record)) = pairs.iter_mut().find(|(k, _)| k == "record") {
                        remix(g, record);
                    }
                }
                v.emit()
            }
            4 => {
                let ascii: Vec<usize> = (0..line.len())
                    .filter(|&i| line.as_bytes()[i].is_ascii())
                    .collect();
                let at = *g.pick(&ascii);
                let mut bytes = line.as_bytes().to_vec();
                bytes[at] = *g.pick(b"0123456789\"\\{}[],:.-eE aZ");
                String::from_utf8(bytes).unwrap()
            }
            5 => line[..*g.pick(&boundaries(line))].to_string(),
            _ => format!(" {line} "),
        }
    }

    /// Respells a writer line's record and re-seals `check` over the
    /// respelled bytes as they stand. The rule digests the record as
    /// re-emitted, so such a line is rejected, and a reader that
    /// hashed raw bytes it wrongly took for canonical would accept it.
    fn reseal(g: &mut Gen, line: &str) -> String {
        let at = line.find(",\"record\":").unwrap() + ",\"record\":".len();
        let (head, record) = (&line[..at], &line[at..line.len() - 1]);
        let respelled = respell(g, record);
        let head = head.replace(
            &digest_hex(record.as_bytes()),
            &digest_hex(respelled.as_bytes()),
        );
        format!("{head}{respelled}}}")
    }

    fn bits(m: &CachedMeasurement) -> (u64, Vec<u64>, Vec<(String, u64)>) {
        let floats = [m.esav, m.miss_rate]
            .into_iter()
            .chain(m.useful_idleness.iter().copied())
            .chain([f64::NAN])
            .chain(m.sleep_fractions.iter().copied())
            .map(f64::to_bits)
            .collect();
        let metrics = m
            .metrics
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_bits()))
            .collect();
        (m.sim_cycles, floats, metrics)
    }

    /// The reader and the oracle agree on `line`; returns whether it
    /// was accepted.
    fn agree(line: &str) -> bool {
        let got = JsonlCache::parse_line(line);
        let want = oracle(line);
        if let Some(entry) = read_canonical(line) {
            let Ok((key, m)) = &want else {
                panic!("the single pass accepted a line the oracle rejects: {line:?}");
            };
            assert_eq!(entry.key, key.as_str(), "{line:?}");
            let decoded = entry
                .record
                .as_ref()
                .ok()
                .expect("a single-pass entry verifies");
            assert_eq!(bits(decoded), bits(m), "{line:?}");
        }
        match (got, want) {
            (Ok((k1, m1)), Ok((k2, m2))) => {
                assert_eq!(k1, k2, "{line:?}");
                assert_eq!(bits(&m1), bits(&m2), "{line:?}");
                true
            }
            (Err(_), Err(_)) => false,
            (got, want) => panic!("reader and oracle disagree on {line:?}:\n{got:?}\n{want:?}"),
        }
    }

    #[test]
    fn journal_reader_accepts_exactly_what_the_oracle_accepts() {
        let (mut accepted, mut rejected, mut reformatted) = (0, 0, 0);
        quickprop::cases(if cfg!(debug_assertions) { 96 } else { 512 }, |g| {
            let line = arb_line(g);
            if agree(&line) {
                accepted += 1;
                assert!(
                    read_canonical(&line).is_some(),
                    "a writer line must take the single pass: {line:?}"
                );
            }
            for _ in 0..6 {
                let mutated = mutate(g, &line);
                if !agree(&mutated) {
                    rejected += 1;
                } else if read_canonical(&mutated).is_none() {
                    reformatted += 1;
                }
            }
            for _ in 0..2 {
                let resealed = reseal(g, &line);
                assert!(resealed == line || !agree(&resealed), "{resealed:?}");
            }
        });
        // The inputs reach both verdicts, and both routes.
        assert!(accepted > 48, "{accepted}");
        assert!(rejected > 48, "{rejected}");
        assert!(reformatted > 48, "{reformatted}");
    }

    /// A plain decimal of `digits` significant digits (the first
    /// nonzero) with its point `point` places from the left, sometimes
    /// padded with a leading or trailing zero and sometimes negative.
    fn arb_decimal(g: &mut Gen) -> String {
        let digits: String = (0..g.usize_in(1..19))
            .enumerate()
            .map(|(i, _)| char::from(b'0' + g.u32_in(u32::from(i == 0)..10) as u8))
            .collect();
        let point = g.u64_in(0..60) as i64 - 25;
        let mut text = if point <= 0 {
            format!("0.{}{digits}", "0".repeat(point.unsigned_abs() as usize))
        } else if point as usize >= digits.len() {
            format!("{digits}{}", "0".repeat(point as usize - digits.len()))
        } else {
            format!(
                "{}.{}",
                &digits[..point as usize],
                &digits[point as usize..]
            )
        };
        match g.u32_in(0..8) {
            0 => text.insert(0, '0'),
            1 if text.contains('.') => text.push('0'),
            _ => {}
        }
        if g.u32_in(0..2) == 0 {
            text.insert(0, '-');
        }
        text
    }

    #[test]
    fn display_shortcut_agrees_with_display() {
        let cases = if cfg!(debug_assertions) {
            2_000
        } else {
            20_000
        };
        let mut shortcut = 0;
        quickprop::cases(cases, |g| {
            let text = match g.u32_in(0..4) {
                0 => format!("{}", f64::from_bits(g.next_u64())),
                1 => format!("{}", *g.pick(&SPECIAL)),
                _ => arb_decimal(g),
            };
            let Ok(value) = text.parse::<f64>() else {
                return;
            };
            if !value.is_finite() {
                return;
            }
            let mut scratch = String::new();
            let verdict = is_display_of(&text, value, &mut scratch);
            assert_eq!(verdict, format!("{value}") == text, "{text}");
            if verdict && scratch.is_empty() {
                shortcut += 1;
            }
        });
        // The shortcut decides a fair share without formatting.
        assert!(shortcut > cases / 10, "{shortcut}");
    }

    #[test]
    fn reformatted_lines_take_the_tree_route_and_agree() {
        let m = CachedMeasurement {
            sim_cycles: 640_000,
            esav: 0.5,
            miss_rate: -0.0,
            useful_idleness: vec![5e-324, 1e21],
            sleep_fractions: vec![],
            metrics: Metrics::from_pairs([("lt \"years\"\n\u{1f}é", f64::NAN)]),
        };
        let key = format!("v={ENGINE_VERSION};workload=a\\b\t\"c\"");
        let line = JsonlCache::emit_line(&Fingerprint::from_canonical(key), &m);
        let line = line.trim_end_matches('\n');
        assert!(
            read_canonical(line).is_some(),
            "escapes stay on the single pass"
        );
        assert!(agree(line));
        // The record digest is over the record as re-emitted, so each
        // of these intact lines is accepted, by the tree route.
        for spaced in [
            line.replace(",\"", ", \""),
            line.replace("\":", "\": "),
            format!("{line}\r"),
            line.replace("\"esav\":0.5", "\"esav\":0.50"),
            line.replace("\"esav\":0.5", "\"esav\":5e-1"),
            line.replace("\\u001f", "\\u001F"),
            line.replace("\\t", "\\u0009"),
            line.replace("\\\"c\\\"", "\\u0022c\\u0022"),
        ] {
            assert_ne!(spaced, line);
            assert!(read_canonical(&spaced).is_none(), "{spaced}");
            assert!(agree(&spaced), "{spaced}");
        }
    }
}
