//! The open, string-keyed workload registry — the workload axis'
//! counterpart of [`crate::registry`].
//!
//! The paper's evaluation fixes the workload axis to the 18 synthetic
//! MediaBench-like profiles, yet everything downstream — bank idleness,
//! sleep fractions, NBTI lifetimes — is a pure function of the access
//! stream, so *any* trace is admissible. A [`Workload`] is a named
//! factory of [`TraceSource`]s; the [`WorkloadRegistry`] resolves:
//!
//! * **suite names** (`"sha"`, `"CRC32"`, …) to [`SyntheticWorkload`]s
//!   over the calibrated profiles, plus anything registered by user
//!   code;
//! * **file-backed keys** (`csv:path`, `din:path`, `lackey:path`, or
//!   `file:path` with the format inferred from the extension) to
//!   [`FileWorkload`]s that stream the trace file chunk-by-chunk, so
//!   multi-gigabyte traces run in constant memory;
//! * **pinned profiles** (`profile:0.1,0.8,0.6,0.3`) to
//!   [`ProfileWorkload`]s that skip simulation and feed per-bank sleep
//!   fractions straight into the device models.
//!
//! File workloads carry provenance: the trace format plus a streaming
//! FNV-1a 64 hash of the file bytes, recorded in every
//! [`StudyReport`](crate::study::StudyReport) scenario so a published
//! result names exactly which trace produced it.
//!
//! # Examples
//!
//! Resolving built-ins and registering a custom profile:
//!
//! ```
//! use aging_cache::workload::WorkloadRegistry;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let mut registry = WorkloadRegistry::builtin();
//! assert_eq!(registry.len(), 18);
//! let sha = registry.resolve("sha")?;
//! assert_eq!(sha.name(), "sha");
//! assert!(sha.source_info().is_none(), "synthetic: no file provenance");
//!
//! let custom = trace_synth::suite::by_name("sha").unwrap().with_p0(0.9);
//! registry.register_profile("sha-skewed", custom)?;
//! assert!(registry.resolve("sha-skewed").is_ok());
//! # Ok(())
//! # }
//! ```
//!
//! Resolving a trace file by key (any `TraceSource` consumer works the
//! same way from there):
//!
//! ```no_run
//! use aging_cache::workload::WorkloadRegistry;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let workload = WorkloadRegistry::builtin().resolve("csv:/tmp/trace.csv")?;
//! let info = workload.source_info().expect("file-backed");
//! println!("simulating {} ({} hash {})", workload.name(), info.format, info.hash);
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use trace_synth::formats::{self, TraceFormat};
use trace_synth::source::Fnv64;
use trace_synth::{SliceSource, TraceSource, WorkloadProfile};

/// Provenance of a file-backed workload, embedded in study reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSourceInfo {
    /// The trace format key (`"din"`, `"lackey"`, `"csv"`).
    pub format: String,
    /// FNV-1a 64 hash of the raw file bytes, as `fnv1a64:<16 hex>`.
    pub hash: String,
    /// The path the trace was read from (informational; the hash is
    /// the reproducibility anchor).
    pub path: String,
}

/// A named factory of access streams — one point on the workload axis.
///
/// Implementations must be deterministic: the same `seed` must always
/// produce the same stream (file-backed workloads ignore the seed — the
/// file *is* the stream).
pub trait Workload: Send + Sync {
    /// The registry key (a suite name, or a `format:path` spec).
    fn name(&self) -> &str;

    /// One-line human-readable description for listings.
    fn description(&self) -> &str {
        ""
    }

    /// Probability that a stored bit is a logic '0' (consumed by the
    /// aging model). `0.5` unless the workload knows better.
    fn p0(&self) -> f64 {
        0.5
    }

    /// File provenance, for file-backed workloads.
    fn source_info(&self) -> Option<WorkloadSourceInfo> {
        None
    }

    /// A pinned per-bank sleep/idleness profile that bypasses trace
    /// simulation entirely — the direct drive into the physics layer
    /// that the device-model ablation presets use. `None` (the
    /// default) for real workloads.
    fn pinned_profile(&self) -> Option<&[f64]> {
        None
    }

    /// Starts a fresh access stream.
    ///
    /// # Errors
    ///
    /// Propagates trace-open failures (file-backed workloads).
    fn open(&self, seed: u64) -> Result<Box<dyn TraceSource>, CoreError>;
}

/// A synthetic-suite workload: wraps a [`WorkloadProfile`] so the
/// calibrated generators plug into the same streaming pipeline as
/// trace files.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    profile: WorkloadProfile,
}

impl SyntheticWorkload {
    /// Wraps a profile under its own name.
    pub fn new(profile: WorkloadProfile) -> Self {
        Self {
            name: profile.name().to_string(),
            profile,
        }
    }

    /// Wraps a profile under an explicit registry key.
    pub fn named(name: impl Into<String>, profile: WorkloadProfile) -> Self {
        Self {
            name: name.into(),
            profile,
        }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        "synthetic MediaBench-like profile"
    }

    fn p0(&self) -> f64 {
        self.profile.p0()
    }

    fn open(&self, seed: u64) -> Result<Box<dyn TraceSource>, CoreError> {
        Ok(Box::new(self.profile.trace(seed)))
    }
}

/// A file-backed workload: streams a Dinero/Lackey/CSV trace file.
///
/// Construction reads the file once to compute the provenance hash, so
/// a missing or unreadable file fails at registration time rather than
/// mid-study.
#[derive(Debug, Clone)]
pub struct FileWorkload {
    name: String,
    path: PathBuf,
    format: TraceFormat,
    hash: u64,
}

impl FileWorkload {
    /// Opens `path` as a trace in `format`, hashing its bytes for
    /// provenance.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] when the file cannot be read.
    pub fn new(format: TraceFormat, path: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let path = path.into();
        let hash = hash_file(&path)?;
        Ok(Self {
            name: format!("{format}:{}", path.display()),
            path,
            format,
            hash,
        })
    }

    /// Opens a `format:path` spec (`csv:…`, `din:…`, `lackey:…`, or
    /// `file:…` with the format inferred from the extension).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Trace`] for an unknown format key or an
    /// unreadable file.
    pub fn from_spec(spec: &str) -> Result<Self, CoreError> {
        let (format, path) = formats::parse_spec(spec)?;
        Self::new(format, path)
    }

    /// The trace format.
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// The trace file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The FNV-1a 64 provenance hash of the file bytes.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

/// A pinned per-bank idleness profile — no trace and no simulation;
/// the per-bank sleep fractions feed the aging models directly.
///
/// This is the `(p0, Psleep)` interface of the paper's characterization
/// LUT made first-class: the device-model ablations historically drove
/// the physics with hand-picked profiles, and the `profile:` workload
/// key lets a [`StudySpec`](crate::study::StudySpec) do the same
/// through the ordinary grid. Simulation-derived record fields (`esav`,
/// `miss_rate`) are `NaN` and `sim_cycles` is 0 — there is no trace to
/// measure them on.
///
/// # Examples
///
/// ```
/// use aging_cache::workload::{ProfileWorkload, Workload, WorkloadRegistry};
///
/// # fn main() -> Result<(), aging_cache::CoreError> {
/// let w = WorkloadRegistry::builtin().resolve("profile:0.1,0.8,0.6,0.3")?;
/// assert_eq!(w.pinned_profile(), Some(&[0.1, 0.8, 0.6, 0.3][..]));
/// // Or construct directly, with a content skew:
/// let skewed = ProfileWorkload::new(vec![0.5, 0.5])?.with_p0(0.9)?;
/// assert_eq!(skewed.p0(), 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProfileWorkload {
    name: String,
    sleep: Vec<f64>,
    p0: f64,
}

impl ProfileWorkload {
    /// Creates a profile over per-bank sleep fractions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty profile or
    /// fractions outside `[0, 1]`.
    pub fn new(sleep: Vec<f64>) -> Result<Self, CoreError> {
        if sleep.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "sleep",
                value: 0.0,
                expected: "at least one bank",
            });
        }
        for &s in &sleep {
            if !(0.0..=1.0).contains(&s) || !s.is_finite() {
                return Err(CoreError::InvalidParameter {
                    name: "sleep",
                    value: s,
                    expected: "sleep fractions in [0, 1]",
                });
            }
        }
        let name = format!(
            "profile:{}",
            sleep
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        Ok(Self {
            name,
            sleep,
            p0: 0.5,
        })
    }

    /// Parses a `profile:s0,s1,…` spec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a malformed spec.
    pub fn from_spec(spec: &str) -> Result<Self, CoreError> {
        let rest = spec.strip_prefix("profile:").unwrap_or(spec);
        let sleep = rest
            .split(',')
            .map(|s| s.trim().parse::<f64>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| CoreError::Report {
                message: format!("malformed profile key `{spec}`: expected `profile:s0,s1,…`"),
            })?;
        Self::new(sleep)
    }

    /// Overrides the stored-'0' probability (default 0.5).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `p0` is outside
    /// `[0, 1]`.
    pub fn with_p0(mut self, p0: f64) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&p0) || !p0.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "p0",
                value: p0,
                expected: "p0 in [0, 1]",
            });
        }
        self.p0 = p0;
        Ok(self)
    }
}

impl Workload for ProfileWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        "pinned per-bank idleness profile (no simulation)"
    }

    fn p0(&self) -> f64 {
        self.p0
    }

    fn pinned_profile(&self) -> Option<&[f64]> {
        Some(&self.sleep)
    }

    fn open(&self, _seed: u64) -> Result<Box<dyn TraceSource>, CoreError> {
        Ok(Box::new(SliceSource::new(&[])))
    }
}

fn hash_file(path: &Path) -> Result<u64, CoreError> {
    let mut file = File::open(path)
        .map_err(|e| trace_synth::TraceError::io(&format!("open {}", path.display()), e))?;
    let mut hasher = Fnv64::new();
    let mut chunk = [0u8; 64 * 1024];
    let read_error = |e| trace_synth::TraceError::io(&format!("read {}", path.display()), e);
    loop {
        let n = file.read(&mut chunk).map_err(read_error)?;
        if n == 0 {
            return Ok(hasher.finish());
        }
        let read = chunk
            .get(..n)
            .ok_or_else(|| read_error(std::io::Error::other("read past the end of the buffer")))?;
        hasher.update(read);
    }
}

impl Workload for FileWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        "file-backed trace"
    }

    fn source_info(&self) -> Option<WorkloadSourceInfo> {
        Some(WorkloadSourceInfo {
            format: self.format.key().to_string(),
            hash: format!("fnv1a64:{:016x}", self.hash),
            path: self.path.display().to_string(),
        })
    }

    fn open(&self, _seed: u64) -> Result<Box<dyn TraceSource>, CoreError> {
        Ok(formats::open_path(self.format, &self.path)?)
    }
}

/// The built-in suite's workload objects in suite order (not registry
/// name order: the `seed + i` rule keys off this ordering), built once
/// per process. Every built-in registry and every default workload
/// axis shares these objects.
pub(crate) fn builtin_suite() -> &'static [Arc<dyn Workload>] {
    static SUITE: OnceLock<Vec<Arc<dyn Workload>>> = OnceLock::new();
    SUITE.get_or_init(|| {
        trace_synth::suite::mediabench()
            .into_iter()
            .map(|profile| Arc::new(SyntheticWorkload::new(profile)) as Arc<dyn Workload>)
            .collect()
    })
}

/// The string-keyed workload registry.
///
/// Keys are ordered (a `BTreeMap`), so listings and expanded grids are
/// deterministic regardless of registration order. File-backed keys
/// (`format:path`) resolve dynamically without registration.
#[derive(Clone, Default)]
pub struct WorkloadRegistry {
    entries: BTreeMap<String, Arc<dyn Workload>>,
}

impl std::fmt::Debug for WorkloadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadRegistry")
            .field("workloads", &self.names())
            .finish()
    }
}

impl WorkloadRegistry {
    /// An empty registry (no workloads at all).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The registry with the full 18-benchmark MediaBench-like suite,
    /// over the workload objects the process builds once.
    pub fn builtin() -> Self {
        let entries = builtin_suite()
            .iter()
            .map(|workload| (workload.name().to_string(), Arc::clone(workload)))
            .collect();
        Self { entries }
    }

    /// A shared, immutable instance of [`WorkloadRegistry::builtin`];
    /// sessions and specs start from clones of it.
    pub fn global() -> &'static WorkloadRegistry {
        static GLOBAL: OnceLock<WorkloadRegistry> = OnceLock::new();
        GLOBAL.get_or_init(WorkloadRegistry::builtin)
    }

    /// Registers a workload object. Fails if the name is already taken.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateWorkload`] on a name collision.
    pub fn register(&mut self, workload: Arc<dyn Workload>) -> Result<(), CoreError> {
        let name = workload.name().to_string();
        if self.entries.contains_key(&name) {
            return Err(CoreError::DuplicateWorkload { name });
        }
        self.entries.insert(name, workload);
        Ok(())
    }

    /// Registers a synthetic profile under `name` — the one-liner path
    /// for user code and examples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateWorkload`] on a name collision.
    pub fn register_profile(
        &mut self,
        name: &str,
        profile: WorkloadProfile,
    ) -> Result<(), CoreError> {
        self.register(Arc::new(SyntheticWorkload::named(name, profile)))
    }

    /// Looks up a registered workload by exact name (no dynamic
    /// file-key resolution; see [`WorkloadRegistry::resolve`]).
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Workload>> {
        self.entries.get(name)
    }

    /// Resolves a workload key: registered names first, then dynamic
    /// `profile:s0,s1,…` pinned-profile keys and `format:path` file
    /// keys.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownWorkload`] for an unresolvable key,
    /// or [`CoreError::Trace`] when a file key names an unreadable
    /// file.
    pub fn resolve(&self, key: &str) -> Result<Arc<dyn Workload>, CoreError> {
        if let Some(w) = self.entries.get(key) {
            return Ok(Arc::clone(w));
        }
        if key.starts_with("profile:") {
            return Ok(Arc::new(ProfileWorkload::from_spec(key)?));
        }
        if formats::parse_spec(key).is_ok() {
            return Ok(Arc::new(FileWorkload::from_spec(key)?));
        }
        Err(CoreError::UnknownWorkload {
            name: key.to_string(),
            known: self.names().join(", "),
        })
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered workloads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, workload)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<dyn Workload>)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::formats::write_csv;

    #[test]
    fn builtin_mirrors_the_suite() {
        let r = WorkloadRegistry::builtin();
        assert_eq!(r.len(), 18);
        assert!(r.get("sha").is_some());
        assert!(r.get("adpcm.dec").is_some());
        let mut names = r.names();
        names.sort();
        assert_eq!(names, r.names(), "names are pre-sorted");
    }

    #[test]
    fn synthetic_streams_match_the_profile() {
        let w = WorkloadRegistry::builtin().resolve("CRC32").unwrap();
        let mut src = w.open(7).unwrap();
        let mut got = Vec::new();
        src.next_batch(&mut got, 500).unwrap();
        let want: Vec<_> = trace_synth::suite::by_name("CRC32")
            .unwrap()
            .trace(7)
            .take(500)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unknown_key_lists_known_names() {
        let Err(e) = WorkloadRegistry::builtin().resolve("quake3") else {
            panic!("unknown key must not resolve");
        };
        let text = e.to_string();
        assert!(text.contains("quake3"), "{text}");
        assert!(text.contains("sha"), "{text}");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = WorkloadRegistry::builtin();
        let e = r
            .register_profile("sha", trace_synth::suite::by_name("sha").unwrap())
            .unwrap_err();
        assert!(matches!(e, CoreError::DuplicateWorkload { .. }));
    }

    #[test]
    fn file_key_resolves_with_provenance() {
        let trace: Vec<_> = trace_synth::suite::by_name("sha")
            .unwrap()
            .trace(1)
            .take(200)
            .collect();
        let mut text = String::new();
        write_csv(&mut text, &trace);
        let dir = std::env::temp_dir().join("nbti-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, &text).unwrap();

        let key = format!("csv:{}", path.display());
        let w = WorkloadRegistry::builtin().resolve(&key).unwrap();
        assert_eq!(w.name(), key);
        let info = w.source_info().expect("file provenance");
        assert_eq!(info.format, "csv");
        assert_eq!(
            info.hash,
            format!("fnv1a64:{:016x}", Fnv64::hash(text.as_bytes()))
        );

        let mut src = w.open(0).unwrap();
        let mut got = Vec::new();
        while src.next_batch(&mut got, 64).unwrap() > 0 {}
        assert_eq!(got, trace);
    }

    #[test]
    fn missing_file_fails_at_resolve_time() {
        let Err(e) = WorkloadRegistry::builtin().resolve("csv:/nonexistent/missing.csv") else {
            panic!("a missing trace file must not resolve");
        };
        assert!(matches!(e, CoreError::Trace(_)), "{e}");
    }

    #[test]
    fn profile_keys_resolve_and_validate() {
        let w = WorkloadRegistry::builtin()
            .resolve("profile:0.1, 0.8,0.6,0.3")
            .unwrap();
        assert_eq!(w.pinned_profile(), Some(&[0.1, 0.8, 0.6, 0.3][..]));
        assert_eq!(w.name(), "profile:0.1,0.8,0.6,0.3", "canonical name");
        assert_eq!(w.p0(), 0.5);
        // An opened stream is empty — there is nothing to simulate.
        let mut src = w.open(1).unwrap();
        let mut buf = Vec::new();
        assert_eq!(src.next_batch(&mut buf, 16).unwrap(), 0);

        assert!(ProfileWorkload::from_spec("profile:").is_err());
        assert!(ProfileWorkload::from_spec("profile:0.5,nope").is_err());
        assert!(ProfileWorkload::new(vec![1.5]).is_err());
        assert!(ProfileWorkload::new(vec![]).is_err());
        assert!(ProfileWorkload::new(vec![0.5])
            .unwrap()
            .with_p0(2.0)
            .is_err());
    }

    #[test]
    fn p0_defaults_and_overrides() {
        let r = WorkloadRegistry::builtin();
        assert_eq!(r.resolve("sha").unwrap().p0(), 0.5);
        let skewed = trace_synth::suite::by_name("sha").unwrap().with_p0(0.9);
        let w = SyntheticWorkload::named("skewed", skewed);
        assert_eq!(w.p0(), 0.9);
    }
}
