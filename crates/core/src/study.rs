//! The open Study API: declare a scenario grid, run it in parallel,
//! get a structured report.
//!
//! The paper's evaluation is a grid — policies × cache geometries ×
//! workloads × update periods — and this module makes that grid a
//! first-class object instead of four hardcoded table runners:
//!
//! 1. [`StudySpec`] is a declarative builder. Every axis accepts one or
//!    many values; unset axes default to the paper's reference point.
//! 2. [`StudySpec::expand`] produces a [`ScenarioGrid`]: the cartesian
//!    product of the axes, each point a [`Scenario`] with fully derived
//!    seeds (see below).
//! 3. [`StudySession::run`](crate::session::StudySession::run)
//!    executes every scenario — across std threads by default — and
//!    returns a [`StudyReport`] of [`ScenarioRecord`]s that serializes
//!    to JSON ([`StudyReport::to_json`]) and back
//!    ([`StudyReport::from_json`]). The session is the execution layer
//!    ([`crate::exec`] / [`crate::session`]): it adds a cross-run
//!    simulation memo, a content-addressed result cache
//!    ([`crate::rescache`]) and streaming progress on top of the same
//!    grid; [`StudySpec::threads`] caps its worker pool.
//!
//! The paper's tables are presets over this engine
//! ([`crate::presets`]) plus pure table views ([`crate::views`]).
//!
//! All three evaluation axes are open registries:
//!
//! * **policies** resolve through the [`PolicyRegistry`];
//! * **workloads** through the [`WorkloadRegistry`], which accepts
//!   suite names (`"sha"`), file-backed trace keys (`csv:path`,
//!   `din:path`, `lackey:path`) and pinned profiles
//!   (`profile:0.1,0.8,0.6,0.3`) interchangeably — file workloads
//!   stream in constant memory through the batched simulator fast
//!   path, with provenance (format + content hash) embedded in every
//!   [`ScenarioRecord`]'s scenario;
//! * **device models** through the
//!   [`ModelRegistry`](crate::model::ModelRegistry): the
//!   [`StudySpec::models`] axis (plus the [`StudySpec::temps_c`] /
//!   [`StudySpec::vdd_low`] / [`StudySpec::failure_pct`] override
//!   axes) sweeps operating points, process variation and retention
//!   margins, each model calibrated exactly once per grid and emitting
//!   its own named metrics into the record's [`Metrics`] map.
//!
//! # Seed derivation
//!
//! Determinism is load-bearing: a grid must produce byte-identical
//! reports whether it runs on 1 thread or 16, today or next year.
//!
//! * **trace seed** — `base_seed + workload_index`. This is exactly the
//!   historic `ExperimentConfig::seed + i` rule, so every measured value
//!   published before the redesign is reproduced bit-for-bit.
//! * **policy seed** — [`derive_policy_seed`]`(base_seed, scenario_id,
//!   policy_name)`, unless the spec pins one with
//!   [`StudySpec::policy_seed`] (the table presets pin `1`, the historic
//!   LFSR seed).
//!
//! # Examples
//!
//! A 2×2×3 grid over sizes, bank counts and policies, run in parallel:
//!
//! ```no_run
//! use aging_cache::session::StudySession;
//! use aging_cache::study::StudySpec;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let session = StudySession::new();
//! let spec = StudySpec::new("size-banks-policy sweep")
//!     .cache_kb([8, 16])
//!     .banks([2, 4])
//!     .policies(["probing", "scrambling", "gray"])
//!     .workload_names(["sha", "CRC32"])?
//!     .trace_cycles(160_000);
//! let report = session.run(&spec)?;
//! println!("{} scenarios", report.records().len());
//! println!("{}", report.to_json());
//! # Ok(())
//! # }
//! ```
//!
//! Sweeping the device model works the same way — each distinct model
//! calibrates once, and every record carries the model's named metrics:
//!
//! ```no_run
//! # use aging_cache::session::StudySession;
//! # use aging_cache::study::StudySpec;
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! # let session = StudySession::new();
//! let spec = StudySpec::new("temperature sweep")
//!     .models(["nbti-45nm"])
//!     .temps_c([45.0, 85.0, 125.0])
//!     .workload_names(["sha"])?
//!     .trace_cycles(160_000);
//! for r in session.run(&spec)?.records() {
//!     println!("{}: LT {:.2} y", r.scenario.model, r.lt_years());
//! }
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use crate::json::Json;
use crate::model::{self, Metrics, ModelParams};
use crate::registry::{derive_policy_seed, PolicyRegistry};
use crate::replacement::ReplacementRegistry;
use crate::workload::{
    builtin_suite, SyntheticWorkload, Workload, WorkloadRegistry, WorkloadSourceInfo,
};
use cache_sim::{CacheGeometry, SimError, DEFAULT_REPLACEMENT};
use std::sync::Arc;
use trace_synth::WorkloadProfile;

/// Default trace length: the paper pipeline's reference horizon.
pub const DEFAULT_TRACE_CYCLES: u64 = 320_000;

/// Default base seed (the historic `ExperimentConfig::paper_reference`).
pub const DEFAULT_BASE_SEED: u64 = 1000;

/// A declarative study: axes over the evaluation grid.
///
/// Defaults describe the paper's reference point (16 kB cache, 16 B
/// lines, 4 banks, daily updates, the Probing policy, the full
/// 18-workload MediaBench-like suite). The workload axis is open:
/// synthetic profiles and file-backed traces (`csv:path`, `din:path`,
/// `lackey:path` keys via [`StudySpec::workload_names`]) mix freely.
#[derive(Clone)]
pub struct StudySpec {
    // Fields are crate-visible so `crate::check` can validate a spec
    // statically without widening the public builder API.
    pub(crate) name: String,
    pub(crate) cache_bytes: Vec<u64>,
    /// The first `cache_kb` value whose byte count overflowed `u64`;
    /// [`StudySpec::expand`] rejects it by name.
    pub(crate) cache_kb_overflow: Option<u64>,
    pub(crate) line_bytes: Vec<u32>,
    pub(crate) banks: Vec<u32>,
    pub(crate) ways: Vec<u32>,
    pub(crate) replacements: Vec<String>,
    pub(crate) l2_cache_bytes: Vec<u64>,
    /// The first `l2_cache_kb` value whose byte count overflowed.
    pub(crate) l2_kb_overflow: Option<u64>,
    pub(crate) l2_ways: Vec<u32>,
    pub(crate) update_days: Vec<f64>,
    pub(crate) policies: Vec<String>,
    pub(crate) workloads: Vec<Arc<dyn Workload>>,
    pub(crate) models: Vec<String>,
    pub(crate) temps_c: Vec<f64>,
    pub(crate) vdd_lows: Vec<f64>,
    pub(crate) failure_pcts: Vec<f64>,
    pub(crate) trace_cycles: u64,
    pub(crate) base_seed: u64,
    pub(crate) policy_seed: Option<u64>,
    pub(crate) threads: Option<usize>,
    pub(crate) registry: PolicyRegistry,
    pub(crate) workload_registry: WorkloadRegistry,
    pub(crate) replacement_registry: ReplacementRegistry,
}

impl std::fmt::Debug for StudySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudySpec")
            .field("name", &self.name)
            .field("cache_bytes", &self.cache_bytes)
            .field("line_bytes", &self.line_bytes)
            .field("banks", &self.banks)
            .field("ways", &self.ways)
            .field("replacements", &self.replacements)
            .field("l2_cache_bytes", &self.l2_cache_bytes)
            .field("l2_ways", &self.l2_ways)
            .field("update_days", &self.update_days)
            .field("policies", &self.policies)
            .field(
                "workloads",
                &self.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            )
            .field("models", &self.models)
            .field("temps_c", &self.temps_c)
            .field("vdd_lows", &self.vdd_lows)
            .field("failure_pcts", &self.failure_pcts)
            .field("trace_cycles", &self.trace_cycles)
            .field("base_seed", &self.base_seed)
            .finish_non_exhaustive()
    }
}

impl StudySpec {
    /// Creates a spec at the paper's reference point.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cache_bytes: vec![16 * 1024],
            cache_kb_overflow: None,
            line_bytes: vec![16],
            banks: vec![4],
            ways: vec![1],
            replacements: vec![DEFAULT_REPLACEMENT.into()],
            l2_cache_bytes: vec![0],
            l2_kb_overflow: None,
            l2_ways: vec![1],
            update_days: vec![1.0],
            policies: vec!["probing".into()],
            workloads: builtin_suite().to_vec(),
            models: vec![model::DEFAULT_MODEL.into()],
            temps_c: Vec::new(),
            vdd_lows: Vec::new(),
            failure_pcts: Vec::new(),
            trace_cycles: DEFAULT_TRACE_CYCLES,
            base_seed: DEFAULT_BASE_SEED,
            policy_seed: None,
            threads: None,
            registry: PolicyRegistry::global().clone(),
            workload_registry: WorkloadRegistry::global().clone(),
            replacement_registry: ReplacementRegistry::global().clone(),
        }
    }

    /// Sets the cache-size axis (kB); one or many values. A value
    /// whose byte count overflows `u64` makes [`StudySpec::expand`]
    /// fail.
    #[must_use]
    pub fn cache_kb(mut self, kb: impl IntoIterator<Item = u64>) -> Self {
        (self.cache_bytes, self.cache_kb_overflow) = kb_to_bytes(kb);
        self
    }

    /// Sets the cache-size axis in raw bytes (for non-kB-aligned sizes).
    #[must_use]
    pub fn cache_bytes(mut self, bytes: impl IntoIterator<Item = u64>) -> Self {
        self.cache_bytes = bytes.into_iter().collect();
        self.cache_kb_overflow = None;
        self
    }

    /// Sets the line-size axis (bytes); one or many values.
    #[must_use]
    pub fn line_bytes(mut self, bytes: impl IntoIterator<Item = u32>) -> Self {
        self.line_bytes = bytes.into_iter().collect();
        self
    }

    /// Sets the bank-count axis; one or many values.
    #[must_use]
    pub fn banks(mut self, banks: impl IntoIterator<Item = u32>) -> Self {
        self.banks = banks.into_iter().collect();
        self
    }

    /// Sets the associativity axis (ways per set, `1` = direct-mapped);
    /// one or many values.
    #[must_use]
    pub fn ways(mut self, ways: impl IntoIterator<Item = u32>) -> Self {
        self.ways = ways.into_iter().collect();
        self
    }

    /// Sets the replacement-policy axis by registry name (`"lru"`,
    /// `"mru"`, or a name registered in the spec's
    /// [`ReplacementRegistry`] — see
    /// [`StudySpec::replacement_registry`]); one or many values. Only
    /// meaningful for set-associative geometries (`ways > 1`): with one
    /// way there is nothing to choose a victim among.
    #[must_use]
    pub fn replacement<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.replacements = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the L2-capacity axis (kB); `0` means no L2 (single-level,
    /// the default). A non-zero value composes a two-level hierarchy
    /// where the L2 access stream is exactly the L1 miss stream; the
    /// record then carries `sleep_fraction_l2` / `lt_years_l2` metrics.
    /// A value whose byte count overflows `u64` makes
    /// [`StudySpec::expand`] fail.
    #[must_use]
    pub fn l2_cache_kb(mut self, kb: impl IntoIterator<Item = u64>) -> Self {
        (self.l2_cache_bytes, self.l2_kb_overflow) = kb_to_bytes(kb);
        self
    }

    /// Sets the L2-capacity axis in raw bytes (`0` = no L2).
    #[must_use]
    pub fn l2_cache_bytes(mut self, bytes: impl IntoIterator<Item = u64>) -> Self {
        self.l2_cache_bytes = bytes.into_iter().collect();
        self.l2_kb_overflow = None;
        self
    }

    /// Sets the L2 associativity axis; one or many values. Applies only
    /// to grid points with an L2 (`l2_cache_bytes > 0`): no-L2 points
    /// collapse this axis to a single scenario.
    #[must_use]
    pub fn l2_ways(mut self, ways: impl IntoIterator<Item = u32>) -> Self {
        self.l2_ways = ways.into_iter().collect();
        self
    }

    /// Replaces the replacement-policy registry (to resolve custom
    /// replacement policies by name in [`StudySpec::replacement`]) —
    /// the same hook shape as [`StudySpec::registry`] for indexing
    /// policies.
    #[must_use]
    pub fn replacement_registry(mut self, registry: ReplacementRegistry) -> Self {
        self.replacement_registry = registry;
        self
    }

    /// Sets the update-period axis (days between re-indexing updates);
    /// one or many values.
    #[must_use]
    pub fn update_days(mut self, days: impl IntoIterator<Item = f64>) -> Self {
        self.update_days = days.into_iter().collect();
        self
    }

    /// Sets the policy axis by registry name; one or many values.
    #[must_use]
    pub fn policies<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.policies = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the workload axis to explicit synthetic profiles; one or
    /// many values.
    #[must_use]
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = WorkloadProfile>) -> Self {
        self.workloads = workloads
            .into_iter()
            .map(|p| Arc::new(SyntheticWorkload::new(p)) as Arc<dyn Workload>)
            .collect();
        self
    }

    /// Sets the workload axis to explicit [`Workload`] objects (mixing
    /// synthetic and file-backed freely); one or many values.
    #[must_use]
    pub fn workload_objects(
        mut self,
        workloads: impl IntoIterator<Item = Arc<dyn Workload>>,
    ) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// Sets the workload axis by registry key: suite names (`"sha"`),
    /// user-registered names, and file-backed `format:path` keys
    /// (`csv:…`, `din:…`, `lackey:…`, `file:…`) all resolve.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unknown`] for an unresolvable key,
    /// or [`CoreError::Trace`] when a trace file cannot be read.
    pub fn workload_names<S: AsRef<str>>(
        mut self,
        names: impl IntoIterator<Item = S>,
    ) -> Result<Self, CoreError> {
        let mut workloads = Vec::new();
        for name in names {
            workloads.push(self.workload_registry.resolve(name.as_ref())?);
        }
        self.workloads = workloads;
        Ok(self)
    }

    /// Replaces the workload registry (to resolve custom workloads by
    /// name in [`StudySpec::workload_names`]).
    #[must_use]
    pub fn workload_registry(mut self, registry: WorkloadRegistry) -> Self {
        self.workload_registry = registry;
        self
    }

    /// Sets the device-model axis by registry key; one or many values.
    ///
    /// Keys resolve through the
    /// [`ModelRegistry`](crate::model::ModelRegistry): built-in names
    /// (`"nbti-45nm"`, `"drv"`), parameterized family keys
    /// (`"nbti:temp=105"`, `"variation:30"`) and user-registered names
    /// all work. Keys canonicalize at expansion, so aliases of the
    /// same operating point share one calibration.
    #[must_use]
    pub fn models<S: Into<String>>(mut self, keys: impl IntoIterator<Item = S>) -> Self {
        self.models = keys.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the operating-temperature axis (°C); one or many values.
    ///
    /// Each value is applied as a `temp=` override to every key on the
    /// model axis (overrides win over parameters already in a key), so
    /// `models(["nbti-45nm"]).temps_c([45.0, 125.0])` expands to the
    /// `nbti:temp=45` and `nbti:temp=125` models.
    #[must_use]
    pub fn temps_c(mut self, temps: impl IntoIterator<Item = f64>) -> Self {
        self.temps_c = temps.into_iter().collect();
        self
    }

    /// Sets the drowsy-rail axis (V); one or many values, applied as
    /// `vlow=` overrides to every key on the model axis.
    #[must_use]
    pub fn vdd_low(mut self, volts: impl IntoIterator<Item = f64>) -> Self {
        self.vdd_lows = volts.into_iter().collect();
        self
    }

    /// Sets the failure-criterion axis (percent SNM degradation); one
    /// or many values, applied as `fail=` overrides to every key on
    /// the model axis.
    #[must_use]
    pub fn failure_pct(mut self, pcts: impl IntoIterator<Item = f64>) -> Self {
        self.failure_pcts = pcts.into_iter().collect();
        self
    }

    /// Sets the simulated trace length in cycles.
    #[must_use]
    pub fn trace_cycles(mut self, cycles: u64) -> Self {
        self.trace_cycles = cycles;
        self
    }

    /// Sets the base seed (see the module docs for the derivation chain).
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Pins the policy seed for *every* scenario instead of deriving it.
    /// The table presets pin `1`, the historic LFSR seed.
    #[must_use]
    pub fn policy_seed(mut self, seed: u64) -> Self {
        self.policy_seed = Some(seed);
        self
    }

    /// Caps the worker-thread count, the only worker knob a run has.
    /// Defaults to available parallelism; `1` runs every scenario on
    /// the calling thread, in grid order — the reference loop every
    /// other count must match byte for byte.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Replaces the policy registry (to resolve custom policies).
    #[must_use]
    pub fn registry(mut self, registry: PolicyRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// The study name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base seed currently configured.
    pub fn base_seed_value(&self) -> u64 {
        self.base_seed
    }

    /// Composes one model key with every temperature / drowsy-rail /
    /// failure-criterion override, canonicalized.
    fn compose_key(&self, key: &str) -> Result<Vec<String>, CoreError> {
        fn axis(values: &[f64]) -> Vec<Option<f64>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().copied().map(Some).collect()
            }
        }
        let mut keys = Vec::new();
        for &temp_c in &axis(&self.temps_c) {
            for &vdd_low in &axis(&self.vdd_lows) {
                for &fail_pct in &axis(&self.failure_pcts) {
                    keys.push(model::compose(
                        key,
                        ModelParams {
                            temp_c,
                            vdd_low,
                            sleep_gated: None,
                            fail_pct,
                        },
                    )?);
                }
            }
        }
        Ok(keys)
    }

    /// Every rule the spec breaks, in the order [`StudySpec::expand`]
    /// checks them: kB overflow, empty axes, unknown policies and
    /// replacements, parameter ranges, model-key composition, the L1
    /// and L2 geometries, L2 ≥ L1, and pinned-profile bank counts.
    /// `expand` fails with the first; `study check` reports them all.
    /// A valid spec builds nothing, not even a message.
    ///
    /// The same pass composes the model axis: every model key crossed
    /// with the override axes, canonicalized (`None` when a key does
    /// not compose).
    pub(crate) fn problems(&self) -> (Vec<Problem>, Option<Vec<String>>) {
        let mut out = Vec::new();
        // `None`: the error is a `CoreError::Report` of the message.
        let mut push = |code, message: String, error: Option<CoreError>| {
            let error = error.unwrap_or_else(|| CoreError::Report {
                message: message.clone(),
            });
            out.push(Problem {
                code,
                message,
                error,
            })
        };
        for (axis, kb) in [
            ("cache_kb", self.cache_kb_overflow),
            ("l2_cache_kb", self.l2_kb_overflow),
        ] {
            if let Some(kb) = kb {
                let message = format!("axis `{axis}`: {kb} kB overflows a 64-bit byte count");
                push("spec-axis", message, None);
            }
        }
        for (axis, len) in [
            ("cache_bytes", self.cache_bytes.len()),
            ("line_bytes", self.line_bytes.len()),
            ("banks", self.banks.len()),
            ("ways", self.ways.len()),
            ("replacements", self.replacements.len()),
            ("l2_cache_bytes", self.l2_cache_bytes.len()),
            ("l2_ways", self.l2_ways.len()),
            ("update_days", self.update_days.len()),
            ("policies", self.policies.len()),
            ("workloads", self.workloads.len()),
            ("models", self.models.len()),
        ] {
            if len == 0 {
                push("spec-axis", format!("axis `{axis}` is empty"), None);
            }
        }
        for name in &self.policies {
            if self.registry.get(name).is_none() {
                let known = self.registry.names().join(", ");
                let message = format!("unknown policy `{name}` (known: {known})");
                push("spec-policy", message, Some(self.registry.unknown(name)));
            }
        }
        for name in &self.replacements {
            if let Err(e) = self.replacement_registry.resolve(name) {
                let known = self.replacement_registry.names().join(", ");
                let message = format!("unknown replacement policy `{name}` (known: {known})");
                push("spec-replacement", message, Some(e));
            }
        }
        let positive: fn(f64) -> bool = |x| x > 0.0;
        let ranges = [
            (
                "update_days",
                &self.update_days,
                positive,
                "a positive update period",
            ),
            (
                "temps_c",
                &self.temps_c,
                |t| t > -273.15,
                "a temperature above absolute zero (°C)",
            ),
            (
                "vdd_low",
                &self.vdd_lows,
                positive,
                "a positive drowsy rail voltage",
            ),
            (
                "failure_pct",
                &self.failure_pcts,
                |pct| pct > 0.0 && pct < 100.0,
                "a failure criterion in (0, 100) percent",
            ),
        ];
        for (name, values, valid, expected) in ranges {
            // `valid` is false for NaN, so NaN is out of every range.
            for &value in values.iter().filter(|&&v| !valid(v)) {
                let message = format!("{name} = {value} (need {expected})");
                let error = CoreError::InvalidParameter {
                    name,
                    value,
                    expected,
                };
                push("spec-param", message, Some(error));
            }
        }
        let mut model_keys = Some(Vec::new());
        for key in &self.models {
            match self.compose_key(key) {
                Ok(composed) => {
                    if let Some(keys) = &mut model_keys {
                        keys.extend(composed);
                    }
                }
                Err(e) => {
                    model_keys = None;
                    push("spec-model", format!("model key `{key}`: {e}"), Some(e));
                }
            }
        }
        for &bytes in &self.cache_bytes {
            for &line in &self.line_bytes {
                for &banks in &self.banks {
                    for &ways in &self.ways {
                        if let Err(e) = CacheGeometry::new(bytes, line, ways, banks) {
                            let message = format!(
                                "cache={bytes}B line={line}B ways={ways} banks={banks}: {e}"
                            );
                            push("spec-geometry", message, Some(e.into()));
                        }
                    }
                }
            }
        }
        // The L2 shares the line size and bank count; its capacity and
        // associativity are axes of their own. `0` means no L2 and
        // needs no geometry (it also collapses the l2_ways axis).
        for &l2_bytes in self.l2_cache_bytes.iter().filter(|&&b| b > 0) {
            for &line in &self.line_bytes {
                for &banks in &self.banks {
                    for &l2_ways in &self.l2_ways {
                        if let Err(e) = CacheGeometry::new(l2_bytes, line, l2_ways, banks) {
                            let message = format!(
                                "l2_cache_bytes={l2_bytes}B line={line}B l2_ways={l2_ways} \
                                 banks={banks}: {e}"
                            );
                            push("spec-geometry", message, Some(e.into()));
                        }
                    }
                }
            }
            for &bytes in self.cache_bytes.iter().filter(|&&b| l2_bytes < b) {
                let message = format!(
                    "l2_cache_bytes={l2_bytes}B is smaller than cache_bytes={bytes}B \
                     (the L2 must be at least as large as the L1)"
                );
                let error = SimError::InvalidGeometry {
                    name: "l2_cache_bytes",
                    value: l2_bytes,
                    expected: "an L2 at least as large as the L1",
                };
                push("spec-geometry", message, Some(error.into()));
            }
        }
        for w in &self.workloads {
            let Some(profile) = w.pinned_profile() else {
                continue;
            };
            for &banks in self.banks.iter().filter(|&&b| profile.len() != b as usize) {
                let message = format!(
                    "workload `{}` pins {} banks but the grid asks for {banks}",
                    w.name(),
                    profile.len()
                );
                push("spec-workload", message, None);
            }
        }
        (out, model_keys)
    }

    /// Expands the axes into the cartesian scenario grid.
    ///
    /// Expansion order (outermost to innermost): cache size, line size,
    /// banks, ways, replacement policy, L2 size, L2 ways, device model,
    /// update period, policy, workload. Scenario ids number that order,
    /// so the innermost workload axis matches the historic `seed + i`
    /// suite loop (and grids that leave the geometry axes at their
    /// defaults keep their pre-geometry-axis ids).
    ///
    /// # Errors
    ///
    /// Returns the first problem on the spec's rule list: kB sizes
    /// whose byte count overflows `u64`, empty axes, unknown policy or
    /// replacement names, out-of-range parameters, malformed model
    /// keys, invalid geometries (including `ways` that don't divide the
    /// line capacity and an L2 smaller than the L1) and profile/bank-count
    /// mismatches are all rejected up front, so a run can only fail on
    /// model-level errors.
    pub fn expand(&self) -> Result<ScenarioGrid, CoreError> {
        let (problems, model_keys) = self.problems();
        if let Some(problem) = problems.into_iter().next() {
            return Err(problem.error);
        }
        // Every key composed: a key that did not is a problem.
        let model_keys = model_keys.unwrap_or_default();
        let mut geometries = Vec::new();
        for &bytes in &self.cache_bytes {
            for &line in &self.line_bytes {
                for &banks in &self.banks {
                    for &ways in &self.ways {
                        for replacement in &self.replacements {
                            for &l2_bytes in &self.l2_cache_bytes {
                                // Without an L2 there is no L2 geometry to
                                // sweep: the l2_ways axis collapses to one
                                // point instead of duplicate grid points.
                                let l2_ways: &[u32] =
                                    if l2_bytes == 0 { &[1] } else { &self.l2_ways };
                                for &l2_ways in l2_ways {
                                    let l1 = (bytes, line, banks, ways, replacement);
                                    geometries.push((l1, l2_bytes, l2_ways));
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut scenarios = Vec::with_capacity(
            geometries.len()
                * model_keys.len()
                * self.update_days.len()
                * self.policies.len()
                * self.workloads.len(),
        );
        for ((bytes, line, banks, ways, replacement), l2_bytes, l2_ways) in geometries {
            for model in &model_keys {
                for &days in &self.update_days {
                    for policy in &self.policies {
                        for (wi, w) in self.workloads.iter().enumerate() {
                            let id = scenarios.len();
                            scenarios.push(Scenario {
                                id,
                                cache_bytes: bytes,
                                line_bytes: line,
                                banks,
                                ways,
                                replacement: replacement.clone(),
                                l2_cache_bytes: l2_bytes,
                                l2_ways,
                                update_days: days,
                                policy: policy.clone(),
                                workload: w.name().to_string(),
                                workload_index: wi,
                                workload_source: w.source_info(),
                                model: model.clone(),
                                trace_cycles: self.trace_cycles,
                                trace_seed: self.base_seed + wi as u64,
                                policy_seed: self.policy_seed.unwrap_or_else(|| {
                                    derive_policy_seed(self.base_seed, id as u64, policy)
                                }),
                            });
                        }
                    }
                }
            }
        }
        Ok(ScenarioGrid {
            name: self.name.clone(),
            scenarios,
            workloads: self.workloads.clone(),
            registry: self.registry.clone(),
            replacement_registry: self.replacement_registry.clone(),
            threads: self.threads,
        })
    }
}

/// The one parser from study keys to a [`StudySpec`]: the `study`
/// CLI's spec flags and the study server's query parameters both
/// feed it, so `--cache-kb 8,16` and `cache-kb=8,16` are one key.
///
/// A key is spelled with or without a leading `--`. List keys take
/// comma-separated values; `trace-cycles`, `seed` and `threads` take
/// exactly one. `workloads=all` names the full suite, `trace` and
/// `profile` append to the workload selection (or replace the default
/// suite when alone), and `model` repeats, one key per use (model keys
/// use commas internally).
///
/// ```
/// use aging_cache::study::{SpecParser, StudySpec};
///
/// # fn main() -> Result<(), aging_cache::CoreError> {
/// let mut parser = SpecParser::new(StudySpec::new("sweep"));
/// assert!(parser.apply("--cache-kb", "8,16")?);
/// assert!(parser.apply("workloads", "sha")?);
/// assert!(!parser.apply("format", "md")?, "not a spec key");
/// assert!(parser.apply("seed", "1,2").is_err(), "one value only");
/// assert_eq!(parser.finish()?.expand()?.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct SpecParser {
    // Always `Some` between calls: the `Option` lets a by-value
    // builder run in place.
    spec: Option<StudySpec>,
    // The workload axis is assembled from `workloads`, `trace` and
    // `profile` once parsing finishes: `None` = the default suite.
    workloads: Option<Vec<String>>,
    traces: Vec<String>,
    models: Vec<String>,
}

impl SpecParser {
    /// A parser whose keys edit `spec`.
    pub fn new(spec: StudySpec) -> Self {
        Self {
            spec: Some(spec),
            workloads: None,
            traces: Vec::new(),
            models: Vec::new(),
        }
    }

    /// Applies one `key`/`value` pair. `Ok(false)` means `key` is not
    /// a spec key and the caller should handle it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] naming the key when a value does
    /// not parse, or when a one-value key gets a list.
    pub fn apply(&mut self, key: &str, value: &str) -> Result<bool, CoreError> {
        fn one<T: std::str::FromStr>(value: &str, key: &str) -> Result<T, CoreError> {
            value.trim().parse().map_err(|_| CoreError::Report {
                message: format!("invalid value `{value}` for `{key}`"),
            })
        }
        fn list<T: std::str::FromStr>(value: &str, key: &str) -> Result<Vec<T>, CoreError> {
            value.split(',').map(|v| one(v, key)).collect()
        }
        let names = || value.split(',').map(|v| v.trim().to_string()).collect();
        match key.strip_prefix("--").unwrap_or(key) {
            "cache-kb" => self.edit(list(value, key)?, StudySpec::cache_kb),
            "line-bytes" => self.edit(list(value, key)?, StudySpec::line_bytes),
            "banks" => self.edit(list(value, key)?, StudySpec::banks),
            "ways" => self.edit(list(value, key)?, StudySpec::ways),
            "replacement" => self.edit(names(), StudySpec::replacement::<String>),
            "l2-kb" => self.edit(list(value, key)?, StudySpec::l2_cache_kb),
            "l2-ways" => self.edit(list(value, key)?, StudySpec::l2_ways),
            "update-days" => self.edit(list(value, key)?, StudySpec::update_days),
            "policies" => self.edit(names(), StudySpec::policies::<String>),
            "workloads" if value == "all" => {
                // The explicit suite, in suite order, so a `trace`
                // appends to it instead of replacing it.
                let names = builtin_suite().iter().map(|w| w.name().to_string());
                self.workloads = Some(names.collect());
            }
            "workloads" => self.workloads = Some(names()),
            "trace" => self.traces.push(value.to_string()),
            // A pinned per-bank idleness profile: comma-separated
            // sleep fractions, no simulation.
            "profile" => self.traces.push(format!("profile:{}", value.trim())),
            // Deliberately no plural `models` key: model keys use
            // commas internally, so `models=a,b` would invite one bad
            // key.
            "model" => self.models.push(value.trim().to_string()),
            "temp" => self.edit(list(value, key)?, StudySpec::temps_c),
            "vlow" => self.edit(list(value, key)?, StudySpec::vdd_low),
            "fail" => self.edit(list(value, key)?, StudySpec::failure_pct),
            "trace-cycles" => self.edit(one(value, key)?, StudySpec::trace_cycles),
            "seed" => self.edit(one(value, key)?, StudySpec::base_seed),
            "threads" => self.edit(one(value, key)?, StudySpec::threads),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn edit<V>(&mut self, value: V, builder: impl FnOnce(StudySpec, V) -> StudySpec) {
        self.spec = self.spec.take().map(|spec| builder(spec, value));
    }

    /// The spec with the model axis applied, plus the merged workload
    /// keys (`None` = keep the spec's workloads). `study check` resolves
    /// the keys itself, so each bad key becomes a finding.
    pub fn into_parts(self) -> (StudySpec, Option<Vec<String>>) {
        let mut spec = self.spec.unwrap_or_else(|| StudySpec::new(""));
        if !self.models.is_empty() {
            spec = spec.models(self.models);
        }
        let keys = match (self.workloads, self.traces.is_empty()) {
            (Some(mut named), _) => {
                named.extend(self.traces);
                Some(named)
            }
            (None, false) => Some(self.traces),
            (None, true) => None,
        };
        (spec, keys)
    }

    /// The finished spec, its workload keys resolved.
    ///
    /// # Errors
    ///
    /// Returns the first workload key that does not resolve (see
    /// [`StudySpec::workload_names`]).
    pub fn finish(self) -> Result<StudySpec, CoreError> {
        match self.into_parts() {
            (spec, Some(keys)) => spec.workload_names(&keys),
            (spec, None) => Ok(spec),
        }
    }
}

/// A rule a spec breaks: the error [`StudySpec::expand`] returns for
/// it, and the code and message `study check` reports it under.
pub(crate) struct Problem {
    /// The check finding code (`spec-axis`, `spec-geometry`, …).
    pub(crate) code: &'static str,
    /// The check finding message.
    pub(crate) message: String,
    /// What `expand` returns when this is the spec's first problem.
    pub(crate) error: CoreError,
}

/// Converts a kB axis to bytes. The first value whose byte count
/// overflows `u64` is dropped from the axis and returned beside it.
fn kb_to_bytes(kb: impl IntoIterator<Item = u64>) -> (Vec<u64>, Option<u64>) {
    let mut overflow = None;
    let bytes = kb
        .into_iter()
        .filter_map(|k| {
            let bytes = k.checked_mul(1024);
            if bytes.is_none() {
                overflow.get_or_insert(k);
            }
            bytes
        })
        .collect();
    (bytes, overflow)
}

/// One fully resolved point of the evaluation grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Position in the expanded grid (also the record order).
    pub id: usize,
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Number of uniform banks `M`.
    pub banks: u32,
    /// Set-associative ways per set (`1` = direct-mapped, the historic
    /// reference point).
    pub ways: u32,
    /// Registry name of the replacement policy
    /// ([`DEFAULT_REPLACEMENT`] unless the spec set the axis).
    pub replacement: String,
    /// L2 capacity in bytes; `0` means no L2 (a single-level study).
    pub l2_cache_bytes: u64,
    /// L2 ways per set (`1` unless swept; only meaningful when
    /// `l2_cache_bytes > 0`).
    pub l2_ways: u32,
    /// Days between re-indexing updates.
    pub update_days: f64,
    /// Registry name of the indexing policy.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Index of the workload on the spec's workload axis.
    pub workload_index: usize,
    /// Provenance of a file-backed workload (trace format + content
    /// hash), `None` for synthetic workloads. Serialized into reports
    /// so published results name exactly which trace produced them.
    pub workload_source: Option<WorkloadSourceInfo>,
    /// Canonical key of the device/aging model
    /// ([`model::DEFAULT_MODEL`] unless the spec set a model axis).
    pub model: String,
    /// Simulated trace length in cycles.
    pub trace_cycles: u64,
    /// Derived trace seed (`base_seed + workload_index`).
    pub trace_seed: u64,
    /// Derived (or pinned) policy seed.
    pub policy_seed: u64,
}

impl Scenario {
    pub(crate) fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id", Json::Num(self.id as f64)),
            ("cache_bytes", Json::Num(self.cache_bytes as f64)),
            ("line_bytes", Json::Num(self.line_bytes as f64)),
            ("banks", Json::Num(self.banks as f64)),
            ("update_days", Json::Num(self.update_days)),
            ("policy", Json::Str(self.policy.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("workload_index", Json::Num(self.workload_index as f64)),
            ("trace_cycles", Json::Num(self.trace_cycles as f64)),
            // Seeds are full-range u64s; a JSON number (f64) only holds
            // 53 bits exactly, so emit them as decimal strings.
            ("trace_seed", Json::Str(self.trace_seed.to_string())),
            ("policy_seed", Json::Str(self.policy_seed.to_string())),
        ];
        // Every geometry field below is omitted at its default, so
        // reports written before the geometry axis opened parse (and
        // emit) unchanged — and a ways=1 single-level study emits the
        // exact historic bytes.
        if self.ways != 1 {
            pairs.push(("ways", Json::Num(self.ways as f64)));
        }
        if self.replacement != DEFAULT_REPLACEMENT {
            pairs.push(("replacement", Json::Str(self.replacement.clone())));
        }
        if self.l2_cache_bytes != 0 {
            pairs.push(("l2_cache_bytes", Json::Num(self.l2_cache_bytes as f64)));
            if self.l2_ways != 1 {
                pairs.push(("l2_ways", Json::Num(self.l2_ways as f64)));
            }
        }
        // Omitted for the reference model, so reports written before
        // the model axis opened parse (and emit) unchanged.
        if self.model != model::DEFAULT_MODEL {
            pairs.push(("model", Json::Str(self.model.clone())));
        }
        // Omitted entirely for synthetic workloads, so reports written
        // before the workload axis opened parse (and emit) unchanged.
        if let Some(source) = &self.workload_source {
            pairs.push((
                "workload_source",
                Json::obj(vec![
                    ("format", Json::Str(source.format.clone())),
                    ("hash", Json::Str(source.hash.clone())),
                    ("path", Json::Str(source.path.clone())),
                ]),
            ));
        }
        Json::obj(pairs)
    }

    fn u64_field(v: &Json, key: &str) -> Result<u64, CoreError> {
        let field = v.field(key)?;
        match field.as_str(key) {
            Ok(s) => s.parse::<u64>().map_err(|_| CoreError::Report {
                message: format!("field `{key}` is not a u64: `{s}`"),
            }),
            Err(_) => Ok(field.as_num(key)? as u64),
        }
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self, CoreError> {
        let workload_source = match v.get("workload_source") {
            None => None,
            Some(s) => Some(WorkloadSourceInfo {
                format: s.field("format")?.as_str("format")?.to_string(),
                hash: s.field("hash")?.as_str("hash")?.to_string(),
                path: s.field("path")?.as_str("path")?.to_string(),
            }),
        };
        Ok(Self {
            workload_source,
            model: match v.get("model") {
                Some(m) => m.as_str("model")?.to_string(),
                None => model::DEFAULT_MODEL.to_string(),
            },
            id: v.field("id")?.as_num("id")? as usize,
            cache_bytes: v.field("cache_bytes")?.as_num("cache_bytes")? as u64,
            line_bytes: v.field("line_bytes")?.as_num("line_bytes")? as u32,
            banks: v.field("banks")?.as_num("banks")? as u32,
            ways: match v.get("ways") {
                Some(n) => n.as_num("ways")? as u32,
                None => 1,
            },
            replacement: match v.get("replacement") {
                Some(r) => r.as_str("replacement")?.to_string(),
                None => DEFAULT_REPLACEMENT.to_string(),
            },
            l2_cache_bytes: match v.get("l2_cache_bytes") {
                Some(n) => n.as_num("l2_cache_bytes")? as u64,
                None => 0,
            },
            l2_ways: match v.get("l2_ways") {
                Some(n) => n.as_num("l2_ways")? as u32,
                None => 1,
            },
            update_days: v.field("update_days")?.as_num("update_days")?,
            policy: v.field("policy")?.as_str("policy")?.to_string(),
            workload: v.field("workload")?.as_str("workload")?.to_string(),
            workload_index: v.field("workload_index")?.as_num("workload_index")? as usize,
            trace_cycles: v.field("trace_cycles")?.as_num("trace_cycles")? as u64,
            trace_seed: Self::u64_field(v, "trace_seed")?,
            policy_seed: Self::u64_field(v, "policy_seed")?,
        })
    }
}

/// An expanded grid, ready to run.
///
/// Fields are crate-visible: the search layer assembles grids for
/// expanded spaces and probe batches, where scenarios keep whatever
/// ids they carry and the full workload axis rides along so
/// `workload_index` stays valid.
#[derive(Clone)]
pub struct ScenarioGrid {
    pub(crate) name: String,
    pub(crate) scenarios: Vec<Scenario>,
    /// The workload objects the scenarios' `workload_index` values
    /// resolve into.
    pub(crate) workloads: Vec<Arc<dyn Workload>>,
    /// The policy registry scenarios build their mappings from.
    pub(crate) registry: PolicyRegistry,
    /// The registry scenarios resolve their `replacement` names from.
    pub(crate) replacement_registry: ReplacementRegistry,
    /// The spec-level worker cap, if one was set.
    pub(crate) threads: Option<usize>,
}

impl std::fmt::Debug for ScenarioGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioGrid")
            .field("name", &self.name)
            .field("scenarios", &self.scenarios.len())
            .field(
                "workloads",
                &self.workloads.iter().map(|w| w.name()).collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl ScenarioGrid {
    /// The grid (study) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenarios, in id order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the grid is empty (it never is after `expand`).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// Measured results for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// The grid point this record measures.
    pub scenario: Scenario,
    /// Cycles actually simulated. Equals `scenario.trace_cycles` for
    /// synthetic workloads; a file-backed trace shorter than the cap
    /// ends the run early, and this records the truth (pinned-profile
    /// workloads simulate nothing and record 0).
    pub sim_cycles: u64,
    /// Energy saving vs the monolithic always-on cache (`NaN` for
    /// pinned-profile workloads — there is no trace to measure).
    pub esav: f64,
    /// Cache miss rate on the trace (`NaN` for pinned profiles).
    pub miss_rate: f64,
    /// Per-bank useful idleness (Table I's metric).
    pub useful_idleness: Vec<f64>,
    /// Per-bank sleep fractions (what the aging model consumes).
    pub sleep_fractions: Vec<f64>,
    /// The scenario model's named outputs, in the model's emission
    /// order. The reference model emits `lt0_years` / `lt_years`; see
    /// [`ScenarioRecord::lt0_years`] / [`ScenarioRecord::lt_years`]
    /// for the historic accessors.
    pub metrics: Metrics,
}

impl ScenarioRecord {
    /// Record-level JSON field names a model metric may not shadow
    /// (metrics are inlined as top-level record fields; the grid
    /// runner rejects models that emit one of these).
    pub const RESERVED_FIELDS: [&'static str; 6] = [
        "scenario",
        "sim_cycles",
        "esav",
        "miss_rate",
        "useful_idleness",
        "sleep_fractions",
    ];

    /// Average useful idleness over the banks.
    pub fn avg_useful_idleness(&self) -> f64 {
        self.useful_idleness.iter().sum::<f64>() / self.useful_idleness.len() as f64
    }

    /// Looks up a named metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)
    }

    /// Lifetime under the identity policy (no re-indexing), years —
    /// the historic accessor for the `lt0_years` metric. `NaN` if the
    /// scenario's model does not emit it.
    pub fn lt0_years(&self) -> f64 {
        self.metrics.get(model::METRIC_LT0).unwrap_or(f64::NAN)
    }

    /// Lifetime under the scenario's policy, years — the historic
    /// accessor for the `lt_years` metric. `NaN` if the scenario's
    /// model does not emit it.
    pub fn lt_years(&self) -> f64 {
        self.metrics.get(model::METRIC_LT).unwrap_or(f64::NAN)
    }

    pub(crate) fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("scenario", self.scenario.to_json()),
            ("sim_cycles", Json::Num(self.sim_cycles as f64)),
            ("esav", Json::Num(self.esav)),
            ("miss_rate", Json::Num(self.miss_rate)),
            ("useful_idleness", Json::nums(&self.useful_idleness)),
            ("sleep_fractions", Json::nums(&self.sleep_fractions)),
        ];
        // Metrics are inlined as top-level fields in emission order:
        // the reference model's `lt0_years`/`lt_years` land exactly
        // where the pre-model-axis codec put them, so historic reports
        // round-trip byte-identically.
        for (name, value) in self.metrics.iter() {
            pairs.push((name, Json::Num(value)));
        }
        Json::obj(pairs)
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self, CoreError> {
        let nums = |key: &str| -> Result<Vec<f64>, CoreError> {
            v.field(key)?
                .as_arr(key)?
                .iter()
                .map(|item| item.as_num(key).map_err(CoreError::from))
                .collect()
        };
        let scenario = Scenario::from_json(v.field("scenario")?)?;
        // Reports written before the workload axis opened lack the
        // field; for them the requested length is the simulated length.
        let sim_cycles = match v.get("sim_cycles") {
            Some(n) => n.as_num("sim_cycles")? as u64,
            None => scenario.trace_cycles,
        };
        // Every unclaimed field is a metric, in document order — which
        // is exactly how a PR-2-era `lt0_years`/`lt_years` pair parses
        // into the metrics map.
        let Json::Obj(pairs) = v else {
            return Err(CoreError::Report {
                message: "scenario record is not an object".into(),
            });
        };
        let mut metrics = Vec::new();
        for (key, value) in pairs {
            if Self::RESERVED_FIELDS.contains(&key.as_str()) {
                continue;
            }
            metrics.push((key.as_str(), value.as_num(key)?));
        }
        let metrics = Metrics::from_pairs(metrics);
        Ok(Self {
            scenario,
            sim_cycles,
            esav: v.field("esav")?.as_num("esav")?,
            miss_rate: v.field("miss_rate")?.as_num("miss_rate")?,
            useful_idleness: nums("useful_idleness")?,
            sleep_fractions: nums("sleep_fractions")?,
            metrics,
        })
    }
}

/// A completed study: scenario records in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    name: String,
    records: Vec<ScenarioRecord>,
}

impl StudyReport {
    /// Assembles a report from records (for views over filtered data).
    pub fn from_records(name: impl Into<String>, records: Vec<ScenarioRecord>) -> Self {
        Self {
            name: name.into(),
            records,
        }
    }

    /// The study name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All records, in scenario-id order.
    pub fn records(&self) -> &[ScenarioRecord] {
        &self.records
    }

    /// Serializes to deterministic compact JSON.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            (
                "records",
                Json::Arr(self.records.iter().map(ScenarioRecord::to_json).collect()),
            ),
        ])
        .emit()
    }

    /// Parses a report back from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        let v = Json::parse(text)?;
        let records = v
            .field("records")?
            .as_arr("records")?
            .iter()
            .map(ScenarioRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            name: v.field("name")?.as_str("name")?.to_string(),
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::StudySession;
    use trace_synth::suite;

    #[test]
    fn specs_and_sessions_share_the_builtin_workload_objects() {
        // The suite is built once per process: a per-call rebuild would
        // hand out fresh objects and fail the pointer checks.
        let (a, b) = (StudySpec::new("a"), StudySpec::new("b"));
        let fresh = WorkloadRegistry::builtin();
        assert_eq!(a.workloads.len(), 18);
        for (i, w) in a.workloads.iter().enumerate() {
            assert!(Arc::ptr_eq(w, &b.workloads[i]), "{}", w.name());
            for registry in [&a.workload_registry, &fresh] {
                let registered = registry.get(w.name()).expect("registered");
                assert!(Arc::ptr_eq(w, registered), "{}", w.name());
            }
        }
        // `workloads=all` names the same set, in suite order.
        let mut parser = SpecParser::new(StudySpec::new("all"));
        assert!(parser.apply("workloads", "all").unwrap());
        let all = parser.finish().unwrap();
        for (w, shared) in all.workloads.iter().zip(&a.workloads) {
            assert!(Arc::ptr_eq(w, shared), "{}", w.name());
        }
    }

    fn tiny_spec() -> StudySpec {
        StudySpec::new("tiny")
            .workload_names(["sha", "CRC32"])
            .unwrap()
            .trace_cycles(40_000)
    }

    #[test]
    fn overflowing_kb_sizes_are_rejected_by_name() {
        // 2^54 + 1 kB wraps to 1 kB in an unchecked multiply.
        let huge = (1u64 << 54) + 1;
        let e = tiny_spec().cache_kb([16, huge]).expand().unwrap_err();
        let text = e.to_string();
        assert!(matches!(e, CoreError::Report { .. }), "{e:?}");
        assert!(
            text.contains("cache_kb") && text.contains(&huge.to_string()),
            "{text}"
        );
        let e = tiny_spec().l2_cache_kb([huge]).expand().unwrap_err();
        assert!(e.to_string().contains("l2_cache_kb"), "{e}");
        // The largest size that fits still converts exactly, and a later
        // byte-sized axis replaces the rejected one.
        let fits = u64::MAX / 1024;
        assert_eq!(tiny_spec().cache_kb([fits]).cache_bytes, [fits * 1024]);
        assert!(tiny_spec()
            .cache_kb([huge])
            .cache_bytes([16 * 1024])
            .expand()
            .is_ok());
    }

    #[test]
    fn expansion_order_and_seeds() {
        let grid = tiny_spec()
            .cache_kb([8, 16])
            .policies(["probing", "gray"])
            .expand()
            .unwrap();
        assert_eq!(grid.len(), 2 * 2 * 2);
        let s = grid.scenarios();
        // Workload is the innermost axis.
        assert_eq!(s[0].workload, "sha");
        assert_eq!(s[1].workload, "CRC32");
        assert_eq!(s[0].policy, "probing");
        assert_eq!(s[2].policy, "gray");
        assert_eq!(s[0].cache_bytes, 8 * 1024);
        assert_eq!(s[4].cache_bytes, 16 * 1024);
        // Historic trace-seed rule.
        assert_eq!(s[0].trace_seed, DEFAULT_BASE_SEED);
        assert_eq!(s[1].trace_seed, DEFAULT_BASE_SEED + 1);
        // Ids number the grid order.
        for (i, sc) in s.iter().enumerate() {
            assert_eq!(sc.id, i);
        }
    }

    #[test]
    fn empty_axis_is_rejected() {
        let e = tiny_spec().policies(Vec::<String>::new()).expand();
        assert!(matches!(e, Err(CoreError::Report { .. })));
    }

    #[test]
    fn unknown_policy_is_rejected_at_expansion() {
        let e = tiny_spec().policies(["warp-drive"]).expand();
        assert!(matches!(e, Err(CoreError::Unknown { kind: "policy", .. })));
    }

    #[test]
    fn unknown_workload_is_rejected() {
        assert!(StudySpec::new("x").workload_names(["not-a-bench"]).is_err());
    }

    #[test]
    fn bad_update_period_is_rejected() {
        let e = tiny_spec().update_days([0.0]).expand();
        assert!(matches!(e, Err(CoreError::InvalidParameter { .. })));
    }

    #[test]
    fn pinned_policy_seed_applies_everywhere() {
        let grid = tiny_spec().policy_seed(7).expand().unwrap();
        assert!(grid.scenarios().iter().all(|s| s.policy_seed == 7));
        let derived = tiny_spec().expand().unwrap();
        assert_ne!(
            derived.scenarios()[0].policy_seed,
            derived.scenarios()[1].policy_seed
        );
    }

    #[test]
    fn short_file_trace_records_actual_cycles() {
        // A file-backed trace shorter than trace_cycles must not claim
        // the full requested length in its record.
        let accesses: Vec<_> = suite::by_name("sha")
            .unwrap()
            .trace(9)
            .take(5_000)
            .collect();
        let mut text = String::new();
        trace_synth::formats::write_csv(&mut text, &accesses);
        let dir =
            std::env::temp_dir().join(format!("nbti-study-short-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.csv");
        std::fs::write(&path, &text).unwrap();

        let spec = StudySpec::new("short")
            .workload_names([format!("csv:{}", path.display())])
            .unwrap()
            .trace_cycles(40_000);
        let report = StudySession::new().run(&spec).unwrap();
        let r = &report.records()[0];
        assert_eq!(r.scenario.trace_cycles, 40_000, "the request is recorded");
        assert_eq!(r.sim_cycles, 5_000, "the truth is recorded");
        // And it survives the JSON round-trip.
        let back = StudyReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.records()[0].sim_cycles, 5_000);
    }

    #[test]
    fn report_json_roundtrip_without_running() {
        let scenario = Scenario {
            id: 0,
            cache_bytes: 16 * 1024,
            line_bytes: 16,
            banks: 4,
            ways: 1,
            replacement: DEFAULT_REPLACEMENT.into(),
            l2_cache_bytes: 0,
            l2_ways: 1,
            update_days: 1.0,
            policy: "probing".into(),
            workload: "sha".into(),
            workload_index: 0,
            workload_source: None,
            model: model::DEFAULT_MODEL.into(),
            trace_cycles: 1000,
            trace_seed: 1000,
            policy_seed: 1,
        };
        let report = StudyReport::from_records(
            "roundtrip",
            vec![ScenarioRecord {
                scenario,
                sim_cycles: 1000,
                esav: 0.443,
                miss_rate: 0.01,
                useful_idleness: vec![0.1, 0.9, 0.95, 0.05],
                sleep_fractions: vec![0.08, 0.88, 0.93, 0.04],
                metrics: Metrics::from_pairs([("lt0_years", 2.97), ("lt_years", 4.31)]),
            }],
        );
        let text = report.to_json();
        // The reference model and its metric pair emit the historic
        // field layout: no `model` key, metrics inline.
        assert!(
            text.contains("\"lt0_years\":2.97,\"lt_years\":4.31"),
            "{text}"
        );
        assert!(!text.contains("\"model\""), "{text}");
        // Default geometry fields are omitted too: the historic layout.
        for absent in [
            "\"ways\"",
            "\"replacement\"",
            "\"l2_cache_bytes\"",
            "\"l2_ways\"",
        ] {
            assert!(!text.contains(absent), "{absent} leaked into {text}");
        }
        let back = StudyReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn geometry_axes_expand_and_roundtrip() {
        let grid = tiny_spec()
            .ways([1, 4])
            .replacement(["lru", "mru"])
            .l2_cache_kb([0, 64])
            .l2_ways([4])
            .expand()
            .unwrap();
        // 2 ways × 2 replacements × 2 L2 sizes × 1 l2_ways × 2 workloads.
        assert_eq!(grid.len(), 16);
        let s = grid.scenarios();
        assert_eq!((s[0].ways, s[0].l2_cache_bytes, s[0].l2_ways), (1, 0, 1));
        assert_eq!(
            (s[2].ways, s[2].l2_cache_bytes, s[2].l2_ways),
            (1, 64 * 1024, 4)
        );
        assert_eq!(s[4].replacement, "mru");
        assert_eq!(s[8].ways, 4);
        // Non-default geometry survives the record JSON round-trip.
        let record = ScenarioRecord {
            scenario: s[10].clone(),
            sim_cycles: 10,
            esav: 0.1,
            miss_rate: 0.2,
            useful_idleness: vec![0.5; 4],
            sleep_fractions: vec![0.4; 4],
            metrics: Metrics::new(),
        };
        let report = StudyReport::from_records("geom", vec![record]);
        let text = report.to_json();
        assert!(text.contains("\"ways\":4"), "{text}");
        assert!(text.contains("\"l2_cache_bytes\":65536"), "{text}");
        assert!(text.contains("\"l2_ways\":4"), "{text}");
        let back = StudyReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn no_l2_collapses_the_l2_ways_axis() {
        let grid = tiny_spec().l2_ways([2, 4, 8]).expand().unwrap();
        // No L2 on the grid: the l2_ways axis contributes nothing.
        assert_eq!(grid.len(), 2);
        assert!(grid.scenarios().iter().all(|s| s.l2_ways == 1));
    }

    #[test]
    fn bad_geometry_axes_are_rejected_at_expansion() {
        // ways exceeding the line capacity of one bank's worth of sets.
        let e = tiny_spec().cache_bytes([1024]).ways([128]).expand();
        assert!(matches!(e, Err(CoreError::Sim(_))), "{e:?}");
        // An L2 smaller than the L1.
        let e = tiny_spec().l2_cache_kb([4]).expand();
        assert!(
            matches!(
                e,
                Err(CoreError::Sim(SimError::InvalidGeometry {
                    name: "l2_cache_bytes",
                    ..
                }))
            ),
            "{e:?}"
        );
        // An unknown replacement policy.
        let e = tiny_spec().replacement(["belady"]).expand();
        assert!(
            matches!(
                e,
                Err(CoreError::Unknown {
                    kind: "replacement policy",
                    ..
                })
            ),
            "{e:?}"
        );
    }

    #[test]
    fn model_axis_expands_composed_canonical_keys() {
        let grid = tiny_spec()
            .models(["nbti-45nm", "variation:30"])
            .temps_c([85.0, 105.0])
            .expand()
            .unwrap();
        // 2 models × 2 temps × 2 workloads.
        assert_eq!(grid.len(), 8);
        let keys: Vec<&str> = grid.scenarios().iter().map(|s| s.model.as_str()).collect();
        assert_eq!(keys[0], "nbti:temp=85");
        assert_eq!(keys[2], "nbti:temp=105");
        assert_eq!(keys[4], "variation:30,temp=85");
        assert_eq!(keys[6], "variation:30,temp=105");
    }

    #[test]
    fn model_overrides_on_custom_names_are_rejected() {
        // Only built-in family keys accept temp/vlow/fail overrides; a
        // user-registered name has no parameter grammar to compose.
        let e = tiny_spec().models(["custom"]).temps_c([85.0]).expand();
        assert!(matches!(e, Err(CoreError::InvalidModelKey { .. })));
    }

    #[test]
    fn bad_model_axis_values_are_rejected() {
        assert!(matches!(
            tiny_spec().temps_c([-300.0]).expand(),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            tiny_spec().vdd_low([0.0]).expand(),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            tiny_spec().failure_pct([0.0]).expand(),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(matches!(
            tiny_spec().failure_pct([100.0]).expand(),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn pinned_profile_length_must_match_banks() {
        let e = StudySpec::new("profile mismatch")
            .workload_names(["profile:0.5,0.5"])
            .unwrap()
            .banks([4])
            .expand();
        assert!(matches!(e, Err(CoreError::Report { .. })), "{e:?}");
    }

    #[test]
    fn reserved_metric_names_are_rejected() {
        use crate::model::{CalibratedModel, ModelContext, ModelEval, ModelRegistry};
        struct Shadow;
        impl CalibratedModel for Shadow {
            fn evaluate(&self, _eval: &ModelEval<'_>) -> Result<Metrics, CoreError> {
                Ok(Metrics::from_pairs([("esav", 1.0)]))
            }
        }
        let mut registry = ModelRegistry::builtin();
        registry
            .register_fn("shadow", "shadows esav", "none", || Ok(Arc::new(Shadow)))
            .unwrap();
        let spec = StudySpec::new("shadow")
            .models(["shadow"])
            .workload_names(["profile:0.1,0.8,0.6,0.3"])
            .unwrap();
        let e = StudySession::with_context(ModelContext::with_registry(registry))
            .run(&spec)
            .unwrap_err();
        assert!(e.to_string().contains("shadows a record field"), "{e}");
    }

    #[test]
    fn pinned_profile_scenarios_skip_simulation() {
        let spec = StudySpec::new("pinned")
            .workload_names(["profile:0.1,0.8,0.6,0.3"])
            .unwrap();
        let report = StudySession::new().run(&spec).unwrap();
        let r = &report.records()[0];
        assert_eq!(r.sim_cycles, 0);
        assert!(r.esav.is_nan() && r.miss_rate.is_nan());
        assert_eq!(r.sleep_fractions, vec![0.1, 0.8, 0.6, 0.3]);
        assert!(r.lt_years() > r.lt0_years());
        // NaN sim metrics survive the JSON round-trip as tagged strings.
        let back = StudyReport::from_json(&report.to_json()).unwrap();
        assert!(back.records()[0].esav.is_nan());
        assert_eq!(back.to_json(), report.to_json());
    }
}
