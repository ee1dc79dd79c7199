//! The open device/aging-model axis: the [`AgingModel`] trait,
//! parameterized model keys, and the string-keyed [`ModelRegistry`] —
//! the third registry of the trilogy ([`crate::registry`] opened the
//! policy axis, [`crate::workload`] the workload axis).
//!
//! The paper's results hinge on one device model: a 45 nm 6T cell
//! calibrated so the always-on balanced cell lives 2.93 years at 85 °C,
//! dying when its read SNM degrades 20 %. Related work varies exactly
//! this axis — BTI interacts with process variation (Heidary & Joardar)
//! and rejuvenation studies sweep stress/recovery conditions per
//! structure (Gürsoy et al.) — so the model axis is open:
//!
//! * an [`AgingModel`] is a named factory whose [`AgingModel::calibrate`]
//!   runs the expensive solve once and returns a shared
//!   [`CalibratedModel`];
//! * a [`CalibratedModel`] maps one scenario's measurements (per-bank
//!   sleep fractions, `p0`, the update period, the indexing policy) to
//!   an ordered, string-keyed [`Metrics`] map;
//! * the [`ModelRegistry`] resolves registered names and dynamic
//!   parameterized keys; the [`ModelContext`] memoizes calibration per
//!   distinct canonical key, so a grid calibrates each model exactly
//!   once no matter how many scenarios share it.
//!
//! # Built-in model keys
//!
//! | key | model |
//! |---|---|
//! | `nbti-45nm` | the paper's calibrated reference cell (bit-for-bit the historic numbers) |
//! | `nbti:temp=85,vlow=0.7,sleep=gated,fail=15` | the reference drift model at an overridden operating point |
//! | `variation:30` (`variation:<sigma-mv>[,cells=N,q=Q]`) | extreme-value process-variation wrapper over [`VariationModel`] |
//! | `drv[:vlow=0.7,aged=0.08]` | data-retention-voltage margin model for the drowsy state |
//!
//! Parameter semantics: `temp` is the operating temperature in °C,
//! `vlow` the drowsy rail in volts, `sleep` the low-power mechanism
//! (`scaled` = state-preserving drowsy sleep, `gated` = power gating),
//! `fail` the SNM-degradation failure criterion in percent. Calibration
//! stays anchored at the reference cell — overrides move the *operating
//! point*, they never re-fit the drift coefficient — so `nbti:temp=45`
//! ages slower and `nbti:temp=125` faster than the 2.93-year anchor,
//! exactly like silicon from one fab lot deployed at different
//! temperatures.
//!
//! # Examples
//!
//! Resolving and calibrating models by key:
//!
//! ```
//! use aging_cache::model::ModelContext;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let ctx = ModelContext::new();
//! let reference = ctx.registry().resolve("nbti-45nm")?;
//! println!("{}", reference.provenance());
//! // Parameterized keys canonicalize: redundant defaults drop away.
//! let same = ctx.registry().resolve("nbti:vlow=0.75")?;
//! assert_eq!(same.name(), "nbti-45nm");
//! let hot = ctx.registry().resolve("nbti:temp=105")?;
//! assert_eq!(hot.name(), "nbti:temp=105");
//! # Ok(())
//! # }
//! ```

use crate::aging::AgingAnalysis;
use crate::error::CoreError;
use crate::registry::{Entry, Registry};
use crate::rescache::relock;
use cache_sim::{BankMapping, IdentityMapping};
use nbti_model::{calibration, DrvAnalysis, LifetimeSolver, SleepMode, VariationModel};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Metric name: lifetime under the identity policy (no re-indexing),
/// years — the paper's `LT0`.
pub const METRIC_LT0: &str = "lt0_years";

/// Metric name: lifetime under the scenario's policy, years — the
/// paper's `LT`.
pub const METRIC_LT: &str = "lt_years";

/// The default model key: the paper's calibrated reference cell.
pub const DEFAULT_MODEL: &str = "nbti-45nm";

/// An ordered, string-keyed map of named model outputs.
///
/// Order is the model's emission order and is preserved through JSON,
/// so reports stay byte-deterministic. Values may be non-finite
/// (`variation:<sigma>` emits `+Inf` for a rate-free bank); the report
/// codec round-trips them as tagged strings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Metrics {
    entries: Vec<(String, f64)>,
}

impl Metrics {
    /// An empty metrics map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a map from `(name, value)` pairs, in order, in time
    /// linear in the pair count. A repeated name behaves as
    /// [`Metrics::push`] does: it keeps its first position and takes
    /// its last value.
    pub fn from_pairs<S: Into<String>>(pairs: impl IntoIterator<Item = (S, f64)>) -> Self {
        let mut entries: Vec<(String, f64)> = Vec::new();
        // aging-lint: allow(no-unordered-iter) probed by name only; never iterated
        let mut positions: HashMap<String, usize> = HashMap::new();
        for (name, value) in pairs {
            let name = name.into();
            match positions.get(&name).and_then(|&at| entries.get_mut(at)) {
                Some(entry) => entry.1 = value,
                None => {
                    positions.insert(name.clone(), entries.len());
                    entries.push((name, value));
                }
            }
        }
        Self { entries }
    }

    /// Appends a metric, replacing the value in place if the name is
    /// already present.
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.entries.push((name, value)),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The metric names, in emission order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Iterates `(name, value)` pairs in emission order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|&(ref n, v)| (n.as_str(), v))
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One scenario's inputs to a model evaluation: everything the physics
/// layer consumes, already measured by the simulator.
pub struct ModelEval<'a> {
    /// Per-bank sleep fractions measured on the trace.
    pub sleep_fractions: &'a [f64],
    /// Probability that a stored bit is a logic '0'.
    pub p0: f64,
    /// Days between re-indexing updates.
    pub update_days: f64,
    /// Builds a fresh instance of the scenario's indexing policy
    /// (models that rotate stress call it once per evaluation).
    #[allow(clippy::type_complexity)]
    pub policy: &'a dyn Fn() -> Result<Box<dyn BankMapping>, CoreError>,
}

impl std::fmt::Debug for ModelEval<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEval")
            .field("sleep_fractions", &self.sleep_fractions)
            .field("p0", &self.p0)
            .field("update_days", &self.update_days)
            .finish_non_exhaustive()
    }
}

/// A calibrated device model, ready to evaluate scenarios.
///
/// Instances are shared across threads and scenarios (the
/// [`ModelContext`] hands out one `Arc` per distinct model key), so any
/// internal memoization doubles as cross-scenario sharing — the nbti
/// models share their per-`p0` critical-budget solves exactly like the
/// paper's characterization LUT is shared by every simulation.
pub trait CalibratedModel: Send + Sync {
    /// Maps one scenario's measurements to named metrics.
    ///
    /// Metric names must not shadow the record-level JSON fields
    /// ([`ScenarioRecord::RESERVED_FIELDS`](crate::study::ScenarioRecord::RESERVED_FIELDS)
    /// — `esav`, `miss_rate`, …): metrics inline as top-level record
    /// fields, and the grid runner rejects an evaluation that emits a
    /// reserved name.
    ///
    /// # Errors
    ///
    /// Propagates physics-solver failures.
    fn evaluate(&self, eval: &ModelEval<'_>) -> Result<Metrics, CoreError>;
}

/// A named device/aging model — one point on the model axis.
///
/// The split from [`CalibratedModel`] mirrors the cost structure:
/// `name`/`provenance` are cheap metadata, [`AgingModel::calibrate`] is
/// the expensive solve the [`ModelContext`] memoizes per distinct key.
pub trait AgingModel: Send + Sync {
    /// The canonical registry key.
    fn name(&self) -> &str;

    /// One-line human-readable description for listings.
    fn description(&self) -> &str {
        ""
    }

    /// The calibration provenance: which anchor, operating point and
    /// failure criterion produce this model's numbers. Every built-in
    /// spells out its full derivation so a published report names
    /// exactly what was measured.
    fn provenance(&self) -> String;

    /// Runs the expensive calibration.
    ///
    /// # Errors
    ///
    /// Propagates solver failures (e.g. a design with no read margin).
    fn calibrate(&self) -> Result<Arc<dyn CalibratedModel>, CoreError>;
}

// ---------------------------------------------------------------------
// Parameterized model keys
// ---------------------------------------------------------------------

/// Operating-point overrides shared by the built-in model families.
///
/// `None` means "the reference value" — the canonical key only spells
/// out overrides that differ from the reference, so `nbti:vlow=0.75`
/// canonicalizes back to `nbti-45nm`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelParams {
    /// Operating temperature in °C (reference: 84.85 °C ≡ 358 K).
    pub temp_c: Option<f64>,
    /// Drowsy rail in volts (reference: 0.75 V).
    pub vdd_low: Option<f64>,
    /// `true` = power-gated sleep, `false` = voltage-scaled (the
    /// reference mechanism).
    pub sleep_gated: Option<bool>,
    /// SNM-degradation failure criterion in percent (reference: 20 %).
    pub fail_pct: Option<f64>,
}

/// The reference drowsy rail, volts (the paper's 0.75 V choice).
pub const REFERENCE_VLOW: f64 = 0.75;
/// The reference operating temperature in °C (≈ 358 K, the
/// calibration point). Display/grouping fallback only — overrides are
/// compared in kelvin by the solver, never against this constant.
pub const REFERENCE_TEMP_C: f64 = 84.85;
/// The reference failure criterion, percent (20 % SNM degradation).
pub const REFERENCE_FAIL_PCT: f64 = 100.0 * LifetimeSolver::DEFAULT_FAIL_FRACTION;
/// Default cells per bank for the variation wrapper: a 16 kB / M = 4
/// bank (4 kB data + tags ≈ 37k cells).
const DEFAULT_CELLS: u64 = 37_000;
/// Default bank-lifetime quantile for the variation wrapper.
const DEFAULT_QUANTILE: f64 = 0.5;
/// Default end-of-life ΔVth (V) for the aged DRV margin — the
/// approximate critical shift of the reference cell at its 20 %-SNM
/// failure point.
const DEFAULT_AGED_SHIFT: f64 = 0.08;

impl ModelParams {
    /// No overrides: the reference operating point.
    pub const fn none() -> Self {
        Self {
            temp_c: None,
            vdd_low: None,
            sleep_gated: None,
            fail_pct: None,
        }
    }

    /// Whether every parameter is at its reference value.
    pub fn is_reference(&self) -> bool {
        *self == Self::none()
    }

    /// Merges `over` on top of `self` (`Some` values in `over` win).
    #[must_use]
    pub fn merged(self, over: ModelParams) -> Self {
        Self {
            temp_c: over.temp_c.or(self.temp_c),
            vdd_low: over.vdd_low.or(self.vdd_low),
            sleep_gated: over.sleep_gated.or(self.sleep_gated),
            fail_pct: over.fail_pct.or(self.fail_pct),
        }
    }

    /// Drops overrides that equal the reference value, so keys
    /// canonicalize by value (`nbti:vlow=0.75` ≡ `nbti-45nm`).
    fn normalized(mut self) -> Self {
        if self.vdd_low == Some(REFERENCE_VLOW) {
            self.vdd_low = None;
        }
        if self.sleep_gated == Some(false) {
            self.sleep_gated = None;
        }
        if self.fail_pct == Some(REFERENCE_FAIL_PCT) {
            self.fail_pct = None;
        }
        self
    }

    fn push_canonical(&self, parts: &mut Vec<String>) {
        if let Some(t) = self.temp_c {
            parts.push(format!("temp={t}"));
        }
        if let Some(v) = self.vdd_low {
            parts.push(format!("vlow={v}"));
        }
        if self.sleep_gated == Some(true) {
            parts.push("sleep=gated".into());
        }
        if let Some(f) = self.fail_pct {
            parts.push(format!("fail={f}"));
        }
    }
}

/// A parsed built-in model key: family plus overrides.
///
/// [`ModelKey::parse`] returns `Ok(None)` for keys that are not
/// built-in families (user-registered names pass through the registry
/// untouched); [`ModelKey::canonical`] re-emits the normalized key all
/// memoization and reports use.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelKey {
    /// The family name: `"nbti"`, `"variation"` or `"drv"`.
    pub family: String,
    /// Operating-point overrides.
    pub params: ModelParams,
    /// Pair-mismatch sigma in mV (`variation` family only).
    pub sigma_mv: Option<f64>,
    /// Cells per bank (`variation` family; default 37 000).
    pub cells: Option<u64>,
    /// Bank-lifetime quantile (`variation` family; default 0.5).
    pub quantile: Option<f64>,
    /// End-of-life ΔVth in volts for the aged DRV margin (`drv`
    /// family; default 0.08 V).
    pub aged_shift: Option<f64>,
}

const NEEDS_SIGMA: &str = "the variation family needs a sigma: `variation:<sigma-mv>`";

fn key_err(key: &str, message: impl Into<String>) -> CoreError {
    CoreError::InvalidModelKey {
        key: key.to_string(),
        message: message.into(),
    }
}

fn parse_f64(key: &str, name: &str, value: &str) -> Result<f64, CoreError> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| {
            key_err(
                key,
                format!("parameter `{name}` is not a finite number: `{value}`"),
            )
        })
}

impl ModelKey {
    /// Parses a built-in model key; `Ok(None)` for non-family keys.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModelKey`] for a family key with
    /// malformed or unsupported parameters.
    pub fn parse(key: &str) -> Result<Option<Self>, CoreError> {
        let (head, tail) = match key.split_once(':') {
            Some((h, t)) => (h, Some(t)),
            None => (key, None),
        };
        let family = match head {
            "nbti-45nm" if tail.is_none() => "nbti",
            "nbti" => "nbti",
            "drv" => "drv",
            "variation" => "variation",
            _ => return Ok(None),
        };
        let mut parsed = Self {
            family: family.to_string(),
            params: ModelParams::none(),
            sigma_mv: None,
            cells: None,
            quantile: None,
            aged_shift: None,
        };
        let Some(tail) = tail else {
            if family == "variation" {
                return Err(key_err(key, NEEDS_SIGMA));
            }
            return Ok(Some(parsed));
        };
        for (i, part) in tail.split(',').enumerate() {
            let part = part.trim();
            let Some((name, value)) = part.split_once('=') else {
                // The variation sigma is positional: `variation:30,...`.
                if family == "variation" && i == 0 {
                    let sigma = parse_f64(key, "sigma", part)?;
                    parsed.sigma_mv = Some(sigma);
                    continue;
                }
                return Err(key_err(key, format!("expected `name=value`, got `{part}`")));
            };
            match name {
                "temp" => parsed.params.temp_c = Some(parse_f64(key, name, value)?),
                "vlow" => parsed.params.vdd_low = Some(parse_f64(key, name, value)?),
                "fail" => parsed.params.fail_pct = Some(parse_f64(key, name, value)?),
                "sleep" => {
                    parsed.params.sleep_gated = Some(match value {
                        "gated" => true,
                        "scaled" | "drowsy" => false,
                        other => {
                            return Err(key_err(
                                key,
                                format!(
                                    "parameter `sleep` must be `gated` or `scaled`, got `{other}`"
                                ),
                            ))
                        }
                    })
                }
                "sigma" if family == "variation" => {
                    parsed.sigma_mv = Some(parse_f64(key, name, value)?)
                }
                "cells" if family == "variation" => {
                    parsed.cells = Some(value.parse::<u64>().map_err(|_| {
                        key_err(
                            key,
                            format!("parameter `cells` is not an integer: `{value}`"),
                        )
                    })?)
                }
                "q" if family == "variation" => {
                    parsed.quantile = Some(parse_f64(key, name, value)?)
                }
                "aged" if family == "drv" => parsed.aged_shift = Some(parse_f64(key, name, value)?),
                other => {
                    return Err(key_err(
                        key,
                        format!("unknown parameter `{other}` for the `{family}` family"),
                    ))
                }
            }
        }
        if family == "variation" && parsed.sigma_mv.is_none() {
            return Err(key_err(key, NEEDS_SIGMA));
        }
        Ok(Some(parsed))
    }

    /// The canonical key: overrides equal to the reference value are
    /// dropped, parameters are ordered, and a parameterless `nbti` key
    /// collapses to `nbti-45nm`.
    pub fn canonical(&self) -> String {
        let params = self.params.normalized();
        let mut parts = Vec::new();
        if let Some(sigma) = self.sigma_mv {
            parts.push(format!("{sigma}"));
        }
        if let Some(cells) = self.cells.filter(|&c| c != DEFAULT_CELLS) {
            parts.push(format!("cells={cells}"));
        }
        if let Some(q) = self.quantile.filter(|&q| q != DEFAULT_QUANTILE) {
            parts.push(format!("q={q}"));
        }
        params.push_canonical(&mut parts);
        if let Some(a) = self.aged_shift.filter(|&a| a != DEFAULT_AGED_SHIFT) {
            parts.push(format!("aged={a}"));
        }
        match (self.family.as_str(), parts.is_empty()) {
            ("nbti", true) => DEFAULT_MODEL.to_string(),
            (family, true) => family.to_string(),
            (family, false) => format!("{family}:{}", parts.join(",")),
        }
    }

    /// Builds the model this key names.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModelKey`] for a family that has no
    /// model ([`ModelKey::parse`] emits only known families, but the
    /// fields are public).
    fn build(&self) -> Result<Arc<dyn AgingModel>, CoreError> {
        Ok(match self.family.as_str() {
            "nbti" => Arc::new(NbtiModel::new(self.params)),
            "variation" => Arc::new(VariationAgingModel::new(self)?),
            "drv" => Arc::new(DrvModel::new(self)),
            other => {
                return Err(CoreError::InvalidModelKey {
                    key: self.canonical(),
                    message: format!("no model family `{other}`"),
                })
            }
        })
    }
}

/// Canonicalizes a model key: built-in family keys normalize by value,
/// anything else (a registered custom name) passes through untouched.
///
/// # Errors
///
/// Returns [`CoreError::InvalidModelKey`] for a malformed family key.
pub fn canonicalize(key: &str) -> Result<String, CoreError> {
    Ok(match ModelKey::parse(key)? {
        Some(parsed) => parsed.canonical(),
        None => key.to_string(),
    })
}

/// Applies axis overrides (temperature / drowsy rail / failure
/// criterion) to a model key, producing the canonical composed key —
/// the expansion step behind
/// [`StudySpec::temps_c`](crate::study::StudySpec::temps_c) and
/// friends.
///
/// # Errors
///
/// Returns [`CoreError::InvalidModelKey`] if the key is malformed, or
/// if overrides are requested on a custom (non-family) model name.
pub fn compose(key: &str, over: ModelParams) -> Result<String, CoreError> {
    if over == ModelParams::none() {
        return canonicalize(key);
    }
    match ModelKey::parse(key)? {
        Some(mut parsed) => {
            parsed.params = parsed.params.merged(over);
            Ok(parsed.canonical())
        }
        None => Err(key_err(
            key,
            "custom models do not accept temperature/voltage/failure overrides",
        )),
    }
}

// ---------------------------------------------------------------------
// Built-in models
// ---------------------------------------------------------------------

/// Builds the solver for a parameterized operating point: the drift
/// model stays the reference calibration, the design moves.
fn derived_solver(params: &ModelParams) -> Result<LifetimeSolver, CoreError> {
    let reference = calibration::reference_45nm();
    let mut design = reference.design().clone();
    if let Some(t) = params.temp_c {
        design = design.with_temperature(t + 273.15)?;
    }
    if let Some(v) = params.vdd_low {
        design = design.with_vdd_low(v)?;
    }
    let mut solver = reference.at_operating_point(design)?;
    if let Some(pct) = params.fail_pct {
        solver = solver.with_fail_fraction(pct / 100.0)?;
    }
    Ok(solver)
}

fn sleep_mode(params: &ModelParams) -> SleepMode {
    if params.sleep_gated == Some(true) {
        SleepMode::power_gated()
    } else {
        SleepMode::VoltageScaled
    }
}

fn operating_point_provenance(params: &ModelParams) -> String {
    let temp = match params.temp_c {
        Some(t) => format!("{t}"),
        None => REFERENCE_TEMP_C.to_string(), // ≈ 358 K, the calibration point
    };
    format!(
        "{temp} °C, Vdd 1.1 V, Vdd_low {} V, {} sleep, SNM -{} % failure",
        params.vdd_low.unwrap_or(REFERENCE_VLOW),
        if params.sleep_gated == Some(true) {
            "power-gated"
        } else {
            "voltage-scaled"
        },
        params.fail_pct.unwrap_or(REFERENCE_FAIL_PCT),
    )
}

const ANCHOR_PROVENANCE: &str =
    "drift calibrated so the always-on balanced 45 nm cell lives 2.93 y at 85 °C (paper §IV-B1)";

/// The `nbti` family: the paper's reference cell, optionally moved to
/// another operating point.
struct NbtiModel {
    key: String,
    params: ModelParams,
}

impl NbtiModel {
    fn new(params: ModelParams) -> Self {
        let key = ModelKey {
            family: "nbti".into(),
            params,
            sigma_mv: None,
            cells: None,
            quantile: None,
            aged_shift: None,
        }
        .canonical();
        Self { key, params }
    }
}

impl AgingModel for NbtiModel {
    fn name(&self) -> &str {
        &self.key
    }

    fn description(&self) -> &str {
        if self.key == DEFAULT_MODEL {
            "the paper's calibrated 45 nm reference cell"
        } else {
            "the reference drift model at an overridden operating point"
        }
    }

    fn provenance(&self) -> String {
        format!(
            "45 nm 6T cell at {}; {}",
            operating_point_provenance(&self.params),
            ANCHOR_PROVENANCE
        )
    }

    fn calibrate(&self) -> Result<Arc<dyn CalibratedModel>, CoreError> {
        let aging =
            AgingAnalysis::new(derived_solver(&self.params)?).with_mode(sleep_mode(&self.params));
        Ok(Arc::new(NbtiCalibrated {
            aging,
            lt0_memo: Mutex::new(HashMap::new()), // aging-lint: allow(no-unordered-iter) keyed memo
        }))
    }
}

/// `(sleep bits, p0 bits, update-days bits)` — every input the LT0
/// baseline depends on.
type Lt0Key = (Vec<u64>, u64, u64);

struct NbtiCalibrated {
    aging: AgingAnalysis,
    /// The LT0 baseline is policy-independent, so scenarios differing
    /// only in policy share one solve through this memo (racing
    /// double-computes store identical values).
    lt0_memo: Mutex<HashMap<Lt0Key, f64>>, // aging-lint: allow(no-unordered-iter) keyed memo
}

impl CalibratedModel for NbtiCalibrated {
    fn evaluate(&self, eval: &ModelEval<'_>) -> Result<Metrics, CoreError> {
        // Reuse the calibrated analysis directly when the scenario's
        // update interval matches; clone-with-interval otherwise.
        let matches = (eval.update_days - self.aging.update_interval_days()).abs() < 1e-12;
        let aging_storage = (!matches).then(|| {
            self.aging
                .clone()
                .with_update_interval_days(eval.update_days)
        });
        let aging = aging_storage.as_ref().unwrap_or(&self.aging);

        let lt0_key: Lt0Key = (
            eval.sleep_fractions.iter().map(|s| s.to_bits()).collect(),
            eval.p0.to_bits(),
            eval.update_days.to_bits(),
        );
        let cached = relock(self.lt0_memo.lock()).get(&lt0_key).copied();
        let lt0 = match cached {
            Some(v) => v,
            None => {
                let mut identity = IdentityMapping;
                let v = aging.cache_lifetime_with(eval.sleep_fractions, eval.p0, &mut identity)?;
                relock(self.lt0_memo.lock()).insert(lt0_key, v);
                v
            }
        };
        let mut mapping = (eval.policy)()?;
        let lt = aging.cache_lifetime_with(eval.sleep_fractions, eval.p0, mapping.as_mut())?;
        Ok(Metrics::from_pairs([(METRIC_LT0, lt0), (METRIC_LT, lt)]))
    }
}

/// The `variation` family: extreme-value process variation over the
/// derived nbti solver.
struct VariationAgingModel {
    key: String,
    params: ModelParams,
    sigma_mv: f64,
    cells: u64,
    quantile: f64,
}

impl VariationAgingModel {
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidModelKey`] for a key without a sigma
    /// ([`ModelKey::parse`] never emits one, but the fields are public).
    fn new(parsed: &ModelKey) -> Result<Self, CoreError> {
        Ok(Self {
            key: parsed.canonical(),
            params: parsed.params,
            sigma_mv: parsed
                .sigma_mv
                .ok_or_else(|| key_err(&parsed.canonical(), NEEDS_SIGMA))?,
            cells: parsed.cells.unwrap_or(DEFAULT_CELLS),
            quantile: parsed.quantile.unwrap_or(DEFAULT_QUANTILE),
        })
    }
}

impl AgingModel for VariationAgingModel {
    fn name(&self) -> &str {
        &self.key
    }

    fn description(&self) -> &str {
        "extreme-value Vth-mismatch wrapper (bank dies with its worst cell)"
    }

    fn provenance(&self) -> String {
        format!(
            "worst cell of {} per bank, pair-mismatch sigma {} mV, bank quantile {}; \
             45 nm 6T cell at {}; {}",
            self.cells,
            self.sigma_mv,
            self.quantile,
            operating_point_provenance(&self.params),
            ANCHOR_PROVENANCE
        )
    }

    fn calibrate(&self) -> Result<Arc<dyn CalibratedModel>, CoreError> {
        let solver = derived_solver(&self.params)?;
        let variation = VariationModel::new(self.sigma_mv / 1000.0, self.cells)?;
        let table = variation.characterize(&solver)?;
        // Rate 1 turns the quantile into the bare effective-stress
        // budget the worst cell of a bank can absorb.
        let budget_q = variation.bank_lifetime_quantile(&table, 1.0, self.quantile);
        let budget_q10 = variation.bank_lifetime_quantile(&table, 1.0, 0.10);
        let aging = AgingAnalysis::new(solver).with_mode(sleep_mode(&self.params));
        Ok(Arc::new(VariationCalibrated {
            aging,
            budget_q,
            budget_q10,
        }))
    }
}

struct VariationCalibrated {
    aging: AgingAnalysis,
    budget_q: f64,
    budget_q10: f64,
}

impl CalibratedModel for VariationCalibrated {
    fn evaluate(&self, eval: &ModelEval<'_>) -> Result<Metrics, CoreError> {
        // Analytic extreme-value model: the worst cell of the
        // first-exhausted bank spends the characterized budget at that
        // bank's *long-run* stress rate — no update-period
        // quantization. The identity baseline is pinned by the busiest
        // bank; the policy's lifetime samples the actual mapping over
        // whole rotation cycles, so `identity` reports its true (no
        // gain) rate, `probing`/`gray` average every bank exactly, and
        // scrambled mappings approach the mean statistically.
        let rates = eval
            .sleep_fractions
            .iter()
            .map(|&s| self.aging.bank_rate(s, eval.p0))
            .collect::<Result<Vec<f64>, _>>()?;
        let max_rate = rates.iter().copied().fold(0.0f64, f64::max);
        let banks = rates.len();
        let mut mapping = (eval.policy)()?;
        // Long-run average rate per physical bank under the mapping:
        // a multiple of the bank count covers the cyclic policies'
        // full period exactly; 256 cycles bound the sampling error of
        // pseudo-random (LFSR) policies.
        let updates = 256 * banks;
        let mut accumulated = vec![0.0f64; banks];
        for _ in 0..updates {
            for (logical, &rate) in rates.iter().enumerate() {
                let phys = mapping.map_bank(logical as u32, banks as u32);
                let Some(slot) = accumulated.get_mut(phys as usize) else {
                    return Err(CoreError::InvalidParameter {
                        name: "physical bank",
                        value: f64::from(phys),
                        expected: "a bank the policy maps below the bank count",
                    });
                };
                *slot += rate;
            }
            mapping.update();
        }
        let policy_rate = accumulated
            .iter()
            .map(|sum| sum / updates as f64)
            .fold(0.0f64, f64::max);
        let at = |budget: f64, rate: f64| {
            if rate <= 0.0 {
                f64::INFINITY
            } else {
                budget / rate
            }
        };
        Ok(Metrics::from_pairs([
            (METRIC_LT0, at(self.budget_q, max_rate)),
            (METRIC_LT, at(self.budget_q, policy_rate)),
            ("lt0_q10_years", at(self.budget_q10, max_rate)),
        ]))
    }
}

/// The `drv` family: data-retention-voltage margins for the drowsy
/// state, fresh and at end of life.
struct DrvModel {
    key: String,
    params: ModelParams,
    aged_shift: f64,
}

impl DrvModel {
    fn new(parsed: &ModelKey) -> Self {
        Self {
            key: parsed.canonical(),
            params: parsed.params,
            aged_shift: parsed.aged_shift.unwrap_or(DEFAULT_AGED_SHIFT),
        }
    }
}

impl AgingModel for DrvModel {
    fn name(&self) -> &str {
        &self.key
    }

    fn description(&self) -> &str {
        "data-retention-voltage margin of the drowsy state, fresh and aged"
    }

    fn provenance(&self) -> String {
        format!(
            "hold-SNM retention analysis (40 mV margin requirement), aged state ΔVth {} V; \
             45 nm 6T cell at {}; {}",
            self.aged_shift,
            operating_point_provenance(&self.params),
            ANCHOR_PROVENANCE
        )
    }

    fn calibrate(&self) -> Result<Arc<dyn CalibratedModel>, CoreError> {
        let solver = derived_solver(&self.params)?;
        let drv = DrvAnalysis::new(solver.design().clone());
        let fresh = drv.min_retention_voltage(0.0, 0.0)?;
        let aged = drv.min_retention_voltage(self.aged_shift, self.aged_shift)?;
        let vlow = solver.design().vdd_low();
        Ok(Arc::new(FixedMetrics(Metrics::from_pairs([
            ("drv_fresh_v", fresh),
            ("drv_aged_v", aged),
            ("drv_margin_fresh_v", vlow - fresh),
            ("drv_margin_aged_v", vlow - aged),
        ]))))
    }
}

/// A calibrated model whose metrics are scenario-independent.
struct FixedMetrics(Metrics);

impl CalibratedModel for FixedMetrics {
    fn evaluate(&self, _eval: &ModelEval<'_>) -> Result<Metrics, CoreError> {
        Ok(self.0.clone())
    }
}

// ---------------------------------------------------------------------
// Registry and context
// ---------------------------------------------------------------------

struct FnModel<F> {
    name: String,
    description: String,
    provenance: String,
    calibrate: F,
}

impl<F> AgingModel for FnModel<F>
where
    F: Fn() -> Result<Arc<dyn CalibratedModel>, CoreError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn provenance(&self) -> String {
        self.provenance.clone()
    }

    fn calibrate(&self) -> Result<Arc<dyn CalibratedModel>, CoreError> {
        (self.calibrate)()
    }
}

/// The string-keyed model registry. Parameterized family keys
/// (`nbti:…`, `variation:…`, `drv:…`) resolve dynamically without
/// registration, exactly like file-backed workload keys.
pub type ModelRegistry = Registry<dyn AgingModel>;

impl Entry for dyn AgingModel {
    const KIND: &'static str = "model";

    fn key(&self) -> &str {
        self.name()
    }
}

impl ModelRegistry {
    /// The registry with the named built-ins: `nbti-45nm` (the paper's
    /// reference) and `drv` (retention margins at the reference rail).
    /// Parameterized keys resolve dynamically on top.
    pub fn builtin() -> Self {
        let nbti: Arc<dyn AgingModel> = Arc::new(NbtiModel::new(ModelParams::none()));
        // A static family key, so it always parses; the listing test
        // pins both built-ins.
        let drv = ModelKey::parse("drv")
            .ok()
            .flatten()
            .map(|key| Arc::new(DrvModel::new(&key)) as Arc<dyn AgingModel>);
        Self::of(std::iter::once(nbti).chain(drv))
    }

    /// A shared, immutable instance of [`ModelRegistry::builtin`] for
    /// listings and hot paths.
    pub fn global() -> &'static ModelRegistry {
        static GLOBAL: std::sync::OnceLock<ModelRegistry> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(ModelRegistry::builtin)
    }

    /// Registers a model from a calibration closure — the one-liner
    /// path for user code and examples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Duplicate`] on a name collision.
    pub fn register_fn<F>(
        &mut self,
        name: &str,
        description: &str,
        provenance: &str,
        calibrate: F,
    ) -> Result<(), CoreError>
    where
        F: Fn() -> Result<Arc<dyn CalibratedModel>, CoreError> + Send + Sync + 'static,
    {
        self.register(Arc::new(FnModel {
            name: name.to_string(),
            description: description.to_string(),
            provenance: provenance.to_string(),
            calibrate,
        }))
    }

    /// Resolves a model key: registered names first (before and after
    /// canonicalization), then dynamic parameterized family keys.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unknown`] for an unresolvable key, or
    /// [`CoreError::InvalidModelKey`] for a malformed family key.
    pub fn resolve(&self, key: &str) -> Result<Arc<dyn AgingModel>, CoreError> {
        if let Some(m) = self.get(key) {
            return Ok(Arc::clone(m));
        }
        if let Some(parsed) = ModelKey::parse(key)? {
            if let Some(m) = self.get(&parsed.canonical()) {
                return Ok(Arc::clone(m));
            }
            return parsed.build();
        }
        Err(self.unknown(key))
    }
}

/// The run context of the Study API: a model registry plus the
/// per-model calibration cache.
///
/// Calibration is the expensive solve, so [`ModelContext::calibrated`]
/// memoizes it per distinct *canonical* key: a grid of a thousand
/// scenarios over two models calibrates exactly twice, and the shared
/// [`CalibratedModel`] instances let scenarios share internal
/// characterization state (the LUT-sharing the paper's flow relies on).
pub struct ModelContext {
    registry: ModelRegistry,
    // aging-lint: allow(no-unordered-iter) calibration memo, only ever probed by key; never iterated
    calibrated: Mutex<HashMap<String, Arc<dyn CalibratedModel>>>,
    calibrations: AtomicUsize,
}

impl std::fmt::Debug for ModelContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelContext")
            .field("registry", &self.registry)
            .field("calibrations", &self.calibration_count())
            .finish_non_exhaustive()
    }
}

impl Clone for ModelContext {
    fn clone(&self) -> Self {
        Self {
            registry: self.registry.clone(),
            calibrated: Mutex::new(relock(self.calibrated.lock()).clone()),
            calibrations: AtomicUsize::new(self.calibrations.load(Ordering::Relaxed)),
        }
    }
}

impl Default for ModelContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelContext {
    /// A context over the built-in registry. Construction is free —
    /// calibration happens lazily, once per distinct model key.
    pub fn new() -> Self {
        Self::with_registry(ModelRegistry::builtin())
    }

    /// A context over a custom registry (to resolve user-registered
    /// models by name).
    pub fn with_registry(registry: ModelRegistry) -> Self {
        Self {
            registry,
            calibrated: Mutex::new(HashMap::new()), // aging-lint: allow(no-unordered-iter) keyed memo
            calibrations: AtomicUsize::new(0),
        }
    }

    /// The registry this context resolves keys through.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Resolves and calibrates a model, memoized per canonical key.
    ///
    /// The calibration lock is held across the solve, so concurrent
    /// callers of the same key never duplicate the work — "once per
    /// distinct model" is a guarantee, not a fast path.
    ///
    /// # Errors
    ///
    /// Propagates resolution and calibration errors.
    pub fn calibrated(&self, key: &str) -> Result<Arc<dyn CalibratedModel>, CoreError> {
        let model = self.registry.resolve(key)?;
        let canonical = model.name().to_string();
        let mut cache = relock(self.calibrated.lock());
        if let Some(hit) = cache.get(&canonical) {
            return Ok(Arc::clone(hit));
        }
        let built = model.calibrate()?;
        self.calibrations.fetch_add(1, Ordering::Relaxed);
        cache.insert(canonical, Arc::clone(&built));
        Ok(built)
    }

    /// How many calibrations have actually run in this context — the
    /// observable behind the once-per-distinct-model guarantee.
    pub fn calibration_count(&self) -> usize {
        self.calibrations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PolicyRegistry;

    #[test]
    fn a_repeated_metric_keeps_its_first_position_and_takes_its_last_value() {
        let pairs = [
            ("a", 1.0),
            ("b", 2.0),
            ("a", 3.0),
            ("c", 4.0),
            ("a", 5.0),
            ("b", 6.0),
        ];
        let built = Metrics::from_pairs(pairs);
        let order: Vec<_> = built.iter().collect();
        assert_eq!(order, [("a", 5.0), ("b", 6.0), ("c", 4.0)]);
        // Exactly what pushing one pair at a time gives.
        let mut pushed = Metrics::new();
        for (name, value) in pairs {
            pushed.push(name, value);
        }
        assert_eq!(built, pushed);

        // Both parsers keep the rule: a report record, and a journal
        // line through its measurement codec.
        let json = r#"{"scenario":{"id":0,"cache_bytes":16384,"line_bytes":16,"banks":4,"update_days":1,"policy":"probing","workload":"sha","workload_index":0,"trace_seed":1000,"policy_seed":1,"trace_cycles":100},"esav":0.5,"miss_rate":0.1,"useful_idleness":[0.5],"sleep_fractions":[0.5],"lt":1,"lt0":2,"lt":3}"#;
        let record =
            crate::study::ScenarioRecord::from_json(&crate::json::Json::parse(json).unwrap());
        let record = record.unwrap();
        assert_eq!(
            record.metrics.iter().collect::<Vec<_>>(),
            [("lt", 3.0), ("lt0", 2.0)]
        );
        let cached = crate::rescache::CachedMeasurement::from_json(
            &crate::json::Json::parse(
                r#"{"sim_cycles":1,"esav":0.5,"miss_rate":0.1,"useful_idleness":[0.5],"sleep_fractions":[0.5],"metrics":{"lt":1,"lt0":2,"lt":3}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(cached.metrics, record.metrics);
    }

    #[test]
    fn key_of_an_unknown_family_fails_to_build_with_a_typed_error() {
        let mut key = ModelKey::parse("drv").unwrap().expect("a family key");
        assert!(key.build().is_ok());
        key.family = "bogus".to_string();
        match key.build() {
            Err(CoreError::InvalidModelKey { key, message }) => {
                assert_eq!(key, "bogus");
                assert!(message.contains("bogus"), "{message}");
            }
            other => panic!(
                "expected InvalidModelKey, got {:?}",
                other.map(|m| m.name().to_string())
            ),
        }
        // A variation key stripped of its sigma fails the same way.
        key.family = "variation".to_string();
        let e = key.build().err().expect("no sigma, no model");
        assert!(matches!(e, CoreError::InvalidModelKey { .. }), "{e:?}");
        assert!(e.to_string().contains("needs a sigma"), "{e}");
    }

    fn eval_with<'a>(
        sleep: &'a [f64],
        policy: &'a dyn Fn() -> Result<Box<dyn BankMapping>, CoreError>,
    ) -> ModelEval<'a> {
        ModelEval {
            sleep_fractions: sleep,
            p0: 0.5,
            update_days: 1.0,
            policy,
        }
    }

    fn probing() -> impl Fn() -> Result<Box<dyn BankMapping>, CoreError> {
        || PolicyRegistry::global().build("probing", 4, 1)
    }

    #[test]
    fn metrics_preserve_order_and_replace_in_place() {
        let mut m = Metrics::from_pairs([("b", 1.0), ("a", 2.0)]);
        m.push("b", 3.0);
        assert_eq!(m.names().collect::<Vec<_>>(), vec!["b", "a"]);
        assert_eq!(m.get("b"), Some(3.0));
        assert_eq!(m.get("missing"), None);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn keys_canonicalize_by_value() {
        for (key, canonical) in [
            ("nbti-45nm", "nbti-45nm"),
            ("nbti:vlow=0.75", "nbti-45nm"),
            ("nbti:fail=20", "nbti-45nm"),
            ("nbti:sleep=scaled", "nbti-45nm"),
            ("nbti:temp=85", "nbti:temp=85"),
            ("nbti:vlow=0.7,temp=85", "nbti:temp=85,vlow=0.7"),
            ("nbti:sleep=gated,fail=15", "nbti:sleep=gated,fail=15"),
            ("drv", "drv"),
            ("drv:vlow=0.75,aged=0.08", "drv"),
            ("drv:vlow=0.55", "drv:vlow=0.55"),
            ("variation:30", "variation:30"),
            ("variation:sigma=30,cells=37000,q=0.5", "variation:30"),
            (
                "variation:15,q=0.1,cells=1024",
                "variation:15,cells=1024,q=0.1",
            ),
        ] {
            assert_eq!(canonicalize(key).unwrap(), canonical, "{key}");
        }
        // Custom names pass through.
        assert_eq!(canonicalize("my-model").unwrap(), "my-model");
    }

    #[test]
    fn malformed_keys_are_rejected_with_context() {
        for key in [
            "nbti:temp=warm",
            "nbti:volume=11",
            "nbti:sleep=deep",
            "variation",
            "variation:cells=10",
            "drv:q=0.5",
        ] {
            let e = canonicalize(key).unwrap_err();
            assert!(
                matches!(e, CoreError::InvalidModelKey { .. }),
                "{key}: {e:?}"
            );
            assert!(e.to_string().contains(key), "{key}: {e}");
        }
    }

    #[test]
    fn compose_applies_overrides_and_rejects_custom_names() {
        let over = ModelParams {
            temp_c: Some(105.0),
            ..ModelParams::none()
        };
        assert_eq!(compose("nbti-45nm", over).unwrap(), "nbti:temp=105");
        assert_eq!(
            compose("nbti:vlow=0.7", over).unwrap(),
            "nbti:temp=105,vlow=0.7"
        );
        assert_eq!(
            compose("variation:30", over).unwrap(),
            "variation:30,temp=105"
        );
        assert!(compose("my-model", over).is_err());
        // No overrides: pass through custom names untouched.
        assert_eq!(
            compose("my-model", ModelParams::none()).unwrap(),
            "my-model"
        );
    }

    #[test]
    fn builtin_registry_resolves_families_dynamically() {
        let r = ModelRegistry::builtin();
        assert_eq!(r.names(), vec!["drv", "nbti-45nm"]);
        assert_eq!(r.resolve("nbti:vlow=0.75").unwrap().name(), "nbti-45nm");
        assert_eq!(r.resolve("variation:30").unwrap().name(), "variation:30");
        assert_eq!(r.resolve("drv:vlow=0.6").unwrap().name(), "drv:vlow=0.6");
        let e = r.resolve("quantum-cell").err().expect("must fail");
        assert!(matches!(e, CoreError::Unknown { kind: "model", .. }));
        assert!(e.to_string().contains("nbti-45nm"), "{e}");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = ModelRegistry::builtin();
        let e = r
            .register(Arc::new(NbtiModel::new(ModelParams::none())))
            .unwrap_err();
        assert!(matches!(e, CoreError::Duplicate { kind: "model", .. }));
    }

    #[test]
    fn context_calibrates_once_per_canonical_key() {
        let ctx = ModelContext::new();
        let a = ctx.calibrated("nbti-45nm").unwrap();
        let b = ctx.calibrated("nbti:vlow=0.75").unwrap(); // same canonical key
        assert!(Arc::ptr_eq(&a, &b), "aliases must share the calibration");
        assert_eq!(ctx.calibration_count(), 1);
        ctx.calibrated("nbti:temp=105").unwrap();
        ctx.calibrated("nbti:temp=105").unwrap();
        assert_eq!(ctx.calibration_count(), 2);
    }

    #[test]
    fn reference_model_reports_its_provenance() {
        let model = ModelRegistry::global().resolve("nbti-45nm").unwrap();
        let p = model.provenance();
        assert!(p.contains("2.93"), "{p}");
        assert!(p.contains("0.75"), "{p}");
        let hot = ModelRegistry::global().resolve("nbti:temp=125").unwrap();
        assert!(hot.provenance().contains("125"), "{}", hot.provenance());
    }

    #[test]
    fn hotter_operating_points_age_faster() {
        let ctx = ModelContext::new();
        let sleep = [0.1, 0.8, 0.6, 0.3];
        let policy = probing();
        let eval = eval_with(&sleep, &policy);
        let lt = |key: &str| {
            ctx.calibrated(key)
                .unwrap()
                .evaluate(&eval)
                .unwrap()
                .get(METRIC_LT)
                .unwrap()
        };
        let cool = lt("nbti:temp=45");
        let reference = lt("nbti-45nm");
        let hot = lt("nbti:temp=125");
        assert!(
            cool > reference && reference > hot,
            "LT must fall with temperature: {cool} / {reference} / {hot}"
        );
    }

    #[test]
    fn variation_shortens_lifetimes_but_keeps_the_reindex_gain() {
        let ctx = ModelContext::new();
        let sleep = [0.0, 0.56, 0.56, 0.56];
        let policy = probing();
        let eval = eval_with(&sleep, &policy);
        let nominal = ctx
            .calibrated("variation:0")
            .unwrap()
            .evaluate(&eval)
            .unwrap();
        let varied = ctx
            .calibrated("variation:30")
            .unwrap()
            .evaluate(&eval)
            .unwrap();
        assert!(varied.get(METRIC_LT0).unwrap() < nominal.get(METRIC_LT0).unwrap());
        assert!(varied.get(METRIC_LT).unwrap() > varied.get(METRIC_LT0).unwrap());
        assert!(varied.get("lt0_q10_years").unwrap() <= varied.get(METRIC_LT0).unwrap());
    }

    #[test]
    fn variation_model_honors_the_scenario_policy() {
        // Under the identity policy there is no rotation and no gain:
        // the model must not report the re-indexed mean-rate lifetime.
        let ctx = ModelContext::new();
        let sleep = [0.0, 0.56, 0.56, 0.56];
        let identity: Box<dyn Fn() -> Result<Box<dyn BankMapping>, CoreError>> =
            Box::new(|| PolicyRegistry::global().build("identity", 4, 1));
        let eval = ModelEval {
            sleep_fractions: &sleep,
            p0: 0.5,
            update_days: 1.0,
            policy: identity.as_ref(),
        };
        let m = ctx
            .calibrated("variation:30")
            .unwrap()
            .evaluate(&eval)
            .unwrap();
        let (lt, lt0) = (m.get(METRIC_LT).unwrap(), m.get(METRIC_LT0).unwrap());
        assert!(
            ((lt - lt0) / lt0).abs() < 1e-12,
            "identity must have no re-indexing gain: LT {lt} vs LT0 {lt0}"
        );
        // Probing does rotate — its LT must beat the identity baseline.
        let policy = probing();
        let rotated = ctx
            .calibrated("variation:30")
            .unwrap()
            .evaluate(&eval_with(&sleep, &policy))
            .unwrap();
        assert!(rotated.get(METRIC_LT).unwrap() > rotated.get(METRIC_LT0).unwrap());
    }

    #[test]
    fn drv_margins_shrink_with_the_rail_and_with_age() {
        let ctx = ModelContext::new();
        let sleep = [0.5; 4];
        let policy = probing();
        let eval = eval_with(&sleep, &policy);
        let reference = ctx.calibrated("drv").unwrap().evaluate(&eval).unwrap();
        let low_rail = ctx
            .calibrated("drv:vlow=0.55")
            .unwrap()
            .evaluate(&eval)
            .unwrap();
        let fresh = reference.get("drv_margin_fresh_v").unwrap();
        let aged = reference.get("drv_margin_aged_v").unwrap();
        assert!(aged < fresh, "aging must cost margin: {aged} vs {fresh}");
        assert!(
            low_rail.get("drv_margin_fresh_v").unwrap() < fresh,
            "a lower rail has less margin"
        );
    }

    #[test]
    fn custom_models_register_and_calibrate() {
        let mut registry = ModelRegistry::builtin();
        registry
            .register_fn(
                "constant",
                "emits a constant lifetime",
                "no calibration at all",
                || {
                    Ok(Arc::new(FixedMetrics(Metrics::from_pairs([(
                        "lt_years", 7.0,
                    )]))))
                },
            )
            .unwrap();
        let ctx = ModelContext::with_registry(registry);
        let sleep = [0.5; 4];
        let policy = probing();
        let m = ctx
            .calibrated("constant")
            .unwrap()
            .evaluate(&eval_with(&sleep, &policy))
            .unwrap();
        assert_eq!(m.get("lt_years"), Some(7.0));
        assert_eq!(ctx.calibration_count(), 1);
    }

    #[test]
    fn a_panicking_calibration_leaves_the_memo_usable() {
        let mut registry = ModelRegistry::builtin();
        registry
            .register_fn(
                "panics",
                "a model whose calibration panics",
                "none",
                || -> Result<Arc<dyn CalibratedModel>, CoreError> { panic!("calibration failed") },
            )
            .unwrap();
        let ctx = ModelContext::with_registry(registry);
        // The panic unwinds while `calibrated` holds the memo lock.
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.calibrated("panics")));
        assert!(caught.is_err());
        assert!(ctx.calibrated("nbti-45nm").is_ok());
        assert_eq!(ctx.clone().calibration_count(), 1);
    }
}
