//! The search layer: declarative scenario spaces and adaptive
//! `study optimize` drivers over the Study API.
//!
//! Grids enumerate; the questions the paper's results feed are
//! optimization problems — *"the cheapest update period meeting a
//! 7-year lifetime at 85 °C"*. This module turns a study from a sweep
//! into a search without changing anything below it:
//!
//! * [`ScenarioSpace`] — a small algebra over scenario sets. A space
//!   is a [`StudySpec`] Cartesian closure ([`ScenarioSpace::grid`]),
//!   a filtered space ([`ScenarioSpace::filter`], a predicate over
//!   the expanded [`Scenario`] axis values), or a union of spaces
//!   ([`ScenarioSpace::union`], deduplicated by the full scenario
//!   identity including seeds). [`steps`] and [`log_steps`] build
//!   linearly and logarithmically spaced numeric axes to feed the
//!   spec builders. Expansion is lazy — nothing is enumerated until a
//!   driver (or `study check`) asks — and lands in an ordinary
//!   [`ScenarioGrid`] of fully fingerprinted scenarios, so coverage,
//!   static checks and the result cache work unchanged.
//! * [`Objective`] / [`Constraint`] — minimize or maximize any
//!   [`crate::analysis::Query`]-visible metric subject to
//!   `metric ≥ bound` / `metric ≤ bound` constraints. The decision statistic is the
//!   seed-ensemble mean ± its 95% confidence half-width
//!   ([`Reduce::CiHalfWidth95`]): a candidate only *decisively* beats
//!   the incumbent when the confidence brackets separate, so noise
//!   cannot flip the answer; statistical ties keep the earlier
//!   (lower-index) candidate, which keeps every driver deterministic.
//! * [`Driver`] — the probe-scheduling strategies, registered in the
//!   machine-readable [`DRIVERS`] table: `exhaustive` probes the
//!   whole space (the reference answer for small spaces), `bisect`
//!   binary-searches one monotone axis (the model properties pinned
//!   by `tests/model_props.rs` — hotter ages faster, more sleep lives
//!   longer, laxer failure criteria live longer — are exactly the
//!   monotonicity this driver exploits; it asserts the assumption
//!   from its own probes and falls back to exhaustive when violated),
//!   and `refine` runs coarse-to-fine around the incumbent for spaces
//!   with no proven structure.
//! * [`Search`] — the front door: space + objective + constraints +
//!   driver + probe budget, run through an ordinary
//!   [`StudySession`]. Every probe
//!   batch goes through [`StudySession::run_grid`] — on the worker
//!   count the spec's [`threads`](crate::study::StudySpec::threads)
//!   caps, journaled in the content-addressed result cache — so a
//!   warm re-run of the same search replays the
//!   identical [`SearchReport`] with **zero** simulations, and probes
//!   land in the same journal plain sweeps use: search and grids
//!   compound.
//!
//! The output is a [`SearchReport`]: the full trace of probe batches,
//! the incumbent, and the probes as an embedded [`StudyReport`] so
//! the result renders through [`render`](crate::render) and diffs
//! through [`ReportDiff`](crate::analysis::ReportDiff) like any other
//! study.
//!
//! # Determinism
//!
//! Spaces expand in canonical grid order; every driver schedules
//! probes purely from probe outcomes already in its trace; ties are
//! broken toward the lower canonical index; this module never reads
//! the wall clock. Same space + same budget ⇒ byte-identical
//! `SearchReport`, cold or warm (pinned by `tests/search_props.rs`).
//!
//! ```no_run
//! use aging_cache::search::{Constraint, Driver, Objective, ScenarioSpace, Search};
//! use aging_cache::session::StudySession;
//! use aging_cache::study::StudySpec;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let space = ScenarioSpace::grid(
//!     StudySpec::new("update-period search")
//!         .update_days(aging_cache::search::steps(1.0, 16.0, 1.0)?)
//!         .workload_names(["sha"])?,
//! );
//! let session = StudySession::new();
//! let report = Search::new(space, Objective::maximize("lt_years"))
//!     .constraint(Constraint::at_least("esav", 0.3)?)
//!     .driver(Driver::Bisect)
//!     .run(&session)?;
//! println!("{}", report.table());
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::analysis::{metric_value, scenario_key, Axis, AxisValue, Reduce};
use crate::error::CoreError;
use crate::json::Json;
use crate::report::Table;
use crate::session::StudySession;
use crate::study::{Scenario, ScenarioGrid, ScenarioRecord, StudyReport, StudySpec};

/// Spacing between the derived trace seeds of seed-ensemble members.
///
/// Member `k` of a candidate runs at `trace_seed + k · STRIDE`
/// (wrapping). The stride is a prime far larger than any plausible
/// workload-axis length, so ensemble members can never collide with
/// the `base_seed + workload_index` trace seeds of the candidates
/// themselves.
pub const ENSEMBLE_STRIDE: u64 = 1_000_003;

/// Every metric name the search layer can validate statically: the
/// measured simulation outputs resolved by
/// [`analysis::metric_value`](crate::analysis::metric_value) plus the
/// named metrics of the built-in model families (`nbti`, `variation`,
/// `drv`). `study check` rejects objectives and constraints naming
/// anything else — a custom [`AgingModel`](crate::model::AgingModel)
/// emitting custom metrics must be searched with a metric the check
/// cannot vet, in which case skip the static check and let the first
/// probe surface the missing metric as a typed error.
pub const KNOWN_METRICS: [&str; 14] = [
    "esav",
    "miss_rate",
    "sim_cycles",
    "useful_idleness",
    "sleep_fractions",
    "sleep_fraction_l2",
    "lt_years",
    "lt_years_l2",
    "lt0_years",
    "lt0_q10_years",
    "drv_fresh_v",
    "drv_aged_v",
    "drv_margin_fresh_v",
    "drv_margin_aged_v",
];

/// Relative tolerance for the bisection driver's monotonicity audit:
/// two probe values within `MONO_EPS · max(1, |a|, |b|)` count as
/// equal, so floating-point plateaus are not misread as violations.
const MONO_EPS: f64 = 1e-9;

fn report_err<T>(message: impl Into<String>) -> Result<T, CoreError> {
    Err(CoreError::Report {
        message: message.into(),
    })
}

/// Linearly spaced axis values: `lo, lo+step, …` up to and including
/// `hi` (within a half-step tolerance, so `steps(1.0, 16.0, 1.0)`
/// ends at 16 despite rounding).
///
/// # Errors
///
/// Returns [`CoreError::Report`] for a non-positive or non-finite
/// step, a reversed range, or a range that would expand to more than
/// 100 000 points.
pub fn steps(lo: f64, hi: f64, step: f64) -> Result<Vec<f64>, CoreError> {
    if !(lo.is_finite() && hi.is_finite() && step.is_finite()) || step <= 0.0 {
        return report_err(format!(
            "steps({lo}, {hi}, {step}): bounds must be finite and the step positive"
        ));
    }
    if hi < lo {
        return report_err(format!("steps({lo}, {hi}, {step}): range is reversed"));
    }
    let count = ((hi - lo) / step).floor() + 1.0;
    if count > 100_000.0 {
        return report_err(format!(
            "steps({lo}, {hi}, {step}): {count:.0} points is past the 100000-point guard"
        ));
    }
    let mut values = Vec::new();
    let mut k = 0u32;
    loop {
        let v = lo + f64::from(k) * step;
        if v > hi + step * 0.5 {
            break;
        }
        values.push(v.min(hi));
        k += 1;
    }
    Ok(values)
}

/// Logarithmically spaced axis values: `points` values from `lo` to
/// `hi` inclusive, equal ratios between neighbours — the natural
/// spacing for axes spanning decades (trace horizons, update
/// periods).
///
/// # Errors
///
/// Returns [`CoreError::Report`] unless `0 < lo ≤ hi`, both finite,
/// and `2 ≤ points ≤ 100000` (`points == 1` is allowed when
/// `lo == hi`).
pub fn log_steps(lo: f64, hi: f64, points: usize) -> Result<Vec<f64>, CoreError> {
    if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || hi < lo {
        return report_err(format!(
            "log_steps({lo}, {hi}, {points}): needs finite bounds with 0 < lo <= hi"
        ));
    }
    if points > 100_000 {
        return report_err(format!(
            "log_steps({lo}, {hi}, {points}): past the 100000-point guard"
        ));
    }
    if points == 0 || (points == 1 && hi > lo) {
        return report_err(format!(
            "log_steps({lo}, {hi}, {points}): a single point cannot span lo < hi"
        ));
    }
    if points == 1 {
        return Ok(vec![lo]);
    }
    let ratio = (hi / lo).ln() / (points - 1) as f64;
    let values = (0..points)
        .map(|k| {
            if k + 1 == points {
                hi // land exactly on the endpoint, no rounding drift
            } else {
                lo * (k as f64 * ratio).exp()
            }
        })
        .collect();
    Ok(values)
}

/// A declarative set of scenarios: a grid, a filtered space, or a
/// union of spaces. See the [module docs](self) for the algebra.
///
/// Spaces are cheap descriptions; nothing expands until
/// [`ScenarioSpace::expand`] (called lazily by [`Search::run`] and
/// `study check`) flattens the composition into an ordinary
/// [`ScenarioGrid`] in canonical order.
#[derive(Clone)]
pub struct ScenarioSpace {
    node: SpaceNode,
}

#[derive(Clone)]
enum SpaceNode {
    Grid(Box<StudySpec>),
    Filter {
        inner: Box<SpaceNode>,
        #[allow(clippy::type_complexity)]
        pred: Arc<dyn Fn(&Scenario) -> bool + Send + Sync>,
    },
    Union(Box<SpaceNode>, Box<SpaceNode>),
}

impl std::fmt::Debug for ScenarioSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn shape(node: &SpaceNode, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match node {
                SpaceNode::Grid(spec) => write!(f, "grid({})", spec.name()),
                SpaceNode::Filter { inner, .. } => {
                    write!(f, "filter(")?;
                    shape(inner, f)?;
                    write!(f, ")")
                }
                SpaceNode::Union(l, r) => {
                    write!(f, "union(")?;
                    shape(l, f)?;
                    write!(f, ", ")?;
                    shape(r, f)?;
                    write!(f, ")")
                }
            }
        }
        write!(f, "ScenarioSpace[")?;
        shape(&self.node, f)?;
        write!(f, "]")
    }
}

impl ScenarioSpace {
    /// The Cartesian closure of a [`StudySpec`] — the base case every
    /// composition bottoms out in.
    pub fn grid(spec: StudySpec) -> Self {
        Self {
            node: SpaceNode::Grid(Box::new(spec)),
        }
    }

    /// Keeps only the scenarios the predicate accepts.
    ///
    /// The predicate sees fully derived [`Scenario`]s (axis values,
    /// seeds, geometry), and surviving scenarios keep their ids and
    /// seeds from the underlying grid expansion — filtering never
    /// changes what a surviving point *measures*, so its cache
    /// fingerprint (and any journaled result) carries over.
    pub fn filter(self, pred: impl Fn(&Scenario) -> bool + Send + Sync + 'static) -> Self {
        Self {
            node: SpaceNode::Filter {
                inner: Box::new(self.node),
                pred: Arc::new(pred),
            },
        }
    }

    /// The union of two spaces, left operand first, deduplicated by
    /// the full scenario identity (axes, seeds, trace provenance —
    /// [`analysis::scenario_key`](crate::analysis::scenario_key)
    /// plus nothing, since the key already covers seeds).
    ///
    /// The right operand's workload axis is merged into the left's by
    /// workload name, and its policies must resolve in the left
    /// operand's policy registry.
    pub fn union(self, other: ScenarioSpace) -> Self {
        Self {
            node: SpaceNode::Union(Box::new(self.node), Box::new(other.node)),
        }
    }

    /// Every [`StudySpec`] at the leaves of the composition, in
    /// left-to-right order — what `study check` validates
    /// axis-by-axis before anything expands.
    pub(crate) fn specs(&self) -> Vec<&StudySpec> {
        fn walk<'a>(node: &'a SpaceNode, out: &mut Vec<&'a StudySpec>) {
            match node {
                SpaceNode::Grid(spec) => out.push(spec),
                SpaceNode::Filter { inner, .. } => walk(inner, out),
                SpaceNode::Union(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.node, &mut out);
        out
    }

    /// Whether the space is a single grid, with no union or filter.
    pub(crate) fn is_grid(&self) -> bool {
        matches!(self.node, SpaceNode::Grid(_))
    }

    /// Expands the composition to a flat [`ScenarioGrid`] in
    /// canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] for an invalid underlying spec,
    /// a union whose right operand uses a policy the left registry
    /// does not know, or a space that expands to nothing.
    pub fn expand(&self) -> Result<ScenarioGrid, CoreError> {
        let grid = expand_node(&self.node)?;
        if grid.scenarios.is_empty() {
            return report_err(format!(
                "scenario space `{}` expands to no scenarios (filters removed everything?)",
                grid.name
            ));
        }
        Ok(grid)
    }
}

/// Expands a node before the empty check (an empty *branch* of a
/// union is legal; an empty *result* is not). A union keeps its left
/// operand's registries and worker cap, or else its right's cap.
fn expand_node(node: &SpaceNode) -> Result<ScenarioGrid, CoreError> {
    match node {
        SpaceNode::Grid(spec) => spec.expand(),
        SpaceNode::Filter { inner, pred } => {
            let mut grid = expand_node(inner)?;
            grid.scenarios.retain(|s| pred(s));
            Ok(grid)
        }
        SpaceNode::Union(l, r) => {
            let mut left = expand_node(l)?;
            union_into(&mut left, &expand_node(r)?)?;
            Ok(left)
        }
    }
}

/// The step [`ScenarioSpace::union`] expands with: folds `right` into
/// `left` and answers where each `right` scenario landed. `left` keeps
/// its registries and worker cap, or else takes `right`'s cap.
pub(crate) fn union_into(
    left: &mut ScenarioGrid,
    right: &ScenarioGrid,
) -> Result<Vec<usize>, CoreError> {
    // Merge the right workload axis by name so workload_index stays
    // valid on remapped scenarios.
    let mut remap = Vec::with_capacity(right.workloads.len());
    for w in &right.workloads {
        let at = left.workloads.iter().position(|lw| lw.name() == w.name());
        remap.push(match at {
            Some(i) => i,
            None => {
                left.workloads.push(Arc::clone(w));
                left.workloads.len() - 1
            }
        });
    }
    let mut seen = BTreeMap::new();
    for (i, s) in left.scenarios.iter().enumerate() {
        seen.entry(scenario_key(s)).or_insert(i);
    }
    let mut landed = Vec::with_capacity(right.scenarios.len());
    for s in &right.scenarios {
        if left.registry.get(&s.policy).is_none() {
            return report_err(format!(
                "union: right operand policy `{}` is unknown to the left \
                 operand's policy registry",
                s.policy
            ));
        }
        if left.replacement_registry.get(&s.replacement).is_none() {
            return report_err(format!(
                "union: right operand replacement policy `{}` is unknown to \
                 the left operand's replacement registry",
                s.replacement
            ));
        }
        let mut s = s.clone();
        s.workload_index = remap.get(s.workload_index).copied().unwrap_or_else(|| {
            // A scenario pointing past its own workload axis cannot
            // come out of expand(); keep it harmless.
            left.workloads.len().saturating_sub(1)
        });
        let next = left.scenarios.len();
        let at = *seen.entry(scenario_key(&s)).or_insert(next);
        if at == next {
            left.scenarios.push(s);
        }
        landed.push(at);
    }
    left.name = format!("{}+{}", left.name, right.name);
    left.threads = left.threads.or(right.threads);
    Ok(landed)
}

/// Which way the objective metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better.
    Minimize,
    /// Larger is better.
    Maximize,
}

/// What the search optimizes: a named metric and a direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Any metric [`analysis::metric_value`](crate::analysis::metric_value)
    /// resolves (`lt_years`, `esav`, `miss_rate`, …).
    pub metric: String,
    /// Minimize or maximize.
    pub direction: Direction,
}

impl Objective {
    /// Minimizes `metric`.
    pub fn minimize(metric: impl Into<String>) -> Self {
        Self {
            metric: metric.into(),
            direction: Direction::Minimize,
        }
    }

    /// Maximizes `metric`.
    pub fn maximize(metric: impl Into<String>) -> Self {
        Self {
            metric: metric.into(),
            direction: Direction::Maximize,
        }
    }

    /// Parses the CLI spelling: `max:lt_years`, `min:esav`
    /// (`maximize:` / `minimize:` also accepted).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] for a missing direction prefix
    /// or an empty metric name.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let text = text.trim();
        let (dir, metric) = match text.split_once(':') {
            Some((d, m)) => (d.trim(), m.trim()),
            None => {
                return report_err(format!(
                    "objective `{text}`: expected `max:<metric>` or `min:<metric>`"
                ))
            }
        };
        if metric.is_empty() {
            return report_err(format!("objective `{text}`: empty metric name"));
        }
        match dir.to_ascii_lowercase().as_str() {
            "max" | "maximize" => Ok(Objective::maximize(metric)),
            "min" | "minimize" => Ok(Objective::minimize(metric)),
            other => report_err(format!(
                "objective `{text}`: unknown direction `{other}` (use max: or min:)"
            )),
        }
    }

    /// True when `a` is strictly better than `b` under the direction.
    /// NaN is never better than anything.
    fn better(&self, a: f64, b: f64) -> bool {
        match self.direction {
            Direction::Minimize => a < b,
            Direction::Maximize => a > b,
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = match self.direction {
            Direction::Minimize => "min",
            Direction::Maximize => "max",
        };
        write!(f, "{dir}:{}", self.metric)
    }
}

/// The sense of a constraint bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// The metric's ensemble mean must be `≥ bound`.
    AtLeast,
    /// The metric's ensemble mean must be `≤ bound`.
    AtMost,
}

/// A feasibility constraint on a candidate: the seed-ensemble mean of
/// a named metric must clear a bound. A NaN mean never satisfies a
/// constraint — "not measured" is not feasible.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The constrained metric.
    pub metric: String,
    /// `≥` or `≤`.
    pub kind: BoundKind,
    /// The bound value.
    pub bound: f64,
}

impl Constraint {
    /// `metric ≥ bound`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] for a non-finite bound.
    pub fn at_least(metric: impl Into<String>, bound: f64) -> Result<Self, CoreError> {
        Self::build(metric.into(), BoundKind::AtLeast, bound)
    }

    /// `metric ≤ bound`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] for a non-finite bound.
    pub fn at_most(metric: impl Into<String>, bound: f64) -> Result<Self, CoreError> {
        Self::build(metric.into(), BoundKind::AtMost, bound)
    }

    fn build(metric: String, kind: BoundKind, bound: f64) -> Result<Self, CoreError> {
        if !bound.is_finite() {
            return report_err(format!("constraint bound on `{metric}` must be finite"));
        }
        if metric.is_empty() {
            return report_err("constraint: empty metric name");
        }
        Ok(Self {
            metric,
            kind,
            bound,
        })
    }

    /// Parses the CLI spelling: `lt_years>=7`, `esav<=0.4`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] when neither `>=` nor `<=` is
    /// present or the bound is not a finite number.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let text = text.trim();
        let (metric, kind, bound) = if let Some((m, b)) = text.split_once(">=") {
            (m, BoundKind::AtLeast, b)
        } else if let Some((m, b)) = text.split_once("<=") {
            (m, BoundKind::AtMost, b)
        } else {
            return report_err(format!(
                "constraint `{text}`: expected `<metric>>=<bound>` or `<metric><=<bound>`"
            ));
        };
        let bound: f64 = match bound.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                return report_err(format!(
                    "constraint `{text}`: bound `{}` is not a number",
                    bound.trim()
                ))
            }
        };
        Self::build(metric.trim().to_string(), kind, bound)
    }

    /// Whether a measured ensemble mean satisfies the constraint.
    fn satisfied(&self, value: f64) -> bool {
        match self.kind {
            BoundKind::AtLeast => value >= self.bound,
            BoundKind::AtMost => value <= self.bound,
        }
    }
}

impl std::fmt::Display for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.kind {
            BoundKind::AtLeast => ">=",
            BoundKind::AtMost => "<=",
        };
        write!(f, "{}{op}{}", self.metric, self.bound)
    }
}

/// One row of the driver table: registry key and one-line help.
#[derive(Debug, Clone, Copy)]
pub struct DriverInfo {
    /// The key [`Driver::parse`] accepts (`--driver` on the CLI).
    pub key: &'static str,
    /// One-line description for usage text and docs.
    pub help: &'static str,
}

const fn register_fn(key: &'static str, help: &'static str) -> DriverInfo {
    DriverInfo { key, help }
}

/// The machine-readable driver table — every probe-scheduling
/// strategy the search layer knows, in the order `study optimize
/// --help` lists them.
pub const DRIVERS: [DriverInfo; 3] = [
    register_fn(
        "exhaustive",
        "probe every point of the space (the reference answer for small spaces)",
    ),
    register_fn(
        "bisect",
        "binary-search one monotone axis; asserts monotonicity from its own probes \
         and falls back to exhaustive when violated",
    ),
    register_fn(
        "refine",
        "coarse-to-fine refinement around the incumbent, for spaces with no proven \
         structure",
    ),
];

/// A probe-scheduling strategy. See [`DRIVERS`] for the contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Probe the entire space.
    Exhaustive,
    /// Binary search on a single monotone axis.
    Bisect,
    /// Coarse-to-fine refinement around the incumbent.
    Refine,
}

impl Driver {
    /// The canonical registry key (the [`DRIVERS`] entry).
    pub fn key(self) -> &'static str {
        match self {
            Driver::Exhaustive => "exhaustive",
            Driver::Bisect => "bisect",
            Driver::Refine => "refine",
        }
    }

    /// Parses a driver key (`bisection` is accepted as an alias of
    /// `bisect`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] naming the known drivers.
    pub fn parse(key: &str) -> Result<Driver, CoreError> {
        match key.trim().to_ascii_lowercase().as_str() {
            "exhaustive" => Ok(Driver::Exhaustive),
            "bisect" | "bisection" => Ok(Driver::Bisect),
            "refine" => Ok(Driver::Refine),
            other => {
                let known: Vec<&str> = DRIVERS.iter().map(|d| d.key).collect();
                report_err(format!(
                    "unknown driver `{other}` (known: {})",
                    known.join(", ")
                ))
            }
        }
    }
}

/// The axes that take more than one distinct value across a grid, in
/// canonical axis order — what the bisection driver calls "the
/// varying axis" when there is exactly one.
pub(crate) fn varying_axes(grid: &ScenarioGrid) -> Vec<Axis> {
    Axis::ALL
        .into_iter()
        .filter(|axis| {
            let mut distinct: Vec<AxisValue> = Vec::new();
            for s in grid.scenarios() {
                let v = axis.value_of(s);
                if !distinct.contains(&v) {
                    distinct.push(v);
                    if distinct.len() > 1 {
                        return true;
                    }
                }
            }
            false
        })
        .collect()
}

/// One evaluated candidate: the canonical scenario, its seed-ensemble
/// decision statistic, and its feasibility under the search's
/// constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeOutcome {
    /// Position in the expanded space's canonical order.
    pub index: usize,
    /// The canonical (ensemble member 0) scenario.
    pub scenario: Scenario,
    /// Seed-ensemble mean of the objective metric.
    pub value: f64,
    /// 95% confidence half-width of the mean ([`Reduce::CiHalfWidth95`];
    /// `0.0` for a singleton ensemble).
    pub ci95: f64,
    /// Whether every constraint's ensemble mean clears its bound.
    pub feasible: bool,
    /// The ensemble mean of each constraint metric, in constraint
    /// order.
    pub bounds: Vec<f64>,
}

impl ProbeOutcome {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", Json::Num(self.index as f64)),
            ("scenario", self.scenario.to_json()),
            ("value", Json::Num(self.value)),
            ("ci95", Json::Num(self.ci95)),
            ("feasible", Json::Bool(self.feasible)),
            ("bounds", Json::nums(&self.bounds)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, CoreError> {
        let bounds = v
            .field("bounds")?
            .as_arr("bounds")?
            .iter()
            .map(|b| b.as_num("bound"))
            .collect::<Result<Vec<_>, _>>()?;
        let feasible = match v.field("feasible")? {
            Json::Bool(b) => *b,
            _ => return report_err("probe outcome: `feasible` is not a bool"),
        };
        Ok(Self {
            index: v.field("index")?.as_num("index")? as usize,
            scenario: Scenario::from_json(v.field("scenario")?)?,
            value: v.field("value")?.as_num("value")?,
            ci95: v.field("ci95")?.as_num("ci95")?,
            feasible,
            bounds,
        })
    }
}

/// One driver step: a label (`"bisect step 3"`) and the candidates it
/// evaluated, in probe order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeBatch {
    /// What the driver was doing (endpoint probe, bisection step,
    /// refinement stride, fallback…).
    pub label: String,
    /// The outcomes of this batch's candidates.
    pub probes: Vec<ProbeOutcome>,
}

impl ProbeBatch {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            (
                "probes",
                Json::Arr(self.probes.iter().map(ProbeOutcome::to_json).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, CoreError> {
        let probes = v
            .field("probes")?
            .as_arr("probes")?
            .iter()
            .map(ProbeOutcome::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            label: v.field("label")?.as_str("label")?.to_string(),
            probes,
        })
    }
}

/// The deterministic result of a search: the probe trace, the
/// incumbent, and every probed record as an embedded [`StudyReport`]
/// so the search renders and diffs like any other study.
///
/// Cache-hit and simulation counts deliberately live **outside** this
/// report (read them from
/// [`StudySession::stats`](crate::session::StudySession::stats)): a
/// cold run computes and a warm run replays, and the report must be
/// byte-identical either way.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    name: String,
    driver: Driver,
    objective: Objective,
    constraints: Vec<Constraint>,
    space_len: usize,
    budget: usize,
    ensemble: usize,
    batches: Vec<ProbeBatch>,
    incumbent: Option<ProbeOutcome>,
    notes: Vec<String>,
    probed: StudyReport,
}

impl SearchReport {
    /// The space (study) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The driver that scheduled the probes.
    pub fn driver(&self) -> Driver {
        self.driver
    }

    /// The objective the search optimized.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The feasibility constraints, in declaration order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Cardinality of the fully expanded space.
    pub fn space_len(&self) -> usize {
        self.space_len
    }

    /// The probe budget the drivers ran under.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Seed-ensemble size per candidate.
    pub fn ensemble(&self) -> usize {
        self.ensemble
    }

    /// The probe trace, in schedule order.
    pub fn batches(&self) -> &[ProbeBatch] {
        &self.batches
    }

    /// Distinct candidates evaluated (each cost `ensemble`
    /// scenario evaluations).
    pub fn probes_issued(&self) -> usize {
        self.batches.iter().map(|b| b.probes.len()).sum()
    }

    /// The winning candidate, if any feasible point was probed.
    pub fn incumbent(&self) -> Option<&ProbeOutcome> {
        self.incumbent.as_ref()
    }

    /// Driver notes: budget truncations, monotonicity violations,
    /// fallbacks.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Every probed record (all ensemble members) as a study report —
    /// the input for [`ReportDiff`](crate::analysis::ReportDiff) and
    /// for re-analysis with [`Query`](crate::analysis::Query).
    pub fn probed(&self) -> &StudyReport {
        &self.probed
    }

    /// Serializes to deterministic compact JSON (round-trips through
    /// [`SearchReport::from_json`]).
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("driver", Json::Str(self.driver.key().to_string())),
            ("objective", Json::Str(self.objective.to_string())),
            (
                "constraints",
                Json::Arr(
                    self.constraints
                        .iter()
                        .map(|c| Json::Str(c.to_string()))
                        .collect(),
                ),
            ),
            ("space", Json::Num(self.space_len as f64)),
            ("budget", Json::Num(self.budget as f64)),
            ("ensemble", Json::Num(self.ensemble as f64)),
            (
                "batches",
                Json::Arr(self.batches.iter().map(ProbeBatch::to_json).collect()),
            ),
            (
                "incumbent",
                match &self.incumbent {
                    Some(o) => o.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "probed",
                Json::Arr(
                    self.probed
                        .records()
                        .iter()
                        .map(ScenarioRecord::to_json)
                        .collect(),
                ),
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
        let name = v.field("name")?.as_str("name")?.to_string();
        let constraints = v
            .field("constraints")?
            .as_arr("constraints")?
            .iter()
            .map(|c| Constraint::parse(c.as_str("constraint")?))
            .collect::<Result<Vec<_>, _>>()?;
        let batches = v
            .field("batches")?
            .as_arr("batches")?
            .iter()
            .map(ProbeBatch::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let incumbent = match v.field("incumbent")? {
            Json::Null => None,
            other => Some(ProbeOutcome::from_json(other)?),
        };
        let notes = v
            .field("notes")?
            .as_arr("notes")?
            .iter()
            .map(|n| Ok(n.as_str("note")?.to_string()))
            .collect::<Result<Vec<_>, CoreError>>()?;
        let records = v
            .field("probed")?
            .as_arr("probed")?
            .iter()
            .map(ScenarioRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            probed: StudyReport::from_records(name.clone(), records),
            name,
            driver: Driver::parse(v.field("driver")?.as_str("driver")?)?,
            objective: Objective::parse(v.field("objective")?.as_str("objective")?)?,
            constraints,
            space_len: v.field("space")?.as_num("space")? as usize,
            budget: v.field("budget")?.as_num("budget")? as usize,
            ensemble: v.field("ensemble")?.as_num("ensemble")? as usize,
            batches,
            incumbent,
            notes,
        })
    }

    /// The probe trace as a renderable [`Table`] (the text / Markdown
    /// / CSV view; `--format json` emits [`SearchReport::to_json`]
    /// instead).
    pub fn table(&self) -> Table {
        // Label candidates by the axes that actually vary across the
        // probed set, so a one-axis bisection reads as a single
        // column instead of seven.
        let scenarios: Vec<&Scenario> = self
            .batches
            .iter()
            .flat_map(|b| b.probes.iter().map(|p| &p.scenario))
            .collect();
        let mut varying: Vec<Axis> = Axis::ALL
            .into_iter()
            .filter(|axis| {
                let mut first: Option<AxisValue> = None;
                scenarios.iter().any(|s| {
                    let v = axis.value_of(s);
                    match &first {
                        None => {
                            first = Some(v);
                            false
                        }
                        Some(f) => *f != v,
                    }
                })
            })
            .collect();
        if varying.is_empty() {
            varying.push(Axis::Workload);
        }
        let label = |s: &Scenario| -> String {
            varying
                .iter()
                .map(|a| format!("{}={}", a.name(), a.value_of(s)))
                .collect::<Vec<_>>()
                .join(" ")
        };

        let mut headers = vec![
            "batch".to_string(),
            "candidate".to_string(),
            self.objective.metric.clone(),
            "ci95".to_string(),
            "feasible".to_string(),
        ];
        for c in &self.constraints {
            headers.push(c.to_string());
        }
        let mut table = Table::new(format!("search: {}", self.name), headers);
        for batch in &self.batches {
            for p in &batch.probes {
                let mut row = vec![
                    batch.label.clone(),
                    label(&p.scenario),
                    format!("{:.6}", p.value),
                    format!("{:.6}", p.ci95),
                    if p.feasible { "yes" } else { "no" }.to_string(),
                ];
                for b in &p.bounds {
                    row.push(format!("{b:.6}"));
                }
                while row.len() < 5 + self.constraints.len() {
                    row.push(String::new());
                }
                table.push_row(row);
            }
        }
        table.push_note(format!(
            "objective {} over {} candidates (space {}, budget {}, ensemble {}, driver {})",
            self.objective,
            self.probes_issued(),
            self.space_len,
            self.budget,
            self.ensemble,
            self.driver.key()
        ));
        match &self.incumbent {
            Some(inc) => table.push_note(format!(
                "incumbent: {} -> {} = {:.6} (±{:.6})",
                label(&inc.scenario),
                self.objective.metric,
                inc.value,
                inc.ci95
            )),
            None => table.push_note("incumbent: none (no feasible candidate probed)".to_string()),
        }
        for note in &self.notes {
            table.push_note(note.clone());
        }
        table
    }
}

impl std::fmt::Display for SearchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table())
    }
}

/// A configured search: space + objective + constraints + driver +
/// budget, run through a [`StudySession`].
#[derive(Debug, Clone)]
pub struct Search {
    space: ScenarioSpace,
    objective: Objective,
    constraints: Vec<Constraint>,
    driver: Driver,
    budget: Option<usize>,
    ensemble: usize,
}

impl Search {
    /// A search over `space` optimizing `objective`, with no
    /// constraints, the `exhaustive` driver, an unlimited budget and
    /// a singleton seed ensemble.
    pub fn new(space: ScenarioSpace, objective: Objective) -> Self {
        Self {
            space,
            objective,
            constraints: Vec::new(),
            driver: Driver::Exhaustive,
            budget: None,
            ensemble: 1,
        }
    }

    /// Adds a feasibility constraint (candidates failing any
    /// constraint can never become the incumbent).
    pub fn constraint(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Selects the probe-scheduling driver.
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Caps the number of distinct candidates probed (default: the
    /// space cardinality). The cap is hard — a driver that wants more
    /// stops early and says so in the report notes.
    pub fn budget(mut self, probes: usize) -> Self {
        self.budget = Some(probes);
        self
    }

    /// Seed-ensemble size per candidate: each candidate is measured
    /// at `n` trace seeds spaced [`ENSEMBLE_STRIDE`] apart and scored
    /// by the ensemble mean ± 95% CI half-width. Clamped to at least
    /// 1; member 0 is the canonical scenario, byte-identical to what
    /// a plain sweep would measure.
    pub fn ensemble(mut self, n: usize) -> Self {
        self.ensemble = n.max(1);
        self
    }

    /// The search objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// The feasibility constraints, in declaration order.
    pub fn constraints_list(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The selected driver.
    pub fn driver_kind(&self) -> Driver {
        self.driver
    }

    /// The probe budget, if capped.
    pub fn budget_cap(&self) -> Option<usize> {
        self.budget
    }

    /// The seed-ensemble size.
    pub fn ensemble_size(&self) -> usize {
        self.ensemble
    }

    /// The scenario space (for static checks; expansion is lazy).
    pub fn space(&self) -> &ScenarioSpace {
        &self.space
    }

    /// Runs the search: expands the space, lets the driver schedule
    /// probe batches through the session's worker pool and result cache,
    /// and assembles the deterministic [`SearchReport`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] for an empty or invalid space, a
    /// driver/space mismatch (bisection needs exactly one varying,
    /// non-categorical axis), a metric missing from a probed record,
    /// or any simulation/evaluation error from the session.
    pub fn run(&self, session: &StudySession) -> Result<SearchReport, CoreError> {
        let grid = self.space.expand()?;
        let n = grid.len();
        let budget = self.budget.unwrap_or(n);
        if budget == 0 {
            return report_err("search budget is 0: nothing can be probed");
        }
        let mut prober = Prober {
            session,
            grid: &grid,
            objective: &self.objective,
            constraints: &self.constraints,
            ensemble: self.ensemble,
            budget,
            issued: 0,
            outcomes: vec![None; n],
            records: Vec::new(),
            batches: Vec::new(),
            notes: Vec::new(),
        };
        match self.driver {
            Driver::Exhaustive => drive_exhaustive(&mut prober)?,
            Driver::Bisect => drive_bisect(&mut prober)?,
            Driver::Refine => drive_refine(&mut prober)?,
        }
        let incumbent = prober.best();
        if incumbent.is_none() {
            prober
                .notes
                .push("no feasible candidate among the probes".to_string());
        }
        Ok(SearchReport {
            name: grid.name().to_string(),
            driver: self.driver,
            objective: self.objective.clone(),
            constraints: self.constraints.clone(),
            space_len: n,
            budget,
            ensemble: self.ensemble,
            batches: prober.batches,
            incumbent,
            notes: prober.notes,
            probed: StudyReport::from_records(grid.name().to_string(), prober.records),
        })
    }
}

/// Driver-side probe bookkeeping: issues batches through the session,
/// memoizes outcomes per canonical index, enforces the budget, and
/// accumulates the trace.
struct Prober<'a> {
    session: &'a StudySession,
    grid: &'a ScenarioGrid,
    objective: &'a Objective,
    constraints: &'a [Constraint],
    ensemble: usize,
    budget: usize,
    issued: usize,
    outcomes: Vec<Option<ProbeOutcome>>,
    records: Vec<ScenarioRecord>,
    batches: Vec<ProbeBatch>,
    notes: Vec<String>,
}

impl Prober<'_> {
    fn scenario_at(&self, i: usize) -> Result<&Scenario, CoreError> {
        self.grid
            .scenarios()
            .get(i)
            .ok_or_else(|| CoreError::Report {
                message: format!("probe index {i} out of space (len {})", self.grid.len()),
            })
    }

    fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.issued)
    }

    fn value_of(&self, i: usize) -> Option<f64> {
        self.outcomes
            .get(i)
            .and_then(|o| o.as_ref())
            .map(|o| o.value)
    }

    fn feasible_at(&self, i: usize) -> Option<bool> {
        self.outcomes
            .get(i)
            .and_then(|o| o.as_ref())
            .map(|o| o.feasible)
    }

    /// Evaluates the not-yet-probed candidates among `indices` as one
    /// batch, in the given order, truncating at the budget (with a
    /// note). Already-evaluated candidates are skipped silently —
    /// re-requesting a point is free and keeps driver code simple.
    fn probe(
        &mut self,
        label: impl Into<String>,
        indices: impl IntoIterator<Item = usize>,
    ) -> Result<(), CoreError> {
        let mut fresh: Vec<usize> = Vec::new();
        for i in indices {
            let seen = self.outcomes.get(i).map(|o| o.is_some()).unwrap_or(true);
            if !seen && !fresh.contains(&i) {
                fresh.push(i);
            }
        }
        let label = label.into();
        let room = self.remaining();
        if fresh.len() > room {
            fresh.truncate(room);
            self.notes.push(format!(
                "budget {} exhausted during `{label}`: later candidates unprobed",
                self.budget
            ));
        }
        if fresh.is_empty() {
            return Ok(());
        }

        let n = self.grid.len();
        let mut members: Vec<Scenario> = Vec::with_capacity(fresh.len() * self.ensemble);
        for &i in &fresh {
            let canonical = self.scenario_at(i)?.clone();
            for k in 0..self.ensemble {
                let mut m = canonical.clone();
                m.id += k * n;
                m.trace_seed = m
                    .trace_seed
                    .wrapping_add((k as u64).wrapping_mul(ENSEMBLE_STRIDE));
                members.push(m);
            }
        }
        // Members keep their ids in the full space, offset per
        // ensemble replica.
        let batch_grid = ScenarioGrid {
            name: self.grid.name.clone(),
            scenarios: members,
            workloads: self.grid.workloads.clone(),
            registry: self.grid.registry.clone(),
            replacement_registry: self.grid.replacement_registry.clone(),
            threads: self.grid.threads,
        };
        let report = self.session.run_grid(&batch_grid)?;

        let mut probes = Vec::with_capacity(fresh.len());
        for (&i, chunk) in fresh.iter().zip(report.records().chunks(self.ensemble)) {
            let outcome = self.score(i, chunk)?;
            if let Some(slot) = self.outcomes.get_mut(i) {
                *slot = Some(outcome.clone());
            }
            self.records.extend(chunk.iter().cloned());
            probes.push(outcome);
        }
        self.issued += fresh.len();
        self.batches.push(ProbeBatch { label, probes });
        Ok(())
    }

    /// Scores one candidate from its ensemble member records.
    fn score(&self, i: usize, chunk: &[ScenarioRecord]) -> Result<ProbeOutcome, CoreError> {
        let metric_over = |metric: &str| -> Result<Vec<f64>, CoreError> {
            chunk
                .iter()
                .map(|r| {
                    metric_value(r, metric).ok_or_else(|| CoreError::Report {
                        message: format!(
                            "record for `{}` (model `{}`) lacks metric `{metric}`",
                            r.scenario.workload, r.scenario.model
                        ),
                    })
                })
                .collect()
        };
        let values = metric_over(&self.objective.metric)?;
        let value = Reduce::Mean.apply(&values)?;
        let ci95 = Reduce::CiHalfWidth95.apply(&values)?;
        let mut bounds = Vec::with_capacity(self.constraints.len());
        let mut feasible = true;
        for c in self.constraints {
            let mean = Reduce::Mean.apply(&metric_over(&c.metric)?)?;
            feasible = feasible && c.satisfied(mean);
            bounds.push(mean);
        }
        Ok(ProbeOutcome {
            index: i,
            scenario: self.scenario_at(i)?.clone(),
            value,
            ci95,
            feasible,
            bounds,
        })
    }

    /// The incumbent among everything probed so far: the first
    /// feasible candidate in canonical order, replaced only by a
    /// *decisively* better one — better ensemble mean with the 95%
    /// confidence brackets separated. Statistical ties keep the
    /// earlier candidate, which makes the selection deterministic.
    fn best(&self) -> Option<ProbeOutcome> {
        let mut best: Option<&ProbeOutcome> = None;
        for o in self.outcomes.iter().flatten() {
            if !o.feasible {
                continue;
            }
            best = match best {
                None => Some(o),
                Some(b) => {
                    if self.objective.better(o.value, b.value)
                        && (o.value - b.value).abs() > o.ci95 + b.ci95
                    {
                        Some(o)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best.cloned()
    }
}

/// Probes every point, in canonical order.
fn drive_exhaustive(p: &mut Prober<'_>) -> Result<(), CoreError> {
    p.probe("exhaustive", 0..p.grid.len())
}

/// Binary search on the single varying axis. The objective (and any
/// constraint metric) is assumed monotone along it; the driver audits
/// the assumption against its own probes and falls back to exhaustive
/// when violated, so a wrong assumption costs probes, never a wrong
/// answer.
fn drive_bisect(p: &mut Prober<'_>) -> Result<(), CoreError> {
    let varying = varying_axes(p.grid);
    let axis = match varying.as_slice() {
        [axis] => *axis,
        [] => {
            return report_err(
                "bisect: no axis varies across the space; there is nothing to search \
                 (use exhaustive)",
            )
        }
        many => {
            let names: Vec<&str> = many.iter().map(|a| a.name()).collect();
            return report_err(format!(
                "bisect: needs exactly one varying axis, space has {}: {} \
                 (use refine or exhaustive)",
                many.len(),
                names.join(", ")
            ));
        }
    };
    if matches!(axis, Axis::Policy | Axis::Workload) {
        return report_err(format!(
            "bisect: axis `{}` is categorical — no order, no monotonicity \
             (use exhaustive)",
            axis.name()
        ));
    }

    // Rank every scenario along the axis: numeric axes by value,
    // the model axis by first-appearance order of its keys (the
    // declared order of a parameter family is the asserted monotone
    // order). Ties (e.g. seed-duplicates from a union) break toward
    // the lower canonical index.
    let mut model_order: Vec<AxisValue> = Vec::new();
    let ranks: Vec<f64> = p
        .grid
        .scenarios()
        .iter()
        .map(|s| match axis.value_of(s) {
            AxisValue::Num(v) => v,
            v @ AxisValue::Str(_) => {
                let at = match model_order.iter().position(|m| *m == v) {
                    Some(i) => i,
                    None => {
                        model_order.push(v);
                        model_order.len() - 1
                    }
                };
                at as f64
            }
        })
        .collect();
    let rank = |i: usize| ranks.get(i).copied().unwrap_or(f64::INFINITY);
    let mut order: Vec<usize> = (0..p.grid.len()).collect();
    order.sort_by(|&a, &b| rank(a).total_cmp(&rank(b)).then(a.cmp(&b)));

    let (Some(&first), Some(&last)) = (order.first(), order.last()) else {
        return report_err("bisect: empty space");
    };
    if first == last {
        return p.probe("bisect endpoints", [first]);
    }

    // Endpoints fix the direction; the midpoint is the cheapest
    // monotonicity witness.
    p.probe("bisect endpoints", [first, last])?;
    let mid = order.get(order.len() / 2).copied().unwrap_or(first);
    p.probe("bisect midpoint", [mid])?;

    let (Some(v_first), Some(v_last)) = (p.value_of(first), p.value_of(last)) else {
        // Budget ran out inside the opening batches; report what we
        // have.
        return Ok(());
    };
    let rising = v_last >= v_first;
    let better_end_last = p.objective.better(v_last, v_first);

    // Audit: every probed point so far, in axis order, must move the
    // endpoint direction (within tolerance).
    if !audit_monotone(p, &order, rising) {
        p.notes.push(format!(
            "bisect: `{}` is not monotone along `{}` at the probed points; \
             falling back to exhaustive",
            p.objective.metric,
            axis.name()
        ));
        return p.probe("exhaustive fallback", order.iter().copied());
    }

    if p.constraints.is_empty() {
        // Monotone objective, no constraints: the better endpoint is
        // the optimum; both are already probed.
        return Ok(());
    }

    // With constraints the optimum sits at the feasibility boundary
    // nearest the better end. Positions are into `order`.
    let better_pos = if better_end_last { order.len() - 1 } else { 0 };
    let worse_pos = if better_end_last { 0 } else { order.len() - 1 };
    let at = |pos: usize| order.get(pos).copied().unwrap_or(first);

    if p.feasible_at(at(better_pos)).unwrap_or(false) {
        return Ok(()); // the unconstrained optimum is feasible
    }
    if !p.feasible_at(at(worse_pos)).unwrap_or(false) {
        p.notes.push(
            "bisect: both endpoints infeasible; the feasible set (if any) is interior — \
             falling back to exhaustive"
                .to_string(),
        );
        return p.probe("exhaustive fallback", order.iter().copied());
    }

    // Invariant: `lo` feasible, `hi` infeasible; shrink to adjacency.
    let (mut lo, mut hi) = (worse_pos, better_pos);
    let mut step = 0usize;
    while lo.abs_diff(hi) > 1 && p.remaining() > 0 {
        step += 1;
        let mid_pos = lo.midpoint(hi);
        p.probe(format!("bisect step {step}"), [at(mid_pos)])?;
        match p.feasible_at(at(mid_pos)) {
            Some(true) => lo = mid_pos,
            Some(false) => hi = mid_pos,
            None => break, // budget ran out
        }
    }
    if !audit_monotone(p, &order, rising) {
        p.notes.push(format!(
            "bisect: `{}` is not monotone along `{}` at the probed points; \
             falling back to exhaustive",
            p.objective.metric,
            axis.name()
        ));
        return p.probe("exhaustive fallback", order.iter().copied());
    }
    Ok(())
}

/// Checks that the objective values probed so far are monotone along
/// the axis order (non-strict, with [`MONO_EPS`] slack).
fn audit_monotone(p: &Prober<'_>, order: &[usize], rising: bool) -> bool {
    let mut prev: Option<f64> = None;
    for &i in order {
        let Some(v) = p.value_of(i) else { continue };
        if v.is_nan() {
            return false;
        }
        if let Some(pv) = prev {
            let eps = MONO_EPS * 1.0_f64.max(pv.abs()).max(v.abs());
            let ok = if rising { v >= pv - eps } else { v <= pv + eps };
            if !ok {
                return false;
            }
        }
        prev = Some(v);
    }
    true
}

/// Coarse-to-fine refinement over the canonical order: probe a
/// power-of-two-strided skeleton plus the endpoints, then repeatedly
/// halve the stride and probe the incumbent's neighbours. Finds the
/// optimum of any unimodal landscape in `O(log n)` batches and a good
/// point of any landscape, always within budget.
fn drive_refine(p: &mut Prober<'_>) -> Result<(), CoreError> {
    let n = p.grid.len();
    if n <= 2 {
        return p.probe("refine coarse", 0..n);
    }
    let mut stride = 1usize;
    while stride * 2 < n {
        stride *= 2;
    }
    let coarse: Vec<usize> = (0..n).step_by(stride).chain([n - 1]).collect();
    p.probe(format!("refine coarse (stride {stride})"), coarse)?;
    while stride > 1 && p.remaining() > 0 {
        stride /= 2;
        let Some(inc) = p.best() else { break };
        let around = [
            inc.index.checked_sub(stride),
            inc.index.checked_add(stride).filter(|&i| i < n),
        ];
        p.probe(
            format!("refine stride {stride}"),
            around.into_iter().flatten(),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_hits_both_endpoints() {
        assert_eq!(steps(1.0, 4.0, 1.0).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(steps(2.0, 2.0, 0.5).unwrap(), vec![2.0]);
        // 0.1 steps accumulate rounding; the endpoint must survive.
        let v = steps(0.0, 1.0, 0.1).unwrap();
        assert_eq!(v.len(), 11);
        assert_eq!(v.last().copied().unwrap(), 1.0);
        assert!(steps(4.0, 1.0, 1.0).is_err());
        assert!(steps(0.0, 1.0, 0.0).is_err());
        assert!(steps(0.0, 1e9, 1e-3).is_err(), "point-count guard");
    }

    #[test]
    fn log_steps_are_equal_ratio() {
        let v = log_steps(1.0, 100.0, 3).unwrap();
        assert_eq!(v.len(), 3);
        assert!((v[0] - 1.0).abs() < 1e-12);
        assert!((v[1] - 10.0).abs() < 1e-9);
        assert_eq!(v[2], 100.0, "endpoint is exact");
        assert_eq!(log_steps(5.0, 5.0, 1).unwrap(), vec![5.0]);
        assert!(log_steps(0.0, 10.0, 4).is_err());
        assert!(log_steps(1.0, 10.0, 1).is_err());
    }

    #[test]
    fn objective_and_constraint_parse_and_print() {
        let o = Objective::parse("max:lt_years").unwrap();
        assert_eq!(o, Objective::maximize("lt_years"));
        assert_eq!(o.to_string(), "max:lt_years");
        assert_eq!(
            Objective::parse(" minimize:esav ").unwrap(),
            Objective::minimize("esav")
        );
        assert!(Objective::parse("lt_years").is_err());
        assert!(Objective::parse("best:lt_years").is_err());

        let c = Constraint::parse("lt_years>=7").unwrap();
        assert_eq!(c, Constraint::at_least("lt_years", 7.0).unwrap());
        assert_eq!(c.to_string(), "lt_years>=7");
        assert!(c.satisfied(7.0) && !c.satisfied(6.9));
        assert!(!c.satisfied(f64::NAN), "NaN is never feasible");
        let c = Constraint::parse("esav<=0.4").unwrap();
        assert_eq!(c.to_string(), "esav<=0.4");
        assert!(Constraint::parse("esav=0.4").is_err());
        assert!(Constraint::parse("esav<=lots").is_err());
        assert!(Constraint::at_least("x", f64::INFINITY).is_err());
    }

    #[test]
    fn driver_table_and_parse_agree() {
        for info in DRIVERS {
            assert_eq!(Driver::parse(info.key).unwrap().key(), info.key);
        }
        assert_eq!(Driver::parse("bisection").unwrap(), Driver::Bisect);
        let e = Driver::parse("anneal").unwrap_err();
        assert!(e.to_string().contains("exhaustive"), "{e}");
    }

    #[test]
    fn space_debug_shows_the_shape() {
        let s = ScenarioSpace::grid(StudySpec::new("a"))
            .filter(|_| true)
            .union(ScenarioSpace::grid(StudySpec::new("b")));
        assert_eq!(
            format!("{s:?}"),
            "ScenarioSpace[union(filter(grid(a)), grid(b))]"
        );
    }
}
