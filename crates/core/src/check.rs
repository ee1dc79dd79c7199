//! Static validation of study specs and result-cache journals — the
//! domain half of the lint layer (`study check` on the CLI).
//!
//! Everything here is **zero-simulation**: a check never calibrates a
//! model, never synthesizes a trace, never touches a cache bank. A
//! spec check resolves every key against the registries, validates
//! geometry and parameter ranges, reports canonical-key collisions
//! (`nbti:vlow=0.75` and `nbti-45nm` are the *same operating point* —
//! the grid would run it once per spelling) and prints the grid
//! cardinality with an estimated cold cost. A journal check re-derives
//! both content digests of every line, flags duplicates and
//! stale-engine entries, and reports the grid/journal overlap when a
//! spec is checked alongside.
//!
//! Unlike [`StudySpec::expand`], which fails on the *first* problem so
//! `run` stays cheap, a check collects **every** finding: its job is a
//! pre-flight report, not an early exit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use crate::analysis::Axis;
use crate::model::{self, ModelRegistry};
use crate::rescache::{grid_fingerprints, read_journal_line, RecordFault, ENGINE_VERSION};
use crate::search::{self, Driver, Search};
use crate::study::StudySpec;
use crate::workload::{Workload, WorkloadRegistry};

/// Severity of a [`CheckFinding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckLevel {
    /// Neutral fact about the spec or journal (grid size, coverage).
    Info,
    /// Suspicious but runnable (aliased keys, stale entries).
    Warning,
    /// The spec cannot expand or the journal entry is corrupt.
    Error,
}

/// One finding from a static check.
#[derive(Debug, Clone)]
pub struct CheckFinding {
    /// Severity.
    pub level: CheckLevel,
    /// Stable machine-readable code, e.g. `spec-model`,
    /// `journal-digest`.
    pub code: &'static str,
    /// Human explanation, one line.
    pub message: String,
}

impl std::fmt::Display for CheckFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.level {
            CheckLevel::Info => write!(f, "info[{}]: {}", self.code, self.message),
            CheckLevel::Warning => write!(f, "warning[{}]: {}", self.code, self.message),
            CheckLevel::Error => write!(f, "error[{}]: {}", self.code, self.message),
        }
    }
}

/// The accumulated findings of one or more checks, in the order they
/// were discovered (spec findings first, then journal, then
/// coverage).
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    findings: Vec<CheckFinding>,
}

impl CheckReport {
    /// All findings, discovery order.
    pub fn findings(&self) -> &[CheckFinding] {
        &self.findings
    }

    /// Number of error-level findings.
    pub fn errors(&self) -> usize {
        self.count(CheckLevel::Error)
    }

    /// Number of warning-level findings.
    pub fn warnings(&self) -> usize {
        self.count(CheckLevel::Warning)
    }

    fn count(&self, level: CheckLevel) -> usize {
        self.findings.iter().filter(|f| f.level == level).count()
    }

    /// `true` when no error-level finding was recorded (warnings and
    /// infos do not make a check fail).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Appends every finding of `other`, preserving order.
    pub fn merge(&mut self, other: CheckReport) {
        self.findings.extend(other.findings);
    }

    fn push(&mut self, level: CheckLevel, code: &'static str, message: String) {
        self.findings.push(CheckFinding {
            level,
            code,
            message,
        });
    }

    fn error(&mut self, code: &'static str, message: String) {
        self.push(CheckLevel::Error, code, message);
    }

    fn warning(&mut self, code: &'static str, message: String) {
        self.push(CheckLevel::Warning, code, message);
    }

    fn info(&mut self, code: &'static str, message: String) {
        self.push(CheckLevel::Info, code, message);
    }
}

impl std::fmt::Display for CheckReport {
    /// One finding per line, then a one-line summary. Byte-stable for
    /// a given input: findings carry no timestamps, paths are printed
    /// as given.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        writeln!(
            f,
            "check: {} error{}, {} warning{}",
            self.errors(),
            if self.errors() == 1 { "" } else { "s" },
            self.warnings(),
            if self.warnings() == 1 { "" } else { "s" },
        )
    }
}

/// Statically validates a spec against the policy/workload registries
/// it carries and the given model registry, without running anything.
///
/// The errors are the spec's own rule list — every problem `expand`
/// would reject, not only the first — plus model keys the registry
/// cannot resolve. On top come what `expand` tolerates: duplicate axis
/// values, aliased model spellings and a zero trace length (warnings),
/// and the grid size (info).
pub fn check_spec(spec: &StudySpec, models: &ModelRegistry) -> CheckReport {
    let mut report = CheckReport::default();
    for problem in spec.problems() {
        report.error(problem.code, problem.message);
    }
    // Model resolution is the one error `expand` leaves to the run,
    // which holds the model registry. A key that does not parse is
    // already a `spec-model` problem above.
    for key in &spec.models {
        let Ok(canonical) = model::canonicalize(key) else {
            continue;
        };
        if let Err(e) = models.resolve(&canonical) {
            report.error("spec-model", format!("model key `{key}`: {e}"));
        }
    }

    duplicate_warnings(
        &mut report,
        "policy",
        spec.policies.iter().map(String::as_str),
    );
    duplicate_warnings(
        &mut report,
        "replacement",
        spec.replacements.iter().map(String::as_str),
    );
    duplicate_warnings(
        &mut report,
        "workload",
        spec.workloads.iter().map(|w| w.name()),
    );
    if spec.trace_cycles == 0 {
        report.warning(
            "spec-param",
            "trace_cycles is 0 — every scenario will simulate an empty trace".to_string(),
        );
    }
    // Alias collisions: distinct spellings landing on one canonical
    // operating point duplicate grid scenarios (each keeps its own
    // derived policy seed, so nothing dedupes them downstream).
    if let Ok(composed) = spec.composed_model_keys() {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for key in &composed {
            *seen.entry(key.as_str()).or_default() += 1;
        }
        for (key, n) in seen {
            if n > 1 {
                report.warning(
                    "spec-alias",
                    format!(
                        "model operating point `{key}` appears {n} times after \
                         canonicalization — aliased spellings duplicate grid scenarios"
                    ),
                );
            }
        }
    }

    // Grid cardinality and cost estimate — only meaningful when every
    // axis is present.
    let models_len = spec
        .composed_model_keys()
        .map(|k| k.len())
        .unwrap_or(spec.models.len());
    // No-L2 grid points collapse the l2_ways axis (expand emits one
    // scenario, not one per l2_ways value).
    let l2_points: usize = spec
        .l2_cache_bytes
        .iter()
        .map(|&b| if b == 0 { 1 } else { spec.l2_ways.len() })
        .sum();
    let geometries = spec.cache_bytes.len()
        * spec.line_bytes.len()
        * spec.banks.len()
        * spec.ways.len()
        * spec.replacements.len()
        * l2_points;
    let scenarios = geometries
        * models_len
        * spec.update_days.len()
        * spec.policies.len()
        * spec.workloads.len();
    if scenarios > 0 {
        // One trace simulation per (geometry, workload); models,
        // update periods and policies all reuse it through the
        // session's simulation memo.
        let sims = geometries * spec.workloads.len();
        let accesses = (sims as u128) * (spec.trace_cycles as u128);
        report.info(
            "spec-grid",
            format!(
                "grid: {scenarios} scenario{} ({sims} distinct trace simulation{}, \
                 ≈{accesses} simulated accesses cold)",
                if scenarios == 1 { "" } else { "s" },
                if sims == 1 { "" } else { "s" },
            ),
        );
    }
    report
}

/// Resolves workload keys against a [`WorkloadRegistry`], turning
/// each failure into a `spec-workload` error finding instead of
/// stopping at the first bad key (the builder's
/// [`StudySpec::workload_names`] behaviour). Returns the workloads
/// that *did* resolve so the caller can still check the rest of the
/// spec around the holes.
pub fn check_workload_keys(
    registry: &WorkloadRegistry,
    keys: &[String],
) -> (Vec<Arc<dyn Workload>>, CheckReport) {
    let mut report = CheckReport::default();
    let mut resolved: Vec<Arc<dyn Workload>> = Vec::new();
    for key in keys {
        match registry.resolve(key) {
            Ok(w) => resolved.push(w),
            Err(e) => report.error("spec-workload", format!("workload `{key}`: {e}")),
        }
    }
    // Duplicate keys are left to `check_spec`: they resolve to
    // same-named workloads, which the axis walk already reports.
    (resolved, report)
}

fn duplicate_warnings<'a>(
    report: &mut CheckReport,
    what: &str,
    names: impl Iterator<Item = &'a str>,
) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for name in names {
        *counts.entry(name).or_default() += 1;
    }
    for (name, n) in counts {
        if n > 1 {
            report.warning(
                "spec-duplicate",
                format!("{what} `{name}` appears {n} times on its axis — duplicate grid points"),
            );
        }
    }
}

/// The result of [`check_journal`]: the findings plus the canonical
/// key of every line that parsed far enough to expose one (used by
/// [`check_coverage`]).
#[derive(Debug, Default)]
pub struct JournalCheck {
    /// The findings.
    pub report: CheckReport,
    /// Canonical keys in journal order (duplicates included).
    pub keys: Vec<String>,
}

/// Statically validates a result-cache journal: every complete line
/// must parse, both content digests must verify, and duplicate or
/// stale-engine fingerprints are reported. Unlike
/// [`JsonlCache::open`](crate::rescache::JsonlCache::open), which
/// fails fast on the first corrupt entry, this walks the whole file
/// and reports every problem. Nothing is repaired and nothing is
/// written.
pub fn check_journal(path: &Path) -> JournalCheck {
    let mut out = JournalCheck::default();
    let report = &mut out.report;
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            report.error(
                "journal-missing",
                format!("cannot read journal {}: {e}", path.display()),
            );
            return out;
        }
    };
    let mut lineno = 0usize;
    let mut entries = 0usize;
    let mut first_line_of: BTreeMap<String, usize> = BTreeMap::new();
    let mut tail_complete = true;
    for line in text.split_inclusive('\n') {
        lineno += 1;
        let Some(line) = line.strip_suffix('\n') else {
            // A trailing fragment with no newline is an append cut
            // short — exactly what `JsonlCache::open` repairs by
            // truncation. Not an error: no completed entry is lost.
            tail_complete = false;
            report.warning(
                "journal-truncated",
                format!(
                    "line {lineno}: trailing {}-byte fragment without a newline \
                     (interrupted append; reopening the cache repairs it by truncation)",
                    line.len()
                ),
            );
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        let entry = match read_journal_line(line) {
            Ok(entry) => entry,
            Err(e) => {
                report.error("journal-parse", format!("line {lineno}: {e}"));
                continue;
            }
        };
        let (fp, key) = (entry.fp, entry.key.into_owned());
        entries += 1;
        if !entry.key_ok {
            report.error(
                "journal-digest",
                format!(
                    "line {lineno} (fp {fp}): key digest mismatch — the key or the fp \
                     field was altered"
                ),
            );
        }
        match entry.record {
            Ok(_) => {}
            Err(RecordFault::Missing(e)) => {
                report.error("journal-parse", format!("line {lineno}: {e}"));
            }
            Err(RecordFault::Digest) => report.error(
                "journal-digest",
                format!(
                    "line {lineno} (fp {fp}): measurement digest mismatch — the \
                     record was altered"
                ),
            ),
            Err(RecordFault::Invalid(e)) => {
                report.error("journal-record", format!("line {lineno} (fp {fp}): {e}"));
            }
        }
        if !key.starts_with(&format!("v={ENGINE_VERSION};")) {
            report.warning(
                "journal-stale",
                format!(
                    "line {lineno} (fp {fp}): entry predates engine version \
                     `{ENGINE_VERSION}` and will never be looked up"
                ),
            );
        }
        if let Some(&first) = first_line_of.get(&key) {
            report.warning(
                "journal-duplicate",
                format!("line {lineno} (fp {fp}): duplicates line {first}"),
            );
        } else {
            first_line_of.insert(key.clone(), lineno);
        }
        out.keys.push(key);
    }
    let distinct = first_line_of.len();
    report.info(
        "journal-summary",
        format!(
            "journal: {entries} entr{} on {lineno} line{}, {distinct} distinct \
             fingerprint{}{}",
            if entries == 1 { "y" } else { "ies" },
            if lineno == 1 { "" } else { "s" },
            if distinct == 1 { "" } else { "s" },
            if tail_complete {
                ""
            } else {
                " (plus a truncated tail)"
            },
        ),
    );
    out
}

/// Reports the overlap between a spec's expanded grid and a set of
/// journal keys: how many grid points are already journaled (warm)
/// and how many journal entries this grid will never ask about
/// (orphaned — normal for a journal shared across studies, so an info
/// rather than a warning). Fingerprints are computed exactly as the
/// grid runner computes them; nothing is simulated.
pub fn check_coverage(spec: &StudySpec, journal_keys: &[String]) -> CheckReport {
    let mut report = CheckReport::default();
    let grid = match spec.expand() {
        Ok(grid) => grid,
        Err(_) => return report, // spec findings already cover this
    };
    let Ok(fingerprints) = grid_fingerprints(&grid) else {
        return report; // expand() always indexes in range
    };
    let grid_keys: BTreeSet<String> = fingerprints
        .iter()
        .map(|fp| fp.canonical().to_string())
        .collect();
    let journal: BTreeSet<&str> = journal_keys.iter().map(String::as_str).collect();
    let warm = grid_keys
        .iter()
        .filter(|k| journal.contains(k.as_str()))
        .count();
    let orphaned = journal.iter().filter(|k| !grid_keys.contains(**k)).count();
    report.info(
        "coverage",
        format!(
            "coverage: {warm}/{} grid fingerprint{} already journaled; {orphaned} journal \
             entr{} outside this grid",
            grid_keys.len(),
            if grid_keys.len() == 1 { "" } else { "s" },
            if orphaned == 1 { "y is" } else { "ies are" },
        ),
    );
    report
}

/// Statically validates a configured [`Search`]: the leaf specs of
/// the scenario space (via [`check_spec`]), the objective and
/// constraint metric names against [`search::KNOWN_METRICS`], the
/// probe budget, and driver/axis compatibility — bisection demands
/// exactly one varying axis and that axis must carry an order
/// (policy and workload are categorical, so bisecting them is an
/// error, not a wish).
///
/// Like every check this is **zero-simulation**: the space is
/// expanded (pure arithmetic over the axes) but nothing is
/// calibrated, synthesized or simulated.
pub fn check_search(search: &Search, models: &ModelRegistry) -> CheckReport {
    let mut report = CheckReport::default();
    for spec in search.space().specs() {
        report.merge(check_spec(spec, models));
    }

    let mut metrics: Vec<(&'static str, &'static str, &str)> = vec![(
        "objective",
        "search-objective",
        search.objective().metric.as_str(),
    )];
    for c in search.constraints_list() {
        metrics.push(("constraint", "search-constraint", c.metric.as_str()));
    }
    for (what, code, metric) in metrics {
        if !search::KNOWN_METRICS.contains(&metric) {
            report.error(
                code,
                format!(
                    "{what} metric `{metric}` is not a measured output or a built-in \
                     model metric (known: {})",
                    search::KNOWN_METRICS.join(", ")
                ),
            );
        }
    }

    if search.budget_cap() == Some(0) {
        report.error(
            "search-budget",
            "budget 0 probes nothing; drop --budget or raise it".to_string(),
        );
    }

    let grid = match search.space().expand() {
        Ok(grid) => grid,
        Err(e) => {
            // Leaf-spec findings above usually explain why; a
            // composition-level failure (empty filter result, union
            // registry mismatch) surfaces here.
            if report.errors() == 0 {
                report.error("search-space", format!("space does not expand: {e}"));
            }
            return report;
        }
    };
    let varying = search::varying_axes(&grid);
    if search.driver_kind() == Driver::Bisect {
        match varying.as_slice() {
            [axis] if matches!(axis, Axis::Policy | Axis::Workload) => {
                report.error(
                    "search-driver",
                    format!(
                        "bisect on axis `{}`: categorical axes have no order to \
                         bisect (use exhaustive)",
                        axis.name()
                    ),
                );
            }
            [_] => {}
            [] => {
                report.error(
                    "search-driver",
                    "bisect: no axis varies across the space (use exhaustive)".to_string(),
                );
            }
            many => {
                let names: Vec<&str> = many.iter().map(|a| a.name()).collect();
                report.error(
                    "search-driver",
                    format!(
                        "bisect: needs exactly one varying axis, space has {}: {} \
                         (use refine or exhaustive)",
                        many.len(),
                        names.join(", ")
                    ),
                );
            }
        }
        let floor = (grid.len().max(2) as f64).log2().ceil() as usize + 3;
        if search.budget_cap().is_some_and(|b| b > 0 && b < floor) {
            report.warning(
                "search-budget",
                format!(
                    "budget {} is below the ~{floor} probes bisection needs over {} \
                     points; the driver will stop early",
                    search.budget_cap().unwrap_or(0),
                    grid.len()
                ),
            );
        }
    }
    report.info(
        "search-space",
        format!(
            "space expands to {} scenario{}; driver `{}` under budget {}",
            grid.len(),
            if grid.len() == 1 { "" } else { "s" },
            search.driver_kind().key(),
            search
                .budget_cap()
                .map_or_else(|| "unlimited".to_string(), |b| b.to_string()),
        ),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::model::Metrics;
    use crate::rescache::{CachedMeasurement, Fingerprint, JsonlCache, ResultCache};
    use crate::study::StudySpec;

    fn small_spec() -> StudySpec {
        StudySpec::new("check-test")
            .workload_names(["sha"])
            .unwrap()
            .policies(["identity", "probing"])
            .trace_cycles(4_000)
            .policy_seed(1)
    }

    #[test]
    fn clean_spec_reports_grid_only() {
        let report = check_spec(&small_spec(), &ModelRegistry::builtin());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.warnings(), 0, "{report}");
        let text = report.to_string();
        assert!(
            text.contains("grid: 2 scenarios (1 distinct trace simulation"),
            "{text}"
        );
    }

    #[test]
    fn unresolvable_model_key_is_an_error_not_a_panic() {
        let spec = small_spec().models(["warp-drive", "nbti:temp=oops"]);
        let report = check_spec(&spec, &ModelRegistry::builtin());
        assert_eq!(report.errors(), 2, "{report}");
        let text = report.to_string();
        assert!(
            text.contains("error[spec-model]: model key `warp-drive`"),
            "{text}"
        );
        assert!(
            text.contains("error[spec-model]: model key `nbti:temp=oops`"),
            "{text}"
        );
    }

    #[test]
    fn aliased_model_spellings_are_reported_not_deduped() {
        // `nbti:vlow=0.75` canonicalizes to the default operating
        // point — the same point as `nbti-45nm` spelled differently.
        let spec = small_spec().models(["nbti-45nm", "nbti:vlow=0.75"]);
        let report = check_spec(&spec, &ModelRegistry::builtin());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.warnings(), 1, "{report}");
        assert!(
            report.to_string().contains("warning[spec-alias]"),
            "{report}"
        );
    }

    #[test]
    fn check_collects_every_finding_where_expand_stops_at_one() {
        let spec = small_spec()
            .policies(["identity", "no-such-policy"])
            .banks([3]) // not a power of two
            .update_days([-1.0]);
        let report = check_spec(&spec, &ModelRegistry::builtin());
        assert!(report.errors() >= 3, "{report}");
        let text = report.to_string();
        assert!(text.contains("spec-policy"), "{text}");
        assert!(text.contains("spec-geometry"), "{text}");
        assert!(text.contains("spec-param"), "{text}");
        // expand() reports exactly one of these: the first on the list.
        assert!(matches!(
            spec.expand(),
            Err(CoreError::Unknown { kind: "policy", name, .. }) if name == "no-such-policy"
        ));
    }

    #[test]
    fn journal_check_verifies_and_flags_corruption() {
        let dir = std::env::temp_dir().join(format!("aging-check-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = JsonlCache::in_dir(&dir).unwrap();
        let grid = small_spec().expand().unwrap();
        let scenario = &grid.scenarios()[0];
        let workload = &grid.workloads[scenario.workload_index];
        let fp = Fingerprint::for_scenario(scenario, workload.as_ref());
        let m = CachedMeasurement {
            sim_cycles: 4_000,
            esav: 0.4,
            miss_rate: 0.1,
            useful_idleness: vec![0.1, 0.2, 0.3, 0.4],
            sleep_fractions: vec![0.1, 0.2, 0.3, 0.4],
            metrics: Metrics::from_pairs([("lt_years", 1.5)]),
        };
        cache.store(&fp, &m).unwrap();
        let path = cache.path().to_path_buf();
        drop(cache);

        let clean = check_journal(&path);
        assert!(clean.report.is_clean(), "{}", clean.report);
        assert_eq!(clean.keys.len(), 1);

        // Flip one digit of the stored metric: `check` no longer
        // matches the record, and only that line is named.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replace("\"lt_years\":1.5", "\"lt_years\":2.5");
        assert_ne!(text, corrupted, "fixture must contain the metric");
        std::fs::write(&path, corrupted).unwrap();
        let bad = check_journal(&path);
        assert_eq!(bad.report.errors(), 1, "{}", bad.report);
        assert!(
            bad.report.to_string().contains("journal-digest"),
            "{}",
            bad.report
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coverage_counts_warm_and_orphaned() {
        let spec = small_spec();
        let grid = spec.expand().unwrap();
        let scenario = &grid.scenarios()[0];
        let workload = &grid.workloads[scenario.workload_index];
        let warm_key = Fingerprint::for_scenario(scenario, workload.as_ref())
            .canonical()
            .to_string();
        let keys = vec![warm_key, format!("v={ENGINE_VERSION};not-in-grid")];
        let report = check_coverage(&spec, &keys);
        let text = report.to_string();
        assert!(text.contains("coverage: 1/2"), "{text}");
        assert!(
            text.contains("1 journal entry is outside this grid"),
            "{text}"
        );
    }
}
