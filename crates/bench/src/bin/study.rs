//! Run an arbitrary scenario grid from the command line, or regenerate
//! one of the paper's tables and studies with `study preset <name>`.
//!
//! ```sh
//! cargo run --release -p repro-bench --bin study -- \
//!     --cache-kb 8,16,32 --banks 2,4 --policies probing,gray,rotate-xor \
//!     --workloads sha,CRC32 --trace-cycles 320000 --json
//! ```
//!
//! Axes default to the paper's reference point; `--workloads all` (the
//! default) runs the full 18-benchmark suite. The geometry axis is
//! open: `--ways 1,4` sweeps associativity (`--replacement lru,mru`
//! picks the victim policy), and `--l2-kb 64 --l2-ways 4` composes a
//! two-level hierarchy whose L2 sees exactly the L1 miss stream
//! (records gain `sleep_fraction_l2` / `lt_years_l2` metrics). The
//! workload axis also
//! takes external trace files — `--trace csv:/path/to/trace.csv`
//! (formats: `csv`, `din`, `lackey`, or `file:` to infer from the
//! extension; repeat the flag for several traces) — whose format and
//! content hash are recorded in the report for reproducibility.
//!
//! The device axis is open too: `--model nbti:temp=105,vlow=0.7`
//! (repeat the flag for several models — parameterized keys use commas
//! internally), plus the `--temp`/`--vlow`/`--fail` override axes that
//! cross every listed model with operating-point sweeps.
//! `--list-models` shows the registered models and the parameterized
//! key families. Without `--json` a compact summary table is printed.
//!
//! The analysis layer is on the command line too:
//!
//! * `--format text|md|csv|json` renders the output table as aligned
//!   text (default, the historic stdout), paper-style Markdown, CSV,
//!   or the canonical report JSON (`--json` is the historic alias);
//! * `--group-by <axes>` (comma-separated: `policy`, `banks`,
//!   `cache`, `line`, `ways`, `replacement`, `l2`, `l2-ways`,
//!   `update`, `workload`, `model`) aggregates the
//!   per-scenario rows into one row per group — mean Esav / idleness /
//!   lifetimes over the group's records;
//! * `--baseline <policy>` derives the baseline-relative lifetime gain
//!   by joining every scenario against the one that differs only in
//!   policy (e.g. `--policies identity,probing --baseline identity`
//!   reports Probing's lifetime as a multiple of the conventional
//!   cache's), appended as an `LT x<baseline>` column — geomean within
//!   each group under `--group-by`;
//! * `study compare <left> <right>` compares two finished studies cell
//!   by cell with `--tol <abs>` tolerance and names every diverging
//!   scenario. Each side is a report JSON file or a `--cache-dir`
//!   journal (directory or `results.jsonl` path); comparing a report
//!   against a warm journal replays *nothing* — no simulation, no
//!   model evaluation. Exits 0 when the sides agree, 1 on divergence.
//! * `study check [spec flags] [--journal <dir|results.jsonl>]`
//!   statically validates the study before anything runs: every
//!   model/policy/workload key resolves against its registry,
//!   geometry and parameter ranges are sane, aliased model spellings
//!   (`nbti:vlow=0.75` ≡ `nbti-45nm`) are reported, the grid size and
//!   the counters a cold run of it ends with print, and a journal's
//!   content digests re-verify line by line. Zero simulation. Exits 0
//!   on a clean check, 1 when any error fired.
//!
//! The search layer is on the command line too:
//!
//! * `study optimize [spec flags] --objective max:lt_years
//!   [--constraint esav>=0.3] [--driver exhaustive|bisect|refine]
//!   [--budget <probes>] [--ensemble <seeds>]` searches the declared
//!   space for the best feasible scenario instead of sweeping all of
//!   it: `bisect` exploits a monotone varying axis (and falls back to
//!   exhaustive, with a note, when a monotonicity audit fails),
//!   `refine` runs coarse-to-fine. `--ensemble N` replicates every
//!   probe over N trace seeds and decides on mean ± 95% CI. Probes go
//!   through the same session/cache layers as a run, so with
//!   `--cache-dir` a warm re-run replays the byte-identical
//!   `SearchReport` with zero simulations. All `--format` renderers
//!   apply; the JSON emission round-trips and diffs like a study
//!   report.
//! * `study check` accepts the same `--objective`/`--constraint`/
//!   `--driver`/`--budget` flags and statically validates the search
//!   on top of the spec: unknown metrics, a bisection driver pointed
//!   at a categorical or multi-dimensional axis, and zero/short
//!   budgets all become findings — still zero simulation.
//!
//! The execution layer is on the command line too:
//!
//! * `--cache-dir <dir>` journals every finished scenario into
//!   `<dir>/results.jsonl`, keyed by its content-addressed
//!   fingerprint. A re-run — identical, widened, or interrupted
//!   halfway — replays journaled points byte-identically and computes
//!   only what is missing; a fully warm run executes zero simulations.
//!   Cache counters print on stderr after the run.
//! * `--resume` asserts the intent: it requires `--cache-dir` and
//!   fails fast if the journal does not exist yet.
//! * `--progress` streams per-scenario progress to stderr as workers
//!   finish (`cached` marks scenarios replayed from the journal).
//! * `--threads N` caps the worker pool; `--threads 1` runs every
//!   scenario on the calling thread, in grid order — the reference
//!   bytes every other worker count reproduces.
//! * Two runs — or a run and `study serve` — may share one
//!   `--cache-dir`: the journal's locked appends keep each scenario on
//!   exactly one line, and whichever process finishes a cell first
//!   journals it.
//!
//! The paper's evaluation is on the command line too:
//!
//! * `study preset <name> [--format text|md|csv|json]` regenerates one
//!   row of the preset table (`aging_cache::presets::PRESETS`):
//!   `table1`… `table4`, `claims`, `rng_error`, `policy_equivalence`,
//!   the ablations, and `all`, the paper-table subset planned as one
//!   grid. A row that runs studies prints its session counters on
//!   stderr. Text output is the historic stdout, byte for byte. With no
//!   name or an unknown one it lists the presets and exits 2.
//!
//! The serving layer is on the command line too:
//!
//! * `study serve [--addr <host:port>] [--cache-dir <dir>] [--threads
//!   <n>] [--shutdown-token <t>] [--addr-file <path>]` runs a
//!   long-lived HTTP server over the warm journal: `GET /render`,
//!   `/query` and `POST /compare` answer from cached results with
//!   **zero simulation** (cold cells answer 409 with the coverage
//!   gap); `POST /run` computes what is missing, and concurrent
//!   identical requests coalesce: each missing cell is simulated and
//!   evaluated once. `POST /shutdown?token=…` drains and exits.
//! * `study fetch <url>` is the matching dependency-free HTTP client:
//!   response body to stdout byte-for-byte, exit 0 on 2xx — CI smokes
//!   the server without `curl`.

use aging_cache::analysis::{self, Axis, ReportDiff};
use aging_cache::exec::{ExecObserver, RecordOrigin};
use aging_cache::model::ModelRegistry;
use aging_cache::render::{self, Format};
use aging_cache::rescache::{JsonlCache, MemoryCache, ResultCache};
use aging_cache::search::{Constraint, Driver, Objective, ScenarioSpace, Search};
use aging_cache::serve::{ServeLog, ServeOptions, StudyServer, REPORT_NAME};
use aging_cache::session::StudySession;
use aging_cache::study::{ScenarioRecord, SpecParser, StudyReport, StudySpec};
use aging_cache::{presets, CoreError, PolicyRegistry, WorkloadRegistry};
use std::io::Write;

/// `--progress`: per-scenario streaming to stderr.
struct Progress;

impl ExecObserver for Progress {
    fn on_start(&self, name: &str, total: usize) {
        eprintln!("[study] {name}: {total} scenarios");
    }

    fn on_record(&self, record: &ScenarioRecord, origin: RecordOrigin, done: usize, total: usize) {
        let s = &record.scenario;
        eprintln!(
            "[{done}/{total}] {}kB/{}B/M={} {} {} {}{}",
            s.cache_bytes / 1024,
            s.line_bytes,
            s.banks,
            s.policy,
            s.model,
            s.workload,
            if origin == RecordOrigin::Cached {
                " (cached)"
            } else {
                ""
            }
        );
    }
}

/// A parsed command-line value, or its error on stderr and exit 2.
fn or_usage<T>(parsed: Result<T, CoreError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// A parsed `flag` value, or the error after the flag's name on stderr
/// and exit 2.
fn flag_or_usage<T>(flag: &str, parsed: Result<T, CoreError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{flag}: {e}");
        std::process::exit(2);
    })
}

/// Applies one `--flag value` pair to the spec parser; `false` means
/// the flag is not a spec flag. A bad value exits 2, naming the flag.
fn spec_flag(spec: &mut SpecParser, flag: &str, value: &str) -> bool {
    flag.starts_with("--") && or_usage(spec.apply(flag, value))
}

/// The session a run or a search works on: `--progress` streams to
/// stderr, `--cache-dir` journals into the directory, and `--resume`
/// requires its journal to exist already.
fn open_session(progress: bool, cache_dir: Option<String>, resume: bool) -> StudySession {
    let mut session = StudySession::new();
    if progress {
        session = session.observer(Progress);
    }
    if let Some(dir) = cache_dir {
        if resume
            && !std::path::Path::new(&dir)
                .join(JsonlCache::FILE_NAME)
                .exists()
        {
            eprintln!(
                "--resume: no journal at {dir}/{} — nothing to resume",
                JsonlCache::FILE_NAME
            );
            std::process::exit(2);
        }
        let cache = match JsonlCache::in_dir(&dir) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        if resume {
            eprintln!("[cache] resuming from {} journaled scenarios", cache.len());
        }
        session = session.cache(cache);
    }
    session
}

/// Prints a journaled session's counters on stderr (nothing without a
/// result cache).
fn print_cache_stats(session: &StudySession) {
    let Some(cache) = session.result_cache() else {
        return;
    };
    let stats = session.stats();
    eprintln!(
        "[cache] hits: {}, computed: {}, simulations: {}, trace opens: {}, entries: {}",
        stats.cache_hits,
        stats.evaluations,
        stats.simulations,
        stats.trace_opens,
        cache.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb: Option<fn(&[String])> = match args.first().map(String::as_str) {
        Some("compare") => Some(compare_main),
        Some("check") => Some(check_main),
        Some("optimize") => Some(optimize_main),
        Some("serve") => Some(serve_main),
        Some("fetch") => Some(fetch_main),
        Some("preset") => Some(preset_main),
        _ => None,
    };
    if let Some(verb) = verb {
        verb(&args[1..]);
        return;
    }
    let mut spec_args = SpecParser::new(StudySpec::new(REPORT_NAME));
    let mut format = Format::Text;
    let mut cache_dir: Option<String> = None;
    let mut group_by: Vec<Axis> = Vec::new();
    let mut baseline: Option<String> = None;
    let mut resume = false;
    let mut progress = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--json" {
            format = Format::Json;
            i += 1;
            continue;
        }
        if flag == "--resume" {
            resume = true;
            i += 1;
            continue;
        }
        if flag == "--progress" {
            progress = true;
            i += 1;
            continue;
        }
        if flag == "--list-policies" {
            for (name, policy) in PolicyRegistry::global().iter() {
                println!("{name:<12} {}", policy.description());
            }
            return;
        }
        if flag == "--list-workloads" {
            for (name, workload) in WorkloadRegistry::global().iter() {
                println!("{name:<12} {}", workload.description());
            }
            println!("{:<12} external trace files also work: csv:/path, din:/path, lackey:/path, file:/path", "…");
            println!(
                "{:<12} pinned per-bank idleness profiles: profile:s0,s1,…",
                "…"
            );
            return;
        }
        if flag == "--list-models" {
            for (name, model) in ModelRegistry::global().iter() {
                println!("{name:<12} {}", model.description());
                println!("{:<12}   {}", "", model.provenance());
            }
            println!(
                "{:<12} parameterized keys: nbti:temp=<degC>,vlow=<V>,sleep=gated|scaled,fail=<pct>",
                "…"
            );
            println!(
                "{:<12}                     variation:<sigma-mv>[,cells=<n>,q=<quantile>]  drv:vlow=<V>[,aged=<dVth>]",
                "…"
            );
            return;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("flag {flag} needs a value");
            std::process::exit(2);
        };
        if spec_flag(&mut spec_args, flag, value) {
            i += 2;
            continue;
        }
        match flag {
            "--cache-dir" => cache_dir = Some(value.clone()),
            "--format" => {
                format = or_usage(Format::parse(value));
            }
            "--group-by" => {
                group_by = value
                    .split(',')
                    .map(|axis| or_usage(Axis::parse(axis)))
                    .collect();
            }
            "--baseline" => baseline = Some(value.trim().to_string()),
            _ => {
                eprintln!("unknown flag {flag}");
                eprintln!(
                    "flags: --cache-kb --line-bytes --banks --ways --replacement \
                     --l2-kb --l2-ways --update-days --policies \
                     --workloads --trace <format:path> --profile <s0,s1,…> \
                     --model --temp --vlow --fail \
                     --trace-cycles --seed --threads \
                     --cache-dir <dir> --resume --progress \
                     --format <text|md|csv|json> --group-by <axes> --baseline <policy> \
                     --json --list-policies --list-workloads --list-models \
                     (or: study compare <left> <right> [--tol <abs>], \
                     study check [spec flags] [--journal <dir|file>] [search flags], \
                     study optimize [spec flags] --objective <max:|min:><metric> …, \
                     study serve [--addr <host:port>] [--cache-dir <dir>], \
                     study fetch <url>, \
                     study preset <name> [--format <text|md|csv|json>])"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if let Some(base) = &baseline {
        if PolicyRegistry::global().get(base).is_none() {
            eprintln!(
                "--baseline: unknown policy `{base}` (known: {})",
                PolicyRegistry::global().names().join(", ")
            );
            std::process::exit(2);
        }
    }
    let spec = or_usage(spec_args.finish());

    if resume && cache_dir.is_none() {
        eprintln!("--resume needs --cache-dir <dir> (there is no journal to resume from)");
        std::process::exit(2);
    }
    let session = open_session(progress, cache_dir, resume);

    let report = match session.run(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("study failed: {e}");
            std::process::exit(1);
        }
    };
    print_cache_stats(&session);
    if format == Format::Json {
        // JSON is the canonical full report: group-by and baseline are
        // re-derivable from it later (`study compare`, `Query`), so
        // they deliberately do not change the emission.
        println!("{}", report.to_json());
        return;
    }
    // The summary tables live in core (`analysis::summary_table`) so
    // the study server's `/render` serves byte-identical output.
    match analysis::summary_table(&report, &group_by, baseline.as_deref()) {
        Ok(t) => println!("{}", render::table(&t, format)),
        Err(e) => {
            eprintln!("rendering failed: {e}");
            std::process::exit(1);
        }
    }
}

/// One side of a `study compare` invocation.
enum Side {
    Report(StudyReport),
    Journal(JsonlCache),
}

/// Classifies and loads a compare operand: a directory (or a path
/// ending in `.jsonl`) is a `--cache-dir` journal; anything else is a
/// report JSON file.
fn load_side(path: &str) -> Result<Side, CoreError> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        return Ok(Side::Journal(JsonlCache::in_dir(path)?));
    }
    if path.ends_with(".jsonl") {
        return Ok(Side::Journal(JsonlCache::open(path)?));
    }
    let text = std::fs::read_to_string(p).map_err(|e| CoreError::Report {
        message: format!("read {path}: {e}"),
    })?;
    StudyReport::from_json(&text).map(Side::Report)
}

/// `study compare <left> <right> [--tol <abs>]`: cell-by-cell diff of
/// two reports, or of a report against a result-cache journal (no
/// simulation, no model evaluation). Exits 0 when the sides agree,
/// 1 on divergence, 2 on usage errors.
fn compare_main(args: &[String]) {
    let mut paths: Vec<&String> = Vec::new();
    let mut tol = 0.0f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tol" {
            let Some(value) = args.get(i + 1) else {
                eprintln!("--tol needs a value (absolute tolerance)");
                std::process::exit(2);
            };
            tol = value.parse().unwrap_or_else(|_| {
                eprintln!("invalid value `{value}` for --tol");
                std::process::exit(2);
            });
            if tol < 0.0 || tol.is_nan() {
                eprintln!("--tol must be a non-negative absolute tolerance, got {tol}");
                std::process::exit(2);
            }
            i += 2;
            continue;
        }
        paths.push(&args[i]);
        i += 1;
    }
    let [left, right] = paths[..] else {
        eprintln!("usage: study compare <left> <right> [--tol <abs>]");
        eprintln!(
            "  each side: a report JSON file, or a --cache-dir journal (dir or results.jsonl)"
        );
        std::process::exit(2);
    };
    let fail = |e: CoreError| -> ! {
        eprintln!("compare failed: {e}");
        std::process::exit(2);
    };
    let diff = match (
        load_side(left).unwrap_or_else(|e| fail(e)),
        load_side(right).unwrap_or_else(|e| fail(e)),
    ) {
        (Side::Report(a), Side::Report(b)) => ReportDiff::between(&a, &b, tol),
        (Side::Report(report), Side::Journal(cache)) => {
            ReportDiff::against_cache(&report, &cache, WorkloadRegistry::global(), tol)
                .unwrap_or_else(|e| fail(e))
        }
        (Side::Journal(cache), Side::Report(report)) => {
            // The walk is always report-driven, but the printed
            // left/right sides must match the operand order the user
            // typed — swap the journal back to the left.
            ReportDiff::against_cache(&report, &cache, WorkloadRegistry::global(), tol)
                .unwrap_or_else(|e| fail(e))
                .swapped()
        }
        (Side::Journal(_), Side::Journal(_)) => {
            eprintln!(
                "compare: at least one side must be a report JSON file \
                 (a journal alone has no scenario list to walk)"
            );
            std::process::exit(2);
        }
    };
    print!("{diff}");
    if !diff.is_empty() {
        std::process::exit(1);
    }
}

/// `study check [spec flags] [--journal <dir|results.jsonl>]`: static
/// pre-flight validation of a study and (optionally) a result-cache
/// journal, with **zero simulation** — no model calibrates, no trace
/// synthesizes. Every finding prints (unlike `run`, which stops at the
/// first); the grid size and the counters a cold run of it ends with
/// on `--threads` workers print as info lines. Exits 0 on a clean
/// check, 1 when any error finding fired, 2 on usage errors.
fn check_main(args: &[String]) {
    use aging_cache::check;

    let mut spec_args = SpecParser::new(StudySpec::new(REPORT_NAME));
    let mut journal: Option<std::path::PathBuf> = None;
    let mut objective: Option<Objective> = None;
    let mut constraints: Vec<Constraint> = Vec::new();
    let mut driver: Option<Driver> = None;
    let mut budget: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            eprintln!("flag {flag} needs a value");
            std::process::exit(2);
        };
        if spec_flag(&mut spec_args, flag, value) {
            i += 2;
            continue;
        }
        match flag {
            // --cache-dir is accepted as an alias so a `run`
            // invocation turns into its pre-flight check by swapping
            // the verb, flags untouched.
            "--journal" | "--cache-dir" => {
                let p = std::path::Path::new(value);
                journal = Some(if p.is_dir() {
                    p.join(JsonlCache::FILE_NAME)
                } else {
                    p.to_path_buf()
                });
            }
            // The `study optimize` flags are accepted too, so an
            // optimize invocation turns into its pre-flight check by
            // swapping the verb. Spelling errors in the flag *values*
            // (`max:`/`>=` syntax, driver keys) are usage errors;
            // unknown metrics and driver/axis mismatches become
            // findings via `check_search`.
            "--objective" => {
                objective = Some(flag_or_usage("--objective", Objective::parse(value)));
            }
            "--constraint" => {
                constraints.push(flag_or_usage("--constraint", Constraint::parse(value)));
            }
            "--driver" => {
                driver = Some(flag_or_usage("--driver", Driver::parse(value)));
            }
            "--budget" => {
                budget = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value `{value}` for --budget (a probe count)");
                    std::process::exit(2);
                }));
            }
            _ => {
                eprintln!("unknown flag {flag} for `study check`");
                eprintln!(
                    "usage: study check [--cache-kb --line-bytes --banks --ways \
                     --replacement --l2-kb --l2-ways --update-days \
                     --policies --workloads --trace --profile --model --temp --vlow --fail \
                     --trace-cycles --seed --threads] [--journal <dir|results.jsonl>] \
                     [--objective <max:|min:><metric>] [--constraint <metric><=|>=><bound>] \
                     [--driver <key>] [--budget <n>]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if objective.is_none() && (driver.is_some() || !constraints.is_empty() || budget.is_some()) {
        eprintln!(
            "--driver/--constraint/--budget need --objective (the search checks hang off it)"
        );
        std::process::exit(2);
    }
    let (mut spec, keys) = spec_args.into_parts();
    let mut report = check::CheckReport::default();
    if let Some(keys) = keys {
        // Resolve workload keys finding-by-finding instead of through
        // the fail-fast builder: a misspelled benchmark name must not
        // hide the rest of the report.
        let (resolved, r) = check::check_workload_keys(WorkloadRegistry::global(), &keys);
        report.merge(r);
        spec = spec.workload_objects(resolved);
    }
    // One expansion feeds the grid line, the search and the coverage.
    let expanded = spec.expand();
    let grid = expanded.as_ref().ok();
    let models = ModelRegistry::global();
    match objective {
        // `check_search` re-runs `check_spec` over every leaf of the
        // space (here: the one grid), so the plain spec check would
        // duplicate its findings — run one or the other.
        Some(objective) => {
            let mut search = Search::new(ScenarioSpace::grid(spec.clone()), objective);
            for c in constraints {
                search = search.constraint(c);
            }
            if let Some(d) = driver {
                search = search.driver(d);
            }
            if let Some(b) = budget {
                search = search.budget(b);
            }
            report.merge(check::check_search(&search, expanded.as_ref(), models));
        }
        None => report.merge(check::check_spec(&spec, grid, models)),
    }
    if let Some(path) = &journal {
        let journal_check = check::check_journal(path);
        report.merge(journal_check.report);
        if let Some(grid) = grid {
            report.merge(check::check_coverage(grid, &journal_check.keys));
        }
    }
    print!("{report}");
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// Shared usage blurb for `study optimize` errors.
fn optimize_usage() -> ! {
    eprintln!(
        "usage: study optimize [spec flags] --objective <max:|min:><metric> \
         [--constraint <metric><=|>=><bound>]… [--driver exhaustive|bisect|refine] \
         [--budget <probes>] [--ensemble <seeds>] \
         [--cache-dir <dir>] [--resume] [--progress] \
         [--format <text|md|csv|json>] [--json]"
    );
    std::process::exit(2);
}

/// `study optimize [spec flags] --objective <max:metric|min:metric>
/// [--constraint …] [--driver …] [--budget <n>] [--ensemble <n>]`:
/// search the declared scenario space for the best feasible scenario
/// instead of sweeping all of it. Every probe batch runs through the
/// same session/cache layers as a plain `study` run, so with
/// `--cache-dir` a re-run replays warm — zero simulations, and a
/// byte-identical `SearchReport` (cache counters print on stderr, not
/// in the report, for exactly that reason).
fn optimize_main(args: &[String]) {
    let mut spec_args = SpecParser::new(StudySpec::new(REPORT_NAME));
    let mut objective: Option<Objective> = None;
    let mut constraints: Vec<Constraint> = Vec::new();
    let mut driver: Option<Driver> = None;
    let mut budget: Option<usize> = None;
    let mut ensemble: Option<usize> = None;
    let mut format = Format::Text;
    let mut cache_dir: Option<String> = None;
    let mut resume = false;
    let mut progress = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--json" {
            format = Format::Json;
            i += 1;
            continue;
        }
        if flag == "--resume" {
            resume = true;
            i += 1;
            continue;
        }
        if flag == "--progress" {
            progress = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("flag {flag} needs a value");
            std::process::exit(2);
        };
        if spec_flag(&mut spec_args, flag, value) {
            i += 2;
            continue;
        }
        match flag {
            "--objective" => {
                objective = Some(flag_or_usage("--objective", Objective::parse(value)));
            }
            // Repeatable: each --constraint adds one feasibility bound.
            "--constraint" => {
                constraints.push(flag_or_usage("--constraint", Constraint::parse(value)));
            }
            "--driver" => {
                driver = Some(flag_or_usage("--driver", Driver::parse(value)));
            }
            "--budget" => {
                budget = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value `{value}` for --budget (a probe count)");
                    std::process::exit(2);
                }));
            }
            "--ensemble" => {
                ensemble = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value `{value}` for --ensemble (seeds per probe)");
                    std::process::exit(2);
                }));
            }
            "--cache-dir" => cache_dir = Some(value.clone()),
            "--format" => {
                format = or_usage(Format::parse(value));
            }
            _ => {
                eprintln!("unknown flag {flag} for `study optimize`");
                optimize_usage();
            }
        }
        i += 2;
    }
    let Some(objective) = objective else {
        eprintln!(
            "study optimize needs --objective <max:|min:><metric> \
             (e.g. --objective max:lt_years)"
        );
        optimize_usage();
    };
    if resume && cache_dir.is_none() {
        eprintln!("--resume needs --cache-dir <dir> (there is no journal to resume from)");
        std::process::exit(2);
    }
    let mut search = Search::new(ScenarioSpace::grid(or_usage(spec_args.finish())), objective);
    for c in constraints {
        search = search.constraint(c);
    }
    if let Some(d) = driver {
        search = search.driver(d);
    }
    if let Some(b) = budget {
        search = search.budget(b);
    }
    if let Some(n) = ensemble {
        search = search.ensemble(n);
    }

    let session = open_session(progress, cache_dir, resume);
    let report = match search.run(&session) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("study optimize failed: {e}");
            std::process::exit(1);
        }
    };
    print_cache_stats(&session);
    if format == Format::Json {
        // Canonical emission: the probe log and incumbent round-trip
        // through `SearchReport::from_json`, and a warm re-run must
        // reproduce these bytes exactly.
        println!("{}", report.to_json());
        return;
    }
    println!("{}", render::table(&report.table(), format));
}

/// `study serve [--addr <host:port>] [--cache-dir <dir>] [--threads
/// <n>] [--shutdown-token <t>] [--addr-file <path>]`: a long-lived
/// HTTP server over the study session and its journal. `GET
/// /render|/query|/compare` answer from the warm cache; `POST /run`
/// computes what is missing, with concurrent identical requests
/// coalesced into one simulation and one evaluation per cell. `--addr`
/// defaults to `127.0.0.1:0`
/// (an OS-assigned port, printed — and written to `--addr-file` —
/// once bound, so scripts can discover it). Without `--cache-dir` the
/// results live in memory and die with the server. The process runs
/// until `POST /shutdown?token=…` (requires `--shutdown-token`)
/// drains it; then it exits 0.
fn serve_main(args: &[String]) {
    let mut options = ServeOptions::default();
    let mut cache_dir: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            eprintln!("flag {flag} needs a value");
            std::process::exit(2);
        };
        match flag {
            "--addr" => options.addr = value.clone(),
            "--cache-dir" => cache_dir = Some(value.clone()),
            "--threads" => {
                options.threads = value.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value `{value}` for --threads");
                    std::process::exit(2);
                });
            }
            "--shutdown-token" => options.shutdown_token = Some(value.clone()),
            "--addr-file" => addr_file = Some(value.clone()),
            _ => {
                eprintln!("unknown flag {flag} for `study serve`");
                eprintln!(
                    "usage: study serve [--addr <host:port>] [--cache-dir <dir>] \
                     [--threads <n>] [--shutdown-token <token>] [--addr-file <path>]"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }

    /// Request log on stderr; stdout stays clean for piping.
    struct Stderr;
    impl ServeLog for Stderr {
        fn request(&self, method: &str, path: &str, status: u16) {
            eprintln!("[serve] {method} {path} -> {status}");
        }
    }

    let fail = |e: CoreError| -> ! {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    };
    let server = match &cache_dir {
        Some(dir) => {
            let cache = JsonlCache::in_dir(dir).unwrap_or_else(|e| fail(e));
            eprintln!("[serve] journal: {dir} ({} scenarios warm)", cache.len());
            StudyServer::bind(cache, options)
        }
        None => StudyServer::bind(MemoryCache::new(), options),
    }
    .unwrap_or_else(|e| fail(e))
    .with_log(Stderr);
    if cache_dir.is_none() {
        eprintln!("[serve] no --cache-dir: results live in memory and die with the server");
    }
    let addr = server.addr();
    eprintln!("[serve] listening on http://{addr}");
    if let Some(path) = &addr_file {
        std::fs::write(path, format!("{addr}\n")).unwrap_or_else(|e| {
            eprintln!("serve: cannot write --addr-file {path}: {e}");
            std::process::exit(1);
        });
    }
    if let Err(e) = server.serve() {
        fail(e);
    }
    let stats = server.stats();
    let session = server.session().stats();
    eprintln!(
        "[serve] drained: {} requests ({} errors, {} coalesced waits), \
         {} simulations, {} cache hits",
        stats.requests,
        stats.errors,
        stats.coalesced_waits,
        session.simulations,
        session.cache_hits
    );
}

/// `study fetch <http://host:port/path?query> [--method GET|POST]
/// [--body <text> | --body-file <path>]`: a dependency-free HTTP
/// client for the serve smoke tests (CI needs no `curl`). The
/// response body goes to stdout *byte-for-byte* — no added newline —
/// so `cmp` against a CLI rendering works. Exits 0 on a 2xx status,
/// 1 otherwise (status on stderr), 2 on usage errors.
fn fetch_main(args: &[String]) {
    use std::io::{Read, Write};

    let usage = || -> ! {
        eprintln!(
            "usage: study fetch <http://host:port/path?query> \
             [--method GET|POST] [--body <text> | --body-file <path>]"
        );
        std::process::exit(2);
    };
    let mut url: Option<&String> = None;
    let mut method: Option<String> = None;
    let mut body: Vec<u8> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--method" | "--body" | "--body-file" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("flag {arg} needs a value");
                    std::process::exit(2);
                };
                match arg {
                    "--method" => method = Some(value.to_ascii_uppercase()),
                    "--body" => body = value.clone().into_bytes(),
                    _ => {
                        body = std::fs::read(value).unwrap_or_else(|e| {
                            eprintln!("fetch: read {value}: {e}");
                            std::process::exit(2);
                        });
                    }
                }
                i += 2;
            }
            _ if url.is_none() && !arg.starts_with("--") => {
                url = Some(&args[i]);
                i += 1;
            }
            _ => usage(),
        }
    }
    let Some(url) = url else { usage() };
    let Some(rest) = url.strip_prefix("http://") else {
        eprintln!("fetch: only http:// URLs are supported, got {url}");
        std::process::exit(2);
    };
    let (host, path) = match rest.find('/') {
        Some(pos) => (&rest[..pos], &rest[pos..]),
        None => (rest, "/"),
    };
    // A body implies POST unless the method was given explicitly.
    let method = method.unwrap_or_else(|| if body.is_empty() { "GET" } else { "POST" }.to_string());

    let fail = |what: &str, e: std::io::Error| -> ! {
        eprintln!("fetch: {what}: {e}");
        std::process::exit(1);
    };
    let mut stream =
        std::net::TcpStream::connect(host).unwrap_or_else(|e| fail(&format!("connect {host}"), e));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(&body))
        .unwrap_or_else(|e| fail("send", e));
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .unwrap_or_else(|e| fail("read", e));

    let Some(split) = response.windows(4).position(|w| w == b"\r\n\r\n") else {
        eprintln!("fetch: malformed response (no header terminator)");
        std::process::exit(1);
    };
    let head = String::from_utf8_lossy(&response[..split]);
    let Some(status) = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
    else {
        eprintln!(
            "fetch: malformed status line: {}",
            head.lines().next().unwrap_or_default()
        );
        std::process::exit(1);
    };
    std::io::stdout()
        .write_all(&response[split + 4..])
        .unwrap_or_else(|e| fail("stdout", e));
    if !(200..300).contains(&status) {
        eprintln!("fetch: {method} {path} -> {status}");
        std::process::exit(1);
    }
}

/// Prints the preset verb's usage and the preset table on stderr, then
/// exits 2.
fn preset_usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("{problem}");
    }
    eprintln!("usage: study preset <name> [--format text|md|csv|json]");
    eprintln!("presets:");
    for p in presets::PRESETS {
        eprintln!("  {:<22} {}", p.name, p.description);
    }
    std::process::exit(2);
}

/// `study preset <name> [--format text|md|csv|json]`: runs one row of
/// the preset table on a fresh session and prints the session counters
/// on stderr if the row ran studies. Whatever the preset wrote goes to
/// stdout even when it fails part-way; a failure then exits 1.
fn preset_main(args: &[String]) {
    let mut name: Option<&str> = None;
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                let Some(value) = args.get(i + 1) else {
                    preset_usage("--format needs a value (text, md, csv, json)");
                };
                format = Format::parse(value).unwrap_or_else(|e| preset_usage(&e.to_string()));
                i += 1;
            }
            flag if flag.starts_with("--") => preset_usage(&format!("unknown flag {flag}")),
            arg if name.is_none() => name = Some(arg),
            extra => preset_usage(&format!("unexpected argument {extra}")),
        }
        i += 1;
    }
    let Some(name) = name else {
        preset_usage("study preset needs a name");
    };
    let Some(preset) = presets::find(name) else {
        preset_usage(&format!("unknown preset `{name}`"));
    };
    let session = StudySession::new();
    let mut out = presets::Out::new(format);
    let result = preset.run(&session, &mut out);
    let stats = session.stats();
    if stats.scenarios > 0 {
        eprintln!(
            "[session] scenarios: {}, simulations: {} ({} shared via the session memo), \
             trace opens: {}",
            stats.scenarios, stats.simulations, stats.sim_memo_hits, stats.trace_opens
        );
    }
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(out.text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        eprintln!("write failed: {e}");
        std::process::exit(1);
    }
    if let Err(e) = result {
        eprintln!("preset {name} failed: {e}");
        std::process::exit(1);
    }
}
