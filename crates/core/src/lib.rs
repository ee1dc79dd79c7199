//! Partitioned cache architectures for reduced NBTI-induced aging.
//!
//! This crate is the primary contribution of the DATE 2011 paper by
//! Calimera, Loghi, Macii and Poncino: a direct-mapped cache partitioned
//! into `M = 2^p` **uniform banks** (standard memory-compiler blocks),
//! power-managed per bank, whose bank-select index bits pass through a
//! **time-varying indexing function** `f()` so that idleness — and with it
//! the NBTI recovery opportunity — is spread uniformly over the banks:
//!
//! * [`onehot`] — the 1-hot encoder of decoder `D` (paper Fig. 1b);
//! * [`lfsr`] — Galois LFSRs backing the Scrambling policy;
//! * [`policy`] — the indexing functions: `Identity` (a conventional
//!   power-managed partitioned cache), `Probing` (modular increment,
//!   Fig. 3a) and `Scrambling` (LFSR XOR, Fig. 3b);
//! * [`decoder`] — decoder `D` with the dynamic-indexing stage (Fig. 2);
//! * [`control`] / [`selector`] — Block Control counter sizing and the
//!   per-bank supply-rail selector (Fig. 1);
//! * [`arch`] — [`arch::PartitionedCache`], tying the
//!   pieces to the trace-driven simulator;
//! * [`aging`] — the lifetime pipeline: per-bank sleep fractions → policy
//!   rotation over update periods → SNM-based cache lifetime;
//! * [`registry`] — the one string-keyed [`registry::Registry`] behind
//!   every named axis, and the [`registry::PolicyRegistry`]: five
//!   built-in policies (`identity`, `probing`, `scrambling`, `gray`,
//!   `rotate-xor`) plus user-registered ones;
//! * [`replacement`] — the [`replacement::ReplacementRegistry`] naming
//!   the simulator's victim-selection policies (`lru`, `mru`);
//! * [`workload`] — the open workload axis: the
//!   [`workload::WorkloadRegistry`] resolves suite names and
//!   file-backed trace keys (`csv:path`, `din:path`, `lackey:path`) to
//!   streaming access sources with content-hash provenance;
//! * [`model`] — the open device/aging-model axis: the [`AgingModel`]
//!   trait maps measured sleep fractions to named metrics, the
//!   [`model::ModelRegistry`] resolves `nbti-45nm`, parameterized
//!   `nbti:temp=…,vlow=…,sleep=…,fail=…` keys, `variation:<sigma>`
//!   process-variation wrappers and the `drv` retention-margin model,
//!   and the [`model::ModelContext`] memoizes calibration once per
//!   distinct model;
//! * [`study`] — the Study API: declarative [`study::StudySpec`] grids
//!   expanded into [`study::ScenarioGrid`]s, run across threads into
//!   serializable [`study::StudyReport`]s;
//! * [`exec`] / [`session`] / [`rescache`] — the execution layer:
//!   a self-scheduling worker pool capped by
//!   [`study::StudySpec::threads`] and streaming [`ExecObserver`]
//!   progress, driven through the [`session::StudySession`] front door
//!   that owns a cross-run simulation memo and a content-addressed
//!   [`rescache::ResultCache`] (in-memory or on-disk JSONL), making
//!   repeated and interrupted studies incremental and resumable;
//! * [`analysis`] / [`render`] — the open analysis layer over the
//!   output side: typed [`analysis::Query`] filter/group-by/reduce
//!   over any scenario axis and metric, baseline-relative derived
//!   metrics via [`analysis::Query::gain_vs`] joins, cell-by-cell
//!   [`analysis::ReportDiff`] between reports (or a report and a
//!   result-cache journal), and the [`render::Format`] renderer
//!   family (text / Markdown / CSV / canonical JSON);
//! * [`search`] — the search layer over the input side: declarative
//!   [`search::ScenarioSpace`] compositions (grid / filter / union /
//!   stepped and log-spaced ranges) searched by adaptive drivers
//!   (exhaustive, monotone-axis bisection, coarse-to-fine
//!   refinement) under a [`search::Objective`] with feasibility
//!   [`search::Constraint`]s, every probe journaled through the
//!   session so `study optimize` re-runs replay warm with zero
//!   simulations;
//! * [`presets`] / [`views`] / [`experiment`] / [`report`] — the
//!   paper's tables as presets over the grid runner (starting from an
//!   [`experiment::ExperimentConfig`]), rendered
//!   by pure views with the published values embedded for side-by-side
//!   comparison ([`paper`]);
//! * [`json`] — the dependency-free JSON codec behind report
//!   serialization;
//! * [`flip`] / [`graceful`] — ablations: word-level cell flipping
//!   (ref. \[15\]) and the "progressively disable aged banks" alternative
//!   the paper argues against (§III-A2).
//!
//! # Quick start
//!
//! Declare a study over any slice of the grid — axes accept one or many
//! values, scenarios run in parallel, and the report serializes:
//!
//! ```no_run
//! use aging_cache::session::StudySession;
//! use aging_cache::study::StudySpec;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let session = StudySession::new(); // models calibrate lazily, once each
//! let spec = StudySpec::new("my sweep")
//!     .cache_kb([8, 16])
//!     .banks([2, 4])
//!     .policies(["probing", "scrambling", "gray"])
//!     .workload_names(["sha", "CRC32", "dijkstra"])?
//!     .models(["nbti-45nm", "nbti:temp=105", "variation:30"]);
//! let report = session.run(&spec)?;
//! for r in report.records() {
//!     println!(
//!         "{:>10} {:>10} {:>14} {:2} banks: Esav {:5.1}%  LT {:.2}y",
//!         r.scenario.workload,
//!         r.scenario.policy,
//!         r.scenario.model,
//!         r.scenario.banks,
//!         100.0 * r.esav,
//!         r.lt_years()
//!     );
//! }
//! std::fs::write("report.json", report.to_json()).expect("write");
//! # Ok(())
//! # }
//! ```
//!
//! The paper's tables are presets over the same engine:
//!
//! ```no_run
//! use aging_cache::experiment::ExperimentConfig;
//! use aging_cache::session::StudySession;
//! use aging_cache::{presets, views};
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let cfg = ExperimentConfig::paper_reference(); // 16 kB, 16 B, M=4
//! let report = StudySession::new().run(&presets::table2(&cfg))?;
//! println!("{}", views::table2(&report)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aging;
pub mod analysis;
pub mod arch;
pub mod check;
pub mod control;
pub mod decoder;
pub mod error;
pub mod exec;
pub mod experiment;
pub mod fine_grain;
pub mod flip;
pub mod graceful;
pub mod json;
pub mod lfsr;
pub mod model;
pub mod onehot;
pub mod paper;
pub mod policy;
pub mod presets;
pub mod registry;
pub mod render;
pub mod replacement;
pub mod report;
pub mod rescache;
pub mod search;
pub mod selector;
pub mod serve;
pub mod session;
pub mod study;
pub mod views;
pub mod workload;

pub use aging::AgingAnalysis;
pub use analysis::{Axis, AxisValue, Query, Reduce, ReportDiff};
pub use arch::PartitionedCache;
pub use check::{CheckFinding, CheckLevel, CheckReport};
pub use decoder::Decoder;
pub use error::CoreError;
pub use exec::{ExecObserver, RecordOrigin};
pub use lfsr::Lfsr;
pub use model::{
    AgingModel, CalibratedModel, Metrics, ModelContext, ModelEval, ModelKey, ModelParams,
    ModelRegistry,
};
pub use onehot::OneHotEncoder;
pub use policy::{GrayRotation, Probing, RotateXor, Scrambling};
pub use registry::{IndexingPolicy, PolicyRegistry, Registry};
pub use render::Format;
pub use replacement::ReplacementRegistry;
pub use rescache::{
    CachedMeasurement, Fingerprint, JsonlCache, MemoryCache, ResultCache, ENGINE_VERSION,
};
pub use search::{
    Constraint, Direction, Driver, Objective, ProbeBatch, ProbeOutcome, ScenarioSpace, Search,
    SearchReport,
};
pub use selector::{BlockSelector, Rail};
pub use serve::{ServeOptions, ServeStats, StudyServer};
pub use session::{SessionStats, StudySession};
pub use study::{Scenario, ScenarioGrid, ScenarioRecord, SpecParser, StudyReport, StudySpec};
pub use workload::{
    FileWorkload, ProfileWorkload, SyntheticWorkload, Workload, WorkloadRegistry,
    WorkloadSourceInfo,
};
