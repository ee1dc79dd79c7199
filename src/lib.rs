//! Reproduction suite for *"Partitioned Cache Architectures for Reduced
//! NBTI-Induced Aging"* (Calimera, Loghi, Macii, Poncino — DATE 2011).
//!
//! This façade crate re-exports the workspace members so the examples and
//! integration tests can use a single dependency:
//!
//! * [`nbti`] — NBTI aging physics (ΔVth drift, SNM solver, lifetime LUT).
//! * [`power`] — analytical SRAM energy/power models.
//! * [`sim`] — trace-driven banked cache simulator.
//! * [`traces`] — synthetic MediaBench-like workload generators.
//! * [`arch`] — the paper's contribution: partitioned caches with
//!   coarse-grain dynamic indexing, plus the **Study API** — the open
//!   scenario-grid engine the whole evaluation runs on.
//!
//! # Quick start
//!
//! Declare a study over any slice of the evaluation grid; axes accept
//! one or many values, scenarios run in parallel, and the report
//! serializes to JSON:
//!
//! ```no_run
//! use nbti_cache_repro::arch::session::StudySession;
//! use nbti_cache_repro::arch::StudySpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = StudySession::new(); // models calibrate lazily, once each
//! let spec = StudySpec::new("sweep")
//!     .cache_kb([8, 16, 32])
//!     .banks([2, 4, 8])
//!     .policies(["probing", "scrambling", "gray", "rotate-xor"]);
//! let report = session.run(&spec)?;
//! println!("{}", report.to_json());
//! # Ok(())
//! # }
//! ```
//!
//! The paper's tables are ~10-line presets over the same engine
//! (`arch::presets` + `arch::views`), and new indexing policies
//! register by name (`arch::PolicyRegistry`) without touching this
//! workspace — see `examples/policy_comparison.rs`.
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![forbid(unsafe_code)]

pub use aging_cache as arch;
pub use cache_sim as sim;
pub use nbti_model as nbti;
pub use sram_power as power;
pub use trace_synth as traces;
