//! Synthetic MediaBench-like memory-access traces.
//!
//! The DATE 2011 paper evaluates on traces extracted from MediaBench/MiBench
//! runs, which we do not have. This crate synthesizes address streams whose
//! *bank-level idleness structure* reproduces the paper's own published
//! characterization of those workloads (Table I): program phases activate a
//! subset of small working-set regions; the regions are placed in the
//! address space so that, on the reference configuration (16 kB cache,
//! 16 B lines, M = 4 banks), each bank's **useful idleness** approximates
//! the paper's per-benchmark numbers.
//!
//! Everything downstream (energy savings, lifetimes) consumes only the
//! per-bank idle statistics and the stored-value balance, so matching
//! Table I makes Tables II–IV sensitive to the same inputs the paper's
//! were (substitution S3 in `DESIGN.md`).
//!
//! The generator is fully deterministic: the same profile and seed always
//! produce the same trace.
//!
//! Beyond the synthetic suite, the crate is the repo's **workload
//! ingestion layer**: [`source::TraceSource`] streams accesses in
//! batches from any producer, and [`formats`] parses real trace files
//! (Dinero `.din`, Valgrind Lackey, CSV) in constant memory, so the
//! whole study pipeline runs on external traces too.
//!
//! # Quick start
//!
//! ```
//! use trace_synth::suite;
//!
//! let profiles = suite::mediabench();
//! assert_eq!(profiles.len(), 18);
//! let sha = suite::by_name("sha").expect("sha is in the suite");
//! let trace: Vec<_> = sha.trace(42).take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! // Determinism: same seed, same trace.
//! let again: Vec<_> = sha.trace(42).take(1000).collect();
//! assert_eq!(trace, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod formats;
pub mod profile;
pub mod region;
pub mod rng;
pub mod schedule;
pub mod source;
pub mod suite;
pub mod synthetic;

pub use formats::TraceFormat;
pub use profile::{TraceGen, WorkloadProfile, WorkloadProfileBuilder};
pub use region::{AccessPattern, Region};
pub use rng::SplitMix64;
pub use schedule::{ScheduleBuilder, Slot, SlotSchedule};
pub use source::{SliceSource, TraceError, TraceSource, BATCH_ACCESSES};

/// Reference configuration the profiles are calibrated against:
/// 16 kB cache, 16 B lines, M = 4 banks — the paper's Table I setup.
pub mod reference {
    /// Cache size in bytes.
    pub const CACHE_BYTES: u64 = 16 * 1024;
    /// Line size in bytes.
    pub const LINE_BYTES: u32 = 16;
    /// Number of banks.
    pub const BANKS: u32 = 4;
    /// Bytes of address space covered by one bank (one "quarter").
    pub const QUARTER_BYTES: u64 = CACHE_BYTES / BANKS as u64;
}
