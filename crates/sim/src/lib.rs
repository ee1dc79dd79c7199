//! Trace-driven multi-banked cache simulator.
//!
//! This crate is the reproduction's stand-in for the "in-house cache
//! simulator" of the DATE 2011 paper (§IV-A), built to expose exactly the
//! statistics its evaluation consumes:
//!
//! * hit/miss behaviour of a direct-mapped or set-associative cache
//!   ([`cache`]),
//! * per-bank **idle-interval statistics** and *useful idleness* — the
//!   fraction of time spent in idle intervals longer than the breakeven
//!   time ([`idle`]),
//! * the bank power-state machine with saturating idle counters, drowsy
//!   entry after the breakeven time, and wake-up penalties ([`bank`]),
//! * an energy ledger fed by the [`sram-power`](sram_power) models
//!   ([`run`]), and
//! * a [`mapping::BankMapping`] hook through which the core
//!   crate injects the paper's time-varying bank indexing.
//!
//! # Quick start
//!
//! ```
//! use cache_sim::{Access, CacheGeometry, IdentityMapping, SimConfig, Simulator};
//!
//! # fn main() -> Result<(), cache_sim::SimError> {
//! let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4)?;
//! let config = SimConfig::new(geom)?;
//! let mut sim = Simulator::new(config, Box::new(IdentityMapping))?;
//! // A little loop over one bank's worth of addresses:
//! for i in 0..10_000u64 {
//!     sim.step(Access::read((i % 256) * 16));
//! }
//! let outcome = sim.finish();
//! assert_eq!(outcome.accesses, 10_000);
//! // Three of the four banks were never touched after warm-up.
//! assert!(outcome.avg_useful_idleness() > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bank;
pub mod cache;
pub mod error;
pub mod geometry;
pub mod hierarchy;
pub mod idle;
pub mod mapping;
pub mod replacement;
pub mod run;
pub mod stats;

pub use bank::{BankPower, BankState};
pub use cache::{AccessKind, AccessResult, CacheArray};
pub use error::SimError;
pub use geometry::CacheGeometry;
pub use hierarchy::{CacheHierarchy, HierarchyOutcome};
pub use idle::{IdleEvents, IdleStats, IdleTracker};
pub use mapping::{is_bijective, BankMapping, FnMapping, IdentityMapping};
pub use replacement::{Lru, Mru, ReplacementPolicy, DEFAULT_REPLACEMENT};
pub use run::{Access, SimConfig, Simulator};
pub use stats::{BankStats, SimOutcome};
