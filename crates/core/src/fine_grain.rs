//! The fine-grain (line-level) comparison point: what bank granularity
//! gives up.
//!
//! The paper's §II-B/§III position: line-granularity dynamic indexing
//! (ref. \[7\], ISLPED'10) achieves *ideal* idleness distribution — every
//! line can sleep through its own gaps and re-indexing makes all lines age
//! identically — but requires modifying the SRAM internals, which
//! memory-compiler flows forbid. The bank-level architecture of this paper
//! trades some of that idleness for standard blocks. This module measures
//! the trade: it tracks idleness at *line* granularity on the same traces
//! and evaluates the ref.-\[7\]-style ideal lifetime, to compare with the
//! bank-level results.
//!
//! Each line is a unit of the simulator's event rule
//! ([`cache_sim::IdleEvents`], shared with the batched kernel), so a
//! measurement costs O(accesses + lines) and equals, bit for bit, a
//! per-cycle `BankPower`/`IdleTracker` sweep of every line.

use crate::aging::AgingAnalysis;
use crate::error::CoreError;
use cache_sim::{CacheGeometry, IdleEvents};
use trace_synth::WorkloadProfile;

/// Line-granularity idleness statistics for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FineGrainStats {
    /// Average sleep fraction over all lines.
    pub avg_sleep: f64,
    /// Minimum per-line sleep fraction (the line that would limit an
    /// un-reindexed fine-grain cache).
    pub min_sleep: f64,
    /// Average useful idleness over all lines.
    pub avg_useful_idleness: f64,
    /// Number of lines tracked.
    pub lines: u64,
}

/// Line-level idleness measurement and ideal-lifetime evaluation.
#[derive(Debug, Clone, Copy)]
pub struct FineGrainStudy {
    geometry: CacheGeometry,
    breakeven: u32,
}

impl FineGrainStudy {
    /// Creates the study for a geometry; the per-line breakeven time uses
    /// the same wake-to-leakage balance as a bank's (the ratio is
    /// size-free, so the value carries over).
    ///
    /// # Errors
    ///
    /// Propagates simulator configuration errors.
    pub fn new(geometry: CacheGeometry) -> Result<Self, CoreError> {
        let config = cache_sim::SimConfig::new(geometry)?;
        Ok(Self {
            geometry,
            breakeven: config.breakeven().cycles(),
        })
    }

    /// The per-line breakeven time, cycles.
    pub fn breakeven(&self) -> u32 {
        self.breakeven
    }

    /// Measures per-line sleep statistics on `cycles` trace cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `cycles` is zero.
    pub fn measure(
        &self,
        profile: &WorkloadProfile,
        cycles: u64,
        seed: u64,
    ) -> Result<FineGrainStats, CoreError> {
        if cycles == 0 {
            return Err(CoreError::InvalidParameter {
                name: "cycles",
                value: 0.0,
                expected: "a positive trace length",
            });
        }
        let lines = self.geometry.sets() as u32;
        let mut events = IdleEvents::new(lines, self.breakeven);
        let mut total = 0;
        for acc in profile.trace(seed).take(cycles as usize) {
            total += 1;
            events.access(self.geometry.set_of(acc.addr) as usize, total);
        }
        let units = events.finish(total);
        let share = |cycles: u64| cycles as f64 / total as f64;
        let sleep = units.iter().map(|u| share(u.sleep_cycles));
        let useful = units.iter().map(|u| share(u.idle.long_idle_cycles));
        Ok(FineGrainStats {
            avg_sleep: sleep.clone().sum::<f64>() / lines as f64,
            min_sleep: sleep.fold(f64::INFINITY, f64::min),
            avg_useful_idleness: useful.sum::<f64>() / lines as f64,
            lines: lines as u64,
        })
    }

    /// The ideal fine-grain lifetime (ref. \[7\]'s dynamic indexing): with
    /// line-level re-indexing every line ages at the *average* line rate.
    ///
    /// # Errors
    ///
    /// Propagates aging-model errors.
    pub fn ideal_lifetime(
        &self,
        aging: &AgingAnalysis,
        stats: &FineGrainStats,
        p0: f64,
    ) -> Result<f64, CoreError> {
        aging.bank_lifetime(stats.avg_sleep, p0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PolicyRegistry;
    use nbti_model::{CellDesign, LifetimeSolver};
    use trace_synth::suite;

    fn study() -> FineGrainStudy {
        FineGrainStudy::new(CacheGeometry::direct_mapped(8 * 1024, 16, 4).unwrap()).unwrap()
    }

    fn aging() -> AgingAnalysis {
        AgingAnalysis::new(LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap())
    }

    #[test]
    fn line_level_idleness_dominates_bank_level() {
        // Each line sees only ~1/L of the traffic, so line-level sleep is
        // far higher than bank-level sleep on the same trace.
        let profile = suite::by_name("CRC32").unwrap();
        let s = study();
        let fine = s.measure(&profile, 80_000, 5).unwrap();
        assert!(
            fine.avg_sleep > 0.7,
            "line-level sleep should be large: {}",
            fine.avg_sleep
        );

        let geom = CacheGeometry::direct_mapped(8 * 1024, 16, 4).unwrap();
        let arch =
            crate::arch::PartitionedCache::new(geom, "identity", PolicyRegistry::global().clone())
                .unwrap();
        let out = arch
            .simulate(
                profile.trace(5).take(80_000),
                crate::arch::UpdateSchedule::Never,
            )
            .unwrap();
        assert!(
            fine.avg_sleep > out.avg_sleep_fraction(),
            "fine grain must beat bank grain: {} vs {}",
            fine.avg_sleep,
            out.avg_sleep_fraction()
        );
    }

    #[test]
    fn ideal_lifetime_beats_bank_level_reindexing() {
        let profile = suite::by_name("dijkstra").unwrap();
        let s = study();
        let a = aging();
        let fine = s.measure(&profile, 80_000, 7).unwrap();
        let ideal = s.ideal_lifetime(&a, &fine, 0.5).unwrap();

        let geom = CacheGeometry::direct_mapped(8 * 1024, 16, 4).unwrap();
        let arch =
            crate::arch::PartitionedCache::new(geom, "identity", PolicyRegistry::global().clone())
                .unwrap();
        let out = arch
            .simulate(
                profile.trace(7).take(80_000),
                crate::arch::UpdateSchedule::Never,
            )
            .unwrap();
        let bank_level = a
            .cache_lifetime(&out.sleep_fraction_all(), 0.5, "probing", 1)
            .unwrap();
        assert!(
            ideal > bank_level,
            "ref [7]'s fine grain is the upper bound: {ideal} vs {bank_level}"
        );
    }

    #[test]
    fn zero_cycles_rejected() {
        let profile = suite::by_name("sha").unwrap();
        assert!(study().measure(&profile, 0, 1).is_err());
    }

    #[test]
    fn stats_are_well_formed() {
        let profile = suite::by_name("gsme").unwrap();
        let fine = study().measure(&profile, 60_000, 2).unwrap();
        assert_eq!(fine.lines, 512);
        assert!(fine.min_sleep <= fine.avg_sleep);
        assert!(fine.avg_sleep <= fine.avg_useful_idleness + 1e-9);
        assert!((0.0..=1.0).contains(&fine.avg_useful_idleness));
    }
}
