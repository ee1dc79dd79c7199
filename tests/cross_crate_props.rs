//! Property-based tests on cross-crate invariants (quickprop-driven).

use nbti_cache_repro::arch::aging::AgingAnalysis;
use nbti_cache_repro::nbti::{CellDesign, LifetimeSolver};
use nbti_cache_repro::sim::{Access, CacheGeometry, IdentityMapping, SimConfig, Simulator};
use std::sync::OnceLock;

/// Calibration is expensive; share one solver across all property cases.
fn aging() -> &'static AgingAnalysis {
    static CELL: OnceLock<AgingAnalysis> = OnceLock::new();
    CELL.get_or_init(|| {
        AgingAnalysis::new(
            LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).expect("calibration"),
        )
    })
}

/// Fewer cases in debug builds keeps `cargo test --workspace` snappy.
const CASES: u32 = if cfg!(debug_assertions) { 6 } else { 24 };

/// Re-indexing never shortens cache lifetime, whatever the idleness
/// distribution.
#[test]
fn probing_never_hurts() {
    quickprop::cases(CASES, |g| {
        let sleep = g.vec_f64(0.0..1.0, 4);
        let a = aging();
        let lt0 = a.cache_lifetime(&sleep, 0.5, "identity", 1).unwrap();
        let lt = a.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
        assert!(lt >= lt0 * 0.999, "lt {lt} < lt0 {lt0} for {sleep:?}");
    });
}

/// Cache lifetime under identity equals the minimum over per-bank
/// lifetimes (aging is a worst-case metric, paper §V).
#[test]
fn identity_lifetime_is_min_of_banks() {
    quickprop::cases(CASES, |g| {
        let sleep = g.vec_f64(0.0..0.999, 4);
        let a = aging();
        let cache = a.cache_lifetime(&sleep, 0.5, "identity", 1).unwrap();
        let min_bank = sleep
            .iter()
            .map(|&s| a.bank_lifetime(s, 0.5).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(
            (cache - min_bank).abs() / min_bank < 0.01,
            "cache {cache} vs min bank {min_bank}"
        );
    });
}

/// More sleep on the *worst* bank never shortens identity lifetime.
#[test]
fn lifetime_monotone_in_worst_bank_sleep() {
    quickprop::cases(CASES, |g| {
        let base = g.f64_in(0.0..0.9);
        let extra = g.f64_in(0.0..0.09);
        let a = aging();
        let lt1 = a
            .cache_lifetime(&[base, 0.95, 0.95, 0.95], 0.5, "identity", 1)
            .unwrap();
        let lt2 = a
            .cache_lifetime(&[base + extra, 0.95, 0.95, 0.95], 0.5, "identity", 1)
            .unwrap();
        assert!(lt2 >= lt1 * 0.999);
    });
}

/// Geometry index split/recombine round-trips for arbitrary addresses.
#[test]
fn geometry_roundtrip() {
    quickprop::cases(CASES.max(32), |g| {
        let addr = g.u64_in(0..(1 << 30));
        let size_log = g.u32_in(13..16);
        let line_log = g.u32_in(4..6);
        let bank_log = g.u32_in(1..4);
        let geom =
            CacheGeometry::direct_mapped(1u64 << size_log, 1u32 << line_log, 1u32 << bank_log)
                .unwrap();
        let set = geom.set_of(addr);
        let bank = geom.bank_of_set(set);
        let slot = geom.slot_in_bank(set);
        assert_eq!(geom.set_from_bank_slot(bank, slot), set);
        assert!(bank < geom.banks());
        assert!(slot < geom.sets_per_bank());
    });
}

/// Simulation invariants hold for random short traces.
#[test]
fn simulation_invariants_on_random_traces() {
    quickprop::cases(CASES, |g| {
        let seed = g.u64_in(0..1000);
        let geom = CacheGeometry::direct_mapped(8 * 1024, 16, 4).unwrap();
        let mut sim =
            Simulator::new(SimConfig::new(geom).unwrap(), Box::new(IdentityMapping)).unwrap();
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sim.step(Access::read(x % (64 * 1024)));
        }
        let out = sim.finish();
        assert!(out.validate().is_ok(), "{:?}", out.validate());
        assert!(out.energy.total_fj() > 0.0);
        assert!(out.energy.total_fj() <= out.monolithic_baseline.total_fj());
    });
}
