//! Integration: conservation invariants and cross-crate agreements over
//! the full trace → simulation → aging pipeline.

use nbti_cache_repro::arch::arch::{PartitionedCache, UpdateSchedule};
use nbti_cache_repro::arch::PolicyRegistry;
use nbti_cache_repro::nbti::{AgingLut, CellDesign, LifetimeSolver, SleepMode, StressProfile};
use nbti_cache_repro::sim::CacheGeometry;
use nbti_cache_repro::traces::suite;

#[test]
fn every_benchmark_outcome_is_internally_consistent() {
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).unwrap();
    for (i, p) in suite::mediabench().iter().enumerate() {
        let arch =
            PartitionedCache::new(geom, "identity", PolicyRegistry::global().clone()).unwrap();
        let out = arch
            .simulate(p.trace(50 + i as u64).take(120_000), UpdateSchedule::Never)
            .unwrap();
        out.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        assert_eq!(out.accesses, 120_000, "{}", p.name());
        assert!(out.miss_rate() < 0.5, "{}: miss rate implausible", p.name());
        // Sleep is always a subset of useful idleness.
        for b in 0..4 {
            assert!(
                out.sleep_fraction(b) <= out.useful_idleness(b) + 1e-9,
                "{}: bank {b} sleeps more than its useful idleness",
                p.name()
            );
        }
    }
}

#[test]
fn partitioned_energy_beats_monolithic_on_all_benchmarks() {
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).unwrap();
    for p in suite::mediabench() {
        let arch =
            PartitionedCache::new(geom, "identity", PolicyRegistry::global().clone()).unwrap();
        let out = arch
            .simulate(p.trace(7).take(100_000), UpdateSchedule::Never)
            .unwrap();
        assert!(
            out.energy.total_fj() < out.monolithic_baseline.total_fj(),
            "{}: partitioning must save energy",
            p.name()
        );
        let esav = out.energy_saving();
        assert!(
            (0.30..0.60).contains(&esav),
            "{}: Esav {esav:.3} outside the plausible band",
            p.name()
        );
    }
}

#[test]
fn lut_agrees_with_direct_lifetime_solve_across_the_grid() {
    let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
    let lut = AgingLut::build(&solver, SleepMode::VoltageScaled, 13, 13, 500.0).unwrap();
    for p0 in [0.1, 0.35, 0.5, 0.78] {
        for s in [0.0, 0.27, 0.55, 0.93] {
            let direct = solver
                .lifetime_years(&StressProfile::new(p0, s, SleepMode::VoltageScaled).unwrap())
                .unwrap();
            let interp = lut.lifetime_years(p0, s).unwrap();
            let rel = (direct - interp).abs() / direct;
            assert!(rel < 0.05, "LUT mismatch at ({p0}, {s}): {rel:.4}");
        }
    }
}

#[test]
fn miss_rate_is_policy_invariant_and_update_cost_is_bounded() {
    let geom = CacheGeometry::direct_mapped(8 * 1024, 16, 4).unwrap();
    let p = suite::by_name("lame").unwrap();
    let mut baseline_misses = None;
    for policy in ["identity", "probing", "scrambling"] {
        let arch = PartitionedCache::new(geom, policy, PolicyRegistry::global().clone()).unwrap();
        let out = arch
            .simulate(p.trace(11).take(80_000), UpdateSchedule::Never)
            .unwrap();
        match baseline_misses {
            None => baseline_misses = Some(out.misses),
            Some(m) => assert_eq!(out.misses, m, "{policy}"),
        }
    }
    // Updating once per 20k cycles costs at most 4 refills of the cache.
    let arch = PartitionedCache::new(geom, "probing", PolicyRegistry::global().clone()).unwrap();
    let updated = arch
        .simulate(
            p.trace(11).take(80_000),
            UpdateSchedule::EveryCycles(20_000),
        )
        .unwrap();
    let lines = geom.lines();
    assert!(updated.misses <= baseline_misses.unwrap() + updated.updates * lines);
}

#[test]
fn aging_pipeline_matches_closed_form_for_linear_rates() {
    // Under voltage scaling the stress rate is linear in the sleep
    // fraction, so probing's rotation average has a closed form:
    // LT = LT_cell / mean(m(S_i)).
    let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
    let r_v = solver.rd().voltage_acceleration(solver.design().vdd_low());
    let aging = nbti_cache_repro::arch::aging::AgingAnalysis::new(solver);
    let sleep = [0.9, 0.7, 0.2, 0.05];
    let lt = aging.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
    let mean_m = sleep.iter().map(|s| (1.0 - s) + s * r_v).sum::<f64>() / 4.0;
    let closed_form = 2.93 / mean_m;
    assert!(
        (lt - closed_form).abs() / closed_form < 0.02,
        "pipeline {lt:.3} vs closed form {closed_form:.3}"
    );
}

#[test]
fn facade_reexports_compose() {
    // The root crate's façade must expose a coherent API surface.
    use nbti_cache_repro::{arch, nbti, power, sim, traces};
    let _ = nbti::CellDesign::default_45nm();
    let _ = power::Technology::default_45nm();
    let geom = sim::CacheGeometry::direct_mapped(16 * 1024, 16, 4).unwrap();
    let _ = traces::suite::mediabench();
    let _ = arch::PartitionedCache::new(geom, "probing", arch::PolicyRegistry::global().clone())
        .unwrap();
}
