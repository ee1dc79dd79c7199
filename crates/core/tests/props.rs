//! Property-based tests for the architectural layer (quickprop-driven).

use aging_cache::aging::AgingAnalysis;
use aging_cache::decoder::Decoder;
use aging_cache::policy::{Probing, Scrambling};
use aging_cache::registry::PolicyRegistry;
use cache_sim::mapping::is_bijective;
use cache_sim::{BankMapping, CacheGeometry};
use nbti_model::{CellDesign, LifetimeSolver};
use std::sync::OnceLock;

const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 48 };

/// The paper's three indexing policies, in its presentation order.
const PAPER_POLICIES: [&str; 3] = ["identity", "probing", "scrambling"];

fn aging() -> &'static AgingAnalysis {
    static A: OnceLock<AgingAnalysis> = OnceLock::new();
    A.get_or_init(|| {
        AgingAnalysis::new(
            LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).expect("calibration"),
        )
    })
}

/// Probing and Scrambling stay bijections through arbitrary update
/// sequences on any power-of-two bank count.
#[test]
fn policies_stay_bijective() {
    quickprop::cases(CASES, |g| {
        let banks = 1u32 << g.u32_in(1..5);
        let updates = g.usize_in(0..64);
        let mut p = Probing::new(banks).unwrap();
        let mut s = Scrambling::new(banks, 0xace1).unwrap();
        for _ in 0..updates {
            p.update();
            s.update();
        }
        assert!(is_bijective(&p, banks));
        assert!(is_bijective(&s, banks));
    });
}

/// Probing is perfectly fair: over any window of M consecutive update
/// periods each logical bank occupies each physical bank exactly once
/// (the ref. \[7\] optimality the paper builds on).
#[test]
fn probing_window_fairness() {
    quickprop::cases(CASES, |g| {
        let banks = 1u32 << g.u32_in(1..5);
        let phase = g.usize_in(0..16);
        let mut p = Probing::new(banks).unwrap();
        for _ in 0..phase {
            p.update(); // start mid-stream
        }
        let mut counts = vec![vec![0u32; banks as usize]; banks as usize];
        for _ in 0..banks {
            for l in 0..banks {
                counts[l as usize][p.map_bank(l, banks) as usize] += 1;
            }
            p.update();
        }
        for row in &counts {
            assert!(row.iter().all(|&c| c == 1), "unfair window: {row:?}");
        }
    });
}

/// The decoder preserves the slot bits and emits a valid one-hot word
/// for every address and policy.
#[test]
fn decoder_structure() {
    quickprop::cases(CASES, |g| {
        let addr = g.u64_in(0..(1u64 << 28));
        let policy = *g.pick(&PAPER_POLICIES);
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 8).unwrap();
        let mapping = PolicyRegistry::global().build(policy, 8, 3).unwrap();
        let mut dec = Decoder::new(geom, mapping).unwrap();
        let before = dec.route(addr).unwrap();
        assert_eq!(before.activation.count_ones(), 1);
        assert_eq!(before.activation.trailing_zeros(), before.physical_bank);
        dec.update();
        let after = dec.route(addr).unwrap();
        assert_eq!(before.slot, after.slot, "slot bits must pass through f()");
        assert_eq!(before.logical_bank, after.logical_bank);
    });
}

/// Cache lifetime under any policy is bracketed by the worst and the
/// mean bank lifetime.
#[test]
fn lifetime_brackets() {
    quickprop::cases(CASES, |g| {
        let sleep = g.vec_f64(0.0..0.98, 4);
        let policy = *g.pick(&PAPER_POLICIES);
        let a = aging();
        let lt = a.cache_lifetime(&sleep, 0.5, policy, 1).unwrap();
        let worst = sleep
            .iter()
            .map(|&s| a.bank_lifetime(s, 0.5).unwrap())
            .fold(f64::INFINITY, f64::min);
        // Rates are linear in sleep under voltage scaling, so the mean
        // rate bound gives the rotation optimum.
        let mean_s = sleep.iter().sum::<f64>() / sleep.len() as f64;
        let optimum = a.bank_lifetime(mean_s, 0.5).unwrap();
        assert!(
            lt >= worst * 0.995,
            "{}: lifetime {lt} below the worst bank {worst}",
            policy
        );
        assert!(
            lt <= optimum * 1.01,
            "{}: lifetime {lt} beats the rotation optimum {optimum}",
            policy
        );
    });
}

/// Re-indexed lifetime is invariant under permutations of the sleep
/// vector (only the multiset of idleness matters once rotation mixes
/// it).
#[test]
fn probing_permutation_invariance() {
    quickprop::cases(CASES, |g| {
        let mut sleep = g.vec_f64(0.0..0.98, 4);
        let a = aging();
        let lt1 = a.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
        sleep.rotate_left(1);
        sleep.swap(0, 2);
        let lt2 = a.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
        assert!((lt1 - lt2).abs() / lt1 < 0.01, "{lt1} vs {lt2}");
    });
}
