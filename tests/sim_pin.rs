//! Bit pins of whole simulation outcomes on the two shapes the study
//! benchmark runs — the Table II fan-out (8/16/32 kB direct-mapped,
//! `probing`) and the hierarchy study (16 kB 4-way L1 in front of a
//! 64 kB 4-way L2) — plus a 2-way `mru` level on the general lookup.
//!
//! `batched_equivalence` holds the batched kernel to the scalar `step`,
//! but both share one tag store, so a change to that store moves both
//! together. These hashes were recorded with the struct-per-way tag
//! store that the packed arrays replaced, and they pin every
//! `SimOutcome` field, `f64`s by their bits, so neither path can drift.

use nbti_cache_repro::arch::arch::{simulate_fanout, PartitionedCache, SimTarget, UpdateSchedule};
use nbti_cache_repro::arch::PolicyRegistry;
use nbti_cache_repro::arch::ReplacementRegistry;
use nbti_cache_repro::power::EnergyLedger;
use nbti_cache_repro::sim::{BankStats, CacheGeometry, IdleStats, SimOutcome};
use nbti_cache_repro::traces::suite;

const ACCESSES: u64 = 200_000;
const SEED: u64 = 1000;
const WORKLOADS: [&str; 5] = ["CRC32", "dijkstra", "gsme", "sha", "tiff2bw"];

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn ledger(&mut self, ledger: &EnergyLedger) {
        let EnergyLedger {
            dynamic_fj,
            leakage_fj,
            wake_fj,
            overhead_fj,
        } = ledger;
        for x in [dynamic_fj, leakage_fj, wake_fj, overhead_fj] {
            self.word(x.to_bits());
        }
    }

    /// Every field, by exhaustive destructuring: a new field fails to
    /// compile here until it is hashed.
    fn outcome(&mut self, outcome: &SimOutcome) {
        let SimOutcome {
            cycles,
            accesses,
            hits,
            misses,
            flushes,
            writebacks,
            updates,
            breakeven_cycles,
            per_bank,
            energy,
            monolithic_baseline,
        } = outcome;
        for x in [cycles, accesses, hits, misses, flushes, writebacks, updates] {
            self.word(*x);
        }
        self.word(u64::from(*breakeven_cycles));
        self.word(per_bank.len() as u64);
        for bank in per_bank {
            let BankStats {
                accesses,
                sleep_cycles,
                wakes,
                idle,
            } = bank;
            let IdleStats {
                idle_cycles,
                long_idle_cycles,
                intervals,
                long_intervals,
                histogram,
            } = idle;
            for x in [
                accesses,
                sleep_cycles,
                wakes,
                idle_cycles,
                long_idle_cycles,
                intervals,
                long_intervals,
            ] {
                self.word(*x);
            }
            for x in histogram.iter() {
                self.word(*x);
            }
        }
        self.ledger(energy);
        self.ledger(monolithic_baseline);
    }
}

fn arch(geom: CacheGeometry) -> PartitionedCache {
    PartitionedCache::new(geom, "probing", PolicyRegistry::global().clone()).unwrap()
}

/// Runs `targets` over `workload`'s stream and hashes every outcome.
fn pin(workload: &str, mut targets: Vec<SimTarget>) -> u64 {
    let profile = suite::by_name(workload).unwrap();
    let mut source = profile.trace(SEED);
    simulate_fanout(
        &mut source,
        &mut targets,
        Some(ACCESSES),
        UpdateSchedule::Never,
    )
    .unwrap();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    for target in targets {
        let (level, l2) = target.finish();
        assert_eq!(level.accesses, ACCESSES, "{workload}");
        hash.outcome(&level);
        if let Some(l2) = l2 {
            hash.outcome(&l2);
        }
    }
    hash.0
}

fn check(shape: &str, pinned: [u64; WORKLOADS.len()], targets: impl Fn() -> Vec<SimTarget>) {
    let all: Vec<u64> = WORKLOADS.iter().map(|w| pin(w, targets())).collect();
    for ((workload, &got), want) in WORKLOADS.iter().zip(&all).zip(pinned) {
        assert_eq!(
            got, want,
            "{shape}/{workload}: outcome hash moved (all: {all:#018x?})"
        );
    }
}

#[test]
fn table2_direct_mapped_fanout_outcomes_are_pinned() {
    let sizes: Vec<PartitionedCache> = [8u64, 16, 32]
        .iter()
        .map(|kb| arch(CacheGeometry::direct_mapped(kb * 1024, 16, 4).unwrap()))
        .collect();
    check("table2", TABLE2_PINS, || {
        sizes
            .iter()
            .map(|a| SimTarget::Level(a.simulator().unwrap()))
            .collect()
    });
}

#[test]
fn hierarchy_4way_outcomes_are_pinned() {
    let level = |kb: u64| arch(CacheGeometry::new(kb * 1024, 16, 4, 4).unwrap());
    let (l1, l2) = (level(16), level(64));
    check("hierarchy", HIERARCHY_PINS, || {
        vec![SimTarget::Hierarchy(l1.hierarchy(&l2).unwrap())]
    });
}

#[test]
fn registered_mru_2way_outcomes_are_pinned() {
    // The generic lookup path: a registered policy on a width the
    // built-in kernels do not specialize.
    let mru = arch(CacheGeometry::new(16 * 1024, 16, 2, 4).unwrap())
        .with_replacement("mru", ReplacementRegistry::global().clone())
        .unwrap();
    check("mru-2way", MRU_PINS, || {
        vec![SimTarget::Level(mru.simulator().unwrap())]
    });
}

const TABLE2_PINS: [u64; WORKLOADS.len()] = [
    0x33fcdd3a123a219f,
    0x1209b7ba830cea8c,
    0xc8a00709e285c669,
    0x56330a1a53eea9fa,
    0x1ce48bb4523ad71f,
];
const MRU_PINS: [u64; WORKLOADS.len()] = [
    0x1a5acfec181f2099,
    0x2eef3730d5e41db0,
    0x025b61b22fe7e423,
    0xdcc0570c90d5308a,
    0x909479c769e43ec4,
];
const HIERARCHY_PINS: [u64; WORKLOADS.len()] = [
    0xb5c021b28248e52c,
    0xe1b38b0ead0a76d6,
    0x105218428ec3e3d2,
    0x6ac93f32edf9ed4c,
    0xa5c6495fef4f7bde,
];
