//! Properties of the Study API: registry-wide bijectivity, grid
//! determinism, and JSON round-trips.

use aging_cache::registry::{derive_policy_seed, PolicyRegistry};
use aging_cache::session::StudySession;
use aging_cache::study::{StudyReport, StudySpec};
use aging_cache::CoreError;
use cache_sim::mapping::is_bijective;

/// Runs a spec through a fresh session, so no simulation memo carries
/// over from another run.
fn run(spec: &StudySpec) -> Result<StudyReport, CoreError> {
    StudySession::new().run(spec)
}

/// Every registered policy — including a custom one — is a bijection
/// over the banks at every update step, for every power-of-two bank
/// count and many seeds.
#[test]
fn every_registered_policy_is_always_bijective() {
    let mut registry = PolicyRegistry::builtin();
    registry
        .register_fn("user-swap", "swaps even/odd banks", |banks, _seed| {
            Ok(Box::new(cache_sim::FnMapping::new(move |logical, _| {
                (logical ^ 1) & (banks - 1)
            })))
        })
        .unwrap();
    quickprop::cases(if cfg!(debug_assertions) { 12 } else { 48 }, |g| {
        let banks = 1u32 << g.u32_in(1..5);
        let seed = g.next_u64();
        for (name, _) in registry.iter() {
            let mut mapping = registry
                .build(name, banks, seed)
                .unwrap_or_else(|e| panic!("{name} failed to build at M={banks}: {e}"));
            for step in 0..2 * banks + 5 {
                assert!(
                    is_bijective(mapping.as_ref(), banks),
                    "{name} is not bijective at M={banks}, step {step}, seed {seed:#x}"
                );
                mapping.update();
            }
        }
    });
}

/// Seed derivation is deterministic and pins the documented chain:
/// `base + workload_index` for traces, `derive_policy_seed` for
/// policies.
#[test]
fn grid_seed_derivation_is_documented_chain() {
    let spec = StudySpec::new("seeds")
        .workload_names(["sha", "CRC32", "dijkstra"])
        .unwrap()
        .policies(["scrambling", "rotate-xor"])
        .base_seed(4242);
    let grid = spec.expand().unwrap();
    for s in grid.scenarios() {
        assert_eq!(s.trace_seed, 4242 + s.workload_index as u64);
        assert_eq!(
            s.policy_seed,
            derive_policy_seed(4242, s.id as u64, &s.policy)
        );
    }
}

/// The acceptance grid: a 2×2×3 study runs in parallel and yields
/// byte-identical JSON to the sequential run, and the report
/// round-trips through JSON.
#[test]
fn parallel_grid_is_deterministic_and_roundtrips() {
    let spec = StudySpec::new("2x2x3 determinism")
        .cache_kb([8, 16])
        .banks([2, 4])
        .policies(["probing", "scrambling", "gray"])
        .workload_names(["sha", "CRC32"])
        .unwrap()
        .trace_cycles(40_000);

    let sequential = run(&spec.clone().threads(1)).expect("sequential run");
    let parallel = run(&spec.clone().threads(8)).expect("parallel run");
    assert_eq!(sequential.records().len(), 2 * 2 * 3 * 2);
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "parallel execution must be byte-identical to sequential"
    );

    let text = parallel.to_json();
    let back = StudyReport::from_json(&text).expect("parse back");
    assert_eq!(back, parallel);
    assert_eq!(back.to_json(), text, "JSON round-trip must be stable");
}

/// Running the same spec twice gives identical reports (no hidden
/// global state).
#[test]
fn reruns_are_reproducible() {
    let spec = StudySpec::new("rerun")
        .policies(["rotate-xor"])
        .workload_names(["gsme"])
        .unwrap()
        .trace_cycles(40_000);
    let a = run(&spec).unwrap();
    let b = run(&spec).unwrap();
    assert_eq!(a.to_json(), b.to_json());
}

/// A registry without any "identity" entry still runs: the LT0
/// baseline is computed from the literal identity mapping, not a
/// registry lookup.
#[test]
fn registry_without_identity_still_runs() {
    let mut registry = PolicyRegistry::empty();
    registry
        .register_fn("only-probing", "probing under a custom name", |banks, _| {
            Ok(Box::new(aging_cache::Probing::new(banks)?))
        })
        .unwrap();
    let report = run(&StudySpec::new("no identity entry")
        .registry(registry)
        .policies(["only-probing"])
        .workload_names(["sha"])
        .unwrap()
        .trace_cycles(40_000))
    .unwrap();
    let r = &report.records()[0];
    assert!(
        r.lt_years() > r.lt0_years(),
        "probing must beat the baseline"
    );
}

/// Scenarios differing only in policy share one simulation, so their
/// measured sim metrics are bitwise identical.
#[test]
fn policy_axis_shares_the_simulation() {
    let report = run(&StudySpec::new("shared sim")
        .policies(["probing", "scrambling", "gray", "rotate-xor"])
        .workload_names(["dijkstra"])
        .unwrap()
        .trace_cycles(40_000))
    .unwrap();
    let first = &report.records()[0];
    for r in report.records() {
        assert_eq!(r.esav.to_bits(), first.esav.to_bits());
        assert_eq!(r.sleep_fractions, first.sleep_fractions);
    }
}

/// A custom registered policy runs through the full grid pipeline.
#[test]
fn custom_policy_runs_in_a_study() {
    let mut registry = PolicyRegistry::builtin();
    registry
        .register_fn("reverse", "reverses the bank-select bits", |banks, _| {
            let p = banks.trailing_zeros();
            Ok(Box::new(cache_sim::FnMapping::new(move |logical, _| {
                if p == 0 {
                    logical
                } else {
                    logical.reverse_bits() >> (32 - p)
                }
            })))
        })
        .unwrap();
    let report = run(&StudySpec::new("custom policy")
        .registry(registry)
        .policies(["reverse", "probing"])
        .workload_names(["sha"])
        .unwrap()
        .trace_cycles(40_000))
    .unwrap();
    assert_eq!(report.records().len(), 2);
    // A static bijection cannot beat rotation, but it must produce a
    // valid positive lifetime.
    assert!(report.records().iter().all(|r| r.lt_years() > 0.0));
}
