//! Every registry kind's error messages, byte for byte: the one
//! `Registry<T>` behind policies, workloads, device models and
//! replacement policies names its kind in each.

use aging_cache::{
    CoreError, ModelRegistry, PolicyRegistry, ReplacementRegistry, WorkloadRegistry,
};
use cache_sim::IdentityMapping;
use std::sync::Arc;

/// Every kind's duplicate-registration and unknown-name message,
/// byte for byte, and every kind's sorted listing.
#[test]
fn every_registry_error_message_is_pinned() {
    let mut policies = PolicyRegistry::builtin();
    let mut workloads = WorkloadRegistry::builtin();
    let mut models = ModelRegistry::builtin();
    let mut replacements = ReplacementRegistry::builtin();
    let drv = Arc::clone(models.get("drv").expect("built-in"));
    let sha = trace_synth::suite::by_name("sha").expect("suite");
    let suite = "CRC32, adpcm.dec, cjpeg, dijkstra, djpeg, fft_1, fft_2, gsmd, gsme, \
                 ispell, lame, mad, rijndael_i, rijndael_o, say, search, sha, tiff2bw";
    let rows = [
        (
            "policy",
            policies.register_fn("probing", "clash", |_b, _s| Ok(Box::new(IdentityMapping))),
            policies.build("nope", 4, 0).err(),
            policies.names(),
            "policy `probing` is already registered".to_string(),
            "unknown policy `nope` (registered: gray, identity, probing, rotate-xor, \
             scrambling)"
                .to_string(),
        ),
        (
            "workload",
            workloads.register_profile("sha", sha),
            workloads.resolve("quake3").err(),
            workloads.names(),
            "workload `sha` is already registered".to_string(),
            format!(
                "unknown workload `quake3` (registered: {suite}; file-backed workloads \
                 use `csv:`, `din:`, `lackey:` or `file:` keys, pinned profiles use \
                 `profile:s0,s1,…`)"
            ),
        ),
        (
            "model",
            models.register(drv),
            models.resolve("quantum-cell").err(),
            models.names(),
            "model `drv` is already registered".to_string(),
            "unknown model `quantum-cell` (registered: drv, nbti-45nm; parameterized \
             keys use `nbti:temp=…,vlow=…,sleep=…,fail=…`, `variation:<sigma-mv>` or \
             `drv:vlow=…`)"
                .to_string(),
        ),
        (
            "replacement policy",
            replacements.register_fn("lru", "clash", |_| 0),
            replacements.resolve("belady").err(),
            replacements.names(),
            "replacement policy `lru` is already registered".to_string(),
            "unknown replacement policy `belady` (registered: lru, mru)".to_string(),
        ),
    ];
    for (kind, duplicate, unknown, names, duplicate_text, unknown_text) in rows {
        let duplicate = duplicate.expect_err(kind);
        assert!(
            matches!(&duplicate, CoreError::Duplicate { kind: k, .. } if *k == kind),
            "{duplicate:?}"
        );
        assert_eq!(duplicate.to_string(), duplicate_text, "{kind}");
        let unknown = unknown.expect(kind);
        assert!(
            matches!(&unknown, CoreError::Unknown { kind: k, .. } if *k == kind),
            "{unknown:?}"
        );
        assert_eq!(unknown.to_string(), unknown_text, "{kind}");
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "{kind}: names are sorted");
    }
}

/// An unknown replacement named through the architecture reads as the
/// registry's own error, with no simulator prefix.
#[test]
fn unknown_replacement_through_the_architecture_is_the_registry_error() {
    let geometry = cache_sim::CacheGeometry::new(16 * 1024, 16, 4, 4).expect("geometry");
    let cache = aging_cache::PartitionedCache::new(geometry, "probing", &PolicyRegistry::builtin())
        .expect("cache");
    let Err(e) = cache.with_replacement("belady", &ReplacementRegistry::builtin()) else {
        panic!("an unknown replacement must not resolve");
    };
    assert_eq!(
        e.to_string(),
        "unknown replacement policy `belady` (registered: lru, mru)"
    );
}
