//! Byte-equality of the batched fast path against the per-access
//! reference, on every built-in workload — the contract that lets the
//! study pipeline stream batches without changing a single published
//! number.

use nbti_cache_repro::arch::arch::{simulate_fanout, PartitionedCache, SimTarget, UpdateSchedule};
use nbti_cache_repro::arch::{PolicyRegistry, ReplacementRegistry};
use nbti_cache_repro::sim::{
    Access, CacheGeometry, CacheHierarchy, IdentityMapping, SimConfig, SimOutcome, Simulator,
};
use nbti_cache_repro::traces::formats::{write_csv, write_din, write_lackey, TraceFormat};
use nbti_cache_repro::traces::source::SliceSource;
use nbti_cache_repro::traces::{suite, TraceError, TraceSource};

const CYCLES: usize = 30_000;

fn arch(policy: &str, banks: u32) -> PartitionedCache {
    let geom = CacheGeometry::direct_mapped(16 * 1024, 16, banks).unwrap();
    PartitionedCache::new(geom, policy, PolicyRegistry::global()).unwrap()
}

/// Streams `source` through `target` alone on the batched path: a
/// one-target [`simulate_fanout`], finished into the level's outcome
/// (or the L1's, with the L2's beside it for a hierarchy).
fn alone(
    target: SimTarget,
    source: &mut dyn TraceSource,
    limit: Option<u64>,
    update: UpdateSchedule,
) -> (SimOutcome, Option<SimOutcome>) {
    let mut targets = [target];
    simulate_fanout(source, &mut targets, limit, update).unwrap();
    let [target] = targets;
    target.finish()
}

fn assert_identical(a: &SimOutcome, b: &SimOutcome, context: &str) {
    assert_eq!(a, b, "{context}: outcomes diverged");
    // PartialEq on f64 is what the report serializer sees; make the
    // bitwise claim explicit for the energy accumulators too.
    for (x, y) in [
        (a.energy.dynamic_fj, b.energy.dynamic_fj),
        (a.energy.leakage_fj, b.energy.leakage_fj),
        (a.energy.wake_fj, b.energy.wake_fj),
        (a.energy.overhead_fj, b.energy.overhead_fj),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: energy bits diverged");
    }
}

#[test]
fn batched_equals_per_access_on_every_builtin_workload() {
    let cache = arch("identity", 4);
    for profile in suite::mediabench() {
        let scalar = cache
            .simulate(profile.trace(1000).take(CYCLES), UpdateSchedule::Never)
            .unwrap();
        let (batched, _) = alone(
            SimTarget::Level(cache.simulator().unwrap()),
            &mut profile.trace(1000),
            Some(CYCLES as u64),
            UpdateSchedule::Never,
        );
        assert_identical(&scalar, &batched, profile.name());
    }
}

#[test]
fn batched_equals_per_access_under_updates() {
    // Mid-trace mapping updates exercise batch clipping at schedule
    // boundaries (including a period that is not a batch multiple).
    // Every registered policy routes through the kernel the same way
    // the scalar `step` does, before and after each update.
    let profile = suite::by_name("CRC32").unwrap();
    for policy in PolicyRegistry::builtin().names() {
        for period in [7_000, 4096, 9_999] {
            let cache = arch(&policy, 4);
            let schedule = UpdateSchedule::EveryCycles(period);
            let scalar = cache
                .simulate(profile.trace(5).take(CYCLES), schedule)
                .unwrap();
            let (batched, _) = alone(
                SimTarget::Level(cache.simulator().unwrap()),
                &mut profile.trace(5),
                Some(CYCLES as u64),
                schedule,
            );
            assert_eq!(scalar.updates, (CYCLES as u64) / period);
            assert_identical(&scalar, &batched, &format!("{policy}/{period}"));
        }
    }
}

fn hierarchy(l1_ways: u32, l2_ways: u32) -> CacheHierarchy {
    let sim = |size: u64, ways: u32| {
        let geom = CacheGeometry::new(size, 16, ways, 4).unwrap();
        Simulator::new(SimConfig::new(geom).unwrap(), Box::new(IdentityMapping)).unwrap()
    };
    CacheHierarchy::new(sim(16 * 1024, l1_ways), sim(64 * 1024, l2_ways)).unwrap()
}

#[test]
fn hierarchy_batched_equals_per_access_on_both_levels() {
    // The two-level contract: batch sizes that are not miss-aligned
    // with anything (odd chunks included) produce the same bits on the
    // L1 *and* on the induced L2 miss stream as stepping one access at
    // a time.
    let profile = suite::by_name("dijkstra").unwrap();
    let accesses: Vec<_> = profile.trace(9).take(CYCLES).collect();
    for chunk in [1usize, 7, 997, 4096] {
        let mut scalar = hierarchy(4, 4);
        for &a in &accesses {
            scalar.step(a);
        }
        let scalar = scalar.finish();
        scalar.validate().unwrap();

        let mut batched = hierarchy(4, 4);
        for batch in accesses.chunks(chunk) {
            batched.step_batch(batch);
        }
        let batched = batched.finish();
        batched.validate().unwrap();

        assert_identical(&scalar.l1, &batched.l1, &format!("L1/chunk={chunk}"));
        assert_identical(&scalar.l2, &batched.l2, &format!("L2/chunk={chunk}"));
    }
}

#[test]
fn hierarchy_source_path_matches_the_scalar_composition() {
    // The study session streams hierarchies through `simulate_fanout`
    // (batched, file- or stream-backed); it must land bit-for-bit on
    // the hand-composed scalar hierarchy.
    let profile = suite::by_name("CRC32").unwrap();
    let accesses: Vec<_> = profile.trace(13).take(CYCLES).collect();

    let mut scalar = hierarchy(2, 4);
    for &a in &accesses {
        scalar.step(a);
    }
    let scalar = scalar.finish();
    scalar.validate().unwrap();

    let dir =
        std::env::temp_dir().join(format!("nbti-hierarchy-equivalence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut text = String::new();
    write_din(&mut text, &accesses);
    let path = dir.join("t.din");
    std::fs::write(&path, &text).unwrap();

    let level = |kb: u64, ways: u32| {
        let geom = CacheGeometry::new(kb * 1024, 16, ways, 4).unwrap();
        PartitionedCache::new(geom, "identity", PolicyRegistry::global()).unwrap()
    };
    let target = SimTarget::Hierarchy(level(16, 2).hierarchy(&level(64, 4)).unwrap());
    let mut source = nbti_cache_repro::traces::formats::open_path(TraceFormat::Din, &path).unwrap();
    let (l1, l2) = alone(target, source.as_mut(), None, UpdateSchedule::Never);

    assert_identical(&scalar.l1, &l1, "L1/source");
    assert_identical(&scalar.l2, &l2.unwrap(), "L2/source");
}

#[test]
fn file_backed_sources_match_the_in_memory_stream() {
    // The same accesses, replayed from each on-disk format through the
    // streaming reader, must land on the per-access reference exactly.
    let profile = suite::by_name("dijkstra").unwrap();
    let accesses: Vec<_> = profile.trace(3).take(20_000).collect();
    let cache = arch("identity", 4);
    let reference = cache
        .simulate(accesses.iter().copied(), UpdateSchedule::Never)
        .unwrap();

    let dir = std::env::temp_dir().join(format!("nbti-batched-equivalence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for format in TraceFormat::ALL {
        let mut text = String::new();
        match format {
            TraceFormat::Din => write_din(&mut text, &accesses),
            TraceFormat::Lackey => write_lackey(&mut text, &accesses),
            TraceFormat::Csv => write_csv(&mut text, &accesses),
        }
        let path = dir.join(format!("t.{format}"));
        std::fs::write(&path, &text).unwrap();
        let mut source = nbti_cache_repro::traces::formats::open_path(format, &path).unwrap();
        let (from_file, _) = alone(
            SimTarget::Level(cache.simulator().unwrap()),
            source.as_mut(),
            None,
            UpdateSchedule::Never,
        );
        assert_identical(&reference, &from_file, format.key());
    }
}

/// Hands out the accesses in a repeating cycle of odd chunk sizes
/// (clipped to what the caller asks for), so the fan-out loop sees
/// chunk boundaries no target would pick on its own.
struct OddChunks<'a> {
    rest: &'a [Access],
    turn: usize,
}

impl TraceSource for OddChunks<'_> {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        const SIZES: [usize; 4] = [1, 7, 997, 4093];
        let n = SIZES[self.turn % SIZES.len()].min(max).min(self.rest.len());
        self.turn += 1;
        let (head, tail) = self.rest.split_at(n);
        buf.extend_from_slice(head);
        self.rest = tail;
        Ok(n)
    }
}

#[test]
fn one_source_fanned_out_equals_each_target_simulated_alone() {
    // The session's trace groups stream one source through every
    // geometry that needs it. Each target must land on the same bits
    // as simulating it by itself — scalar and batched — including
    // under mid-trace updates and an access budget.
    let profile = suite::by_name("dijkstra").unwrap();
    let accesses: Vec<_> = profile.trace(21).take(CYCLES).collect();
    let level = |kb: u64, ways: u32| {
        let geom = CacheGeometry::new(kb * 1024, 16, ways, 4).unwrap();
        PartitionedCache::new(geom, "probing", PolicyRegistry::global()).unwrap()
    };
    let levels = [
        level(8, 1),
        level(16, 1),
        level(32, 1),
        level(16, 4)
            .with_replacement("lru", ReplacementRegistry::global())
            .unwrap(),
    ];
    let (l1, l2) = (level(16, 1), level(64, 4));
    for (update, limit) in [
        (UpdateSchedule::Never, None),
        (UpdateSchedule::EveryCycles(7_000), Some(25_000u64)),
    ] {
        let context = format!("{update:?}/{limit:?}");
        let mut targets: Vec<SimTarget> = levels
            .iter()
            .map(|c| SimTarget::Level(c.simulator().unwrap()))
            .collect();
        targets.push(SimTarget::Hierarchy(l1.hierarchy(&l2).unwrap()));
        let mut source = OddChunks {
            rest: &accesses,
            turn: 0,
        };
        simulate_fanout(&mut source, &mut targets, limit, update).unwrap();
        let mut outcomes: Vec<_> = targets.into_iter().map(SimTarget::finish).collect();
        let (fanned_l1, fanned_l2) = outcomes.pop().unwrap();
        let fanned_l2 = fanned_l2.expect("the last target is the hierarchy");

        let taken = limit.map_or(accesses.len(), |n| n as usize);
        for (cache, (fanned, l2)) in levels.iter().zip(outcomes) {
            assert!(l2.is_none());
            let scalar = cache
                .simulate(accesses[..taken].iter().copied(), update)
                .unwrap();
            let (batched, _) = alone(
                SimTarget::Level(cache.simulator().unwrap()),
                &mut SliceSource::new(&accesses),
                limit,
                update,
            );
            let name = format!("{context}/{:?}", cache.geometry());
            assert_identical(&scalar, &fanned, &format!("{name}/scalar"));
            assert_identical(&batched, &fanned, &format!("{name}/batched"));
        }
        let (alone_l1, alone_l2) = alone(
            SimTarget::Hierarchy(l1.hierarchy(&l2).unwrap()),
            &mut SliceSource::new(&accesses),
            limit,
            update,
        );
        assert_identical(&alone_l1, &fanned_l1, &format!("{context}/L1"));
        assert_identical(&alone_l2.unwrap(), &fanned_l2, &format!("{context}/L2"));
        if limit.is_some() {
            assert_eq!(fanned_l1.updates, 25_000 / 7_000, "{context}");
        }
    }
}
