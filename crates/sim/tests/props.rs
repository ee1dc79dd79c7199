//! Property-based tests for the cache simulator (quickprop-driven).

use cache_sim::cache::ReferenceCache;
use cache_sim::{
    Access, AccessKind, AccessResult, BankMapping, BankPower, CacheArray, CacheGeometry,
    CacheHierarchy, IdentityMapping, IdleTracker, Lru, Mru, ReplacementPolicy, SimConfig,
    SimOutcome, Simulator,
};
use quickprop::Gen;
use sram_power::BreakevenAnalysis;
use std::sync::Arc;

const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 64 };

/// A random valid direct-mapped/banked geometry.
fn geometry(g: &mut Gen) -> CacheGeometry {
    let size_log = g.u32_in(12..16);
    let line_log = g.u32_in(4..6);
    let bank_log = g.u32_in(1..4);
    let ways_log = g.u32_in(0..3);
    CacheGeometry::new(
        1u64 << size_log,
        1u32 << line_log,
        1u32 << ways_log,
        1u32 << bank_log.min(size_log - line_log - ways_log),
    )
    .expect("constructed geometry is valid")
}

/// The tag array agrees with a brute-force LRU reference model on
/// arbitrary geometries and address streams.
#[test]
fn cache_matches_reference_model() {
    quickprop::cases(CASES, |g| {
        let geom = geometry(g);
        let seed = g.u64_in(0..10_000);
        let mut dut = CacheArray::new(geom);
        let mut reference = ReferenceCache::new(geom).unwrap();
        let mut x = seed | 1;
        for _ in 0..3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (4 * geom.size_bytes());
            let got = dut.access_addr(addr, AccessKind::Read).hit;
            let want = reference.access_addr(addr);
            assert_eq!(got, want, "divergence at {addr:#x} on {geom:?}");
        }
    });
}

/// Bank power accounting: sleep cycles never exceed idle cycles, and
/// wake count equals the number of sleep episodes that ended in an
/// access.
#[test]
fn bank_power_invariants() {
    quickprop::cases(CASES, |g| {
        let seed = g.u64_in(0..10_000);
        let breakeven = g.u32_in(2..64);
        let banks = 4u32;
        let mut power = BankPower::new(banks, breakeven);
        let mut idle = IdleTracker::new(banks, breakeven);
        let mut x = seed | 1;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // ~20 % of cycles have no access at all.
            let accessed = if x % 10 < 2 {
                None
            } else {
                Some(((x >> 8) % banks as u64) as u32)
            };
            power.cycle(accessed);
            idle.record(accessed);
        }
        let cycles = power.cycles();
        let stats = idle.finish();
        for b in 0..banks {
            assert!(power.sleep_cycles(b) <= cycles);
            // Sleep is bounded by total idle time (open intervals included).
            assert!(power.sleep_cycles(b) <= stats[b as usize].idle_cycles + breakeven as u64);
        }
    });
}

/// Full simulator invariants and the monolithic-baseline dominance
/// hold on random mixes of accesses and idle cycles.
#[test]
fn simulator_invariants() {
    quickprop::cases(CASES, |g| {
        let geom = geometry(g);
        let seed = g.u64_in(0..10_000);
        let mut sim =
            Simulator::new(SimConfig::new(geom).unwrap(), Box::new(IdentityMapping)).unwrap();
        let mut x = seed | 1;
        for _ in 0..4_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 7 == 0 {
                sim.idle_cycle();
            } else {
                let kind = if x % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                sim.step(Access {
                    addr: x % (2 * geom.size_bytes()),
                    kind,
                });
            }
        }
        let out = sim.finish();
        assert!(out.validate().is_ok(), "{:?}", out.validate());
        // Energy categories are individually non-negative.
        assert!(out.energy.dynamic_fj >= 0.0);
        assert!(out.energy.leakage_fj >= 0.0);
        assert!(out.energy.wake_fj >= 0.0);
        assert!(out.energy.overhead_fj >= 0.0);
    });
}

/// Flushing drops every line and the next pass over a working set
/// misses entirely.
#[test]
fn flush_semantics() {
    quickprop::cases(CASES, |g| {
        let geom = geometry(g);
        let n_lines = g.u64_in(1..64);
        let mut cache = CacheArray::new(geom);
        let lines = n_lines.min(geom.lines());
        for i in 0..lines {
            cache.access_addr(i * geom.line_bytes() as u64, AccessKind::Write);
        }
        assert!(cache.valid_lines() > 0);
        let dropped = cache.flush();
        assert!(dropped <= lines);
        assert_eq!(cache.valid_lines(), 0);
        for i in 0..lines {
            assert!(
                !cache
                    .access_addr(i * geom.line_bytes() as u64, AccessKind::Read)
                    .hit
            );
        }
    });
}

/// Idle intervals partition time exactly: per bank,
/// `idle + accesses == cycles`.
#[test]
fn idle_partition_of_time() {
    quickprop::cases(CASES, |g| {
        let seed = g.u64_in(0..10_000);
        let banks = 8u32;
        let mut idle = IdleTracker::new(banks, 10);
        let mut touches = vec![0u64; banks as usize];
        let mut x = seed | 1;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let b = ((x >> 5) % banks as u64) as u32;
            touches[b as usize] += 1;
            idle.record(Some(b));
        }
        let cycles = idle.cycles();
        for (b, s) in idle.finish().iter().enumerate() {
            assert_eq!(s.idle_cycles + touches[b], cycles);
        }
    });
}

/// A mapping that rotates the banks by one on every update, so the
/// batched kernel's bank table must follow `update_mapping`.
struct Rotate(u32);

impl BankMapping for Rotate {
    fn map_bank(&self, logical: u32, banks: u32) -> u32 {
        (logical + self.0) % banks
    }

    fn update(&mut self) {
        self.0 += 1;
    }
}

/// A random geometry over the kernel's axes: ways in {1, 2, 4, 8} and
/// 2 to 16 banks (capped by the set count), of `2^min_log` bytes or more.
fn kernel_geometry(g: &mut Gen, min_log: u32) -> CacheGeometry {
    let size_log = g.u32_in(min_log..min_log + 4);
    let line_log = g.u32_in(4..6);
    let ways_log = g.u32_in(0..4);
    let bank_log = g.u32_in(1..5).min(size_log - line_log - ways_log);
    CacheGeometry::new(
        1u64 << size_log,
        1u32 << line_log,
        1u32 << ways_log,
        1u32 << bank_log,
    )
    .expect("constructed geometry is valid")
}

/// Evicts the second-oldest way: a policy outside the built-ins.
struct SecondOldest;

impl ReplacementPolicy for SecondOldest {
    fn name(&self) -> &str {
        "second-oldest"
    }

    fn victim(&self, stamps: &[u64]) -> usize {
        let oldest = stamps.iter().min().copied().unwrap_or(0);
        stamps
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != oldest)
            .min_by_key(|&(_, &s)| s)
            .map_or(0, |(i, _)| i)
    }
}

/// The built-in LRU (`None`), the `lru` and `mru` policy objects, or a
/// policy outside the built-ins — so both the specialized built-in-LRU
/// lookup and the general path run.
fn replacement(g: &mut Gen) -> Option<Arc<dyn ReplacementPolicy>> {
    match *g.pick(&["builtin", "lru", "mru", "second-oldest"]) {
        "lru" => Some(Arc::new(Lru)),
        "mru" => Some(Arc::new(Mru)),
        "second-oldest" => Some(Arc::new(SecondOldest)),
        _ => None,
    }
}

/// A simulator with a random breakeven time (down to one cycle, so
/// drowse and wake fire constantly) and the rotating mapping.
fn kernel_sim(
    geom: CacheGeometry,
    breakeven: u32,
    repl: Option<Arc<dyn ReplacementPolicy>>,
) -> Simulator {
    let config = SimConfig::new(geom)
        .expect("config")
        .with_breakeven(BreakevenAnalysis::from_cycles(breakeven).expect("positive"))
        .with_replacement(repl);
    Simulator::new(config, Box::new(Rotate(0))).expect("rotation is a bijection")
}

/// Phased traffic: runs of accesses inside one region (so some banks
/// drowse and wake), with reads and writes mixed.
fn access(g: &mut Gen, span: u64, region: &mut u64) -> Access {
    if g.u64_in(0..64) == 0 {
        *region = g.u64_in(0..8);
    }
    let addr = (*region * span / 8 + g.u64_in(0..span / 4)) % span;
    if g.u64_in(0..3) == 0 {
        Access::write(addr)
    } else {
        Access::read(addr)
    }
}

/// A ragged batch length: empty, one, short or long.
fn batch_len(g: &mut Gen) -> usize {
    match g.u32_in(0..4) {
        0 => 0,
        1 => 1,
        2 => g.usize_in(2..40),
        _ => g.usize_in(40..3_000),
    }
}

fn assert_bitwise(a: &SimOutcome, b: &SimOutcome, context: &str) {
    assert_eq!(a, b, "{context}: outcomes diverged");
    for (x, y) in [
        (a.energy.dynamic_fj, b.energy.dynamic_fj),
        (a.energy.leakage_fj, b.energy.leakage_fj),
        (a.energy.wake_fj, b.energy.wake_fj),
        (a.energy.overhead_fj, b.energy.overhead_fj),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: energy bits diverged");
    }
}

/// The batched kernel lands on the scalar path's exact outcome for any
/// geometry, replacement policy and breakeven, with scalar steps, idle
/// cycles and mapping updates interleaved between ragged batches.
#[test]
fn batched_kernel_matches_scalar_path() {
    quickprop::cases(CASES, |g| {
        let geom = kernel_geometry(g, 12);
        let breakeven = g.u32_in(1..64);
        let repl = replacement(g);
        let mut scalar = kernel_sim(geom, breakeven, repl.clone());
        let mut batched = kernel_sim(geom, breakeven, repl);
        let span = 2 * geom.size_bytes();
        let mut region = 0;
        for _ in 0..24 {
            match g.u32_in(0..8) {
                0 => {
                    let a = access(g, span, &mut region);
                    scalar.step(a);
                    batched.step(a);
                }
                1 => {
                    for _ in 0..g.u32_in(1..200) {
                        scalar.idle_cycle();
                        batched.idle_cycle();
                    }
                }
                2 => {
                    scalar.update_mapping().expect("bijection");
                    batched.update_mapping().expect("bijection");
                }
                _ => {
                    let batch: Vec<Access> = (0..batch_len(g))
                        .map(|_| access(g, span, &mut region))
                        .collect();
                    for &a in &batch {
                        scalar.step(a);
                    }
                    batched.step_batch(&batch);
                }
            }
        }
        assert_bitwise(
            &scalar.finish(),
            &batched.finish(),
            &format!("{geom:?}, breakeven {breakeven}"),
        );
    });
}

/// The hierarchy's masked L2 run equals the scalar composition on both
/// levels, including batches where the L1 hits every access (the L2
/// only idles) and batches of fresh lines where it misses every one.
#[test]
fn hierarchy_batched_matches_scalar_composition() {
    quickprop::cases(CASES, |g| {
        let l1 = kernel_geometry(g, 11);
        let l2 = kernel_geometry(g, 15);
        let breakeven = g.u32_in(1..64);
        let (r1, r2) = (replacement(g), replacement(g));
        let build = || {
            CacheHierarchy::new(
                kernel_sim(l1, breakeven, r1.clone()),
                kernel_sim(l2, breakeven + 3, r2.clone()),
            )
            .expect("L2 covers the L1")
        };
        let (mut scalar, mut batched) = (build(), build());
        let span = 4 * l1.size_bytes();
        let mut region = 0;
        // Lines above the traffic's span, each used once: always a miss.
        let mut fresh = span;
        for _ in 0..24 {
            let batch: Vec<Access> = match g.u32_in(0..8) {
                0 => {
                    scalar.idle_cycle();
                    batched.idle_cycle();
                    continue;
                }
                1 => {
                    scalar.update_mapping().expect("bijection");
                    batched.update_mapping().expect("bijection");
                    continue;
                }
                // All hits: one line, touched once, then repeated.
                2 => {
                    let a = access(g, span, &mut region);
                    scalar.step(a);
                    batched.step(a);
                    vec![a; batch_len(g)]
                }
                // All misses: lines never accessed before.
                3 => (0..batch_len(g))
                    .map(|_| {
                        fresh += u64::from(l1.line_bytes());
                        Access::read(fresh)
                    })
                    .collect(),
                _ => (0..batch_len(g))
                    .map(|_| access(g, span, &mut region))
                    .collect(),
            };
            for &a in &batch {
                scalar.step(a);
            }
            batched.step_batch(&batch);
        }
        let (a, b) = (scalar.finish(), batched.finish());
        a.validate().expect("scalar composition is consistent");
        let context = format!("L1 {l1:?}, L2 {l2:?}, breakeven {breakeven}");
        assert_bitwise(&a.l1, &b.l1, &format!("L1 of {context}"));
        assert_bitwise(&a.l2, &b.l2, &format!("L2 of {context}"));
    });
}

/// One way of the tag store as it was laid out before the packed
/// arrays: a 24-byte struct per way. Kept here only as the reference
/// the packed [`CacheArray`] must reproduce.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// The `Way`-based tag array, victim order and all.
struct WayArray {
    ways: usize,
    lines: Vec<Way>,
    clock: u64,
    replacement: Option<Arc<dyn ReplacementPolicy>>,
}

impl WayArray {
    fn new(geom: CacheGeometry, replacement: Option<Arc<dyn ReplacementPolicy>>) -> Self {
        Self {
            ways: geom.ways() as usize,
            lines: vec![Way::default(); geom.lines() as usize],
            clock: 0,
            replacement,
        }
    }

    fn access(&mut self, set: u64, tag: u64, kind: AccessKind) -> AccessResult {
        self.clock += 1;
        let base = set as usize * self.ways;
        let slots = &mut self.lines[base..base + self.ways];
        if let Some(w) = slots.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.stamp = self.clock;
            w.dirty |= kind == AccessKind::Write;
            return AccessResult {
                hit: true,
                set,
                evicted_tag: None,
                writeback: false,
            };
        }
        let way = match &self.replacement {
            None => slots
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| if w.valid { w.stamp + 1 } else { 0 })
                .map_or(0, |(i, _)| i),
            Some(policy) => match slots.iter().position(|w| !w.valid) {
                Some(invalid) => invalid,
                None => {
                    let stamps: Vec<u64> = slots.iter().map(|w| w.stamp).collect();
                    policy.victim(&stamps).min(self.ways - 1)
                }
            },
        };
        let line = &mut slots[way];
        let result = AccessResult {
            hit: false,
            set,
            evicted_tag: line.valid.then_some(line.tag),
            writeback: line.valid && line.dirty,
        };
        *line = Way {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            stamp: self.clock,
        };
        result
    }

    fn probe(&self, set: u64, tag: u64) -> bool {
        let base = set as usize * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    fn valid_lines(&self) -> u64 {
        self.lines.iter().filter(|w| w.valid).count() as u64
    }

    fn flush(&mut self) -> u64 {
        let dropped = self.valid_lines();
        self.lines.fill(Way::default());
        dropped
    }
}

/// The packed tag store returns the `Way`-based array's exact
/// `AccessResult` on every access, and the same `probe`, `valid_lines`
/// and `flush` answers, for ways in {1, 2, 4, 8} under the built-in
/// LRU and the registered `lru` and `mru`. Geometries include 1-byte
/// lines in a single set, where a tag uses all 64 bits.
#[test]
fn packed_tag_store_matches_way_array() {
    quickprop::cases(CASES * 2, |g| {
        let ways = 1u32 << g.u32_in(0..4);
        let geom = if g.u32_in(0..3) == 0 {
            CacheGeometry::new(u64::from(ways), 1, ways, 1)
        } else {
            let sets_log = g.u32_in(0..7);
            let line_log = g.u32_in(0..6);
            let bank_log = g.u32_in(0..3).min(sets_log);
            CacheGeometry::new(
                u64::from(ways) << (sets_log + line_log),
                1 << line_log,
                ways,
                1 << bank_log,
            )
        }
        .expect("constructed geometry is valid");
        let policy = *g.pick(&["builtin", "lru", "mru"]);
        let repl: Option<Arc<dyn ReplacementPolicy>> = match policy {
            "lru" => Some(Arc::new(Lru)),
            "mru" => Some(Arc::new(Mru)),
            _ => None,
        };
        let mut packed = match &repl {
            None => CacheArray::new(geom),
            Some(p) => CacheArray::with_replacement(geom, Arc::clone(p)),
        };
        let mut reference = WayArray::new(geom, repl);
        // A pool a little larger than a set, edge tags included, so
        // hits, conflict evictions and dirty write-backs all happen.
        let mut pool = vec![0, u64::MAX, 1 << 63];
        pool.extend((0..ways + 2).map(|_| g.next_u64()));
        let context = format!("{geom:?}, {policy}");
        for step in 0..3_000 {
            let set = g.u64_in(0..geom.sets());
            let tag = *g.pick(&pool);
            match g.u32_in(0..100) {
                0 => assert_eq!(packed.flush(), reference.flush(), "{context}: flush"),
                1..=9 => assert_eq!(
                    packed.probe(set, tag),
                    reference.probe(set, tag),
                    "{context}: probe at step {step}"
                ),
                _ => {
                    let kind = if g.u32_in(0..3) == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    assert_eq!(
                        packed.access(set, tag, kind),
                        reference.access(set, tag, kind),
                        "{context}: access at step {step}"
                    );
                }
            }
            assert_eq!(packed.valid_lines(), reference.valid_lines(), "{context}");
        }
    });
}
