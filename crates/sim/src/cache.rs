//! Tag-array cache model: direct-mapped and set-associative with a
//! pluggable replacement policy (LRU by default).

use crate::error::SimError;
use crate::geometry::CacheGeometry;
use crate::replacement::ReplacementPolicy;
use std::sync::Arc;

/// Type of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// The physical set that was accessed.
    pub set: u64,
    /// The tag of the line that was evicted on a miss, if any.
    pub evicted_tag: Option<u64>,
    /// Whether the evicted line was dirty (needs a write-back).
    pub writeback: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// The tag store of a cache: `sets × ways` entries with LRU replacement.
///
/// The array works on *physical* set indices — the caller (the simulator
/// driver) applies any bank remapping before calling [`CacheArray::access`].
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheArray, CacheGeometry};
///
/// let g = CacheGeometry::direct_mapped(1024, 16, 1)?;
/// let mut cache = CacheArray::new(g);
/// let set = g.set_of(0x40);
/// let tag = g.tag_of(0x40);
/// assert!(!cache.access(set, tag, AccessKind::Read).hit); // cold miss
/// assert!(cache.access(set, tag, AccessKind::Read).hit);  // now warm
/// # Ok::<(), cache_sim::SimError>(())
/// ```
#[derive(Clone)]
pub struct CacheArray {
    geometry: CacheGeometry,
    ways: Vec<Way>,
    clock: u64,
    flushes: u64,
    /// `None` = the built-in LRU fast path (byte-for-byte the historic
    /// victim order); `Some` = a registered policy choosing among full
    /// sets. Invalid ways are always filled first either way.
    replacement: Option<Arc<dyn ReplacementPolicy>>,
    /// Scratch stamp buffer handed to the policy (no per-miss alloc).
    stamp_buf: Vec<u64>,
}

impl std::fmt::Debug for CacheArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheArray")
            .field("geometry", &self.geometry)
            .field("clock", &self.clock)
            .field("flushes", &self.flushes)
            .field(
                "replacement",
                &self.replacement.as_deref().map_or("lru", |p| p.name()),
            )
            .finish_non_exhaustive()
    }
}

impl CacheArray {
    /// Creates an empty (all-invalid) cache for `geometry` with the
    /// built-in LRU replacement.
    pub fn new(geometry: CacheGeometry) -> Self {
        let n = (geometry.sets() * geometry.ways() as u64) as usize;
        Self {
            geometry,
            ways: vec![Way::default(); n],
            clock: 0,
            flushes: 0,
            replacement: None,
            stamp_buf: Vec::new(),
        }
    }

    /// Creates an empty cache that evicts via a registered
    /// [`ReplacementPolicy`] instead of the built-in LRU.
    pub fn with_replacement(geometry: CacheGeometry, policy: Arc<dyn ReplacementPolicy>) -> Self {
        let mut array = Self::new(geometry);
        array.stamp_buf = Vec::with_capacity(geometry.ways() as usize);
        array.replacement = Some(policy);
        array
    }

    /// The active replacement policy's registry name.
    pub fn replacement_name(&self) -> &str {
        self.replacement.as_deref().map_or("lru", |p| p.name())
    }

    /// The geometry this array was built for.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Performs one access to physical set `set` with tag `tag`.
    ///
    /// On a miss the line is filled, evicting the LRU way of the set.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `set` is outside the geometry.
    pub fn access(&mut self, set: u64, tag: u64, kind: AccessKind) -> AccessResult {
        debug_assert!(set < self.geometry.sets(), "set {set} out of range");
        self.clock += 1;
        let ways = self.geometry.ways() as usize;
        let base = set as usize * ways;
        let Self {
            ways: lines,
            clock,
            replacement,
            stamp_buf,
            ..
        } = self;
        // A miss fills the first invalid way, else the policy's victim;
        // the built-in LRU's single scan (`lru_victim`) does both.
        fill_or_hit(
            &mut lines[base..base + ways],
            *clock,
            set,
            tag,
            kind,
            |slots| match replacement {
                None => lru_victim(slots),
                Some(policy) => match slots.iter().position(|w| !w.valid) {
                    Some(invalid) => invalid,
                    None => {
                        stamp_buf.clear();
                        stamp_buf.extend(slots.iter().map(|w| w.stamp));
                        policy.victim(stamp_buf).min(ways - 1)
                    }
                },
            },
        )
    }

    /// Whether the built-in LRU (no registered policy) picks victims,
    /// the precondition of [`CacheArray::access_lru`].
    pub(crate) fn is_builtin_lru(&self) -> bool {
        self.replacement.is_none()
    }

    /// [`CacheArray::access`] specialized for a built-in-LRU array of
    /// exactly `W` ways: the set's slice length and victim scan are
    /// compile-time constants, and no policy dispatch is compiled in.
    /// Same state transitions, same result.
    #[inline(always)]
    pub(crate) fn access_lru<const W: usize>(
        &mut self,
        set: u64,
        tag: u64,
        kind: AccessKind,
    ) -> AccessResult {
        debug_assert!(self.is_builtin_lru() && self.geometry.ways() as usize == W);
        self.clock += 1;
        let base = set as usize * W;
        fill_or_hit(
            &mut self.ways[base..base + W],
            self.clock,
            set,
            tag,
            kind,
            lru_victim,
        )
    }

    /// Convenience: access by address (identity bank mapping).
    pub fn access_addr(&mut self, addr: u64, kind: AccessKind) -> AccessResult {
        let set = self.geometry.set_of(addr);
        let tag = self.geometry.tag_of(addr);
        self.access(set, tag, kind)
    }

    /// Invalidates the whole cache (the paper ties re-indexing updates to
    /// flushes, §III-A3). Returns the number of valid lines dropped.
    pub fn flush(&mut self) -> u64 {
        self.flushes += 1;
        let mut dropped = 0;
        for w in &mut self.ways {
            if w.valid {
                dropped += 1;
            }
            *w = Way::default();
        }
        dropped
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u64 {
        self.ways.iter().filter(|w| w.valid).count() as u64
    }

    /// Fraction of lines currently valid.
    pub fn occupancy(&self) -> f64 {
        self.valid_lines() as f64 / self.ways.len() as f64
    }

    /// Checks a tag's presence without updating any state (no LRU touch).
    pub fn probe(&self, set: u64, tag: u64) -> bool {
        let ways = self.geometry.ways() as usize;
        let base = set as usize * ways;
        self.ways[base..base + ways]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }
}

/// The built-in LRU victim: the first invalid way, else the way with
/// the oldest stamp.
fn lru_victim(slots: &[Way]) -> usize {
    slots
        .iter()
        .enumerate()
        .min_by_key(|(_, w)| if w.valid { w.stamp + 1 } else { 0 })
        .map_or(0, |(i, _)| i)
}

/// One access to a set's `slots` at time `clock`: a hit refreshes the
/// way's stamp (and dirties it on a write); a miss fills the way
/// `victim` picks, reporting the evicted tag and any write-back.
#[inline(always)]
fn fill_or_hit(
    slots: &mut [Way],
    clock: u64,
    set: u64,
    tag: u64,
    kind: AccessKind,
    victim: impl FnOnce(&[Way]) -> usize,
) -> AccessResult {
    for w in slots.iter_mut() {
        if w.valid && w.tag == tag {
            w.stamp = clock;
            if kind == AccessKind::Write {
                w.dirty = true;
            }
            return AccessResult {
                hit: true,
                set,
                evicted_tag: None,
                writeback: false,
            };
        }
    }
    let way = victim(slots);
    let line = &mut slots[way];
    let evicted_tag = line.valid.then_some(line.tag);
    let writeback = line.valid && line.dirty;
    *line = Way {
        tag,
        valid: true,
        dirty: kind == AccessKind::Write,
        stamp: clock,
    };
    AccessResult {
        hit: false,
        set,
        evicted_tag,
        writeback,
    }
}

/// A trivially correct reference model (fully-associative search over an
/// address set per cache set) used to cross-check [`CacheArray`] in tests.
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    geometry: CacheGeometry,
    sets: Vec<Vec<u64>>, // per-set MRU-ordered tag list
}

impl ReferenceCache {
    /// Creates an empty reference model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidGeometry`] if the geometry has zero sets
    /// (cannot happen for a validated [`CacheGeometry`]).
    pub fn new(geometry: CacheGeometry) -> Result<Self, SimError> {
        Ok(Self {
            geometry,
            sets: vec![Vec::new(); geometry.sets() as usize],
        })
    }

    /// Accesses and returns whether it hit, maintaining LRU order.
    pub fn access_addr(&mut self, addr: u64) -> bool {
        let set = self.geometry.set_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        let list = &mut self.sets[set];
        if let Some(pos) = list.iter().position(|&t| t == tag) {
            list.remove(pos);
            list.insert(0, tag);
            true
        } else {
            list.insert(0, tag);
            list.truncate(self.geometry.ways() as usize);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::direct_mapped(4096, 16, 4).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = CacheArray::new(geom());
        assert!(!c.access_addr(0x100, AccessKind::Read).hit);
        assert!(c.access_addr(0x100, AccessKind::Read).hit);
        assert!(c.access_addr(0x104, AccessKind::Read).hit, "same line");
    }

    #[test]
    fn conflict_eviction_direct_mapped() {
        let g = geom();
        let mut c = CacheArray::new(g);
        let a = 0x100u64;
        let b = a + g.size_bytes(); // same set, different tag
        assert!(!c.access_addr(a, AccessKind::Read).hit);
        let res = c.access_addr(b, AccessKind::Read);
        assert!(!res.hit);
        assert_eq!(res.evicted_tag, Some(g.tag_of(a)));
        assert!(!c.access_addr(a, AccessKind::Read).hit, "a was evicted");
    }

    #[test]
    fn lru_replacement_in_set_associative() {
        let g = CacheGeometry::new(4096, 16, 2, 1).unwrap();
        let mut c = CacheArray::new(g);
        let s = 0x100u64;
        let conflict1 = s + g.size_bytes(); // same set
        let conflict2 = s + 2 * g.size_bytes();
        c.access_addr(s, AccessKind::Read);
        c.access_addr(conflict1, AccessKind::Read);
        // Touch `s` so `conflict1` becomes LRU.
        c.access_addr(s, AccessKind::Read);
        c.access_addr(conflict2, AccessKind::Read); // evicts conflict1
        assert!(c.access_addr(s, AccessKind::Read).hit);
        assert!(!c.access_addr(conflict1, AccessKind::Read).hit);
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = CacheArray::new(geom());
        for i in 0..64u64 {
            c.access_addr(i * 16, AccessKind::Write);
        }
        assert_eq!(c.valid_lines(), 64);
        assert_eq!(c.flush(), 64);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(c.flushes(), 1);
        assert!(!c.access_addr(0, AccessKind::Read).hit);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let g = CacheGeometry::new(4096, 16, 2, 1).unwrap();
        let mut c = CacheArray::new(g);
        let s = 0x100u64;
        let t = g.tag_of(s);
        c.access_addr(s, AccessKind::Read);
        assert!(c.probe(g.set_of(s), t));
        assert!(!c.probe(g.set_of(s), t + 1));
    }

    #[test]
    fn registered_lru_matches_builtin_victim_order() {
        use crate::replacement::ReplacementRegistry;
        let g = CacheGeometry::new(4096, 16, 4, 1).unwrap();
        let mut builtin = CacheArray::new(g);
        let lru = ReplacementRegistry::global().resolve("lru").unwrap();
        let mut registered = CacheArray::with_replacement(g, lru);
        let mut x = 0x1234_5678_u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (16 * 4096);
            let kind = if x.is_multiple_of(3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            assert_eq!(
                builtin.access_addr(addr, kind),
                registered.access_addr(addr, kind),
                "registered lru must reproduce the built-in victim order"
            );
        }
    }

    #[test]
    fn mru_diverges_from_lru_on_a_looping_working_set() {
        use crate::replacement::ReplacementRegistry;
        // A cyclic loop one line larger than the associativity: LRU
        // misses every access (classic thrash), MRU retains most of the
        // loop, so their hit counts must differ.
        let g = CacheGeometry::new(4 * 16, 16, 4, 1).unwrap(); // 1 set, 4 ways
        let reg = ReplacementRegistry::global();
        let mut lru = CacheArray::with_replacement(g, reg.resolve("lru").unwrap());
        let mut mru = CacheArray::with_replacement(g, reg.resolve("mru").unwrap());
        let period = g.size_bytes();
        let (mut lru_hits, mut mru_hits) = (0u64, 0u64);
        for _round in 0..100u64 {
            for line in 0..5u64 {
                let addr = 0x100 + line * period; // 5 tags, same single set
                lru_hits += u64::from(lru.access_addr(addr, AccessKind::Read).hit);
                mru_hits += u64::from(mru.access_addr(addr, AccessKind::Read).hit);
            }
        }
        assert_eq!(lru_hits, 0, "LRU thrashes a loop of ways + 1 lines");
        assert!(
            mru_hits > 300,
            "MRU keeps the loop mostly resident: {mru_hits}"
        );
    }

    #[test]
    fn matches_reference_model_on_mixed_traffic() {
        for (ways, banks) in [(1u32, 4u32), (2, 2), (4, 1)] {
            let g = CacheGeometry::new(4096, 16, ways, banks).unwrap();
            let mut dut = CacheArray::new(g);
            let mut reference = ReferenceCache::new(g).unwrap();
            // Deterministic pseudo-random address stream.
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % (16 * 4096);
                let got = dut.access_addr(addr, AccessKind::Read).hit;
                let want = reference.access_addr(addr);
                assert_eq!(got, want, "divergence at addr {addr:#x} (ways={ways})");
            }
        }
    }
}
