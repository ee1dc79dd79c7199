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

/// The valid bit of a way's flags.
const VALID: u8 = 1;
/// The dirty bit of a way's flags (set only alongside [`VALID`]).
const DIRTY: u8 = 2;

/// The flags a fill or a write leaves on a way: dirty on a write.
fn dirty_bit(kind: AccessKind) -> u8 {
    u8::from(kind == AccessKind::Write) * DIRTY
}

/// The tag store of a cache: `sets × ways` entries with LRU replacement.
///
/// The entries are packed into three parallel arrays indexed by
/// `set × ways + way`: the tag, the last-touch stamp, and a flags byte
/// holding the valid and dirty bits. The flags stay out of the tag
/// word because a geometry of 1-byte lines and a single set has no
/// spare tag bits.
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
    tags: Vec<u64>,
    stamps: Vec<u64>,
    flags: Vec<u8>,
    clock: u64,
    flushes: u64,
    /// `None` = the built-in LRU fast path (byte-for-byte the historic
    /// victim order); `Some` = a registered policy choosing among full
    /// sets. Invalid ways are always filled first either way.
    replacement: Option<Arc<dyn ReplacementPolicy>>,
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
            tags: vec![0; n],
            stamps: vec![0; n],
            flags: vec![0; n],
            clock: 0,
            flushes: 0,
            replacement: None,
        }
    }

    /// Creates an empty cache that evicts via a registered
    /// [`ReplacementPolicy`] instead of the built-in LRU.
    pub fn with_replacement(geometry: CacheGeometry, policy: Arc<dyn ReplacementPolicy>) -> Self {
        let mut array = Self::new(geometry);
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
        self.store().access(set, tag, kind)
    }

    /// Whether the built-in LRU (no registered policy) picks victims,
    /// the precondition of [`TagStore::access_lru`].
    pub(crate) fn is_builtin_lru(&self) -> bool {
        self.replacement.is_none()
    }

    /// Borrows the packed arrays for a run of accesses, with the clock
    /// held in the view and written back when it drops.
    pub(crate) fn store(&mut self) -> TagStore<'_> {
        // One length for all three, so one bounds check covers a set.
        let n = self.tags.len();
        TagStore {
            ways: self.geometry.ways() as usize,
            tags: &mut self.tags,
            stamps: &mut self.stamps[..n],
            flags: &mut self.flags[..n],
            replacement: self.replacement.as_deref(),
            clock: self.clock,
            clock_home: &mut self.clock,
        }
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
        let dropped = self.valid_lines();
        self.flags.fill(0);
        dropped
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u64 {
        self.flags.iter().filter(|&&f| f & VALID != 0).count() as u64
    }

    /// Fraction of lines currently valid.
    pub fn occupancy(&self) -> f64 {
        self.valid_lines() as f64 / self.flags.len() as f64
    }

    /// Checks a tag's presence without updating any state (no LRU touch).
    pub fn probe(&self, set: u64, tag: u64) -> bool {
        let ways = self.geometry.ways() as usize;
        let base = set as usize * ways;
        self.tags[base..base + ways]
            .iter()
            .zip(&self.flags[base..base + ways])
            .any(|(&t, &f)| f & VALID != 0 && t == tag)
    }
}

/// A [`CacheArray`]'s packed arrays borrowed for a run of accesses: the
/// batched kernel takes one before its loop, so the array headers and
/// the clock stay in registers. Dropping it writes the clock back.
pub(crate) struct TagStore<'a> {
    ways: usize,
    tags: &'a mut [u64],
    stamps: &'a mut [u64],
    flags: &'a mut [u8],
    replacement: Option<&'a dyn ReplacementPolicy>,
    clock: u64,
    clock_home: &'a mut u64,
}

impl Drop for TagStore<'_> {
    fn drop(&mut self) {
        *self.clock_home = self.clock;
    }
}

impl TagStore<'_> {
    /// [`CacheArray::access`]: any width, any replacement policy.
    pub(crate) fn access(&mut self, set: u64, tag: u64, kind: AccessKind) -> AccessResult {
        debug_assert!(
            (set as usize) < self.tags.len() / self.ways,
            "set {set} out of range"
        );
        self.clock += 1;
        let base = set as usize * self.ways;
        let range = base..base + self.ways;
        let (tags, stamps, flags) = (
            &mut self.tags[range.clone()],
            &mut self.stamps[range.clone()],
            &mut self.flags[range],
        );
        if let Some(way) = (0..tags.len()).find(|&w| flags[w] & VALID != 0 && tags[w] == tag) {
            stamps[way] = self.clock;
            flags[way] |= dirty_bit(kind);
            return AccessResult {
                hit: true,
                set,
                evicted_tag: None,
                writeback: false,
            };
        }
        // A miss fills the first invalid way, else the policy's victim;
        // the built-in LRU's single scan (`lru_victim`) does both.
        let way = match self.replacement {
            None => lru_victim(stamps, flags),
            Some(policy) => match flags.iter().position(|&f| f & VALID == 0) {
                Some(invalid) => invalid,
                None => policy.victim(stamps).min(tags.len() - 1),
            },
        };
        let evicted_tag = (flags[way] & VALID != 0).then_some(tags[way]);
        let writeback = flags[way] == VALID | DIRTY;
        tags[way] = tag;
        stamps[way] = self.clock;
        flags[way] = VALID | dirty_bit(kind);
        AccessResult {
            hit: false,
            set,
            evicted_tag,
            writeback,
        }
    }

    /// [`TagStore::access`] for a built-in-LRU array of exactly `W`
    /// ways (a power of two), returning only `(hit, writeback)`.
    ///
    /// Branch-free: the tag match is a bit mask, the victim (the first
    /// invalid way, else the oldest stamp, first on ties, as
    /// [`lru_victim`] picks it) comes from a select tree, and the hit
    /// way or the victim is then written unconditionally.
    #[inline(always)]
    pub(crate) fn access_lru<const W: usize>(
        &mut self,
        set: u64,
        tag: u64,
        kind: AccessKind,
    ) -> (bool, bool) {
        debug_assert!(self.replacement.is_none() && self.ways == W && W.is_power_of_two());
        self.clock += 1;
        let base = set as usize * W;
        let tags: &mut [u64; W] = slot(self.tags, base);
        let stamps: &mut [u64; W] = slot(self.stamps, base);
        let flags: &mut [u8; W] = slot(self.flags, base);
        let mut matched = 0u32;
        // Invalid ways key 0, valid ones their stamp + 1: the minimum
        // is the first invalid way, else the oldest.
        let mut keys = [0u64; W];
        for w in 0..W {
            let valid = flags[w] & VALID;
            matched |= u32::from(valid & u8::from(tags[w] == tag)) << w;
            keys[w] = (stamps[w] + 1) * u64::from(valid);
        }
        let hit = matched != 0;
        let way = if hit {
            matched.trailing_zeros() as usize
        } else {
            first_min(keys)
        };
        let writeback = !hit & (flags[way] == VALID | DIRTY);
        let kept = if hit { flags[way] } else { VALID };
        tags[way] = tag;
        stamps[way] = self.clock;
        flags[way] = kept | dirty_bit(kind);
        (hit, writeback)
    }
}

/// The `W` entries of one set from `base`, as a fixed-size array (one
/// bounds check for the whole set).
#[inline(always)]
fn slot<T, const W: usize>(entries: &mut [T], base: usize) -> &mut [T; W] {
    (&mut entries[base..base + W])
        .try_into()
        .expect("a range of W entries has length W")
}

/// The index of the first minimum of `keys`, by a select tree: each
/// level keeps the left key of a pair unless the right one is strictly
/// smaller, so ties go to the lower way. `W` is a power of two.
#[inline(always)]
fn first_min<const W: usize>(mut keys: [u64; W]) -> usize {
    let mut index: [usize; W] = std::array::from_fn(|w| w);
    let mut n = W;
    while n > 1 {
        n /= 2;
        for i in 0..n {
            let right = keys[2 * i + 1] < keys[2 * i];
            index[i] = if right {
                index[2 * i + 1]
            } else {
                index[2 * i]
            };
            keys[i] = keys[2 * i].min(keys[2 * i + 1]);
        }
    }
    index[0]
}

/// The built-in LRU victim: the first invalid way, else the way with
/// the oldest stamp.
fn lru_victim(stamps: &[u64], flags: &[u8]) -> usize {
    stamps
        .iter()
        .zip(flags)
        .enumerate()
        .min_by_key(|&(_, (&stamp, &f))| if f & VALID != 0 { stamp + 1 } else { 0 })
        .map_or(0, |(i, _)| i)
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

    /// Runs `trace` through the general lookup on one array and the
    /// built-in-LRU `W`-way lookup on another, checking the results
    /// and the packed arrays after every access.
    fn lockstep<const W: usize>(geom: CacheGeometry, trace: &[(u64, u64, AccessKind)]) {
        let (mut general, mut kernel) = (CacheArray::new(geom), CacheArray::new(geom));
        for (step, &(set, tag, kind)) in trace.iter().enumerate() {
            let want = general.access(set, tag, kind);
            let got = kernel.store().access_lru::<W>(set, tag, kind);
            assert_eq!(got, (want.hit, want.writeback), "step {step}");
            assert_eq!(kernel.tags, general.tags, "step {step}");
            assert_eq!(kernel.stamps, general.stamps, "step {step}");
            assert_eq!(kernel.flags, general.flags, "step {step}");
            assert_eq!(kernel.clock, general.clock, "step {step}");
        }
    }

    #[test]
    fn select_tree_picks_the_first_minimum() {
        assert_eq!(first_min([0u64; 4]), 0, "all ways invalid");
        assert_eq!(first_min([5, 7, 0, 0]), 2, "the first invalid way");
        assert_eq!(first_min([0, 7, 0, 0]), 0, "the first invalid way");
        assert_eq!(first_min([9, 3, 4, 6]), 1, "the oldest stamp");
        assert_eq!(first_min([9, 8, 4, 3]), 3, "the oldest stamp");
        assert_eq!(first_min([9u64]), 0);
    }

    #[test]
    fn builtin_lru_kernel_victim_ties() {
        // One set of 4 ways: A lands in the all-invalid set's way 0, B
        // and C in the first invalid ways (not the last), D fills it;
        // after A is touched, E evicts the oldest stamp, B's way 1.
        let g = CacheGeometry::new(4 * 16, 16, 4, 1).unwrap();
        let (a, b, c, d, e) = (10, 11, 12, 13, 14);
        let read = |tag| (0, tag, AccessKind::Read);
        let trace = [read(a), read(b), read(c), read(d), read(a), read(e)];
        lockstep::<4>(g, &trace);
        let mut cache = CacheArray::new(g);
        for &(set, tag, kind) in &trace {
            cache.store().access_lru::<4>(set, tag, kind);
        }
        assert_eq!(cache.tags, [a, e, c, d]);
        // After a flush every way is invalid again: way 0 refills first.
        cache.flush();
        cache.store().access_lru::<4>(0, b, AccessKind::Write);
        assert_eq!((cache.tags[0], cache.flags[0]), (b, VALID | DIRTY));
        assert_eq!(cache.valid_lines(), 1);
    }

    #[test]
    fn builtin_lru_kernels_match_the_general_lookup() {
        for (ways, sets) in [(1u32, 64u64), (4, 16), (4, 1)] {
            let g = CacheGeometry::new(sets * u64::from(ways) * 16, 16, ways, 1).unwrap();
            let mut x = 0x2545_f491_4f6c_dd1d_u64;
            let trace: Vec<_> = (0..20_000)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let kind = if x.is_multiple_of(3) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    (x % sets, (x >> 20) % (2 * u64::from(ways) + 1), kind)
                })
                .collect();
            match ways {
                1 => lockstep::<1>(g, &trace),
                _ => lockstep::<4>(g, &trace),
            }
        }
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
        let g = CacheGeometry::new(4096, 16, 4, 1).unwrap();
        let mut builtin = CacheArray::new(g);
        let mut registered = CacheArray::with_replacement(g, Arc::new(crate::Lru));
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
        // A cyclic loop one line larger than the associativity: LRU
        // misses every access (classic thrash), MRU retains most of the
        // loop, so their hit counts must differ.
        let g = CacheGeometry::new(4 * 16, 16, 4, 1).unwrap(); // 1 set, 4 ways
        let mut lru = CacheArray::with_replacement(g, Arc::new(crate::Lru));
        let mut mru = CacheArray::with_replacement(g, Arc::new(crate::Mru));
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
