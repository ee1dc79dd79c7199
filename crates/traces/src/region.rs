//! Working-set regions and their access patterns.

use crate::rng::{below, unit_f64, SplitMix64};

/// How addresses are drawn within a region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Streaming: the cursor advances by `stride` bytes and wraps
    /// (CRC32, sha, say — buffer scans).
    Sequential {
        /// Step between consecutive accesses, bytes.
        stride: u32,
    },
    /// Uniform random line within the region (dijkstra, search —
    /// pointer-chasing over a heap).
    Random,
    /// Skewed: a fraction `hot` of the region takes 90 % of the traffic
    /// (rijndael S-boxes, ispell dictionary buckets).
    Hotspot {
        /// Fraction of the region that is hot, in `(0, 1]`.
        hot: f64,
    },
    /// Short random walk: each access moves at most `max_step` bytes from
    /// the previous one (mad/lame filter state).
    Walk {
        /// Maximum displacement per access, bytes.
        max_step: u32,
    },
}

/// A contiguous chunk of the address space with a characteristic pattern.
///
/// # Examples
///
/// ```
/// use trace_synth::{AccessPattern, Region, SplitMix64};
///
/// let r = Region::new(0x4000, 2048, AccessPattern::Sequential { stride: 16 });
/// let mut cursor = r.cursor();
/// let mut rng = SplitMix64::new(1);
/// let a = cursor.next_addr(&r, &mut rng);
/// let b = cursor.next_addr(&r, &mut rng);
/// assert_eq!(b, a + 16);
/// assert!(r.contains(a) && r.contains(b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    base: u64,
    size: u64,
    pattern: AccessPattern,
    /// Bytes of the hot prefix (`Hotspot` only; `size` otherwise),
    /// computed once so the cursor never converts per access.
    hot_bytes: u64,
}

impl Region {
    /// Creates a region of `size` bytes at byte address `base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(base: u64, size: u64, pattern: AccessPattern) -> Self {
        assert!(size > 0, "regions must be non-empty");
        let hot_bytes = match pattern {
            AccessPattern::Hotspot { hot } => ((size as f64 * hot) as u64).max(1),
            _ => size,
        };
        Self {
            base,
            size,
            pattern,
            hot_bytes,
        }
    }

    /// Base byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The region's access pattern.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }

    /// Starts a fresh cursor for this region.
    pub fn cursor(&self) -> RegionCursor {
        RegionCursor { offset: 0 }
    }
}

/// Mutable iteration state over one region (owned by the generator so the
/// same `Region` description can drive several independent traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionCursor {
    offset: u64,
}

impl RegionCursor {
    /// Produces the next address for `region` and advances the cursor.
    #[inline]
    pub fn next_addr(&mut self, region: &Region, rng: &mut SplitMix64) -> u64 {
        let (addr, next, draws) = self.peek_addr(region, rng);
        *self = next;
        rng.skip(draws);
        addr
    }

    /// What [`RegionCursor::next_addr`] would do, without doing it: the
    /// address, the cursor after it and the number of draws it takes
    /// from `rng`.
    ///
    /// The wrap arithmetic is `%` and `rem_euclid`, skipped only when the
    /// new offset is already inside the region, so strides and steps of a
    /// region size or more wrap exactly as the plain remainder does.
    #[inline]
    pub(crate) fn peek_addr(&self, region: &Region, rng: &SplitMix64) -> (u64, Self, u64) {
        let size = region.size;
        let (offset, next, draws) = match region.pattern {
            AccessPattern::Sequential { stride } => {
                let next = self.offset + stride as u64;
                let next = if next < size { next } else { next % size };
                (self.offset, next, 0)
            }
            AccessPattern::Random => (below(rng.peek(1), size), self.offset, 1),
            AccessPattern::Hotspot { .. } => {
                // 90 % of the traffic lands in the hot prefix.
                let bound = if unit_f64(rng.peek(1)) < 0.9 {
                    region.hot_bytes
                } else {
                    size
                };
                (below(rng.peek(2), bound), self.offset, 2)
            }
            AccessPattern::Walk { max_step } => {
                let step = below(rng.peek(1), 2 * max_step as u64 + 1) as i64 - max_step as i64;
                let next = self.offset as i64 + step;
                let next = if (0..size as i64).contains(&next) {
                    next as u64
                } else {
                    next.rem_euclid(size as i64) as u64
                };
                (next, next, 1)
            }
        };
        let addr = region.base + offset;
        debug_assert!(region.contains(addr));
        (addr, Self { offset: next }, draws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wraps_at_region_end() {
        let r = Region::new(100, 64, AccessPattern::Sequential { stride: 16 });
        let mut c = r.cursor();
        let mut rng = SplitMix64::new(0);
        let addrs: Vec<u64> = (0..5).map(|_| c.next_addr(&r, &mut rng)).collect();
        assert_eq!(addrs, vec![100, 116, 132, 148, 100]);
    }

    #[test]
    fn random_addresses_stay_in_region() {
        let r = Region::new(0x1000, 512, AccessPattern::Random);
        let mut c = r.cursor();
        let mut rng = SplitMix64::new(2);
        for _ in 0..1000 {
            assert!(r.contains(c.next_addr(&r, &mut rng)));
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let r = Region::new(0, 1000, AccessPattern::Hotspot { hot: 0.1 });
        let mut c = r.cursor();
        let mut rng = SplitMix64::new(3);
        let mut in_hot = 0;
        let n = 20_000;
        for _ in 0..n {
            if c.next_addr(&r, &mut rng) < 100 {
                in_hot += 1;
            }
        }
        let frac = in_hot as f64 / n as f64;
        assert!(frac > 0.85, "hot fraction {frac} should be ~0.91");
    }

    #[test]
    fn walk_moves_locally() {
        let r = Region::new(0x2000, 4096, AccessPattern::Walk { max_step: 32 });
        let mut c = r.cursor();
        let mut rng = SplitMix64::new(4);
        let mut prev = c.next_addr(&r, &mut rng);
        for _ in 0..1000 {
            let next = c.next_addr(&r, &mut rng);
            let delta = (next as i64 - prev as i64).abs();
            // Either a small move or a wrap at the region boundary.
            assert!(
                delta <= 32 || delta >= 4096 - 32,
                "walk step too large: {delta}"
            );
            prev = next;
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_region_panics() {
        let _ = Region::new(0, 0, AccessPattern::Random);
    }
}
