//! Two-level cache hierarchy: the L2 access stream *is* the L1 miss
//! stream.
//!
//! The paper's aging argument rests on bank idleness, which it measures
//! on a single cache level. A hierarchy makes the mechanism compose:
//! every L1 hit is, by construction, an idle cycle for the L2, so L2
//! idleness — and therefore drowsy-mode aging recovery — is *induced*
//! by L1 filtering rather than assumed by a workload model. This module
//! pins that identity structurally: [`CacheHierarchy::step`] forwards
//! an access to the L2 exactly when the L1 missed, and advances the L2
//! by one [`idle_cycle`](Simulator::idle_cycle) otherwise, so
//! `l2.accesses == l1.misses` and `l2.cycles == l1.cycles` hold at
//! [`finish`](CacheHierarchy::finish) time for every trace.
//!
//! Both levels are full [`Simulator`]s — each carries its own geometry,
//! bank mapping, power-state machine, idle tracker and energy ledger —
//! so the per-level outcomes feed the aging model independently.
//!
//! The batched path ([`CacheHierarchy::step_batch`]) runs both levels
//! on the simulator's fused batched kernel: the L1 records per-position
//! miss flags, and the L2 replays the batch with those flags as a mask,
//! so a position where the L1 hit is an idle cycle of the L2's loop.
//! Because the L1 is independent of the L2 and the L2 sees a
//! position-identical access/idle sequence, the composition is
//! **bitwise identical** to the scalar one (the `batched_equivalence`
//! integration tests and the `props` suite pin this).

use crate::error::SimError;
use crate::run::{Access, Simulator};
use crate::stats::SimOutcome;

/// A two-level cache: an L1 filtering the trace and an L2 seeing only
/// the L1 misses.
///
/// # Examples
///
/// ```
/// use cache_sim::{Access, CacheGeometry, CacheHierarchy, IdentityMapping, SimConfig, Simulator};
///
/// # fn main() -> Result<(), cache_sim::SimError> {
/// let l1 = CacheGeometry::direct_mapped(4 * 1024, 16, 4)?;
/// let l2 = CacheGeometry::new(32 * 1024, 16, 4, 4)?;
/// let mut hier = CacheHierarchy::new(
///     Simulator::new(SimConfig::new(l1)?, Box::new(IdentityMapping))?,
///     Simulator::new(SimConfig::new(l2)?, Box::new(IdentityMapping))?,
/// )?;
/// for i in 0..50_000u64 {
///     hier.step(Access::read((i % 512) * 16));
/// }
/// let out = hier.finish();
/// // The L2 stream is exactly the L1 miss stream...
/// assert_eq!(out.l2.accesses, out.l1.misses);
/// assert_eq!(out.l2.cycles, out.l1.cycles);
/// // ...so a well-filtered L2 is mostly asleep.
/// assert!(out.l2.avg_sleep_fraction() > out.l1.avg_sleep_fraction());
/// # Ok(())
/// # }
/// ```
pub struct CacheHierarchy {
    l1: Simulator,
    l2: Simulator,
    /// Scratch per-position miss flags reused across `step_batch` calls.
    miss_flags: Vec<bool>,
}

impl std::fmt::Debug for CacheHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheHierarchy")
            .field("l1", &self.l1)
            .field("l2", &self.l2)
            .finish()
    }
}

/// Per-level outcomes of a [`CacheHierarchy`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyOutcome {
    /// The L1's outcome over the raw trace.
    pub l1: SimOutcome,
    /// The L2's outcome over the induced (L1-miss) stream.
    pub l2: SimOutcome,
}

impl HierarchyOutcome {
    /// Checks the structural invariants of the composition on top of
    /// each level's own [`SimOutcome::validate`]: the L2 saw exactly
    /// the L1 misses, over exactly as many cycles.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        self.l1.validate().map_err(|e| format!("L1: {e}"))?;
        self.l2.validate().map_err(|e| format!("L2: {e}"))?;
        if self.l2.accesses != self.l1.misses {
            return Err(format!(
                "L2 accesses ({}) != L1 misses ({})",
                self.l2.accesses, self.l1.misses
            ));
        }
        if self.l2.cycles != self.l1.cycles {
            return Err(format!(
                "L2 cycles ({}) != L1 cycles ({})",
                self.l2.cycles, self.l1.cycles
            ));
        }
        Ok(())
    }
}

impl CacheHierarchy {
    /// Composes two simulators into an L1 → L2 hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidGeometry`] if the L2 is smaller than
    /// the L1 (an "L2" that cannot hold the L1's working set inverts
    /// the filtering premise).
    pub fn new(l1: Simulator, l2: Simulator) -> Result<Self, SimError> {
        let l1_bytes = l1.config().geometry().size_bytes();
        let l2_bytes = l2.config().geometry().size_bytes();
        if l2_bytes < l1_bytes {
            return Err(SimError::InvalidGeometry {
                name: "l2_size_bytes",
                value: l2_bytes,
                expected: "an L2 at least as large as the L1",
            });
        }
        Ok(Self {
            l1,
            l2,
            miss_flags: Vec::new(),
        })
    }

    /// The L1 simulator.
    pub fn l1(&self) -> &Simulator {
        &self.l1
    }

    /// The L2 simulator.
    pub fn l2(&self) -> &Simulator {
        &self.l2
    }

    /// Executes one access (one cycle on both levels): the L1 serves
    /// it, and the L2 either serves the resulting miss or idles.
    /// Returns whether the L1 hit.
    pub fn step(&mut self, access: Access) -> bool {
        let result = self.l1.step(access);
        if result.hit {
            self.l2.idle_cycle();
        } else {
            self.l2.step(access);
        }
        result.hit
    }

    /// Advances one cycle with no access on either level (a processor
    /// stall). Leakage accrues and idle counters advance on both.
    pub fn idle_cycle(&mut self) {
        self.l1.idle_cycle();
        self.l2.idle_cycle();
    }

    /// Executes a batch of accesses — the hot path. The L1 runs the
    /// batched kernel and records per-position miss flags; the L2 then
    /// runs the same kernel over the batch masked by those flags, the
    /// access/idle sequence the scalar composition would produce, so
    /// the result is bitwise identical to calling
    /// [`CacheHierarchy::step`] per element.
    pub fn step_batch(&mut self, batch: &[Access]) {
        let Self { l1, l2, miss_flags } = self;
        miss_flags.clear();
        miss_flags.resize(batch.len(), false);
        // The closure owns a slice, not the `Vec`, so the kernel never
        // reloads the `Vec`'s header after its own stores.
        let flags: &mut [bool] = miss_flags;
        l1.step_batch_map(batch, move |i, hit| {
            if let Some(flag) = flags.get_mut(i) {
                *flag = !hit;
            }
        });
        l2.step_batch_masked(batch, miss_flags);
    }

    /// Applies one dynamic-indexing update to **both** levels: each
    /// level's mapping advances and its cache flushes (the paper ties
    /// the two together, §III-A3). The L1 flush means previously
    /// filtered lines miss again and refill through the L2, exactly as
    /// hardware would.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if either level's mapping
    /// stops being a bijection (a buggy custom policy).
    pub fn update_mapping(&mut self) -> Result<(), SimError> {
        self.l1.update_mapping()?;
        self.l2.update_mapping()
    }

    /// Finishes both levels and returns their outcomes.
    pub fn finish(self) -> HierarchyOutcome {
        HierarchyOutcome {
            l1: self.l1.finish(),
            l2: self.l2.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;
    use crate::mapping::IdentityMapping;
    use crate::run::SimConfig;

    fn level(size_bytes: u64, ways: u32, banks: u32) -> Simulator {
        let geom = CacheGeometry::new(size_bytes, 16, ways, banks).unwrap();
        Simulator::new(SimConfig::new(geom).unwrap(), Box::new(IdentityMapping)).unwrap()
    }

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::new(level(4 * 1024, 1, 4), level(32 * 1024, 4, 4)).unwrap()
    }

    #[test]
    fn l2_stream_is_exactly_the_l1_miss_stream() {
        let mut h = hierarchy();
        let mut x = 0xabcd_ef01_u64;
        for _ in 0..80_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.step(Access::read(x % (64 * 1024)));
            if x.is_multiple_of(7) {
                h.idle_cycle();
            }
        }
        let out = h.finish();
        out.validate().unwrap();
        assert!(out.l1.misses > 0, "trace must actually miss");
    }

    #[test]
    fn l2_size_must_cover_l1() {
        let err = CacheHierarchy::new(level(32 * 1024, 1, 4), level(4 * 1024, 1, 4));
        assert!(matches!(
            err,
            Err(SimError::InvalidGeometry {
                name: "l2_size_bytes",
                ..
            })
        ));
    }

    #[test]
    fn filtering_induces_l2_idleness() {
        // A loop that fits the L1 after warm-up: the L2 sees only cold
        // misses and then sleeps for the rest of the run.
        let mut h = hierarchy();
        for i in 0..100_000u64 {
            h.step(Access::read((i % 128) * 16));
        }
        let out = h.finish();
        out.validate().unwrap();
        assert!(out.l1.miss_rate() < 0.01);
        assert!(
            out.l2.avg_sleep_fraction() > 0.9,
            "filtered L2 must sleep: {}",
            out.l2.avg_sleep_fraction()
        );
        assert!(out.l2.avg_sleep_fraction() > out.l1.avg_sleep_fraction());
    }

    #[test]
    fn update_flushes_both_levels() {
        let mut h = hierarchy();
        for i in 0..1000u64 {
            h.step(Access::read(i * 16));
        }
        h.update_mapping().unwrap();
        let out = h.finish();
        assert_eq!(out.l1.updates, 1);
        assert_eq!(out.l2.updates, 1);
        assert_eq!(out.l1.flushes, 1);
        assert_eq!(out.l2.flushes, 1);
    }

    #[test]
    fn batched_composition_is_bitwise_identical_to_scalar() {
        let mut x = 0x5eed_cafe_u64;
        let accesses: Vec<Access> = (0..60_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % (96 * 1024);
                if x.is_multiple_of(3) {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect();
        let mut scalar = hierarchy();
        for &a in &accesses {
            scalar.step(a);
        }
        let mut batched = hierarchy();
        let mut rest = &accesses[..];
        let sizes = [1usize, 7, 256, 4096, 33];
        let mut si = 0;
        while !rest.is_empty() {
            let n = sizes[si % sizes.len()].min(rest.len());
            si += 1;
            if si % 5 == 0 {
                batched.step(rest[0]);
                rest = &rest[1..];
                continue;
            }
            batched.step_batch(&rest[..n]);
            rest = &rest[n..];
        }
        let (a, b) = (scalar.finish(), batched.finish());
        assert_eq!(a, b, "hierarchy batched path must be bitwise identical");
        for (x, y) in [(&a.l1, &b.l1), (&a.l2, &b.l2)] {
            assert_eq!(x.energy.dynamic_fj.to_bits(), y.energy.dynamic_fj.to_bits());
            assert_eq!(x.energy.leakage_fj.to_bits(), y.energy.leakage_fj.to_bits());
            assert_eq!(x.energy.wake_fj.to_bits(), y.energy.wake_fj.to_bits());
            assert_eq!(
                x.energy.overhead_fj.to_bits(),
                y.energy.overhead_fj.to_bits()
            );
        }
    }
}
