//! The assembled architecture: geometry + policy + simulator.

use crate::error::CoreError;
use crate::registry::{IndexingPolicy, PolicyRegistry};
use crate::replacement::ReplacementRegistry;
use cache_sim::{
    Access, CacheGeometry, CacheHierarchy, ReplacementPolicy, SimConfig, SimOutcome, Simulator,
    DEFAULT_REPLACEMENT,
};
use std::sync::Arc;
use trace_synth::{TraceSource, BATCH_ACCESSES};

/// When to pulse the dynamic-indexing `update` signal during a simulated
/// trace.
///
/// At real timescales updates are rare (the paper suggests daily, bound to
/// a flush), far apart compared to any simulable trace; the main pipeline
/// therefore simulates with [`UpdateSchedule::Never`] and applies the
/// rotation analytically over the device lifetime
/// ([`AgingAnalysis`](crate::aging::AgingAnalysis)). The periodic variants
/// exist to measure the *cost* of updating (flush-induced misses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateSchedule {
    /// Never update during the trace (the production setting).
    Never,
    /// Update (and flush) every `n` cycles.
    EveryCycles(u64),
}

/// An `M`-bank uniformly partitioned cache with a dynamic-indexing policy
/// (the paper's Fig. 1 architecture).
///
/// # Examples
///
/// ```
/// use aging_cache::{PartitionedCache, PolicyRegistry};
/// use aging_cache::arch::UpdateSchedule;
/// use cache_sim::CacheGeometry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4)?;
/// let cache = PartitionedCache::new(geom, "probing", PolicyRegistry::global())?;
/// let profile = trace_synth::suite::by_name("CRC32").unwrap();
/// let out = cache.simulate(profile.trace(7).take(50_000), UpdateSchedule::Never)?;
/// assert_eq!(out.accesses, 50_000);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct PartitionedCache {
    geometry: CacheGeometry,
    policy: Arc<dyn IndexingPolicy>,
    /// `None` keeps the simulator's built-in default (`lru`) victim path.
    replacement: Option<Arc<dyn ReplacementPolicy>>,
    seed: u64,
}

impl std::fmt::Debug for PartitionedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedCache")
            .field("geometry", &self.geometry)
            .field("policy", &self.policy_name())
            .field("replacement", &self.replacement_name())
            .field("seed", &self.seed)
            .finish()
    }
}

impl PartitionedCache {
    /// Creates the architecture with a policy resolved by name from a
    /// registry (`PolicyRegistry::global()` holds the built-ins; a
    /// custom registry admits user policies).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a monolithic
    /// geometry, or [`CoreError::Unknown`] for an unregistered
    /// policy name.
    pub fn new(
        geometry: CacheGeometry,
        policy_name: &str,
        registry: &PolicyRegistry,
    ) -> Result<Self, CoreError> {
        if geometry.banks() < 2 {
            return Err(CoreError::InvalidParameter {
                name: "banks",
                value: geometry.banks() as f64,
                expected: "at least 2 banks",
            });
        }
        let policy = registry
            .get(policy_name)
            .ok_or_else(|| registry.unknown(policy_name))?;
        Ok(Self {
            geometry,
            policy: Arc::clone(policy),
            replacement: None,
            seed: 1,
        })
    }

    /// Sets the policy seed (used by the LFSR-backed policies). Seeds
    /// are full `u64`s; see [`crate::registry`] for the derivation
    /// chain.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects a victim-selection (replacement) policy by registry
    /// name, resolved against `registry` — the open entry point that
    /// admits custom replacement policies, mirroring
    /// [`PartitionedCache::new`]. Irrelevant for direct-mapped
    /// geometries; the default (`lru`) keeps the historic victim order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unknown`] for an unregistered name.
    pub fn with_replacement(
        mut self,
        name: &str,
        registry: &ReplacementRegistry,
    ) -> Result<Self, CoreError> {
        let policy = registry.resolve(name)?;
        self.replacement = (name != DEFAULT_REPLACEMENT).then_some(policy);
        Ok(self)
    }

    /// The replacement policy's registry name (`lru` by default).
    pub fn replacement_name(&self) -> &str {
        self.replacement
            .as_ref()
            .map_or(DEFAULT_REPLACEMENT, |policy| policy.name())
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The indexing policy's registry name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Builds the fully configured per-level [`Simulator`]: geometry,
    /// replacement policy (the `lru` default takes the simulator's
    /// historic built-in path, byte-for-byte) and bank mapping — one
    /// [`SimTarget::Level`] for [`simulate_fanout`].
    ///
    /// # Errors
    ///
    /// Propagates configuration and policy construction errors.
    pub fn simulator(&self) -> Result<Simulator, CoreError> {
        let config = SimConfig::new(self.geometry)?.with_replacement(self.replacement.clone());
        let mapping = self.policy.build(self.geometry.banks(), self.seed)?;
        Ok(Simulator::new(config, mapping)?)
    }

    /// Builds an L1+L2 [`CacheHierarchy`] with `self` as the L1 — one
    /// [`SimTarget::Hierarchy`] for [`simulate_fanout`].
    ///
    /// # Errors
    ///
    /// Propagates construction errors from either level, including an
    /// L2 smaller than the L1.
    pub fn hierarchy(&self, l2: &PartitionedCache) -> Result<CacheHierarchy, CoreError> {
        Ok(CacheHierarchy::new(self.simulator()?, l2.simulator()?)?)
    }

    /// Runs a trace through the power-managed cache, one access at a
    /// time — the reference scalar path, and the oracle the batched
    /// [`simulate_fanout`] is held to bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction/update errors.
    pub fn simulate(
        &self,
        trace: impl IntoIterator<Item = Access>,
        update: UpdateSchedule,
    ) -> Result<SimOutcome, CoreError> {
        let mut sim = self.simulator()?;
        for access in trace {
            sim.step(access);
            if let UpdateSchedule::EveryCycles(n) = update {
                if n > 0 && sim.cycles() % n == 0 {
                    sim.update_mapping()?;
                }
            }
        }
        Ok(sim.finish())
    }
}

/// One consumer of a fanned-out trace (see [`simulate_fanout`]): a
/// single-level [`Simulator`] or an L1+L2 [`CacheHierarchy`], owned
/// until the stream ends and then [`finish`](SimTarget::finish)ed.
// Targets live for one stream each, so variant size does not matter.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SimTarget {
    /// One cache level.
    Level(Simulator),
    /// Two levels; the L2 sees the L1 miss stream.
    Hierarchy(CacheHierarchy),
}

impl SimTarget {
    /// Finishes the target: the outcome of its single level (or of its
    /// L1), plus the L2's outcome for a hierarchy.
    pub fn finish(self) -> (SimOutcome, Option<SimOutcome>) {
        match self {
            SimTarget::Level(sim) => (sim.finish(), None),
            SimTarget::Hierarchy(hier) => {
                let out = hier.finish();
                debug_assert!(out.validate().is_ok(), "{:?}", out.validate());
                (out.l1, Some(out.l2))
            }
        }
    }

    fn cycles(&self) -> u64 {
        match self {
            SimTarget::Level(sim) => sim.cycles(),
            SimTarget::Hierarchy(hier) => hier.l1().cycles(),
        }
    }

    fn step_batch(&mut self, batch: &[Access]) {
        match self {
            SimTarget::Level(sim) => sim.step_batch(batch),
            SimTarget::Hierarchy(hier) => hier.step_batch(batch),
        }
    }

    fn update_mapping(&mut self) -> Result<(), CoreError> {
        match self {
            SimTarget::Level(sim) => sim.update_mapping()?,
            SimTarget::Hierarchy(hier) => hier.update_mapping()?,
        }
        Ok(())
    }
}

/// Streams one [`TraceSource`] through every target in lockstep: each
/// chunk is pulled once and fed to all of them, so a trace that several
/// geometries need is synthesized (or decoded) once instead of once per
/// geometry. Memory stays constant: one chunk of at most
/// [`BATCH_ACCESSES`] plus the targets themselves.
///
/// Every target sees exactly the chunk sequence it would see alone, and
/// the batched path is chunking-invariant, so each outcome is
/// bitwise-identical to simulating that target by itself, and to the
/// scalar [`PartitionedCache::simulate`].
///
/// `limit` caps the number of accesses consumed (mandatory for infinite
/// synthetic sources); `None` runs the source dry. Chunks are clipped
/// at the update boundaries of every target, so updates fire on exactly
/// the cycles the scalar path would pick.
///
/// # Errors
///
/// Propagates update errors and trace decode errors, and rejects a
/// source that appends more than it was asked for.
pub fn simulate_fanout(
    source: &mut dyn TraceSource,
    targets: &mut [SimTarget],
    limit: Option<u64>,
    update: UpdateSchedule,
) -> Result<(), CoreError> {
    let period = match update {
        UpdateSchedule::EveryCycles(n) if n > 0 => Some(n),
        _ => None,
    };
    let mut buf: Vec<Access> = Vec::with_capacity(BATCH_ACCESSES);
    let mut remaining = limit;
    loop {
        let mut room = BATCH_ACCESSES as u64;
        if let Some(n) = period {
            for target in targets.iter() {
                room = room.min(n - target.cycles() % n);
            }
        }
        if let Some(rem) = remaining {
            room = room.min(rem);
        }
        if room == 0 {
            break;
        }
        buf.clear();
        let got = source.next_batch(&mut buf, room as usize)?;
        if got == 0 {
            break;
        }
        // `max` is a hard contract: an overshooting source would wrap
        // the remaining-access budget and fire mapping updates on the
        // wrong cycles, so reject it instead of trusting it.
        if got as u64 > room || got != buf.len() {
            return Err(CoreError::Report {
                message: format!(
                    "trace source violated next_batch contract: \
                     appended {got} accesses (buffer {}) for max {room}",
                    buf.len()
                ),
            });
        }
        for target in targets.iter_mut() {
            target.step_batch(&buf);
            if let Some(n) = period {
                if target.cycles() % n == 0 {
                    target.update_mapping()?;
                }
            }
        }
        if let Some(rem) = &mut remaining {
            *rem -= got as u64;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_synth::suite;

    fn arch(policy: &str) -> PartitionedCache {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).unwrap();
        PartitionedCache::new(geom, policy, PolicyRegistry::global()).unwrap()
    }

    #[test]
    fn rejects_monolithic_geometry() {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 1).unwrap();
        assert!(PartitionedCache::new(geom, "identity", PolicyRegistry::global()).is_err());
    }

    #[test]
    fn miss_rate_identical_across_policies_without_updates() {
        // Between updates every policy is a fixed bijection, so hit/miss
        // behaviour must be identical (paper: no miss-rate degradation).
        let profile = suite::by_name("dijkstra").unwrap();
        let mut rates = Vec::new();
        for policy in ["identity", "probing", "scrambling"] {
            let out = arch(policy)
                .simulate(profile.trace(3).take(100_000), UpdateSchedule::Never)
                .unwrap();
            out.validate().unwrap();
            rates.push(out.miss_rate());
        }
        assert_eq!(rates[0], rates[1]);
        assert_eq!(rates[0], rates[2]);
    }

    #[test]
    fn frequent_updates_cost_bounded_misses() {
        let profile = suite::by_name("CRC32").unwrap();
        let baseline = arch("probing")
            .simulate(profile.trace(3).take(100_000), UpdateSchedule::Never)
            .unwrap();
        let updated = arch("probing")
            .simulate(
                profile.trace(3).take(100_000),
                UpdateSchedule::EveryCycles(10_000),
            )
            .unwrap();
        assert_eq!(updated.updates, 10);
        // Each update costs at most one refill of the cache's live lines.
        let max_extra = updated.updates * baseline.per_bank.len() as u64 * 256;
        assert!(updated.misses <= baseline.misses + max_extra);
        assert!(
            updated.misses > baseline.misses,
            "flushes must cost something on a cache-resident workload"
        );
    }
}
