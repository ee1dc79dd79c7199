//! The assembled architecture: geometry + policy + simulator.

use crate::control::BlockControlSpec;
use crate::decoder::Decoder;
use crate::error::CoreError;
use crate::registry::PolicyRegistry;
use crate::replacement::ReplacementRegistry;
use crate::selector::BlockSelector;
use cache_sim::{
    Access, CacheGeometry, CacheHierarchy, HierarchyOutcome, SimConfig, SimOutcome, Simulator,
    DEFAULT_REPLACEMENT,
};
use trace_synth::{IterSource, TraceSource, BATCH_ACCESSES};

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
/// let cache = PartitionedCache::new(geom, "probing", PolicyRegistry::global().clone())?;
/// let profile = trace_synth::suite::by_name("CRC32").unwrap();
/// let out = cache.simulate(profile.trace(7).take(50_000), UpdateSchedule::Never)?;
/// assert_eq!(out.accesses, 50_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedCache {
    geometry: CacheGeometry,
    registry: PolicyRegistry,
    policy_name: String,
    replacement_name: String,
    replacement_registry: ReplacementRegistry,
    seed: u64,
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
        registry: PolicyRegistry,
    ) -> Result<Self, CoreError> {
        if geometry.banks() < 2 {
            return Err(CoreError::InvalidParameter {
                name: "banks",
                value: geometry.banks() as f64,
                expected: "at least 2 banks",
            });
        }
        if registry.get(policy_name).is_none() {
            return Err(registry.unknown(policy_name));
        }
        Ok(Self {
            geometry,
            registry,
            policy_name: policy_name.to_string(),
            replacement_name: DEFAULT_REPLACEMENT.to_string(),
            replacement_registry: ReplacementRegistry::global().clone(),
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
        registry: ReplacementRegistry,
    ) -> Result<Self, CoreError> {
        registry.resolve(name)?;
        self.replacement_name = name.to_string();
        self.replacement_registry = registry;
        Ok(self)
    }

    /// The replacement policy's registry name (`lru` by default).
    pub fn replacement_name(&self) -> &str {
        &self.replacement_name
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The indexing policy's registry name.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Builds a fresh decoder `D` for inspection or custom loops.
    ///
    /// # Errors
    ///
    /// Propagates policy/encoder construction errors.
    pub fn decoder(&self) -> Result<Decoder, CoreError> {
        Decoder::new(self.geometry, self.build_mapping()?)
    }

    fn build_mapping(&self) -> Result<Box<dyn cache_sim::BankMapping>, CoreError> {
        self.registry
            .build(&self.policy_name, self.geometry.banks(), self.seed)
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
        let mut config = SimConfig::new(self.geometry)?;
        if self.replacement_name != DEFAULT_REPLACEMENT {
            let policy = self.replacement_registry.resolve(&self.replacement_name)?;
            config = config.with_replacement(Some(policy));
        }
        Ok(Simulator::new(config, self.build_mapping()?)?)
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

    /// Sizes the Block Control for this geometry (counter widths etc.).
    ///
    /// # Errors
    ///
    /// Propagates power-model errors.
    pub fn block_control(&self) -> Result<BlockControlSpec, CoreError> {
        let cfg = SimConfig::new(self.geometry)?;
        BlockControlSpec::new(self.geometry.banks(), cfg.breakeven())
    }

    /// The Block Selector for this geometry.
    ///
    /// # Errors
    ///
    /// Propagates parameter errors.
    pub fn block_selector(&self) -> Result<BlockSelector, CoreError> {
        BlockSelector::new(self.geometry.banks())
    }

    /// Runs a trace through the power-managed cache, one access at a
    /// time — the reference scalar path.
    ///
    /// Prefer [`PartitionedCache::simulate_batched`] (same results,
    /// bitwise, measurably faster) unless you are benchmarking against
    /// it.
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

    /// Runs a trace through the batched fast path
    /// ([`Simulator::step_batch`]): bitwise-identical outcomes to
    /// [`PartitionedCache::simulate`], with per-access dispatch, power
    /// sweeps and stats updates amortized over fixed-size batches.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction/update errors.
    pub fn simulate_batched(
        &self,
        trace: impl IntoIterator<Item = Access>,
        update: UpdateSchedule,
    ) -> Result<SimOutcome, CoreError> {
        let mut source = IterSource::new(trace.into_iter());
        self.simulate_source(&mut source, None, update)
    }

    /// Streams a [`TraceSource`] through the batched fast path in
    /// constant memory: accesses are pulled in chunks of at most
    /// [`BATCH_ACCESSES`], so multi-gigabyte trace files never
    /// materialize in RAM. A one-target [`simulate_fanout`].
    ///
    /// `limit` caps the number of accesses consumed (mandatory for
    /// infinite synthetic sources); `None` runs the source dry.
    /// Batches are clipped at update-schedule boundaries, so updates
    /// fire on exactly the cycles the scalar path would pick.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction/update errors and trace
    /// decode errors ([`CoreError::Trace`]).
    pub fn simulate_source(
        &self,
        source: &mut dyn TraceSource,
        limit: Option<u64>,
        update: UpdateSchedule,
    ) -> Result<SimOutcome, CoreError> {
        let mut target = [SimTarget::Level(self.simulator()?)];
        simulate_fanout(source, &mut target, limit, update)?;
        let [target] = target;
        Ok(target.finish().0)
    }

    /// Streams a [`TraceSource`] through a two-level hierarchy built
    /// from `self` (the L1) and `l2`, on the batched fast path: the L2
    /// access stream is exactly the L1 miss stream
    /// ([`CacheHierarchy`]), and the composition is bitwise-identical
    /// to stepping the hierarchy scalar access by access. A one-target
    /// [`simulate_fanout`].
    ///
    /// Each level keeps its own policy, seed and replacement; updates
    /// fire on both levels at the same cycle boundaries.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from either level (including an
    /// L2 smaller than the L1), update errors, and trace decode errors.
    pub fn simulate_hierarchy_source(
        &self,
        l2: &PartitionedCache,
        source: &mut dyn TraceSource,
        limit: Option<u64>,
        update: UpdateSchedule,
    ) -> Result<HierarchyOutcome, CoreError> {
        let mut target = [SimTarget::Hierarchy(self.hierarchy(l2)?)];
        simulate_fanout(source, &mut target, limit, update)?;
        let [SimTarget::Hierarchy(hier)] = target else {
            unreachable!("built as a hierarchy above")
        };
        Ok(hier.finish())
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
/// bitwise-identical to simulating that target by itself. `limit` and
/// `update` behave as in [`PartitionedCache::simulate_source`]; chunks
/// are clipped at the update boundaries of every target.
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
        PartitionedCache::new(geom, policy, PolicyRegistry::global().clone()).unwrap()
    }

    #[test]
    fn rejects_monolithic_geometry() {
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 1).unwrap();
        assert!(PartitionedCache::new(geom, "identity", PolicyRegistry::global().clone()).is_err());
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

    #[test]
    fn hardware_specs_materialize() {
        let a = arch("scrambling");
        let ctl = a.block_control().unwrap();
        assert!(ctl.in_paper_regime());
        let sel = a.block_selector().unwrap();
        assert_eq!(sel.banks(), 4);
        let dec = a.decoder().unwrap();
        assert_eq!(dec.geometry().banks(), 4);
    }
}
