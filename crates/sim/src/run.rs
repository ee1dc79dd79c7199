//! The simulation driver: trace in, [`SimOutcome`] out.

use crate::bank::{BankPower, BankState};
use crate::cache::{AccessKind, AccessResult, CacheArray};
use crate::error::SimError;
use crate::geometry::CacheGeometry;
use crate::idle::{IdleEvents, IdleTracker};
use crate::mapping::{is_bijective, BankMapping};
use crate::replacement::ReplacementPolicy;
use crate::stats::{BankStats, SimOutcome};
use sram_power::{BreakevenAnalysis, EnergyLedger, EnergyModel, PartitionOverhead, Technology};
use std::sync::Arc;

/// One trace element: an address plus read/write kind, one per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
}

impl Access {
    /// A read access.
    pub fn read(addr: u64) -> Self {
        Self {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A write access.
    pub fn write(addr: u64) -> Self {
        Self {
            addr,
            kind: AccessKind::Write,
        }
    }
}

/// A geometry's address split as shifts and masks, computed once per
/// simulator: the same fields as the [`CacheGeometry`] accessors.
#[derive(Debug, Clone, Copy)]
struct AddressSplit {
    offset: u32,
    set_mask: u64,
    tag_shift: u32,
    /// Position of the bank-select bits (the index MSBs) in a set.
    bank_shift: u32,
    slot_mask: u64,
}

impl AddressSplit {
    fn new(geom: &CacheGeometry) -> Self {
        Self {
            offset: geom.offset_bits(),
            set_mask: geom.sets() - 1,
            tag_shift: geom.offset_bits() + geom.index_bits(),
            bank_shift: geom.index_bits() - geom.bank_bits(),
            slot_mask: geom.sets_per_bank() - 1,
        }
    }
}

/// The active-bank count at the end of cycle `now`, given each bank's
/// last-access cycle, and the earliest later cycle at which an active
/// bank drowses (`u64::MAX` if none is active).
fn drowse_watermark(last: impl Iterator<Item = u64>, breakeven: u64, now: u64) -> (u32, u64) {
    let mut active = 0;
    let mut next = u64::MAX;
    for l in last {
        let due = l + breakeven;
        if due > now {
            active += 1;
            next = next.min(due);
        }
    }
    (active, next)
}

/// Everything a [`Simulator`] needs besides the mapping policy.
#[derive(Clone)]
pub struct SimConfig {
    geometry: CacheGeometry,
    energy: EnergyModel,
    overhead: PartitionOverhead,
    breakeven: BreakevenAnalysis,
    replacement: Option<Arc<dyn ReplacementPolicy>>,
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("geometry", &self.geometry)
            .field("energy", &self.energy)
            .field("overhead", &self.overhead)
            .field("breakeven", &self.breakeven)
            .field(
                "replacement",
                &self.replacement.as_deref().map_or("lru", |p| p.name()),
            )
            .finish()
    }
}

impl SimConfig {
    /// Builds a configuration with the default 45 nm technology; the
    /// breakeven time is derived from the bank's wake energy and leakage.
    ///
    /// # Errors
    ///
    /// Propagates power-model errors (e.g. more banks than the overhead
    /// characterization supports).
    pub fn new(geometry: CacheGeometry) -> Result<Self, SimError> {
        Self::with_technology(geometry, Technology::default_45nm())
    }

    /// Builds a configuration with an explicit technology.
    ///
    /// # Errors
    ///
    /// Propagates power-model errors.
    pub fn with_technology(geometry: CacheGeometry, tech: Technology) -> Result<Self, SimError> {
        let energy = EnergyModel::new(tech)?;
        let overhead = PartitionOverhead::for_banks(geometry.banks())?;
        let breakeven = BreakevenAnalysis::for_bank(&energy, &geometry.bank_array())?;
        Ok(Self {
            geometry,
            energy,
            overhead,
            breakeven,
            replacement: None,
        })
    }

    /// Overrides the derived breakeven time (for what-if studies).
    #[must_use]
    pub fn with_breakeven(mut self, breakeven: BreakevenAnalysis) -> Self {
        self.breakeven = breakeven;
        self
    }

    /// Selects a victim-selection policy for set-associative geometries
    /// (`None` restores the built-in LRU). Irrelevant when `ways == 1`.
    #[must_use]
    pub fn with_replacement(mut self, policy: Option<Arc<dyn ReplacementPolicy>>) -> Self {
        self.replacement = policy;
        self
    }

    /// The configured replacement policy (`None` = built-in LRU).
    pub fn replacement(&self) -> Option<&Arc<dyn ReplacementPolicy>> {
        self.replacement.as_ref()
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The partitioning overhead characterization.
    pub fn overhead(&self) -> &PartitionOverhead {
        &self.overhead
    }

    /// The breakeven analysis driving the Block Control.
    pub fn breakeven(&self) -> &BreakevenAnalysis {
        &self.breakeven
    }
}

/// Trace-driven simulator for a power-managed, banked cache.
///
/// Drives four coupled models per cycle: the tag array ([`CacheArray`]),
/// the Block Control power-state machine ([`BankPower`]), the idle-interval
/// tracker ([`IdleTracker`]) and the energy ledger. The batched path runs
/// the middle two in event form ([`IdleEvents`]).
///
/// # Examples
///
/// ```
/// use cache_sim::{Access, CacheGeometry, IdentityMapping, SimConfig, Simulator};
///
/// # fn main() -> Result<(), cache_sim::SimError> {
/// let geom = CacheGeometry::direct_mapped(8 * 1024, 16, 4)?;
/// let mut sim = Simulator::new(SimConfig::new(geom)?, Box::new(IdentityMapping))?;
/// for i in 0..100_000u64 {
///     sim.step(Access::read((i % 64) * 16)); // hot loop in bank 0
/// }
/// let out = sim.finish();
/// out.validate().map_err(|e| panic!("{e}")).ok();
/// assert!(out.miss_rate() < 0.01);
/// assert!(out.sleep_fraction(3) > 0.9, "untouched banks sleep");
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    config: SimConfig,
    cache: CacheArray,
    mapping: Box<dyn BankMapping>,
    power: BankPower,
    idle: IdleTracker,
    ledger: EnergyLedger,
    bank_accesses: Vec<u64>,
    hits: u64,
    misses: u64,
    writebacks: u64,
    updates: u64,
    split: AddressSplit,
    /// Logical → physical bank, refreshed whenever the mapping updates.
    lut: Vec<u32>,
    /// Per-cycle leakage indexed by the active-bank count, on both paths.
    leak_lut: Vec<f64>,
    // Pre-computed per-event energies (fJ).
    access_fj: f64,
    access_overhead_fj: f64,
    wake_fj: f64,
    leak_overhead_factor: f64,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("geometry", self.config.geometry())
            .field("mapping", &self.mapping.name())
            .field("cycles", &self.power.cycles())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator with the given configuration and bank mapping.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `mapping` is not a bijection
    /// over the configured bank count.
    pub fn new(config: SimConfig, mapping: Box<dyn BankMapping>) -> Result<Self, SimError> {
        let banks = config.geometry().banks();
        if !is_bijective(mapping.as_ref(), banks) {
            return Err(SimError::InvalidConfig {
                name: "mapping",
                reason: "bank mapping is not a bijection over the bank count",
            });
        }
        let bank_array = config.geometry().bank_array();
        let em = config.energy_model();
        let access_fj = em.access_energy_fj(&bank_array);
        let access_overhead_fj = access_fj * (config.overhead().access_energy_factor() - 1.0);
        let wake_fj = em.wake_energy_fj(&bank_array);
        let leak_active_fj = em.leak_fj_per_cycle_active(&bank_array);
        let leak_drowsy_fj = em.leak_fj_per_cycle_drowsy(&bank_array);
        let leak_overhead_factor = config.overhead().leakage_factor() - 1.0;
        let breakeven = config.breakeven().cycles();
        let cache = match config.replacement() {
            Some(policy) => CacheArray::with_replacement(*config.geometry(), Arc::clone(policy)),
            None => CacheArray::new(*config.geometry()),
        };
        let leak_lut = (0..=banks)
            .map(|active| {
                let drowsy = banks - active;
                active as f64 * leak_active_fj + drowsy as f64 * leak_drowsy_fj
            })
            .collect();
        let mut sim = Self {
            cache,
            power: BankPower::new(banks, breakeven),
            idle: IdleTracker::new(banks, breakeven),
            mapping,
            ledger: EnergyLedger::new(),
            bank_accesses: vec![0; banks as usize],
            hits: 0,
            misses: 0,
            writebacks: 0,
            updates: 0,
            split: AddressSplit::new(config.geometry()),
            lut: Vec::with_capacity(banks as usize),
            leak_lut,
            access_fj,
            access_overhead_fj,
            wake_fj,
            leak_overhead_factor,
            config,
        };
        sim.refresh_lut();
        Ok(sim)
    }

    fn refresh_lut(&mut self) {
        let banks = self.config.geometry().banks();
        self.lut.clear();
        self.lut
            .extend((0..banks).map(|l| self.mapping.map_bank(l, banks)));
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.power.cycles()
    }

    /// Executes one access (one cycle).
    pub fn step(&mut self, access: Access) -> AccessResult {
        let geom = *self.config.geometry();
        let set = geom.set_of(access.addr);
        let logical_bank = geom.bank_of_set(set);
        let physical_bank = self.mapping.map_bank(logical_bank, geom.banks());
        debug_assert!(physical_bank < geom.banks(), "mapping out of range");
        let physical_set = geom.set_from_bank_slot(physical_bank, geom.slot_in_bank(set));

        let result = self
            .cache
            .access(physical_set, geom.tag_of(access.addr), access.kind);
        if result.hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            // The refill writes the fetched line into the array: a second
            // array access. A dirty eviction additionally reads the victim
            // line out for the write-back.
            self.ledger.dynamic_fj += self.access_fj;
            self.ledger.overhead_fj += self.access_overhead_fj;
            if result.writeback {
                self.writebacks += 1;
                self.ledger.dynamic_fj += self.access_fj;
                self.ledger.overhead_fj += self.access_overhead_fj;
            }
        }
        self.bank_accesses[physical_bank as usize] += 1;

        let events = self.power.cycle(Some(physical_bank));
        if events.woke_bank.is_some() {
            self.ledger.wake_fj += self.wake_fj;
        }
        self.idle.record(Some(physical_bank));

        self.ledger.dynamic_fj += self.access_fj;
        self.ledger.overhead_fj += self.access_overhead_fj;
        self.charge_leakage();
        result
    }

    /// Executes a batch of accesses, one cycle each — the hot path.
    ///
    /// Produces **bitwise-identical** state to calling
    /// [`Simulator::step`] once per element (the `batched_equivalence`
    /// integration tests and the `props` suite enforce this), but runs
    /// one fused, allocation-free pass per access instead of the scalar
    /// path's `O(banks)` sweeps:
    ///
    /// * the address split uses shifts and masks fixed at construction,
    ///   and the virtual `map_bank` dispatch is a logical→physical bank
    ///   table refreshed only by [`Simulator::update_mapping`];
    /// * the Block Control and the idle tracker run in event form
    ///   ([`IdleEvents`], settled once per batch), and the active-bank
    ///   count for leakage is swept only when the clock reaches the
    ///   earliest cycle at which a bank can drowse;
    /// * the tag lookup is chosen once per batch: a branch-free
    ///   built-in-LRU lookup specialized for 1 or 4 ways (a tag-match
    ///   bit mask and a select tree for the victim, returning only hit
    ///   and write-back), else the general [`CacheArray::access`]
    ///   (registered policies, other widths);
    /// * the loop's state is batch-local: the energy sums, the
    ///   hit/miss/write-back counters and the tag store's clock are
    ///   locals written back once per batch, as is the `IdleEvents`,
    ///   and every array it touches is a slice taken before the loop, so
    ///   no store forces a reload of another array's header or an
    ///   accumulator;
    /// * every energy accumulator receives its terms in the scalar
    ///   path's per-cycle order.
    ///
    /// The two paths are interchangeable: scalar `step` calls may
    /// precede or follow batches on the same simulator.
    pub fn step_batch(&mut self, batch: &[Access]) {
        self.step_batch_map(batch, |_, _| {});
    }

    /// [`Simulator::step_batch`] with a per-access observer: `on_access`
    /// is called once per batch element, in batch order, with the
    /// element's index and whether it hit. This is the hook a cache
    /// *hierarchy* needs — the observer lets the caller reconstruct the
    /// exact miss stream without leaving the batched hot path.
    pub fn step_batch_map(&mut self, batch: &[Access], on_access: impl FnMut(usize, bool)) {
        self.run_batch(batch.iter().map(|&access| Some(access)), on_access);
    }

    /// [`Simulator::step_batch`] over `batch` where only the positions
    /// with `present[i]` access the cache; the others are
    /// [`Simulator::idle_cycle`]s. This is how an L2 runs the L1's miss
    /// stream on the batched path.
    pub(crate) fn step_batch_masked(&mut self, batch: &[Access], present: &[bool]) {
        let cycles = batch
            .iter()
            .zip(present)
            .map(|(&access, &present)| present.then_some(access));
        self.run_batch(cycles, |_, _| {});
    }

    /// Picks the tag-lookup kernel once for the whole batch.
    fn run_batch(
        &mut self,
        cycles: impl Iterator<Item = Option<Access>>,
        on_access: impl FnMut(usize, bool),
    ) {
        match (self.cache.is_builtin_lru(), self.config.geometry().ways()) {
            (true, 1) => self.run_cycles::<1>(cycles, on_access),
            (true, 4) => self.run_cycles::<4>(cycles, on_access),
            _ => self.run_cycles::<0>(cycles, on_access),
        }
    }

    /// The fused batched kernel: one item of `cycles` per cycle, an
    /// access or `None` for an idle cycle. `W` is the way count of the
    /// specialized built-in-LRU lookup, or 0 for the general one.
    fn run_cycles<const W: usize>(
        &mut self,
        cycles: impl Iterator<Item = Option<Access>>,
        mut on_access: impl FnMut(usize, bool),
    ) {
        let start = self.power.cycles();
        let be = u64::from(self.power.breakeven());
        // A local, so the loop keeps its fields in registers.
        let mut events = IdleEvents::load(&self.power, &self.idle, &self.bank_accesses);
        let split = self.split;
        let access_fj = self.access_fj;
        let access_overhead_fj = self.access_overhead_fj;
        let wake_fj = self.wake_fj;
        let leak_overhead_factor = self.leak_overhead_factor;
        let Self {
            cache,
            power,
            idle,
            ledger,
            bank_accesses,
            hits,
            misses,
            writebacks,
            lut,
            leak_lut,
            ..
        } = self;
        let (lut, leak_lut): (&[u32], &[f64]) = (lut, leak_lut);
        let mut store = cache.store();
        let mut energy = *ledger;
        let (mut n_hits, mut n_misses, mut n_writebacks) = (*hits, *misses, *writebacks);
        let (mut active, mut next_drowse) = drowse_watermark(events.last(), be, start);
        let mut now = start;
        for (i, cycle) in cycles.enumerate() {
            now += 1;
            if let Some(access) = cycle {
                let set = (access.addr >> split.offset) & split.set_mask;
                let bank = lut[(set >> split.bank_shift) as usize];
                let physical_set = (u64::from(bank) << split.bank_shift) | (set & split.slot_mask);
                let tag = access.addr >> split.tag_shift;
                let (hit, writeback) = if W == 0 {
                    let result = store.access(physical_set, tag, access.kind);
                    (result.hit, result.writeback)
                } else {
                    store.access_lru::<W>(physical_set, tag, access.kind)
                };
                on_access(i, hit);
                if hit {
                    n_hits += 1;
                } else {
                    n_misses += 1;
                    energy.dynamic_fj += access_fj;
                    energy.overhead_fj += access_overhead_fj;
                    if writeback {
                        n_writebacks += 1;
                        energy.dynamic_fj += access_fj;
                        energy.overhead_fj += access_overhead_fj;
                    }
                }
                if events.access(bank as usize, now) {
                    energy.wake_fj += wake_fj;
                    active += 1;
                }
                next_drowse = next_drowse.min(now + be);
                energy.dynamic_fj += access_fj;
                energy.overhead_fj += access_overhead_fj;
            }
            if now >= next_drowse {
                (active, next_drowse) = drowse_watermark(events.last(), be, now);
            }
            let leak = leak_lut[active as usize];
            energy.leakage_fj += leak;
            energy.overhead_fj += leak * leak_overhead_factor;
        }
        drop(store);
        *ledger = energy;
        (*hits, *misses, *writebacks) = (n_hits, n_misses, n_writebacks);
        events.settle(now);
        events.store(power, idle, bank_accesses);
    }

    /// Advances one cycle with no cache access (a processor stall or
    /// non-memory instruction). Leakage still accrues and idle counters
    /// still advance.
    pub fn idle_cycle(&mut self) {
        self.power.cycle(None);
        self.idle.record(None);
        self.charge_leakage();
    }

    fn charge_leakage(&mut self) {
        let banks = self.config.geometry().banks();
        let mut active = 0u32;
        for b in 0..banks {
            if self.power.state(b) == BankState::Active {
                active += 1;
            }
        }
        let leak = self.leak_lut[active as usize];
        self.ledger.leakage_fj += leak;
        self.ledger.overhead_fj += leak * self.leak_overhead_factor;
    }

    /// Flushes the cache (e.g. a context switch).
    pub fn flush(&mut self) -> u64 {
        self.cache.flush()
    }

    /// Applies one dynamic-indexing `update`: advances the mapping state
    /// and flushes the cache, as the paper ties the two together
    /// (§III-A3: "we can simply associate the update event to any cache
    /// flush occurring in the system").
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the updated mapping stops
    /// being a bijection (a buggy custom policy).
    pub fn update_mapping(&mut self) -> Result<(), SimError> {
        self.mapping.update();
        self.refresh_lut();
        if !is_bijective(self.mapping.as_ref(), self.config.geometry().banks()) {
            return Err(SimError::InvalidConfig {
                name: "mapping",
                reason: "bank mapping stopped being a bijection after update",
            });
        }
        self.cache.flush();
        self.updates += 1;
        Ok(())
    }

    /// Finishes the run and produces the outcome, including the monolithic
    /// always-on baseline for the same trace.
    pub fn finish(self) -> SimOutcome {
        let cycles = self.power.cycles();
        let accesses = self.hits + self.misses;
        let geom = self.config.geometry();
        let em = self.config.energy_model();
        let mono = geom.monolithic_array();
        // The monolithic cache sees the same hits/misses (banking with a
        // bijective mapping does not change placement conflicts), so it
        // pays the same refills and write-backs at its own access energy.
        let mono_events = accesses + self.misses + self.writebacks;
        let monolithic_baseline = EnergyLedger {
            dynamic_fj: mono_events as f64 * em.access_energy_fj(&mono),
            leakage_fj: cycles as f64 * em.leak_fj_per_cycle_active(&mono),
            wake_fj: 0.0,
            overhead_fj: 0.0,
        };
        let banks = geom.banks();
        let idle_stats = self.idle.finish();
        let per_bank = (0..banks as usize)
            .zip(idle_stats)
            .map(|(b, idle)| BankStats {
                accesses: self.bank_accesses[b],
                sleep_cycles: self.power.sleep_cycles(b as u32),
                wakes: self.power.wakes(b as u32),
                idle,
            })
            .collect();
        SimOutcome {
            cycles,
            accesses,
            hits: self.hits,
            misses: self.misses,
            flushes: self.cache.flushes(),
            writebacks: self.writebacks,
            updates: self.updates,
            breakeven_cycles: self.config.breakeven().cycles(),
            per_bank,
            energy: self.ledger,
            monolithic_baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::IdentityMapping;

    fn sim(size_kb: u64, banks: u32) -> Simulator {
        let geom = CacheGeometry::direct_mapped(size_kb * 1024, 16, banks).unwrap();
        Simulator::new(SimConfig::new(geom).unwrap(), Box::new(IdentityMapping)).unwrap()
    }

    #[test]
    fn invariants_hold_on_random_traffic() {
        let mut s = sim(16, 4);
        let mut x = 0xdeadbeefu64;
        let mut idles = 0u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.step(Access::read(x % (64 * 1024)));
            if x.is_multiple_of(5) {
                s.idle_cycle();
                idles += 1;
            }
        }
        let out = s.finish();
        out.validate().unwrap();
        assert_eq!(out.cycles, 100_000 + idles, "accesses + idle cycles");
        assert_eq!(out.accesses, 100_000);
        assert!(out.miss_rate() > 0.0);
    }

    #[test]
    fn step_batch_is_bitwise_identical_to_step() {
        // Mixed read/write traffic with conflict misses and dirty
        // evictions, alternating banks so wakes and drowses both fire.
        let mut x = 0xfeed_f00d_u64;
        let accesses: Vec<Access> = (0..60_000)
            .map(|i: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = (i / 500) % 2 * 4096 + x % (40 * 1024);
                if x.is_multiple_of(3) {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect();
        let mut scalar = sim(16, 4);
        for &a in &accesses {
            scalar.step(a);
        }
        let mut batched = sim(16, 4);
        // Ragged batch sizes, including size-1 and a scalar interlude,
        // to prove the paths are interchangeable mid-run.
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
        assert_eq!(a, b, "batched outcome must be bitwise identical");
        assert_eq!(a.energy.dynamic_fj.to_bits(), b.energy.dynamic_fj.to_bits());
        assert_eq!(a.energy.leakage_fj.to_bits(), b.energy.leakage_fj.to_bits());
        assert_eq!(
            a.energy.overhead_fj.to_bits(),
            b.energy.overhead_fj.to_bits()
        );
        assert_eq!(a.energy.wake_fj.to_bits(), b.energy.wake_fj.to_bits());
    }

    #[test]
    fn update_rejects_policy_that_breaks_bijectivity() {
        // Failure injection: a policy that is bijective at t = 0 but
        // collapses after its first update. The simulator must catch it
        // at update time rather than corrupt the cache.
        struct Degrading {
            updates: u32,
        }
        impl BankMapping for Degrading {
            fn map_bank(&self, logical: u32, _banks: u32) -> u32 {
                if self.updates == 0 {
                    logical
                } else {
                    0 // collapses every bank onto bank 0
                }
            }
            fn update(&mut self) {
                self.updates += 1;
            }

            fn name(&self) -> &'static str {
                "degrading"
            }

            // banks parameter unused in the collapse branch on purpose.
        }
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).unwrap();
        let mut s = Simulator::new(
            SimConfig::new(geom).unwrap(),
            Box::new(Degrading { updates: 0 }),
        )
        .unwrap();
        for i in 0..100u64 {
            s.step(Access::read(i * 16));
        }
        let err = s.update_mapping();
        assert!(matches!(err, Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn monolithic_power_managed_cache_still_saves_on_idle_gaps() {
        // banks = 1: no partitioning gain, but the single block can still
        // drowse through long CPU-idle stretches.
        let geom = CacheGeometry::direct_mapped(8 * 1024, 16, 1).unwrap();
        let mut s =
            Simulator::new(SimConfig::new(geom).unwrap(), Box::new(IdentityMapping)).unwrap();
        for i in 0..10_000u64 {
            s.step(Access::read((i % 64) * 16));
            if i.is_multiple_of(100) {
                for _ in 0..200 {
                    s.idle_cycle(); // long CPU stall
                }
            }
        }
        let out = s.finish();
        out.validate().unwrap();
        assert!(
            out.sleep_fraction(0) > 0.3,
            "the block drowses during stalls"
        );
        assert!(out.energy_saving() > 0.0);
        assert!(
            out.energy_saving() < 0.25,
            "without partitioning the saving is leakage-only: {}",
            out.energy_saving()
        );
    }

    #[test]
    fn hot_loop_sleeps_other_banks() {
        let mut s = sim(16, 4);
        for i in 0..50_000u64 {
            s.step(Access::read((i % 128) * 16)); // bank 0 only
        }
        let out = s.finish();
        out.validate().unwrap();
        assert!(out.sleep_fraction(0) < 0.01);
        for b in 1..4 {
            assert!(out.sleep_fraction(b) > 0.99, "bank {b} should sleep");
            assert!(out.useful_idleness(b) > 0.99);
        }
        assert!(out.energy_saving() > 0.0, "saving {}", out.energy_saving());
    }

    #[test]
    fn energy_saving_in_calibrated_range_for_reference_config() {
        // A synthetic trace with ~40 % average idleness at 16 kB / M=4
        // should land near the paper's 44 % Esav. Here: two banks busy,
        // two asleep -> ~50 % idleness -> saving in the 40-55 % range.
        let mut s = sim(16, 4);
        for i in 0..200_000u64 {
            let bank = (i / 1000) % 2; // alternate banks 0 and 1 slowly
            let addr = bank * 4096 + (i % 256) * 16;
            s.step(Access::read(addr));
        }
        let out = s.finish();
        let esav = out.energy_saving();
        assert!(
            (0.30..0.65).contains(&esav),
            "Esav at reference point should be near the paper's 0.44, got {esav}"
        );
    }

    #[test]
    fn update_flushes_and_counts() {
        let mut s = sim(8, 4);
        for i in 0..1000u64 {
            s.step(Access::read(i * 16));
        }
        s.update_mapping().unwrap();
        let out = s.finish();
        assert_eq!(out.updates, 1);
        assert_eq!(out.flushes, 1);
    }

    #[test]
    fn identity_mapping_matches_unbanked_miss_rate() {
        // Partitioning with identity mapping must not change hit/miss
        // behaviour (paper §III: "no degradation of miss rate").
        let geom1 = CacheGeometry::direct_mapped(16 * 1024, 16, 1).unwrap();
        let geom4 = CacheGeometry::direct_mapped(16 * 1024, 16, 4).unwrap();
        let mut s1 =
            Simulator::new(SimConfig::new(geom1).unwrap(), Box::new(IdentityMapping)).unwrap();
        let mut s4 =
            Simulator::new(SimConfig::new(geom4).unwrap(), Box::new(IdentityMapping)).unwrap();
        let mut x = 777u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 20) % (48 * 1024);
            let r1 = s1.step(Access::read(a));
            let r4 = s4.step(Access::read(a));
            assert_eq!(r1.hit, r4.hit, "banking must not alter hits");
        }
        let (o1, o4) = (s1.finish(), s4.finish());
        assert_eq!(o1.misses, o4.misses);
    }

    #[test]
    fn rejects_non_bijective_mapping() {
        struct Collapse;
        impl BankMapping for Collapse {
            fn map_bank(&self, _l: u32, _b: u32) -> u32 {
                0
            }
            fn update(&mut self) {}
        }
        let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4).unwrap();
        let r = Simulator::new(SimConfig::new(geom).unwrap(), Box::new(Collapse));
        assert!(matches!(r, Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn writes_hit_like_reads() {
        let mut s = sim(8, 2);
        s.step(Access::write(0x100));
        let r = s.step(Access::read(0x100));
        assert!(r.hit);
    }

    #[test]
    fn dirty_evictions_are_counted_and_charged() {
        let geom = CacheGeometry::direct_mapped(1024, 16, 2).unwrap();
        let cfg = SimConfig::new(geom).unwrap();
        let mut dirty = Simulator::new(cfg.clone(), Box::new(IdentityMapping)).unwrap();
        let mut clean = Simulator::new(cfg, Box::new(IdentityMapping)).unwrap();
        // Write a working set, then conflict-evict all of it; the
        // read-only twin evicts the same lines without write-backs.
        for round in 0..4u64 {
            for i in 0..64u64 {
                let addr = i * 16 + round * 1024;
                dirty.step(Access::write(addr));
                clean.step(Access::read(addr));
            }
        }
        let (d, c) = (dirty.finish(), clean.finish());
        d.validate().unwrap();
        assert!(
            d.writebacks > 0,
            "conflict-evicted dirty lines must write back"
        );
        assert_eq!(c.writebacks, 0);
        assert_eq!(d.misses, c.misses, "same placement conflicts");
        assert!(
            d.energy.dynamic_fj > c.energy.dynamic_fj,
            "write-backs must cost dynamic energy"
        );
        assert!(
            d.monolithic_baseline.dynamic_fj > c.monolithic_baseline.dynamic_fj,
            "the monolithic baseline pays the same write-backs"
        );
    }

    #[test]
    fn wake_stall_overhead_is_negligible() {
        // The paper's performance argument: even with phase-heavy traffic
        // waking banks, stalls are a vanishing fraction of cycles.
        let mut s = sim(16, 4);
        for i in 0..100_000u64 {
            // Alternate two banks on 2000-cycle phases.
            let bank = (i / 2000) % 2;
            s.step(Access::read(bank * 4096 + (i % 200) * 16));
        }
        let out = s.finish();
        assert!(out.total_wakes() > 0);
        let overhead = out.wake_stall_overhead(3);
        assert!(
            overhead < 0.01,
            "wake stalls should be well under 1 %: {overhead}"
        );
    }
}
