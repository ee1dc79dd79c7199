//! Workload profiles and the trace generator.

use crate::region::{Region, RegionCursor};
use crate::rng::SplitMix64;
use crate::schedule::{SlotSchedule, REF_BANKS};
use cache_sim::{Access, AccessKind};

/// A complete synthetic-workload description.
///
/// A profile owns per-reference-bank region sets, a cyclic slot schedule,
/// and macro-phase parameters: the program's footprint consists of
/// `segments` copies of a 16 kB segment laid out `segment_stride` apart,
/// visited in long alternating epochs (one schedule period each). At the
/// 16 kB reference configuration the segments alias onto the same banks,
/// so Table I calibration is unaffected; at 32 kB they occupy different
/// banks, producing the extra idleness the paper observes on larger
/// caches.
///
/// # Examples
///
/// ```
/// use trace_synth::suite;
///
/// let p = suite::by_name("dijkstra").unwrap();
/// assert_eq!(p.name(), "dijkstra");
/// let first_thousand: Vec<_> = p.trace(1).take(1000).collect();
/// assert_eq!(first_thousand.len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    name: String,
    regions: [Vec<Region>; REF_BANKS],
    schedule: SlotSchedule,
    segments: u32,
    segment_stride: u64,
    leak_through: f64,
    write_ratio: f64,
    p0: f64,
    burst_period: u64,
    burst_len: u64,
    resident_bank: usize,
}

impl WorkloadProfile {
    /// Starts a builder with sensible defaults (single segment, no
    /// lingering traffic, 25 % writes, balanced `p0`). Prefer this over
    /// [`WorkloadProfile::new`] for custom workloads.
    ///
    /// # Examples
    ///
    /// ```
    /// use trace_synth::{AccessPattern, Region, ScheduleBuilder, WorkloadProfile};
    ///
    /// let region = |b: u64| vec![Region::new(b * 4096, 1024, AccessPattern::Random)];
    /// let profile = WorkloadProfile::builder(
    ///     "mine",
    ///     [region(0), region(1), region(2), region(3)],
    ///     ScheduleBuilder::new([0.1, 0.3, 0.6, 0.9]).build(),
    /// )
    /// .write_ratio(0.4)
    /// .build();
    /// assert_eq!(profile.name(), "mine");
    /// ```
    pub fn builder(
        name: impl Into<String>,
        regions: [Vec<Region>; REF_BANKS],
        schedule: SlotSchedule,
    ) -> WorkloadProfileBuilder {
        WorkloadProfileBuilder {
            name: name.into(),
            regions,
            schedule,
            segments: 1,
            segment_stride: 16 * 1024,
            leak_through: 0.0,
            write_ratio: 0.25,
            p0: 0.5,
        }
    }

    /// Assembles a profile from all parts at once (the suite constructor;
    /// see [`WorkloadProfile::builder`] for the ergonomic path).
    ///
    /// # Panics
    ///
    /// Panics if any bank's region list is empty, `segments` is zero, or a
    /// probability parameter is outside `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        regions: [Vec<Region>; REF_BANKS],
        schedule: SlotSchedule,
        segments: u32,
        segment_stride: u64,
        leak_through: f64,
        write_ratio: f64,
        p0: f64,
    ) -> Self {
        assert!(
            regions.iter().all(|r| !r.is_empty()),
            "every reference bank needs at least one region"
        );
        assert!(segments > 0, "at least one segment");
        for (name_p, v) in [
            ("leak_through", leak_through),
            ("write_ratio", write_ratio),
            ("p0", p0),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name_p} must be in [0, 1]");
        }
        // The busiest reference bank plays the role of the program's
        // resident data (stack, globals): its traffic never migrates to
        // another segment, so on caches larger than one segment there is
        // always one bank with only slot-scale idleness — which is what
        // keeps the paper's LT0 (no re-indexing) low on big caches too.
        let resident_bank = (0..REF_BANKS)
            .max_by(|&a, &b| {
                let wa: f64 = schedule.slots().iter().map(|s| s.weights[a]).sum();
                let wb: f64 = schedule.slots().iter().map(|s| s.weights[b]).sum();
                wa.partial_cmp(&wb).expect("finite weights")
            })
            .expect("REF_BANKS > 0");
        Self {
            name: name.into(),
            regions,
            schedule,
            segments,
            segment_stride,
            leak_through,
            write_ratio,
            p0,
            burst_period: 768,
            burst_len: 96,
            resident_bank,
        }
    }

    /// The benchmark name (matches the paper's Table I rows).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns a copy with a different stored-zero probability (used by
    /// the cell-flipping ablation to model skewed data).
    ///
    /// # Panics
    ///
    /// Panics if `p0` is outside `[0, 1]`.
    #[must_use]
    pub fn with_p0(&self, p0: f64) -> Self {
        assert!((0.0..=1.0).contains(&p0), "p0 must be in [0, 1]");
        let mut c = self.clone();
        c.p0 = p0;
        c
    }

    /// The per-reference-bank regions.
    pub fn regions(&self) -> &[Vec<Region>; REF_BANKS] {
        &self.regions
    }

    /// The slot schedule.
    pub fn schedule(&self) -> &SlotSchedule {
        &self.schedule
    }

    /// Number of macro segments in the footprint.
    pub fn segments(&self) -> u32 {
        self.segments
    }

    /// Probability that the stored data is a logic '0' (consumed by the
    /// aging model; 0.5 for all paper benchmarks, adjustable for the
    /// cell-flipping ablation).
    pub fn p0(&self) -> f64 {
        self.p0
    }

    /// Total footprint in bytes (upper bound over all regions/segments).
    pub fn footprint_bytes(&self) -> u64 {
        let max_end = self
            .regions
            .iter()
            .flatten()
            .map(|r| r.base() + r.size())
            .max()
            .unwrap_or(0);
        max_end + (self.segments as u64 - 1) * self.segment_stride
    }

    /// Starts an infinite, deterministic trace for this profile.
    pub fn trace(&self, seed: u64) -> TraceGen {
        let cursors = self
            .regions
            .clone()
            .map(|rs| rs.iter().map(Region::cursor).collect::<Vec<RegionCursor>>());
        TraceGen {
            profile: self.clone(),
            rng: SplitMix64::new(seed).derive(0x7261_6365),
            cursors,
            cycle: 0,
            burst_prob: (self.leak_through * self.burst_period as f64 / self.burst_len as f64)
                .min(1.0),
            slot_cycles: self.schedule.slots()[0].cycles as u64,
            slot_idx: 0,
            in_slot: 0,
            in_period: 0,
            active_segment: 0,
            in_burst_period: 0,
        }
    }
}

/// Incremental construction of a [`WorkloadProfile`].
///
/// Created by [`WorkloadProfile::builder`]; every setter has a safe
/// default, and [`build`](WorkloadProfileBuilder::build) validates the
/// combination.
#[derive(Debug, Clone)]
pub struct WorkloadProfileBuilder {
    name: String,
    regions: [Vec<Region>; REF_BANKS],
    schedule: SlotSchedule,
    segments: u32,
    segment_stride: u64,
    leak_through: f64,
    write_ratio: f64,
    p0: f64,
}

impl WorkloadProfileBuilder {
    /// Number of macro segments in the footprint (default 1).
    #[must_use]
    pub fn segments(mut self, segments: u32) -> Self {
        self.segments = segments;
        self
    }

    /// Byte distance between macro segments (default 16 kB).
    #[must_use]
    pub fn segment_stride(mut self, stride: u64) -> Self {
        self.segment_stride = stride;
        self
    }

    /// Fraction of traffic lingering on inactive segments (default 0).
    #[must_use]
    pub fn leak_through(mut self, leak: f64) -> Self {
        self.leak_through = leak;
        self
    }

    /// Write fraction of the access stream (default 0.25).
    #[must_use]
    pub fn write_ratio(mut self, ratio: f64) -> Self {
        self.write_ratio = ratio;
        self
    }

    /// Probability of storing a logic '0' (default 0.5).
    #[must_use]
    pub fn p0(mut self, p0: f64) -> Self {
        self.p0 = p0;
        self
    }

    /// Validates and produces the profile.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`WorkloadProfile::new`].
    pub fn build(self) -> WorkloadProfile {
        WorkloadProfile::new(
            self.name,
            self.regions,
            self.schedule,
            self.segments,
            self.segment_stride,
            self.leak_through,
            self.write_ratio,
            self.p0,
        )
    }
}

/// Infinite iterator of [`Access`] items for one profile.
///
/// Produced by [`WorkloadProfile::trace`]; bound it with
/// [`Iterator::take`].
///
/// The schedule position, macro epoch and burst phase advance as running
/// counters rather than being re-derived from the cycle by division on
/// every access; the stream is identical to the division form
/// (`tests/stream_pin.rs` pins it).
#[derive(Debug, Clone)]
pub struct TraceGen {
    profile: WorkloadProfile,
    rng: SplitMix64,
    cursors: [Vec<RegionCursor>; REF_BANKS],
    cycle: u64,
    /// Per-burst-cycle probability of lingering traffic, a profile
    /// constant.
    burst_prob: f64,
    /// Length of every schedule slot.
    slot_cycles: u64,
    /// `(cycle % period) / slot_cycles`.
    slot_idx: usize,
    /// `(cycle % period) % slot_cycles`.
    in_slot: u64,
    /// `cycle % period`.
    in_period: u64,
    /// `(cycle / period) % segments`: one epoch is one schedule period.
    active_segment: u32,
    /// `cycle % burst_period`.
    in_burst_period: u64,
}

impl TraceGen {
    /// Cycles generated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Moves every position counter on by one cycle.
    fn advance(&mut self) {
        let p = &self.profile;
        self.cycle += 1;
        self.in_burst_period += 1;
        if self.in_burst_period == p.burst_period {
            self.in_burst_period = 0;
        }
        self.in_period += 1;
        if self.in_period == p.schedule.period_cycles() {
            self.in_period = 0;
            self.slot_idx = 0;
            self.in_slot = 0;
            self.active_segment += 1;
            if self.active_segment == p.segments {
                self.active_segment = 0;
            }
        } else {
            self.in_slot += 1;
            if self.in_slot == self.slot_cycles {
                self.in_slot = 0;
                self.slot_idx += 1;
            }
        }
    }
}

impl Iterator for TraceGen {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let p = &self.profile;
        let slots = p.schedule.slots();
        let slot = &slots[self.slot_idx.min(slots.len() - 1)];
        let bank = self.rng.pick_weighted(&slot.weights);

        // Macro phase: which segment does this access target? Lingering
        // traffic to the inactive segment comes in *bursts* (real programs
        // touch cold data in clusters — a stack spill, a table refresh),
        // which preserves long idle gaps on the inactive segment's banks.
        let active_segment = self.active_segment;
        let in_burst = self.in_burst_period < p.burst_len;
        let segment = if bank == p.resident_bank {
            // Resident data (stack/globals) lives in segment 0 for good.
            0
        } else if p.segments > 1 && in_burst && self.rng.next_bool(self.burst_prob) {
            let other = self.rng.next_below(p.segments as u64 - 1) as u32;
            (active_segment + 1 + other) % p.segments
        } else {
            active_segment
        };

        let regions = &p.regions[bank];
        let idx = if regions.len() > 1 {
            self.rng.next_below(regions.len() as u64) as usize
        } else {
            0
        };
        let base_addr = self.cursors[bank][idx].next_addr(&regions[idx], &mut self.rng);
        let addr = base_addr + segment as u64 * p.segment_stride;

        let kind = if self.rng.next_bool(p.write_ratio) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.advance();
        Some(Access { addr, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::QUARTER_BYTES;
    use crate::region::AccessPattern;
    use crate::schedule::ScheduleBuilder;

    fn tiny_profile() -> WorkloadProfile {
        let regions = [
            vec![Region::new(
                0,
                1024,
                AccessPattern::Sequential { stride: 16 },
            )],
            vec![Region::new(QUARTER_BYTES, 1024, AccessPattern::Random)],
            vec![Region::new(2 * QUARTER_BYTES, 1024, AccessPattern::Random)],
            vec![Region::new(3 * QUARTER_BYTES, 1024, AccessPattern::Random)],
        ];
        WorkloadProfile::new(
            "tiny",
            regions,
            ScheduleBuilder::new([0.1, 0.3, 0.6, 0.9]).build(),
            2,
            16 * 1024,
            0.1,
            0.2,
            0.5,
        )
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let p = tiny_profile();
        let a: Vec<_> = p.trace(5).take(5000).collect();
        let b: Vec<_> = p.trace(5).take(5000).collect();
        let c: Vec<_> = p.trace(6).take(5000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn addresses_fall_in_declared_regions() {
        let p = tiny_profile();
        let footprint = p.footprint_bytes();
        for acc in p.trace(1).take(20_000) {
            assert!(
                acc.addr < footprint,
                "address {} escapes footprint",
                acc.addr
            );
        }
    }

    #[test]
    fn active_bank_distribution_follows_schedule() {
        let p = tiny_profile();
        // Bank 3 idles 90 % of slots; bank 0 only 10 %.
        let mut counts = [0u64; 4];
        for acc in p.trace(2).take(200_000) {
            let quarter = ((acc.addr % (16 * 1024)) / QUARTER_BYTES) as usize;
            counts[quarter] += 1;
        }
        assert!(
            counts[0] > counts[3] * 3,
            "bank 0 should dominate bank 3: {counts:?}"
        );
    }

    #[test]
    fn write_ratio_is_respected() {
        let p = tiny_profile();
        let n = 100_000;
        let writes = p
            .trace(3)
            .take(n)
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn segments_alternate_by_epoch() {
        let p = tiny_profile();
        let period = p.schedule().period_cycles();
        let trace: Vec<_> = p.trace(4).take(2 * period as usize).collect();
        let seg_of = |addr: u64| (addr / (16 * 1024)) as u32;
        // Bank 0 is the busiest and plays the resident (stack/globals)
        // role: it stays in segment 0 forever. The *migrating* traffic
        // (other banks) must favour the epoch's segment.
        let migrating = |acc: &&cache_sim::Access| (acc.addr % (16 * 1024)) >= QUARTER_BYTES;
        let first: Vec<u32> = trace[..period as usize]
            .iter()
            .filter(migrating)
            .map(|a| seg_of(a.addr))
            .collect();
        let second: Vec<u32> = trace[period as usize..]
            .iter()
            .filter(migrating)
            .map(|a| seg_of(a.addr))
            .collect();
        let frac0_first = first.iter().filter(|&&s| s == 0).count() as f64 / first.len() as f64;
        let frac1_second = second.iter().filter(|&&s| s == 1).count() as f64 / second.len() as f64;
        assert!(
            frac0_first > 0.8,
            "epoch 0 should favour segment 0: {frac0_first}"
        );
        assert!(
            frac1_second > 0.8,
            "epoch 1 should favour segment 1: {frac1_second}"
        );
    }

    #[test]
    fn resident_bank_never_migrates() {
        let p = tiny_profile(); // bank 0 is busiest -> resident
        let period = p.schedule().period_cycles();
        for acc in p.trace(9).take(2 * period as usize) {
            let quarter = (acc.addr % (16 * 1024)) / QUARTER_BYTES;
            if quarter == 0 {
                assert!(acc.addr < 16 * 1024, "resident traffic left segment 0");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_region_list_panics() {
        let _ = WorkloadProfile::new(
            "bad",
            [vec![], vec![], vec![], vec![]],
            ScheduleBuilder::new([0.5; 4]).build(),
            1,
            0,
            0.0,
            0.0,
            0.5,
        );
    }
}
