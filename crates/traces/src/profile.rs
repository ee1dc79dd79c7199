//! Workload profiles and the trace generator.

use crate::region::{Region, RegionCursor};
use crate::rng::SplitMix64;
use crate::schedule::{SlotSchedule, REF_BANKS};
use crate::source::{TraceError, TraceSource};
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
        let regions: Vec<Region> = self.regions.iter().flatten().copied().collect();
        let mut first = 0;
        let bank_regions = self.regions.each_ref().map(|rs| {
            let span = (first, rs.len() as u64);
            first += rs.len();
            span
        });
        TraceGen {
            profile: self.clone(),
            rng: SplitMix64::new(seed).derive(0x7261_6365),
            cursors: regions.iter().map(Region::cursor).collect(),
            regions,
            bank_regions,
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
/// [`Iterator::take`], or pull it in batches as a [`TraceSource`].
///
/// The schedule position, macro epoch and burst phase advance as running
/// counters rather than being re-derived from the cycle by division on
/// every access; the stream is identical to the division form
/// (`tests/stream_pin.rs` pins it).
///
/// [`TraceSource::next_batch`] emits accesses in runs: a run ends at the
/// nearest of the slot's end, the period's end, a burst edge and the
/// batch's end, so the slot weights, their sum, the burst phase and the
/// active segment are fixed inside it and the counters advance once per
/// run. [`Iterator::next`] is a run of one; both draw each access through
/// the same step, so they yield the same stream.
#[derive(Debug, Clone)]
pub struct TraceGen {
    profile: WorkloadProfile,
    rng: SplitMix64,
    /// Every bank's regions, bank-major.
    regions: Vec<Region>,
    /// One cursor per entry of `regions`.
    cursors: Vec<RegionCursor>,
    /// Per reference bank: its first index into `regions` and its
    /// region count.
    bank_regions: [(usize, u64); REF_BANKS],
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

/// What stays fixed over a run of accesses (see [`TraceGen`]).
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Accesses in the run.
    len: u64,
    /// The slot's per-bank weights and their `iter().sum()`.
    weights: [f64; REF_BANKS],
    total: f64,
    /// Whether a non-resident access may migrate to another segment:
    /// more than one segment, inside a burst.
    migrate: bool,
    active_segment: u32,
}

impl TraceGen {
    /// Cycles generated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The run starting at the current cycle, at most `max` accesses.
    fn run(&self, max: u64) -> Run {
        let p = &self.profile;
        let weights = p.schedule.slots()[self.slot_idx].weights;
        let in_burst = self.in_burst_period < p.burst_len;
        let burst_edge = if in_burst {
            p.burst_len
        } else {
            p.burst_period
        };
        Run {
            len: max
                .min(self.slot_cycles - self.in_slot)
                .min(p.schedule.period_cycles() - self.in_period)
                .min(burst_edge - self.in_burst_period),
            weights,
            total: weights.iter().sum(),
            migrate: p.segments > 1 && in_burst,
            active_segment: self.active_segment,
        }
    }

    /// Draws one access of `run`. The draw order per access is the bank,
    /// the migration coin (and target) when it applies, the region, the
    /// region's address draws, then the write coin.
    #[inline(always)]
    fn step<const MIGRATE: bool>(&mut self, run: &Run) -> Access {
        let p = &self.profile;
        let bank = self.rng.pick_weighted_summed(&run.weights, run.total);

        // Macro phase: which segment does this access target? Lingering
        // traffic to the inactive segment comes in *bursts* (real programs
        // touch cold data in clusters — a stack spill, a table refresh),
        // which preserves long idle gaps on the inactive segment's banks.
        // Resident data (stack/globals) lives in segment 0 for good.
        let resident = bank == p.resident_bank;
        let mut segment = if resident { 0 } else { run.active_segment };
        if MIGRATE && !resident && self.rng.next_bool(self.burst_prob) {
            let other = self.rng.next_below(p.segments as u64 - 1) as u32;
            segment = (run.active_segment + 1 + other) % p.segments;
        }

        let (first, count) = self.bank_regions[bank];
        let base_addr = if count == 2 {
            // A pair: both regions' outcomes come from the same peeked
            // draws and the drawn one commits, so the random region index
            // selects values instead of steering a branch.
            let second = self.rng.next_below(2) == 1;
            let (c0, c1) = (self.cursors[first], self.cursors[first + 1]);
            let (a0, n0, d0) = c0.peek_addr(&self.regions[first], &self.rng);
            let (a1, n1, d1) = c1.peek_addr(&self.regions[first + 1], &self.rng);
            self.cursors[first] = if second { c0 } else { n0 };
            self.cursors[first + 1] = if second { n1 } else { c1 };
            self.rng.skip(if second { d1 } else { d0 });
            if second {
                a1
            } else {
                a0
            }
        } else {
            // One region, or (custom profiles only) more than two.
            let idx = first
                + if count > 1 {
                    self.rng.next_below(count) as usize
                } else {
                    0
                };
            self.cursors[idx].next_addr(&self.regions[idx], &mut self.rng)
        };
        let addr = base_addr + segment as u64 * p.segment_stride;

        let kind = if self.rng.next_bool(p.write_ratio) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        Access { addr, kind }
    }

    /// Moves every position counter on by `n` cycles, the length of a
    /// run, which never crosses a slot, period or burst edge.
    fn advance(&mut self, n: u64) {
        let p = &self.profile;
        self.cycle += n;
        self.in_burst_period += n;
        if self.in_burst_period == p.burst_period {
            self.in_burst_period = 0;
        }
        self.in_period += n;
        if self.in_period == p.schedule.period_cycles() {
            self.in_period = 0;
            self.slot_idx = 0;
            self.in_slot = 0;
            self.active_segment += 1;
            if self.active_segment == p.segments {
                self.active_segment = 0;
            }
        } else {
            self.in_slot += n;
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
        let run = self.run(1);
        let access = if run.migrate {
            self.step::<true>(&run)
        } else {
            self.step::<false>(&run)
        };
        self.advance(1);
        Some(access)
    }
}

impl TraceSource for TraceGen {
    /// Appends exactly `max` accesses: the generator never runs dry.
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        let mut left = max as u64;
        while left > 0 {
            let run = self.run(left);
            let len = run.len as usize;
            if run.migrate {
                buf.extend((0..len).map(|_| self.step::<true>(&run)));
            } else {
                buf.extend((0..len).map(|_| self.step::<false>(&run)));
            }
            self.advance(run.len);
            left -= run.len;
        }
        Ok(max)
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
