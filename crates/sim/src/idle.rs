//! Idle-interval tracking and the paper's *useful idleness* metric.
//!
//! "We define a compact metric to measure the energy saving potential,
//! i.e., the useful idleness of a block. This is defined as the percentage
//! of idle intervals of a block that are longer than its breakeven time."
//! (§III-A2, time-weighted as in Table I.)

use crate::bank::{BankPower, BankState};
use crate::stats::BankStats;

/// Number of power-of-two histogram buckets (intervals up to 2³¹ cycles).
const BUCKETS: usize = 32;

/// Aggregated idle-interval statistics for one bank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdleStats {
    /// Total cycles spent idle (in any interval).
    pub idle_cycles: u64,
    /// Cycles spent in intervals strictly longer than the breakeven time.
    pub long_idle_cycles: u64,
    /// Number of completed idle intervals.
    pub intervals: u64,
    /// Number of completed intervals longer than the breakeven time.
    pub long_intervals: u64,
    /// Histogram of interval lengths by floor(log2(len)).
    pub histogram: [u64; BUCKETS],
}

impl IdleStats {
    /// Longest completed interval bucket (log2), if any interval completed.
    pub fn max_bucket(&self) -> Option<usize> {
        self.histogram.iter().rposition(|&c| c > 0)
    }
}

/// Tracks per-bank idle intervals over a simulation.
///
/// An *idle interval* of a bank is a maximal run of cycles in which the
/// bank is not accessed. Intervals longer than the breakeven time are
/// "useful": the Block Control can profitably sleep the bank through them.
///
/// [`IdleTracker::record`] sweeps every bank every cycle: with
/// [`BankPower::cycle`], it is the scalar `Simulator::step` path and the
/// oracle for [`IdleEvents`], the form every other user takes.
///
/// # Examples
///
/// ```
/// use cache_sim::IdleTracker;
///
/// let mut t = IdleTracker::new(2, 4); // 2 banks, breakeven 4
/// t.record(Some(0)); // cycle 0: bank 0 accessed, bank 1 idle
/// for _ in 0..9 { t.record(Some(0)); }
/// t.record(Some(1)); // bank 1's 10-cycle idle interval closes
/// let stats = t.finish();
/// assert_eq!(stats[1].intervals, 1);
/// assert_eq!(stats[1].long_intervals, 1);
/// assert_eq!(stats[1].idle_cycles, 10);
/// ```
#[derive(Debug, Clone)]
pub struct IdleTracker {
    breakeven: u32,
    /// Length of the currently open idle run per bank.
    open_run: Vec<u64>,
    stats: Vec<IdleStats>,
    cycles: u64,
}

impl IdleTracker {
    /// Creates a tracker for `banks` banks with the given breakeven time.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: u32, breakeven: u32) -> Self {
        assert!(banks > 0, "at least one bank");
        Self {
            breakeven,
            open_run: vec![0; banks as usize],
            stats: vec![IdleStats::default(); banks as usize],
            cycles: 0,
        }
    }

    /// Total cycles observed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Records one cycle in which `accessed` (if any) is the accessed bank.
    pub fn record(&mut self, accessed: Option<u32>) {
        self.cycles += 1;
        for b in 0..self.open_run.len() {
            if accessed == Some(b as u32) {
                let run = self.open_run[b];
                if run > 0 {
                    close(&mut self.stats[b], run, self.breakeven);
                    self.open_run[b] = 0;
                }
            } else {
                self.open_run[b] += 1;
            }
        }
    }

    /// Closes all open intervals and returns the per-bank statistics.
    pub fn finish(mut self) -> Vec<IdleStats> {
        for b in 0..self.open_run.len() {
            let run = self.open_run[b];
            if run > 0 {
                close(&mut self.stats[b], run, self.breakeven);
            }
        }
        self.stats
    }

    /// The useful idleness of `bank` so far: the time-weighted fraction of
    /// cycles in completed idle intervals longer than the breakeven time.
    pub fn useful_idleness(&self, bank: u32) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.stats[bank as usize].long_idle_cycles as f64 / self.cycles as f64
    }
}

/// The histogram bucket of an idle run of `run > 0` cycles.
fn bucket(run: u64) -> usize {
    ((63 - run.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Closes an idle interval of `run > 0` cycles.
fn close(stats: &mut IdleStats, run: u64, breakeven: u32) {
    stats.intervals += 1;
    stats.idle_cycles += run;
    stats.histogram[bucket(run)] += 1;
    if run > u64::from(breakeven) {
        stats.long_intervals += 1;
        stats.long_idle_cycles += run;
    }
}

/// The idle-and-sleep rule in event form, over any number of units: what
/// [`BankPower::cycle`] and [`IdleTracker::record`] compute by sweeping
/// every unit every cycle, computed per access for the accessed unit.
///
/// An access at cycle `now` closes the unit's idle run since its last
/// access (cycle 0 before its first). A run of at least the breakeven
/// time left the unit drowsy: the access wakes it and credits the run's
/// `run + 1 - breakeven` drowsy cycles, less those a
/// [`settle`](IdleEvents::settle) already credited. A settle brings
/// every unit to a cycle in one pass, so accounting costs
/// O(accesses + units).
///
/// Its users are the batched [`Simulator`](crate::Simulator) kernel
/// (units are banks) and the line-level study (units are cache lines).
///
/// # Examples
///
/// ```
/// use cache_sim::IdleEvents;
///
/// let mut events = IdleEvents::new(2, 4); // 2 units, breakeven 4
/// events.access(0, 1);
/// assert!(events.access(0, 10)); // an 8-cycle run, drowsy from cycle 5
/// let units = events.finish(12);
/// assert_eq!((units[0].sleep_cycles, units[0].wakes), (5, 1));
/// // Unit 1 was never accessed: one open 12-cycle run, drowsy from 4.
/// assert_eq!((units[1].sleep_cycles, units[1].idle.idle_cycles), (9, 12));
/// ```
#[derive(Debug, Clone)]
pub struct IdleEvents {
    breakeven: u32,
    /// The cycle up to which every open run's drowsy cycles are credited.
    settled: u64,
    units: Vec<Unit>,
}

/// One unit: its last-access cycle and its totals, whose `idle` keeps
/// only the histogram and the long-interval counts between settles.
#[derive(Debug, Clone, Default)]
struct Unit {
    last: u64,
    totals: BankStats,
}

impl IdleEvents {
    /// Creates the rule for `units` units with the given breakeven time,
    /// settled at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `units` or `breakeven` is zero.
    pub fn new(units: u32, breakeven: u32) -> Self {
        assert!(units > 0, "at least one unit");
        assert!(breakeven > 0, "breakeven must be positive");
        Self {
            breakeven,
            settled: 0,
            units: vec![Unit::default(); units as usize],
        }
    }

    /// `unit` is accessed at cycle `now`, after its last access and the
    /// last settle. Returns whether the access woke it.
    #[inline]
    pub fn access(&mut self, unit: usize, now: u64) -> bool {
        let be = u64::from(self.breakeven);
        let Unit { last, totals: u } = &mut self.units[unit];
        let run = now - 1 - *last;
        // Branch-free: whether a run is empty is as random as the trace.
        u.idle.histogram[bucket(run | 1)] += u64::from(run > 0);
        u.accesses += 1;
        let woke = run >= be;
        if woke {
            if run > be {
                u.idle.long_intervals += 1;
                u.idle.long_idle_cycles += run;
            }
            u.wakes += 1;
            u.sleep_cycles += now - (*last + be).max(self.settled + 1);
        }
        *last = now;
        woke
    }

    /// Brings every unit to cycle `now`: credits each open run's drowsy
    /// cycles so far, and derives the interval count (one histogram entry
    /// each) and idle cycles (the cycles up to the last access that were
    /// not accesses).
    pub fn settle(&mut self, now: u64) {
        let be = u64::from(self.breakeven);
        for Unit { last, totals: u } in &mut self.units {
            u.sleep_cycles += (now + 1).saturating_sub((*last + be).max(self.settled + 1));
            u.idle.intervals = u.idle.histogram.iter().sum();
            u.idle.idle_cycles = *last - u.accesses;
        }
        self.settled = now;
    }

    /// Settles at cycle `now`, closes the open runs there as
    /// [`IdleTracker::finish`] does, and returns every unit's totals.
    pub fn finish(mut self, now: u64) -> Vec<BankStats> {
        self.settle(now);
        let close_at = |Unit { last, mut totals }: Unit| {
            if now > last {
                close(&mut totals.idle, now - last, self.breakeven);
            }
            totals
        };
        self.units.into_iter().map(close_at).collect()
    }

    /// Each unit's last-access cycle.
    pub(crate) fn last(&self) -> impl Iterator<Item = u64> + '_ {
        self.units.iter().map(|u| u.last)
    }

    /// The state the per-cycle pair and the per-unit access counts have
    /// reached, settled at their cycle.
    pub(crate) fn load(power: &BankPower, idle: &IdleTracker, accesses: &[u64]) -> Self {
        let units = (0..accesses.len()).map(|b| Unit {
            last: idle.cycles - idle.open_run[b],
            totals: BankStats {
                accesses: accesses[b],
                sleep_cycles: power.sleep_cycles[b],
                wakes: power.wakes[b],
                idle: idle.stats[b].clone(),
            },
        });
        Self {
            breakeven: idle.breakeven,
            settled: idle.cycles,
            units: units.collect(),
        }
    }

    /// Stores the settled state back as the per-cycle pair would hold
    /// it: a unit's counter is its open run capped at the breakeven
    /// time, and it is drowsy exactly when the cap is reached.
    pub(crate) fn store(self, power: &mut BankPower, idle: &mut IdleTracker, accesses: &mut [u64]) {
        let now = self.settled;
        for (b, Unit { last, totals: u }) in self.units.into_iter().enumerate() {
            let run = now - last;
            let drowsy = run >= u64::from(self.breakeven);
            power.counters[b] = if drowsy { self.breakeven } else { run as u32 };
            power.states[b] = if drowsy {
                BankState::Drowsy
            } else {
                BankState::Active
            };
            (power.sleep_cycles[b], power.wakes[b]) = (u.sleep_cycles, u.wakes);
            (idle.open_run[b], idle.stats[b]) = (run, u.idle);
            accesses[b] = u.accesses;
        }
        (power.cycles, idle.cycles) = (now, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_bookkeeping_is_exact() {
        let mut t = IdleTracker::new(1, 3);
        // Pattern: A..A....A (idle runs of 2 and 4)
        t.record(Some(0));
        t.record(None);
        t.record(None);
        t.record(Some(0));
        for _ in 0..4 {
            t.record(None);
        }
        t.record(Some(0));
        let s = t.finish();
        assert_eq!(s[0].intervals, 2);
        assert_eq!(s[0].idle_cycles, 6);
        assert_eq!(s[0].long_intervals, 1, "only the 4-run beats breakeven 3");
        assert_eq!(s[0].long_idle_cycles, 4);
    }

    #[test]
    fn open_interval_closed_by_finish() {
        let mut t = IdleTracker::new(2, 1);
        t.record(Some(0));
        t.record(Some(0));
        t.record(Some(0));
        let s = t.finish();
        assert_eq!(s[1].intervals, 1);
        assert_eq!(s[1].idle_cycles, 3);
    }

    #[test]
    fn idle_plus_busy_equals_total() {
        let mut t = IdleTracker::new(4, 8);
        let mut touches = [0u64; 4];
        let mut x = 12345u64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = ((x >> 33) % 4) as u32;
            touches[b as usize] += 1;
            t.record(Some(b));
        }
        let cycles = t.cycles();
        for (b, s) in t.finish().iter().enumerate() {
            assert_eq!(
                s.idle_cycles + touches[b],
                cycles,
                "bank {b}: idle + busy must equal total"
            );
        }
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut t = IdleTracker::new(1, 1);
        t.record(Some(0));
        for _ in 0..5 {
            t.record(None); // run of 5 -> bucket 2
        }
        t.record(Some(0));
        let s = t.finish();
        assert_eq!(s[0].histogram[2], 1);
        assert_eq!(s[0].max_bucket(), Some(2));
    }

    #[test]
    fn boundary_interval_equal_to_breakeven_is_not_long() {
        let mut t = IdleTracker::new(1, 4);
        t.record(Some(0));
        for _ in 0..4 {
            t.record(None);
        }
        t.record(Some(0));
        let s = t.finish();
        assert_eq!(s[0].long_intervals, 0, "len == breakeven is not 'longer'");
    }

    #[test]
    fn useful_idleness_mid_run() {
        let mut t = IdleTracker::new(2, 2);
        for _ in 0..10 {
            t.record(Some(0));
        }
        // Bank 1 has an *open* 10-cycle run: not yet counted.
        assert_eq!(t.useful_idleness(1), 0.0);
        t.record(Some(1));
        assert!(t.useful_idleness(1) > 0.8);
    }
}
