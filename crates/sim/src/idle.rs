//! Idle-interval tracking and the paper's *useful idleness* metric.
//!
//! "We define a compact metric to measure the energy saving potential,
//! i.e., the useful idleness of a block. This is defined as the percentage
//! of idle intervals of a block that are longer than its breakeven time."
//! (§III-A2, time-weighted as in Table I.)

/// Number of power-of-two histogram buckets (intervals up to 2³¹ cycles).
const BUCKETS: usize = 32;

/// Aggregated idle-interval statistics for one bank.
#[derive(Debug, Clone, PartialEq)]
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
    fn new() -> Self {
        Self {
            idle_cycles: 0,
            long_idle_cycles: 0,
            intervals: 0,
            long_intervals: 0,
            histogram: [0; BUCKETS],
        }
    }

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
            stats: (0..banks).map(|_| IdleStats::new()).collect(),
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
                    Self::close(&mut self.stats[b], run, self.breakeven);
                    self.open_run[b] = 0;
                }
            } else {
                self.open_run[b] += 1;
            }
        }
    }

    /// Closes an idle interval of `run` cycles; `run == 0` (an access
    /// right after an access) closes nothing.
    fn close(stats: &mut IdleStats, run: u64, breakeven: u32) {
        stats.intervals += u64::from(run > 0);
        stats.idle_cycles += run;
        Self::close_bucket(stats, run);
        Self::close_long(stats, run, breakeven);
    }

    /// Batched-kernel hook, paid on every access: counts a closed
    /// interval of `run` cycles (none if `run == 0`) in its histogram
    /// bucket. The kernel leaves `intervals` and `idle_cycles` to
    /// [`IdleTracker::settle`], which derives them. Branch-free, because
    /// whether a bank's run is empty is as random as the trace's bank
    /// sequence.
    pub(crate) fn close_bucket(stats: &mut IdleStats, run: u64) {
        let bucket = (63 - (run | 1).leading_zeros()) as usize;
        stats.histogram[bucket.min(BUCKETS - 1)] += u64::from(run > 0);
    }

    /// Batched-kernel hook: counts `run` as a long interval if it is
    /// longer than the breakeven time. Only a run of at least the
    /// breakeven time can be, and exactly those wake their bank, so the
    /// kernel pays this only on a wake.
    pub(crate) fn close_long(stats: &mut IdleStats, run: u64, breakeven: u32) {
        let long = u64::from(run > u64::from(breakeven));
        stats.long_intervals += long;
        stats.long_idle_cycles += run * long;
    }

    /// Batched-kernel hook: writes each bank's last-access cycle into
    /// `last` (0 for a bank not accessed yet).
    pub(crate) fn last_access(&self, last: &mut Vec<u64>) {
        last.clear();
        last.extend(self.open_run.iter().map(|&run| self.cycles - run));
    }

    /// Batched-kernel hook: every bank's statistics and the breakeven
    /// time, for the kernel to close intervals in as an access after
    /// them would in [`IdleTracker::record`].
    pub(crate) fn stats_mut(&mut self) -> (&mut [IdleStats], u32) {
        (&mut self.stats, self.breakeven)
    }

    /// Batched-kernel hook: settles the tracker at cycle `now` from each
    /// bank's last-access cycle and total access count, and derives the
    /// counts the kernel does not keep per access. Every closed interval
    /// sits in one histogram bucket, and every cycle up to a bank's last
    /// access is either an access to it or part of a closed interval.
    pub(crate) fn settle(&mut self, now: u64, last: &[u64], accesses: &[u64]) {
        for (((open, stats), &l), &n) in self
            .open_run
            .iter_mut()
            .zip(&mut self.stats)
            .zip(last)
            .zip(accesses)
        {
            *open = now - l;
            stats.intervals = stats.histogram.iter().sum();
            stats.idle_cycles = l - n;
        }
        self.cycles = now;
    }

    /// Closes all open intervals and returns the per-bank statistics.
    pub fn finish(mut self) -> Vec<IdleStats> {
        for b in 0..self.open_run.len() {
            let run = self.open_run[b];
            if run > 0 {
                Self::close(&mut self.stats[b], run, self.breakeven);
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
