//! The event form of the idle-and-sleep rule ([`IdleEvents`]) against
//! the per-cycle sweep it replaces ([`BankPower::cycle`] and
//! [`IdleTracker::record`] on every unit, every cycle), bit for bit.
//!
//! Each case draws a unit count from 1 to 1,024, a breakeven time
//! (1 included), a short trace with idle (`None`) cycles, and random
//! batch boundaries. At every boundary the event form settles and must
//! match the sweep's accesses, sleep cycles, wakes, cycle count and
//! every `IdleStats` field. The trace re-touches units exactly at, one
//! below and one past the breakeven time, and the test counts those
//! runs, never-accessed units and trailing open runs, and requires each
//! shape to have occurred.

use cache_sim::{BankPower, BankStats, IdleEvents, IdleTracker};
use quickprop::Gen;

const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 256 };

/// How often each boundary shape occurred over all cases.
#[derive(Debug, Default)]
struct Coverage {
    below_breakeven: u64,
    at_breakeven: u64,
    past_breakeven: u64,
    never_accessed: u64,
    trailing_open: u64,
}

/// The per-cycle oracle: the sweep pair plus per-unit access counts.
struct Sweep {
    power: BankPower,
    idle: IdleTracker,
    accesses: Vec<u64>,
}

impl Sweep {
    fn cycle(&mut self, accessed: Option<usize>) {
        self.power.cycle(accessed.map(|u| u as u32));
        self.idle.record(accessed.map(|u| u as u32));
        if let Some(u) = accessed {
            self.accesses[u] += 1;
        }
    }

    /// What `IdleEvents::finish` must return at the current cycle.
    fn finish(&self) -> Vec<BankStats> {
        let idle = self.idle.clone().finish();
        idle.into_iter()
            .enumerate()
            .map(|(u, idle)| BankStats {
                accesses: self.accesses[u],
                sleep_cycles: self.power.sleep_cycles(u as u32),
                wakes: self.power.wakes(u as u32),
                idle,
            })
            .collect()
    }
}

fn unit_count(g: &mut Gen) -> u32 {
    match g.u32_in(0..4) {
        0 => *g.pick(&[1, 2, 1024]),
        1 => g.u32_in(1..9),
        2 => g.u32_in(9..129),
        _ => g.u32_in(129..1025),
    }
}

/// The unit to access at cycle `now`, or `None` for an idle cycle. Half
/// the accesses re-touch the unit last accessed at a cycle that makes
/// its run one below, at or one past the breakeven time, if no access
/// to it came since.
fn pick(g: &mut Gen, history: &[Option<usize>], last: &[u64], breakeven: u64) -> Option<usize> {
    let now = history.len() as u64 + 1;
    if g.u32_in(0..4) == 0 {
        return None;
    }
    if g.u32_in(0..2) == 0 {
        let run = breakeven - 1 + g.u64_in(0..3);
        if let Some(at) = now.checked_sub(run + 1).filter(|&at| at > 0) {
            if let Some(u) = history[at as usize - 1] {
                if last[u] == at {
                    return Some(u);
                }
            }
        }
    }
    // Draw mostly from a few hot units, so runs stay short enough to
    // straddle the breakeven time.
    let hot = (last.len() as u64).min(breakeven + 2);
    Some(if g.u32_in(0..8) == 0 {
        g.usize_in(0..last.len())
    } else {
        g.u64_in(0..hot) as usize
    })
}

#[test]
fn event_rule_equals_the_per_cycle_sweep() {
    let mut seen = Coverage::default();
    quickprop::cases(CASES, |g| {
        let units = unit_count(g);
        let breakeven = *g.pick(&[1, 1, 2, 3, 4, 8, 17, 40]);
        let be = u64::from(breakeven);
        let len = g.usize_in(1..400);
        let mut sweep = Sweep {
            power: BankPower::new(units, breakeven),
            idle: IdleTracker::new(units, breakeven),
            accesses: vec![0; units as usize],
        };
        let mut events = IdleEvents::new(units, breakeven);
        let mut history = Vec::with_capacity(len);
        let mut last = vec![0u64; units as usize];
        let mut batch_left = g.usize_in(1..64);
        for now in 1..=len as u64 {
            let accessed = pick(g, &history, &last, be);
            history.push(accessed);
            sweep.cycle(accessed);
            if let Some(u) = accessed {
                let run = now - 1 - last[u];
                seen.below_breakeven += u64::from(run + 1 == be);
                seen.at_breakeven += u64::from(run == be);
                seen.past_breakeven += u64::from(run == be + 1);
                last[u] = now;
                let woke = events.access(u, now);
                assert_eq!(woke, run >= be, "unit {u} at cycle {now}");
            }
            batch_left -= 1;
            if batch_left == 0 || now == len as u64 {
                batch_left = g.usize_in(1..64);
                events.settle(now);
                assert_eq!((sweep.power.cycles(), sweep.idle.cycles()), (now, now));
                let got = events.clone().finish(now);
                for (u, (got, want)) in got.iter().zip(sweep.finish()).enumerate() {
                    assert_eq!(
                        got, &want,
                        "unit {u} of {units}, breakeven {breakeven}, cycle {now}"
                    );
                    assert_eq!(got.idle.idle_cycles + got.accesses, now);
                }
            }
        }
        let now = len as u64;
        seen.never_accessed += sweep.accesses.iter().filter(|&&n| n == 0).count() as u64;
        seen.trailing_open += last
            .iter()
            .zip(&sweep.accesses)
            .filter(|&(&l, &n)| n > 0 && now - l >= be)
            .count() as u64;
    });
    for (shape, count) in [
        ("runs one below the breakeven time", seen.below_breakeven),
        ("runs at the breakeven time", seen.at_breakeven),
        ("runs one past the breakeven time", seen.past_breakeven),
        ("units never accessed", seen.never_accessed),
        ("trailing open runs that sleep", seen.trailing_open),
    ] {
        assert!(count > 0, "no case drew {shape}: {seen:?}");
    }
}
