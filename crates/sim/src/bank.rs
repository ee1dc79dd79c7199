//! Per-bank power-state machine.
//!
//! Mirrors the paper's Block Control (§III-A1): each bank has a saturating
//! counter that increments on every cycle the bank is *not* accessed and
//! resets on access. When the counter saturates at the breakeven time, the
//! bank's select signal flips the Block Selector to the low-power rail.
//! An access to a sleeping bank wakes it (with an energy penalty counted
//! by the simulator driver).

/// Power state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankState {
    /// Full rail; the bank can be accessed.
    Active,
    /// Voltage-scaled retention state (or gated, per the energy model).
    Drowsy,
}

/// The Block Control state for all `M` banks. [`BankPower::cycle`]
/// sweeps every bank every cycle: it is the scalar `Simulator::step`
/// path and the oracle for [`IdleEvents`](crate::IdleEvents), the
/// `O(1)`-per-access form every other user takes.
///
/// # Examples
///
/// ```
/// use cache_sim::{BankPower, BankState};
///
/// let mut ctl = BankPower::new(2, 4); // 2 banks, breakeven = 4 cycles
/// // Touch bank 0 repeatedly; bank 1 goes drowsy after 4 idle cycles.
/// for _ in 0..6 {
///     ctl.cycle(Some(0));
/// }
/// assert_eq!(ctl.state(0), BankState::Active);
/// assert_eq!(ctl.state(1), BankState::Drowsy);
/// // Touching bank 1 wakes it (and reports the wake for energy accounting).
/// let wake = ctl.cycle(Some(1));
/// assert!(wake.woke_bank == Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BankPower {
    // Crate-visible so `IdleEvents` can load and store them.
    pub(crate) breakeven: u32,
    pub(crate) counters: Vec<u32>,
    pub(crate) states: Vec<BankState>,
    pub(crate) sleep_cycles: Vec<u64>,
    pub(crate) wakes: Vec<u64>,
    pub(crate) cycles: u64,
}

/// What happened during one [`BankPower::cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleEvents {
    /// A sleeping bank was accessed and had to wake this cycle.
    pub woke_bank: Option<u32>,
    /// Number of banks that *entered* the drowsy state this cycle.
    pub newly_drowsy: u32,
}

impl BankPower {
    /// Creates the controller for `banks` banks with the given breakeven
    /// time in cycles (counter saturation point).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `breakeven` is zero.
    pub fn new(banks: u32, breakeven: u32) -> Self {
        assert!(banks > 0, "at least one bank");
        assert!(breakeven > 0, "breakeven must be positive");
        Self {
            breakeven,
            counters: vec![0; banks as usize],
            states: vec![BankState::Active; banks as usize],
            sleep_cycles: vec![0; banks as usize],
            wakes: vec![0; banks as usize],
            cycles: 0,
        }
    }

    /// The breakeven time in cycles.
    pub fn breakeven(&self) -> u32 {
        self.breakeven
    }

    /// Number of banks managed.
    pub fn banks(&self) -> u32 {
        self.states.len() as u32
    }

    /// Current state of `bank`.
    pub fn state(&self, bank: u32) -> BankState {
        self.states[bank as usize]
    }

    /// Total cycles `bank` has spent in the drowsy state so far.
    pub fn sleep_cycles(&self, bank: u32) -> u64 {
        self.sleep_cycles[bank as usize]
    }

    /// Number of wake-ups `bank` has paid so far.
    pub fn wakes(&self, bank: u32) -> u64 {
        self.wakes[bank as usize]
    }

    /// Total cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advances one clock cycle in which `accessed` (if any) is the bank
    /// being accessed.
    ///
    /// Semantics per the paper:
    /// * the accessed bank resets its counter; if it was drowsy it wakes
    ///   *this* cycle (reported in the result for the wake-energy charge);
    /// * every other bank increments its saturating counter; a bank whose
    ///   counter reaches the breakeven value enters the drowsy state and
    ///   starts accumulating sleep cycles immediately.
    pub fn cycle(&mut self, accessed: Option<u32>) -> CycleEvents {
        self.cycles += 1;
        let mut ev = CycleEvents::default();
        for b in 0..self.states.len() {
            if accessed == Some(b as u32) {
                if self.states[b] == BankState::Drowsy {
                    self.states[b] = BankState::Active;
                    self.wakes[b] += 1;
                    ev.woke_bank = Some(b as u32);
                }
                self.counters[b] = 0;
            } else {
                if self.counters[b] < self.breakeven {
                    self.counters[b] += 1;
                    if self.counters[b] == self.breakeven && self.states[b] == BankState::Active {
                        self.states[b] = BankState::Drowsy;
                        ev.newly_drowsy += 1;
                    }
                }
                if self.states[b] == BankState::Drowsy {
                    self.sleep_cycles[b] += 1;
                }
            }
        }
        ev
    }

    /// Fraction of elapsed time `bank` spent asleep.
    pub fn sleep_fraction(&self, bank: u32) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.sleep_cycles[bank as usize] as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_sleeps_after_breakeven_idle_cycles() {
        let mut ctl = BankPower::new(1, 5);
        for i in 0..5 {
            assert_eq!(ctl.state(0), BankState::Active, "cycle {i}");
            ctl.cycle(None);
        }
        assert_eq!(ctl.state(0), BankState::Drowsy);
        // Sleep started the cycle the counter saturated.
        assert_eq!(ctl.sleep_cycles(0), 1);
    }

    #[test]
    fn access_resets_counter_and_prevents_sleep() {
        let mut ctl = BankPower::new(1, 4);
        for _ in 0..10 {
            ctl.cycle(None);
            ctl.cycle(None);
            ctl.cycle(Some(0)); // keeps resetting before saturation
        }
        assert_eq!(ctl.state(0), BankState::Active);
        assert_eq!(ctl.sleep_cycles(0), 0);
        assert_eq!(ctl.wakes(0), 0);
    }

    #[test]
    fn wake_event_reported_once() {
        let mut ctl = BankPower::new(2, 2);
        ctl.cycle(Some(0));
        ctl.cycle(Some(0));
        ctl.cycle(Some(0));
        assert_eq!(ctl.state(1), BankState::Drowsy);
        let ev = ctl.cycle(Some(1));
        assert_eq!(ev.woke_bank, Some(1));
        assert_eq!(ctl.wakes(1), 1);
        let ev = ctl.cycle(Some(1));
        assert_eq!(ev.woke_bank, None, "already awake");
    }

    #[test]
    fn sleep_accounting_matches_interval_arithmetic() {
        // One access, then N idle cycles: sleep = N - (BE - 1).
        let be = 6u32;
        let idle = 40u64;
        let mut ctl = BankPower::new(1, be);
        ctl.cycle(Some(0));
        for _ in 0..idle {
            ctl.cycle(None);
        }
        assert_eq!(ctl.sleep_cycles(0), idle - (be as u64 - 1));
    }

    #[test]
    fn sleep_fraction_bounds() {
        let mut ctl = BankPower::new(4, 3);
        for i in 0..1000u64 {
            ctl.cycle(Some((i % 2) as u32));
        }
        for b in 0..4 {
            let f = ctl.sleep_fraction(b);
            assert!((0.0..=1.0).contains(&f));
        }
        // Banks 0 and 1 always re-touched; banks 2,3 asleep almost always.
        assert_eq!(ctl.sleep_fraction(0), 0.0);
        assert!(ctl.sleep_fraction(2) > 0.95);
    }

    #[test]
    #[should_panic(expected = "breakeven")]
    fn zero_breakeven_panics() {
        let _ = BankPower::new(1, 0);
    }
}
