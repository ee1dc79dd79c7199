//! Simulation outcome statistics.

use crate::idle::IdleStats;
use sram_power::EnergyLedger;

/// Per-bank statistics of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BankStats {
    /// Accesses served by this (physical) bank.
    pub accesses: u64,
    /// Cycles spent in the drowsy state.
    pub sleep_cycles: u64,
    /// Wake-ups paid.
    pub wakes: u64,
    /// Idle-interval statistics.
    pub idle: IdleStats,
}

/// The complete result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Total simulated cycles (accesses plus explicit idle cycles).
    pub cycles: u64,
    /// Total cache accesses.
    pub accesses: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache flushes (including those triggered by mapping updates).
    pub flushes: u64,
    /// Dirty evictions that required a write-back.
    pub writebacks: u64,
    /// Dynamic-indexing updates applied during the run.
    pub updates: u64,
    /// The breakeven time used by the Block Control, in cycles.
    pub breakeven_cycles: u32,
    /// Per-bank statistics, indexed by physical bank id.
    pub per_bank: Vec<BankStats>,
    /// Energy of the partitioned, power-managed cache.
    pub energy: EnergyLedger,
    /// Energy the monolithic, always-on cache would have burned on the
    /// same trace (the paper's Esav baseline).
    pub monolithic_baseline: EnergyLedger,
}

impl SimOutcome {
    /// Miss rate over the whole run.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Useful idleness of `bank`: time-weighted fraction of cycles in idle
    /// intervals longer than the breakeven time (Table I's metric).
    pub fn useful_idleness(&self, bank: u32) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.per_bank[bank as usize].idle.long_idle_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of the run `bank` actually spent asleep (the quantity the
    /// aging model consumes; always at most the useful idleness).
    pub fn sleep_fraction(&self, bank: u32) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.per_bank[bank as usize].sleep_cycles as f64 / self.cycles as f64
        }
    }

    /// Useful idleness of every bank.
    pub fn useful_idleness_all(&self) -> Vec<f64> {
        (0..self.per_bank.len() as u32)
            .map(|b| self.useful_idleness(b))
            .collect()
    }

    /// Sleep fraction of every bank.
    pub fn sleep_fraction_all(&self) -> Vec<f64> {
        (0..self.per_bank.len() as u32)
            .map(|b| self.sleep_fraction(b))
            .collect()
    }

    /// Average useful idleness over the banks (Table I's "Average").
    pub fn avg_useful_idleness(&self) -> f64 {
        let v = self.useful_idleness_all();
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Worst-case (minimum) useful idleness over the banks — the quantity
    /// that limits lifetime without re-indexing (§III-A2).
    pub fn min_useful_idleness(&self) -> f64 {
        self.useful_idleness_all()
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Average sleep fraction over the banks.
    pub fn avg_sleep_fraction(&self) -> f64 {
        let v = self.sleep_fraction_all();
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Minimum sleep fraction over the banks.
    pub fn min_sleep_fraction(&self) -> f64 {
        self.sleep_fraction_all()
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Energy saving versus the monolithic always-on baseline (Esav).
    pub fn energy_saving(&self) -> f64 {
        self.energy.saving_vs(&self.monolithic_baseline)
    }

    /// Total bank wake-ups across the run.
    pub fn total_wakes(&self) -> u64 {
        self.per_bank.iter().map(|b| b.wakes).sum()
    }

    /// Performance overhead of drowsy wake-ups: the fraction of cycles
    /// lost to wake stalls if each wake costs `wake_latency_cycles`.
    /// The paper argues this is negligible; typical numbers here are
    /// well below 1 %.
    pub fn wake_stall_overhead(&self, wake_latency_cycles: u32) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.total_wakes() * wake_latency_cycles as u64) as f64 / self.cycles as f64
        }
    }

    /// Checks internal conservation invariants; returns a description of
    /// the first violation, if any. Exercised by tests and examples.
    pub fn validate(&self) -> Result<(), String> {
        if self.hits + self.misses != self.accesses {
            return Err(format!(
                "hits ({}) + misses ({}) != accesses ({})",
                self.hits, self.misses, self.accesses
            ));
        }
        let bank_accesses: u64 = self.per_bank.iter().map(|b| b.accesses).sum();
        if bank_accesses != self.accesses {
            return Err(format!(
                "per-bank accesses ({bank_accesses}) != total accesses ({})",
                self.accesses
            ));
        }
        for (i, b) in self.per_bank.iter().enumerate() {
            if b.idle.idle_cycles + b.accesses != self.cycles {
                return Err(format!(
                    "bank {i}: idle ({}) + busy ({}) != cycles ({})",
                    b.idle.idle_cycles, b.accesses, self.cycles
                ));
            }
            if b.sleep_cycles > b.idle.idle_cycles {
                return Err(format!(
                    "bank {i}: sleeping ({}) more than idle ({})",
                    b.sleep_cycles, b.idle.idle_cycles
                ));
            }
            if b.idle.long_idle_cycles > b.idle.idle_cycles {
                return Err(format!("bank {i}: long idle exceeds idle"));
            }
        }
        if self.energy.total_fj() < 0.0 {
            return Err("negative energy".to_string());
        }
        if self.writebacks > self.misses {
            return Err(format!(
                "writebacks ({}) exceed misses ({})",
                self.writebacks, self.misses
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(per_bank: Vec<BankStats>, cycles: u64, accesses: u64) -> SimOutcome {
        SimOutcome {
            cycles,
            accesses,
            hits: accesses,
            misses: 0,
            flushes: 0,
            writebacks: 0,
            updates: 0,
            breakeven_cycles: 8,
            per_bank,
            energy: EnergyLedger::default(),
            monolithic_baseline: EnergyLedger::default(),
        }
    }

    fn bank(accesses: u64, idle: u64, long: u64, sleep: u64) -> BankStats {
        BankStats {
            accesses,
            sleep_cycles: sleep,
            wakes: 0,
            idle: IdleStats {
                idle_cycles: idle,
                long_idle_cycles: long,
                intervals: 1,
                long_intervals: 1,
                histogram: [0; 32],
            },
        }
    }

    #[test]
    fn validate_accepts_consistent_outcome() {
        let o = outcome_with(vec![bank(60, 40, 30, 20), bank(40, 60, 50, 40)], 100, 100);
        assert!(o.validate().is_ok());
        assert!((o.useful_idleness(0) - 0.3).abs() < 1e-12);
        assert!((o.sleep_fraction(1) - 0.4).abs() < 1e-12);
        assert!((o.avg_useful_idleness() - 0.4).abs() < 1e-12);
        assert!((o.min_useful_idleness() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_busy_idle_mismatch() {
        let o = outcome_with(vec![bank(50, 40, 10, 5)], 100, 50);
        assert!(o.validate().is_err());
    }

    #[test]
    fn validate_rejects_oversleeping() {
        let o = outcome_with(vec![bank(60, 40, 40, 50)], 100, 60);
        assert!(o.validate().is_err());
    }

    #[test]
    fn miss_rate_of_empty_run_is_zero() {
        let o = outcome_with(vec![bank(0, 0, 0, 0)], 0, 0);
        assert_eq!(o.miss_rate(), 0.0);
        assert_eq!(o.useful_idleness(0), 0.0);
    }
}
