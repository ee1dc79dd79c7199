//! The lifetime pipeline: sleep fractions → policy rotation → cache
//! lifetime.
//!
//! The paper's simulator consumes a characterization LUT keyed on
//! `(p0, Psleep)` and assumes workload stationarity over the device
//! lifetime; re-indexing then rotates which *physical* bank experiences
//! which *logical* bank's idleness, one rotation per `update` (e.g. per
//! day). This module reproduces that computation exactly:
//!
//! 1. every logical bank `l` has an effective-stress *rate* derived from
//!    its sleep fraction `S_l` (and the shared `p0`),
//! 2. on each update period the policy assigns logical banks to physical
//!    banks; each physical bank accumulates effective stress at its
//!    current tenant's rate,
//! 3. the **cache** dies when the first physical bank's accumulated
//!    stress crosses the SNM-failure threshold.
//!
//! Under the identity policy the least-idle bank takes all the stress
//! (the paper's `LT0`); under Probing/Scrambling the stress is averaged
//! and every bank dies at (nearly) the same, later time (`LT`).

use crate::error::CoreError;
use cache_sim::BankMapping;
use nbti_model::{LifetimeSolver, SleepMode, StressProfile};

/// Default update interval: one day, the paper's suggested frequency.
pub const DEFAULT_UPDATE_INTERVAL_YEARS: f64 = 1.0 / 365.25;

/// Default search horizon.
pub const DEFAULT_HORIZON_YEARS: f64 = 200.0;

/// The rotation-aware lifetime analysis.
///
/// # Examples
///
/// Policies resolve by registry name (any name in a
/// [`PolicyRegistry`](crate::registry::PolicyRegistry) works,
/// including user-registered ones):
///
/// ```
/// use aging_cache::aging::AgingAnalysis;
/// use nbti_model::{CellDesign, LifetimeSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93)?;
/// let aging = AgingAnalysis::new(solver);
/// // Very uneven idleness: bank 3 never sleeps.
/// let sleep = [0.9, 0.9, 0.9, 0.0];
/// let lt0 = aging.cache_lifetime(&sleep, 0.5, "identity", 1)?;
/// let lt = aging.cache_lifetime(&sleep, 0.5, "probing", 1)?;
/// // Without re-indexing the busy bank pins the lifetime near 2.93 y;
/// // rotation shares the idleness and buys a large extension.
/// assert!((lt0 - 2.93).abs() < 0.05);
/// assert!(lt > 1.4 * lt0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AgingAnalysis {
    solver: LifetimeSolver,
    mode: SleepMode,
    update_interval_years: f64,
    horizon_years: f64,
    /// Memo of `(p0, critical effective years)` pairs: the SNM bisection
    /// is the expensive step and depends only on `p0`, which whole
    /// experiment sweeps share. A mutex keeps the type `Send + Sync`.
    critical_memo: std::sync::Mutex<Vec<(f64, f64)>>,
}

impl Clone for AgingAnalysis {
    fn clone(&self) -> Self {
        Self {
            solver: self.solver.clone(),
            mode: self.mode,
            update_interval_years: self.update_interval_years,
            horizon_years: self.horizon_years,
            critical_memo: std::sync::Mutex::new(
                self.critical_memo.lock().expect("memo poisoned").clone(),
            ),
        }
    }
}

impl AgingAnalysis {
    /// Creates the analysis with the paper's defaults: voltage-scaled
    /// sleep, daily updates, 200-year horizon.
    pub fn new(solver: LifetimeSolver) -> Self {
        Self {
            solver,
            mode: SleepMode::VoltageScaled,
            update_interval_years: DEFAULT_UPDATE_INTERVAL_YEARS,
            horizon_years: DEFAULT_HORIZON_YEARS,
            critical_memo: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Switches the sleep mechanism (power-gating ablation).
    #[must_use]
    pub fn with_mode(mut self, mode: SleepMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the update interval, in days.
    ///
    /// # Panics
    ///
    /// Panics if `days` is not positive.
    #[must_use]
    pub fn with_update_interval_days(mut self, days: f64) -> Self {
        assert!(days > 0.0, "update interval must be positive");
        self.update_interval_years = days / 365.25;
        self
    }

    /// Overrides the search horizon, in years.
    ///
    /// # Panics
    ///
    /// Panics if `years` is not positive.
    #[must_use]
    pub fn with_horizon_years(mut self, years: f64) -> Self {
        assert!(years > 0.0, "horizon must be positive");
        self.horizon_years = years;
        self
    }

    /// The underlying calibrated cell-lifetime solver.
    pub fn solver(&self) -> &LifetimeSolver {
        &self.solver
    }

    /// The sleep mechanism in use.
    pub fn mode(&self) -> SleepMode {
        self.mode
    }

    /// The configured update interval, in days.
    pub fn update_interval_days(&self) -> f64 {
        self.update_interval_years * 365.25
    }

    /// Worst-device effective-stress rate (effective years per wall-clock
    /// year) for one bank with sleep fraction `s`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range probabilities.
    pub fn bank_rate(&self, s: f64, p0: f64) -> Result<f64, CoreError> {
        let profile = StressProfile::new(p0, s, self.mode)?;
        let (ra, rb) = self.solver.device_rates(&profile);
        Ok(ra.max(rb))
    }

    /// The effective-stress budget (years at worst-device rate 1) that
    /// kills a cell, given the duty split implied by `p0`.
    ///
    /// # Errors
    ///
    /// Propagates SNM solver failures.
    pub fn critical_effective_years(&self, p0: f64) -> Result<f64, CoreError> {
        if let Some(&(_, t)) = self
            .critical_memo
            .lock()
            .expect("memo poisoned")
            .iter()
            .find(|(p, _)| (p - p0).abs() < 1e-12)
        {
            return Ok(t);
        }
        let duty_max = p0.max(1.0 - p0);
        let duty_min = p0.min(1.0 - p0);
        let minor_ratio = if duty_max <= 0.0 {
            1.0
        } else {
            (duty_min / duty_max).powf(self.solver.rd().n())
        };
        let dv_star = self.solver.critical_shift(minor_ratio)?;
        let t = self.solver.rd().effective_years_for(dv_star);
        self.critical_memo
            .lock()
            .expect("memo poisoned")
            .push((p0, t));
        Ok(t)
    }

    /// Lifetime of one isolated bank (no rotation) with sleep fraction
    /// `s` — the per-cell quantity the paper's LUT tabulates.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn bank_lifetime(&self, s: f64, p0: f64) -> Result<f64, CoreError> {
        let profile = StressProfile::new(p0, s, self.mode)?;
        Ok(self.solver.lifetime_years(&profile)?)
    }

    /// Cache lifetime under a policy resolved by registry name, from a
    /// full `u64` seed (see [`crate::registry`] for the derivation; the
    /// paper tables use seed 1).
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns [`CoreError::UnknownPolicy`] for
    /// an unregistered name, [`CoreError::HorizonExceeded`] if no bank
    /// fails within the horizon.
    pub fn cache_lifetime(
        &self,
        sleep_fractions: &[f64],
        p0: f64,
        policy: &str,
        seed: u64,
    ) -> Result<f64, CoreError> {
        let banks = sleep_fractions.len() as u32;
        let mut mapping =
            crate::registry::PolicyRegistry::global().build(policy, banks.max(2), seed)?;
        self.cache_lifetime_with(sleep_fractions, p0, mapping.as_mut())
    }

    /// Cache lifetime under an explicit (possibly pre-advanced) mapping.
    ///
    /// The mapping is advanced once per update interval; each physical
    /// bank accumulates effective stress at the rate of the logical bank
    /// currently mapped onto it. Returns the time of the first failure.
    ///
    /// # Errors
    ///
    /// Propagates model errors; returns
    /// [`CoreError::HorizonExceeded`] if no bank fails within the horizon.
    pub fn cache_lifetime_with(
        &self,
        sleep_fractions: &[f64],
        p0: f64,
        mapping: &mut dyn BankMapping,
    ) -> Result<f64, CoreError> {
        let m = sleep_fractions.len();
        if m == 0 {
            return Err(CoreError::InvalidParameter {
                name: "sleep_fractions",
                value: 0.0,
                expected: "at least one bank",
            });
        }
        let t_star = self.critical_effective_years(p0)?;
        let rates: Vec<f64> = sleep_fractions
            .iter()
            .map(|&s| self.bank_rate(s, p0))
            .collect::<Result<_, _>>()?;
        if rates.iter().all(|&r| r <= 0.0) {
            return Err(CoreError::HorizonExceeded {
                horizon_years: self.horizon_years,
            });
        }

        let dt = self.update_interval_years;
        let mut accumulated = vec![0.0f64; m];
        let mut t = 0.0f64;
        while t <= self.horizon_years {
            // Physical stress rates for this update period.
            let mut period_rate = vec![0.0f64; m];
            for (l, &rate) in rates.iter().enumerate() {
                let phys = mapping.map_bank(l as u32, m as u32) as usize;
                period_rate[phys] += rate;
            }
            // Does any bank cross the failure threshold in this period?
            let mut first_crossing: Option<f64> = None;
            for b in 0..m {
                if period_rate[b] <= 0.0 {
                    continue;
                }
                let crossing = (t_star - accumulated[b]) / period_rate[b];
                if crossing <= dt {
                    let candidate = t + crossing.max(0.0);
                    first_crossing = Some(match first_crossing {
                        Some(c) => c.min(candidate),
                        None => candidate,
                    });
                }
            }
            if let Some(c) = first_crossing {
                return Ok(c);
            }
            for b in 0..m {
                accumulated[b] += period_rate[b] * dt;
            }
            t += dt;
            mapping.update();
        }
        Err(CoreError::HorizonExceeded {
            horizon_years: self.horizon_years,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbti_model::CellDesign;

    fn aging() -> AgingAnalysis {
        let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
        AgingAnalysis::new(solver)
    }

    #[test]
    fn always_on_cache_matches_cell_baseline() {
        let a = aging();
        let lt = a
            .cache_lifetime(&[0.0, 0.0, 0.0, 0.0], 0.5, "identity", 1)
            .unwrap();
        assert!((lt - 2.93).abs() < 0.03, "lt = {lt}");
    }

    #[test]
    fn identity_lifetime_is_pinned_by_worst_bank() {
        let a = aging();
        let lt = a
            .cache_lifetime(&[0.99, 0.99, 0.99, 0.0], 0.5, "identity", 1)
            .unwrap();
        let worst_alone = a.bank_lifetime(0.0, 0.5).unwrap();
        assert!((lt - worst_alone).abs() / worst_alone < 0.01);
    }

    #[test]
    fn probing_averages_the_rates() {
        let a = aging();
        let sleep = [0.8, 0.6, 0.4, 0.0];
        let lt = a.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
        // Analytic expectation: rates are linear in S, rotation averages
        // them, so LT = t*/mean(rate) = bank_lifetime(mean S).
        let mean_s = sleep.iter().sum::<f64>() / 4.0;
        let expected = a.bank_lifetime(mean_s, 0.5).unwrap();
        assert!(
            (lt - expected).abs() / expected < 0.02,
            "lt {lt} vs expected {expected}"
        );
    }

    #[test]
    fn scrambling_close_to_probing() {
        // The paper: "Probing and Scrambling provide de facto identical
        // results."
        let a = aging();
        let sleep = [0.9, 0.5, 0.3, 0.1];
        let probing = a.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
        let scrambling = a.cache_lifetime(&sleep, 0.5, "scrambling", 1).unwrap();
        let rel = (probing - scrambling).abs() / probing;
        assert!(rel < 0.05, "probing {probing} vs scrambling {scrambling}");
    }

    #[test]
    fn reindexing_never_hurts() {
        let a = aging();
        for sleep in [
            [0.0, 0.0, 0.0, 0.0],
            [0.9, 0.9, 0.9, 0.9],
            [0.99, 0.99, 0.01, 0.0],
            [0.5, 0.4, 0.3, 0.2],
        ] {
            let lt0 = a.cache_lifetime(&sleep, 0.5, "identity", 1).unwrap();
            let lt = a.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
            assert!(
                lt >= lt0 * 0.999,
                "probing must not shorten life: {lt} < {lt0} for {sleep:?}"
            );
        }
    }

    #[test]
    fn update_interval_is_second_order() {
        // Daily vs weekly updates barely change the outcome (the paper:
        // updates can be "once a day or even less frequent").
        let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
        let sleep = [0.9, 0.6, 0.2, 0.0];
        let daily = AgingAnalysis::new(solver.clone())
            .cache_lifetime(&sleep, 0.5, "probing", 1)
            .unwrap();
        let weekly = AgingAnalysis::new(solver)
            .with_update_interval_days(7.0)
            .cache_lifetime(&sleep, 0.5, "probing", 1)
            .unwrap();
        assert!((daily - weekly).abs() / daily < 0.01);
    }

    #[test]
    fn power_gated_idle_cache_exceeds_horizon() {
        let a = aging()
            .with_mode(SleepMode::power_gated())
            .with_horizon_years(50.0);
        let r = a.cache_lifetime(&[1.0, 1.0, 1.0, 1.0], 0.5, "identity", 1);
        assert!(matches!(r, Err(CoreError::HorizonExceeded { .. })));
    }

    #[test]
    fn empty_bank_list_is_rejected() {
        let a = aging();
        assert!(a.cache_lifetime(&[], 0.5, "identity", 1).is_err());
    }

    #[test]
    fn paper_sha_anchor_reproduced() {
        // Table II, 8 kB, sha: idleness (4.9, 98.6, 94.1, 3.1) %,
        // LT0 = 3.00 y, LT = 4.74 y. Our sleep fractions are slightly
        // below useful idleness; the anchor should land within ~10 %.
        let a = aging();
        let sleep = [0.049, 0.986, 0.941, 0.031];
        let lt0 = a.cache_lifetime(&sleep, 0.5, "identity", 1).unwrap();
        let lt = a.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
        assert!((lt0 - 3.00).abs() < 0.15, "LT0 {lt0} vs paper 3.00");
        assert!((lt - 4.74).abs() < 0.5, "LT {lt} vs paper 4.74");
    }
}
