//! Cell design and SNM-based lifetime solving.
//!
//! The paper defines **lifetime** as "the time after which the SNM has
//! decreased by more than 20 %" (§IV-A) and reports that in their 45 nm
//! technology "the lifetime of a standard memory cell is 2.93 years"
//! (§IV-B1). This module reproduces both: a [`LifetimeSolver`] finds the
//! SNM-degradation crossing for an arbitrary [`StressProfile`], and
//! [`LifetimeSolver::calibrated`] pins the drift coefficient so the
//! always-on balanced cell lives exactly the reference lifetime.

use crate::device::{Mosfet, MosfetKind};
use crate::error::NbtiError;
use crate::rd::RdModel;
use crate::snm::SnmSolver;
use crate::stress::StressProfile;
use crate::vtc::ReadInverter;

/// Transistor-level description of a 6T SRAM cell plus its operating point.
///
/// The cell is assumed symmetric at design time (both inverters identical);
/// asymmetry arises only from NBTI aging. Fields are private so the
/// `vdd > vdd_low` invariant cannot be broken after construction.
///
/// # Examples
///
/// ```
/// let d = nbti_model::CellDesign::default_45nm();
/// assert!(d.vdd() > d.vdd_low());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellDesign {
    vdd: f64,
    vdd_low: f64,
    temp_k: f64,
    pullup: Mosfet,
    pulldown: Mosfet,
    access: Mosfet,
}

impl CellDesign {
    /// Creates a cell design.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidVoltage`] unless
    /// `vdd > vdd_low > 0` and `temp_k > 0`.
    pub fn new(
        vdd: f64,
        vdd_low: f64,
        temp_k: f64,
        pullup: Mosfet,
        pulldown: Mosfet,
        access: Mosfet,
    ) -> Result<Self, NbtiError> {
        if !(vdd.is_finite() && vdd > 0.0) {
            return Err(NbtiError::InvalidVoltage {
                name: "vdd",
                value: vdd,
            });
        }
        if !(vdd_low.is_finite() && vdd_low > 0.0 && vdd_low < vdd) {
            return Err(NbtiError::InvalidVoltage {
                name: "vdd_low",
                value: vdd_low,
            });
        }
        if !(temp_k.is_finite() && temp_k > 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "temp_k",
                value: temp_k,
                expected: "temp_k > 0",
            });
        }
        Ok(Self {
            vdd,
            vdd_low,
            temp_k,
            pullup,
            pulldown,
            access,
        })
    }

    /// The 45 nm-flavoured reference cell used throughout the reproduction:
    /// `Vdd = 1.1 V`, drowsy `Vdd,low = 0.75 V`, `T = 358 K` (85 °C), cell
    /// ratio (pull-down/access strength) of 2 for read stability.
    pub fn default_45nm() -> Self {
        let pullup =
            Mosfet::new(MosfetKind::Pmos, 0.35, 1.5e-4, 1.35).expect("valid default pull-up");
        let pulldown =
            Mosfet::new(MosfetKind::Nmos, 0.32, 3.2e-4, 1.30).expect("valid default pull-down");
        let access =
            Mosfet::new(MosfetKind::Nmos, 0.32, 1.6e-4, 1.30).expect("valid default access");
        Self::new(1.1, 0.75, 358.0, pullup, pulldown, access).expect("valid default design")
    }

    /// Nominal supply voltage (V).
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Drowsy (voltage-scaled sleep) supply voltage (V).
    pub fn vdd_low(&self) -> f64 {
        self.vdd_low
    }

    /// Operating temperature (K).
    pub fn temp_k(&self) -> f64 {
        self.temp_k
    }

    /// The pull-up pMOS (the NBTI victim).
    pub fn pullup(&self) -> Mosfet {
        self.pullup
    }

    /// The pull-down nMOS.
    pub fn pulldown(&self) -> Mosfet {
        self.pulldown
    }

    /// The access (pass-gate) nMOS.
    pub fn access(&self) -> Mosfet {
        self.access
    }

    /// Returns a copy at a different operating temperature.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `temp_k` is not positive.
    pub fn with_temperature(&self, temp_k: f64) -> Result<Self, NbtiError> {
        Self::new(
            self.vdd,
            self.vdd_low,
            temp_k,
            self.pullup,
            self.pulldown,
            self.access,
        )
    }

    /// Returns a copy with a different drowsy voltage.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidVoltage`] unless `0 < vdd_low < vdd`.
    pub fn with_vdd_low(&self, vdd_low: f64) -> Result<Self, NbtiError> {
        Self::new(
            self.vdd,
            vdd_low,
            self.temp_k,
            self.pullup,
            self.pulldown,
            self.access,
        )
    }
}

/// SNM-degradation lifetime solver for a [`CellDesign`].
///
/// # Examples
///
/// ```
/// use nbti_model::{CellDesign, LifetimeSolver, SleepMode, StressProfile};
///
/// # fn main() -> Result<(), nbti_model::NbtiError> {
/// let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93)?;
/// let idle_half = StressProfile::new(0.5, 0.5, SleepMode::VoltageScaled)?;
/// let lt = solver.lifetime_years(&idle_half)?;
/// // Sleeping half the time at the drowsy rail extends lifetime well past
/// // the 2.93-year baseline but nowhere near 2x (aging continues at Vlow).
/// assert!(lt > 3.5 && lt < 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeSolver {
    design: CellDesign,
    rd: RdModel,
    snm: SnmSolver,
    snm0: f64,
    fail_fraction: f64,
}

impl LifetimeSolver {
    /// The paper's failure criterion: 20 % SNM degradation.
    pub const DEFAULT_FAIL_FRACTION: f64 = 0.20;

    /// Search ceiling for lifetime queries, in years.
    pub const HORIZON_YEARS: f64 = 10_000.0;

    /// Creates a solver from an explicit R–D model and failure fraction.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `fail_fraction` is not in
    /// `(0, 1)`, or a solver error if the fresh SNM cannot be extracted.
    pub fn new(design: CellDesign, rd: RdModel, fail_fraction: f64) -> Result<Self, NbtiError> {
        if !(fail_fraction > 0.0 && fail_fraction < 1.0) {
            return Err(NbtiError::InvalidParameter {
                name: "fail_fraction",
                value: fail_fraction,
                expected: "0 < fail_fraction < 1",
            });
        }
        let snm = SnmSolver::new();
        let fresh = snm.extract(
            &ReadInverter::from_design(&design, 0.0),
            &ReadInverter::from_design(&design, 0.0),
        )?;
        if fresh.snm <= 0.0 {
            return Err(NbtiError::SolverDiverged {
                context: "fresh cell has no read margin",
            });
        }
        Ok(Self {
            design,
            rd,
            snm,
            snm0: fresh.snm,
            fail_fraction,
        })
    }

    /// Creates a solver whose drift coefficient is calibrated so that an
    /// always-on cell with balanced content (`p0 = 0.5`) lives exactly
    /// `target_years` — the paper's anchor of **2.93 years**.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `target_years` is not
    /// positive, or solver errors from the SNM extraction.
    pub fn calibrated(design: CellDesign, target_years: f64) -> Result<Self, NbtiError> {
        if !(target_years.is_finite() && target_years > 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "target_years",
                value: target_years,
                expected: "target_years > 0",
            });
        }
        let mut solver = Self::new(design, RdModel::default_45nm(), Self::DEFAULT_FAIL_FRACTION)?;
        // The critical shift is independent of K, so solve it once and
        // back-compute K from ΔV* = K · (duty · a_T · t)^n.
        let dv_star = solver.critical_shift(1.0)?;
        let a_t = solver.rd.temperature_acceleration(solver.design.temp_k());
        let t_eff = 0.5 * a_t * target_years;
        let k_nom = dv_star / t_eff.powf(solver.rd.n());
        solver.rd = solver.rd.with_k_nom(k_nom)?;
        Ok(solver)
    }

    /// Moves the solver to a different operating point (temperature,
    /// drowsy rail, transistor sizing) while keeping the calibrated
    /// drift model — the derivation used by parameterized device
    /// models: calibration stays anchored at the reference cell, and
    /// the override changes only where the cell *operates*.
    ///
    /// # Errors
    ///
    /// Propagates SNM extraction failures for the new design.
    pub fn at_operating_point(&self, design: CellDesign) -> Result<Self, NbtiError> {
        Self::new(design, self.rd.clone(), self.fail_fraction)
    }

    /// Returns a copy with a different SNM-degradation failure
    /// criterion (the paper uses 20 %).
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `fail_fraction` is
    /// not in `(0, 1)`.
    pub fn with_fail_fraction(&self, fail_fraction: f64) -> Result<Self, NbtiError> {
        Self::new(self.design.clone(), self.rd.clone(), fail_fraction)
    }

    /// The cell design being analyzed.
    pub fn design(&self) -> &CellDesign {
        &self.design
    }

    /// The SNM-degradation fraction at which the cell is declared dead.
    pub fn fail_fraction(&self) -> f64 {
        self.fail_fraction
    }

    /// The calibrated R–D drift model.
    pub fn rd(&self) -> &RdModel {
        &self.rd
    }

    /// Read SNM of the fresh (un-aged) cell, volts.
    pub fn fresh_snm(&self) -> f64 {
        self.snm0
    }

    /// SNM value at which the cell is declared dead, volts.
    pub fn failure_snm(&self) -> f64 {
        self.snm0 * (1.0 - self.fail_fraction)
    }

    /// Read SNM after `years` of operation under `profile`, volts.
    ///
    /// # Errors
    ///
    /// Propagates SNM solver failures.
    pub fn snm_after(&self, profile: &StressProfile, years: f64) -> Result<f64, NbtiError> {
        let (dv_a, dv_b) = self.shifts_after(profile, years);
        let e = self.snm.extract(
            &ReadInverter::from_design(&self.design, dv_a),
            &ReadInverter::from_design(&self.design, dv_b),
        )?;
        Ok(e.snm)
    }

    /// Per-device threshold shifts `(ΔVth_A, ΔVth_B)` after `years` under
    /// `profile`, volts.
    pub fn shifts_after(&self, profile: &StressProfile, years: f64) -> (f64, f64) {
        let (ra, rb) = self.device_rates(profile);
        (self.rd.delta_vth(ra * years), self.rd.delta_vth(rb * years))
    }

    /// Per-device effective stress rates, including the temperature factor.
    pub fn device_rates(&self, profile: &StressProfile) -> (f64, f64) {
        let a_t = self.rd.temperature_acceleration(self.design.temp_k());
        let (ra, rb) = profile.stress_rates(&self.rd, self.design.vdd_low());
        (ra * a_t, rb * a_t)
    }

    /// The critical threshold shift ΔV* on the *more-stressed* device at
    /// which the cell SNM hits the failure criterion, when the
    /// less-stressed device carries `minor_ratio · ΔV*` (with
    /// `minor_ratio = (rate_min / rate_max)^n ∈ [0, 1]`).
    ///
    /// Exposed because it is independent of the drift coefficient and of
    /// the sleep fraction, which lets the [`AgingLut`](crate::lut::AgingLut)
    /// builder amortize it across a whole `p0` row.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `minor_ratio` is outside
    /// `[0, 1]`, or [`NbtiError::SolverDiverged`] if bisection fails.
    pub fn critical_shift(&self, minor_ratio: f64) -> Result<f64, NbtiError> {
        if !(0.0..=1.0).contains(&minor_ratio) {
            return Err(NbtiError::InvalidParameter {
                name: "minor_ratio",
                value: minor_ratio,
                expected: "0 <= minor_ratio <= 1",
            });
        }
        let target = self.failure_snm();
        let snm_at = |dv: f64| -> Result<f64, NbtiError> {
            let e = self.snm.extract(
                &ReadInverter::from_design(&self.design, dv),
                &ReadInverter::from_design(&self.design, dv * minor_ratio),
            )?;
            Ok(e.snm)
        };
        // March outward to bracket the FIRST crossing. (At extreme,
        // non-physical shifts the read "SNM" can recover — the dead pull-up
        // leaves a 4T-like cell held by the access transistors — so probing
        // only at Vdd would miss the failure.)
        let step = self.design.vdd() / 22.0;
        let mut lo = 0.0_f64;
        let mut hi = f64::NAN;
        let mut dv = step;
        while dv <= self.design.vdd() + 1e-9 {
            if snm_at(dv)? <= target {
                hi = dv;
                break;
            }
            lo = dv;
            dv += step;
        }
        if hi.is_nan() {
            return Err(NbtiError::SolverDiverged {
                context: "failure SNM not reachable within a Vdd of shift",
            });
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if snm_at(mid)? > target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-6 {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// Lifetime in years under `profile`: the time at which the read SNM
    /// has degraded by the failure fraction.
    ///
    /// Returns `f64::INFINITY` when the profile produces no stress at all
    /// (e.g. fully power-gated sleep with `sleep_fraction = 1`).
    ///
    /// # Errors
    ///
    /// Propagates SNM solver failures.
    pub fn lifetime_years(&self, profile: &StressProfile) -> Result<f64, NbtiError> {
        self.lifetime_years_with(profile, |minor_ratio| self.critical_shift(minor_ratio))
    }

    /// [`lifetime_years`](Self::lifetime_years) with the critical shift
    /// supplied by `critical_shift`, which is called at most once, with
    /// the profile's `minor_ratio` — so a caller can answer from a memo
    /// of [`critical_shift`](Self::critical_shift) results.
    ///
    /// # Errors
    ///
    /// Propagates the errors of `critical_shift`.
    pub fn lifetime_years_with(
        &self,
        profile: &StressProfile,
        critical_shift: impl FnOnce(f64) -> Result<f64, NbtiError>,
    ) -> Result<f64, NbtiError> {
        let (ra, rb) = self.device_rates(profile);
        let r_max = ra.max(rb);
        if r_max <= 0.0 {
            return Ok(f64::INFINITY);
        }
        let minor_ratio = (ra.min(rb) / r_max).powf(self.rd.n());
        let dv_star = critical_shift(minor_ratio)?;
        Ok(self.rd.effective_years_for(dv_star) / r_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stress::SleepMode;

    fn solver() -> LifetimeSolver {
        LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap()
    }

    #[test]
    fn calibration_hits_the_paper_anchor() {
        let s = solver();
        let lt = s.lifetime_years(&StressProfile::always_on(0.5)).unwrap();
        assert!(
            (lt - 2.93).abs() < 0.02,
            "calibrated lifetime should be 2.93 years, got {lt}"
        );
    }

    #[test]
    fn snm_after_crosses_failure_at_lifetime() {
        let s = solver();
        let p = StressProfile::always_on(0.5);
        let lt = s.lifetime_years(&p).unwrap();
        let before = s.snm_after(&p, lt * 0.5).unwrap();
        let after = s.snm_after(&p, lt * 1.5).unwrap();
        assert!(before > s.failure_snm());
        assert!(after < s.failure_snm());
    }

    #[test]
    fn sleeping_extends_lifetime_monotonically() {
        let s = solver();
        let mut last = 0.0;
        for i in 0..5 {
            let sleep = 0.2 * i as f64;
            let p = StressProfile::new(0.5, sleep, SleepMode::VoltageScaled).unwrap();
            let lt = s.lifetime_years(&p).unwrap();
            assert!(lt > last, "lifetime must grow with sleep: {lt} vs {last}");
            last = lt;
        }
    }

    #[test]
    fn drowsy_lifetime_matches_rate_scaling() {
        // Under the power-law model LT scales as 1/((1-S) + S*r_v).
        let s = solver();
        let r_v = s.rd().voltage_acceleration(s.design().vdd_low());
        let p = StressProfile::new(0.5, 0.6, SleepMode::VoltageScaled).unwrap();
        let lt = s.lifetime_years(&p).unwrap();
        let expected = 2.93 / ((1.0 - 0.6) + 0.6 * r_v);
        assert!(
            (lt - expected).abs() / expected < 0.02,
            "lt = {lt}, expected ≈ {expected}"
        );
    }

    #[test]
    fn power_gating_beats_voltage_scaling() {
        let s = solver();
        let vs = StressProfile::new(0.5, 0.6, SleepMode::VoltageScaled).unwrap();
        let pg = StressProfile::new(0.5, 0.6, SleepMode::power_gated()).unwrap();
        assert!(s.lifetime_years(&pg).unwrap() > s.lifetime_years(&vs).unwrap());
    }

    #[test]
    fn fully_gated_idle_cell_never_dies() {
        let s = solver();
        let p = StressProfile::new(0.5, 1.0, SleepMode::power_gated()).unwrap();
        assert_eq!(s.lifetime_years(&p).unwrap(), f64::INFINITY);
    }

    #[test]
    fn balanced_content_is_the_best_case() {
        // Paper §II-A (ref [11]): p0 = 0.5 minimizes the worst-device duty.
        let s = solver();
        let balanced = s.lifetime_years(&StressProfile::always_on(0.5)).unwrap();
        for p0 in [0.0, 0.2, 0.8, 1.0] {
            let lt = s.lifetime_years(&StressProfile::always_on(p0)).unwrap();
            assert!(
                lt <= balanced + 1e-6,
                "p0 = {p0} should not beat balanced: {lt} vs {balanced}"
            );
        }
    }

    #[test]
    fn hotter_cells_die_sooner() {
        let hot = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
        let design_cool = CellDesign::default_45nm().with_temperature(318.0).unwrap();
        // Same calibrated drift model, cooler operating point.
        let cool = LifetimeSolver::new(design_cool, hot.rd().clone(), 0.20).unwrap();
        let p = StressProfile::always_on(0.5);
        assert!(cool.lifetime_years(&p).unwrap() > hot.lifetime_years(&p).unwrap());
    }

    #[test]
    fn operating_point_derivation_keeps_the_drift_model() {
        let s = solver();
        let cool = s
            .at_operating_point(CellDesign::default_45nm().with_temperature(318.0).unwrap())
            .unwrap();
        assert_eq!(cool.rd(), s.rd(), "calibration must carry over");
        let p = StressProfile::always_on(0.5);
        assert!(cool.lifetime_years(&p).unwrap() > s.lifetime_years(&p).unwrap());
    }

    #[test]
    fn fail_fraction_derivation_is_monotone_and_validated() {
        let s = solver();
        let p = StressProfile::always_on(0.5);
        let strict = s.with_fail_fraction(0.10).unwrap();
        let lax = s.with_fail_fraction(0.30).unwrap();
        assert_eq!(s.fail_fraction(), LifetimeSolver::DEFAULT_FAIL_FRACTION);
        assert!(strict.lifetime_years(&p).unwrap() < s.lifetime_years(&p).unwrap());
        assert!(lax.lifetime_years(&p).unwrap() > s.lifetime_years(&p).unwrap());
        assert!(s.with_fail_fraction(0.0).is_err());
        assert!(s.with_fail_fraction(1.0).is_err());
    }

    #[test]
    fn rejects_bad_construction() {
        let d = CellDesign::default_45nm();
        assert!(LifetimeSolver::new(d.clone(), RdModel::default_45nm(), 0.0).is_err());
        assert!(LifetimeSolver::new(d.clone(), RdModel::default_45nm(), 1.0).is_err());
        assert!(LifetimeSolver::calibrated(d, -2.0).is_err());
    }

    #[test]
    fn design_validation() {
        let d = CellDesign::default_45nm();
        assert!(CellDesign::new(1.1, 1.2, 358.0, d.pullup(), d.pulldown(), d.access()).is_err());
        assert!(CellDesign::new(0.0, 0.7, 358.0, d.pullup(), d.pulldown(), d.access()).is_err());
        assert!(d.with_vdd_low(2.0).is_err());
        assert!(d.with_temperature(-3.0).is_err());
    }

    #[test]
    fn critical_shift_shrinks_with_symmetric_companion() {
        // If the second device ages along (ratio -> 1), failure is reached
        // at a smaller ΔV on the major device than if it stayed fresh?
        // Actually the *worst lobe* is set by the major device; a fresh
        // companion keeps the other lobe large, and SNM = min lobe, so the
        // asymmetric case fails at a similar or smaller major shift.
        let s = solver();
        let sym = s.critical_shift(1.0).unwrap();
        let asym = s.critical_shift(0.0).unwrap();
        assert!(sym > 0.0 && asym > 0.0);
        assert!(
            asym <= sym * 1.5,
            "asymmetric critical shift should be comparable: {asym} vs {sym}"
        );
    }
}
