//! Long-term reaction–diffusion NBTI threshold-drift model.
//!
//! NBTI traps interface charges in a pMOS under negative gate bias
//! (`V_gs < 0`); the threshold voltage magnitude drifts as a fractional
//! power of stress time. The long-term reaction–diffusion (R–D) solution
//! for H₂ diffusion gives the widely used form (refs. \[1\], \[4\], \[23\] of the
//! paper):
//!
//! ```text
//! ΔVth(t) = K(V, T) · t_eff^n          n = 1/6
//! K(V, T) = K_nom · a_V(V) · a_T(T)
//! a_V(V)  = ((V − |Vth,p|) / (Vdd − |Vth,p|))^Γ        (power-law field acceleration)
//! a_T(T)  = exp(−(Ea/k_B) · (1/T − 1/T_ref))           (Arrhenius)
//! ```
//!
//! `t_eff` is the *effective* stress time: wall-clock time scaled by the
//! fraction of time under stress and by the acceleration of the applied
//! voltage. Alternating stress/recovery phases are absorbed into `t_eff`
//! (the standard quasi-static long-term approximation), which is exactly
//! the `(p0, Psleep)` keying the paper's characterization LUT uses.

use crate::error::NbtiError;

/// Boltzmann constant in eV/K.
const K_B_EV: f64 = 8.617_333_262e-5;

/// Long-term R–D NBTI model with voltage and temperature acceleration.
///
/// # Examples
///
/// ```
/// use nbti_model::RdModel;
///
/// let rd = RdModel::default_45nm();
/// // Drift follows the t^(1/6) power law:
/// let v1 = rd.delta_vth(1.0);
/// let v64 = rd.delta_vth(64.0);
/// assert!((v64 / v1 - 2.0).abs() < 1e-9); // 64^(1/6) = 2
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RdModel {
    k_nom: f64,
    n: f64,
    gamma: f64,
    ea_ev: f64,
    temp_ref_k: f64,
    vdd_nom: f64,
    vth_p: f64,
}

impl RdModel {
    /// Creates a model.
    ///
    /// * `k_nom` — drift coefficient at nominal voltage/temperature, in
    ///   volts per `year^n`.
    /// * `n` — time exponent (1/6 for H₂ diffusion).
    /// * `gamma` — voltage-acceleration exponent.
    /// * `ea_ev` — activation energy in eV.
    /// * `temp_ref_k` — reference temperature in kelvin.
    /// * `vdd_nom` — nominal stress voltage in volts.
    /// * `vth_p` — pMOS threshold magnitude in volts.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] for non-physical values.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        k_nom: f64,
        n: f64,
        gamma: f64,
        ea_ev: f64,
        temp_ref_k: f64,
        vdd_nom: f64,
        vth_p: f64,
    ) -> Result<Self, NbtiError> {
        if !(k_nom.is_finite() && k_nom > 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "k_nom",
                value: k_nom,
                expected: "k_nom > 0",
            });
        }
        if !(0.0 < n && n < 1.0) {
            return Err(NbtiError::InvalidParameter {
                name: "n",
                value: n,
                expected: "0 < n < 1",
            });
        }
        if !(gamma.is_finite() && gamma >= 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "gamma",
                value: gamma,
                expected: "gamma >= 0",
            });
        }
        if !(ea_ev.is_finite() && ea_ev >= 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "ea_ev",
                value: ea_ev,
                expected: "ea_ev >= 0",
            });
        }
        if !(temp_ref_k.is_finite() && temp_ref_k > 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "temp_ref_k",
                value: temp_ref_k,
                expected: "temp_ref_k > 0",
            });
        }
        if !(vdd_nom.is_finite() && vdd_nom > vth_p && vth_p > 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "vdd_nom/vth_p",
                value: vdd_nom,
                expected: "vdd_nom > vth_p > 0",
            });
        }
        Ok(Self {
            k_nom,
            n,
            gamma,
            ea_ev,
            temp_ref_k,
            vdd_nom,
            vth_p,
        })
    }

    /// A 45 nm-flavoured default: `n = 1/6`, `Γ = 2`, `Ea = 0.49 eV`,
    /// `T_ref = 358 K` (85 °C), `Vdd = 1.1 V`, `|Vth,p| = 0.35 V`. The
    /// nominal drift coefficient is a placeholder that
    /// [`LifetimeSolver::calibrated`](crate::lifetime::LifetimeSolver::calibrated)
    /// replaces to pin the paper's 2.93-year reference cell lifetime.
    pub fn default_45nm() -> Self {
        Self::new(0.040, 1.0 / 6.0, 2.0, 0.49, 358.0, 1.1, 0.35)
            .expect("default parameters are valid")
    }

    /// Returns a copy with a different nominal drift coefficient (used by
    /// lifetime calibration).
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `k_nom` is not positive.
    pub fn with_k_nom(&self, k_nom: f64) -> Result<Self, NbtiError> {
        if !(k_nom.is_finite() && k_nom > 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "k_nom",
                value: k_nom,
                expected: "k_nom > 0",
            });
        }
        let mut m = self.clone();
        m.k_nom = k_nom;
        Ok(m)
    }

    /// Nominal drift coefficient (V / year^n).
    pub fn k_nom(&self) -> f64 {
        self.k_nom
    }

    /// Time exponent `n`.
    pub fn n(&self) -> f64 {
        self.n
    }

    /// Voltage-acceleration exponent `Γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Nominal stress voltage (V).
    pub fn vdd_nom(&self) -> f64 {
        self.vdd_nom
    }

    /// pMOS threshold magnitude (V).
    pub fn vth_p(&self) -> f64 {
        self.vth_p
    }

    /// The `minor_ratio` of [`LifetimeSolver::critical_shift`](crate::LifetimeSolver::critical_shift)
    /// for a cell storing `0` with probability `p0`: the two pull-ups
    /// are stressed for `p0` and `1 − p0` of the time, so the less
    /// stressed one carries `(duty_min / duty_max)^n` of the other's
    /// shift. A cell whose devices never see stress counts as balanced
    /// (`1`).
    pub fn minor_ratio(&self, p0: f64) -> f64 {
        let duty_max = p0.max(1.0 - p0);
        let duty_min = p0.min(1.0 - p0);
        if duty_max <= 0.0 {
            1.0
        } else {
            (duty_min / duty_max).powf(self.n)
        }
    }

    /// Voltage-acceleration factor relative to the nominal stress voltage.
    ///
    /// Returns 0 for voltages at or below the pMOS threshold (no channel
    /// inversion, no interface-trap generation) and 1 at `vdd_nom`.
    pub fn voltage_acceleration(&self, v: f64) -> f64 {
        if v <= self.vth_p {
            return 0.0;
        }
        ((v - self.vth_p) / (self.vdd_nom - self.vth_p)).powf(self.gamma)
    }

    /// Temperature-acceleration factor relative to the reference
    /// temperature (Arrhenius).
    pub fn temperature_acceleration(&self, temp_k: f64) -> f64 {
        (-(self.ea_ev / K_B_EV) * (1.0 / temp_k - 1.0 / self.temp_ref_k)).exp()
    }

    /// Threshold drift in volts after `t_eff_years` of *effective* stress
    /// at nominal voltage/temperature.
    pub fn delta_vth(&self, t_eff_years: f64) -> f64 {
        if t_eff_years <= 0.0 {
            0.0
        } else {
            self.k_nom * t_eff_years.powf(self.n)
        }
    }

    /// Inverse of [`delta_vth`](Self::delta_vth): effective stress years
    /// needed to accumulate the given drift.
    pub fn effective_years_for(&self, delta_vth: f64) -> f64 {
        if delta_vth <= 0.0 {
            0.0
        } else {
            (delta_vth / self.k_nom).powf(1.0 / self.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrored_duty_splits_share_their_minor_ratio() {
        let rd = RdModel::default_45nm();
        assert_eq!(rd.minor_ratio(0.5), 1.0);
        assert_eq!(rd.minor_ratio(0.0), 0.0);
        assert_eq!(rd.minor_ratio(1.0), 0.0);
        for i in 0..=8 {
            let p0 = f64::from(i) / 8.0;
            let mirrored = f64::from(8 - i) / 8.0;
            assert_eq!(
                rd.minor_ratio(p0).to_bits(),
                rd.minor_ratio(mirrored).to_bits()
            );
        }
    }

    #[test]
    fn default_is_valid_and_round_trips() {
        let rd = RdModel::default_45nm();
        let dv = rd.delta_vth(2.93);
        let t = rd.effective_years_for(dv);
        assert!((t - 2.93).abs() < 1e-9);
    }

    #[test]
    fn drift_is_monotone_and_concave() {
        let rd = RdModel::default_45nm();
        let (a, b, c) = (rd.delta_vth(1.0), rd.delta_vth(2.0), rd.delta_vth(4.0));
        assert!(a < b && b < c);
        // Concavity of t^n, n < 1: doubling time gains less than doubling drift.
        assert!(b / a < 2.0);
        assert!((b / a - c / b).abs() < 1e-12, "power law is scale-free");
    }

    #[test]
    fn voltage_acceleration_anchors() {
        let rd = RdModel::default_45nm();
        assert_eq!(rd.voltage_acceleration(0.2), 0.0);
        assert_eq!(rd.voltage_acceleration(0.35), 0.0);
        assert!((rd.voltage_acceleration(1.1) - 1.0).abs() < 1e-12);
        // The paper's drowsy voltage decelerates aging substantially.
        let r = rd.voltage_acceleration(0.75);
        assert!(r > 0.1 && r < 0.5, "drowsy acceleration ratio = {r}");
    }

    #[test]
    fn temperature_acceleration_anchors() {
        let rd = RdModel::default_45nm();
        assert!((rd.temperature_acceleration(358.0) - 1.0).abs() < 1e-12);
        assert!(
            rd.temperature_acceleration(398.0) > 1.0,
            "hotter ages faster"
        );
        assert!(
            rd.temperature_acceleration(318.0) < 1.0,
            "cooler ages slower"
        );
    }

    #[test]
    fn rejects_non_physical_parameters() {
        assert!(RdModel::new(-1.0, 1.0 / 6.0, 2.0, 0.5, 358.0, 1.1, 0.35).is_err());
        assert!(RdModel::new(0.04, 1.5, 2.0, 0.5, 358.0, 1.1, 0.35).is_err());
        assert!(RdModel::new(0.04, 1.0 / 6.0, -0.5, 0.5, 358.0, 1.1, 0.35).is_err());
        assert!(RdModel::new(0.04, 1.0 / 6.0, 2.0, 0.5, 358.0, 0.3, 0.35).is_err());
        assert!(RdModel::new(0.04, 1.0 / 6.0, 2.0, 0.5, -1.0, 1.1, 0.35).is_err());
    }

    #[test]
    fn zero_and_negative_times_give_zero_drift() {
        let rd = RdModel::default_45nm();
        assert_eq!(rd.delta_vth(0.0), 0.0);
        assert_eq!(rd.delta_vth(-1.0), 0.0);
        assert_eq!(rd.effective_years_for(0.0), 0.0);
    }
}
