//! Alpha-power-law MOSFET model (Sakurai–Newton).
//!
//! The classic SPICE level-1 square-law model is a poor fit below 100 nm
//! where carrier velocity saturation flattens the I–V curve; the
//! Sakurai–Newton *alpha-power law* captures this with a single exponent
//! `alpha` (≈ 2.0 for long channel, ≈ 1.2–1.4 at 45 nm):
//!
//! ```text
//! I_dsat  = k · (V_gs − V_th)^alpha
//! V_dsat  = kv · (V_gs − V_th)^(alpha/2)
//! I_d     = I_dsat · (2 − V_ds/V_dsat) · (V_ds/V_dsat)      (V_ds < V_dsat)
//! ```
//!
//! Voltages are handled in magnitude form: for a pMOS device pass
//! `v_gs = V_sg` and `v_ds = V_sd` (both non-negative). This keeps the cell
//! KCL solver sign-free.

use crate::error::NbtiError;

/// Polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosfetKind {
    /// n-channel device (pull-down / access transistors of a 6T cell).
    Nmos,
    /// p-channel device (pull-up transistors of a 6T cell; the NBTI victims).
    Pmos,
}

/// A MOSFET characterized by the alpha-power law.
///
/// The model is evaluated in magnitude space, so one struct serves both
/// polarities; [`MosfetKind`] is retained for reporting and for deciding
/// which devices age under NBTI.
///
/// # Examples
///
/// ```
/// use nbti_model::{Mosfet, MosfetKind};
///
/// let nmos = Mosfet::new(MosfetKind::Nmos, 0.32, 3.2e-4, 1.30).unwrap();
/// // Cut off below threshold:
/// assert_eq!(nmos.drain_current(0.2, 1.1), 0.0);
/// // Conducting above threshold:
/// assert!(nmos.drain_current(1.1, 1.1) > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    kind: MosfetKind,
    vth: f64,
    k: f64,
    alpha: f64,
    /// Saturation-voltage coefficient `kv` (V^(1−alpha/2)).
    kv: f64,
}

impl Mosfet {
    /// Creates a device with threshold `vth` (V, magnitude), transconductance
    /// `k` (A/V^alpha) and velocity-saturation exponent `alpha`.
    ///
    /// The saturation-voltage coefficient defaults to `kv = 0.9`.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `vth` is not in `(0, 2)` V,
    /// `k` is not positive, or `alpha` is not in `[1, 2]`.
    pub fn new(kind: MosfetKind, vth: f64, k: f64, alpha: f64) -> Result<Self, NbtiError> {
        if !(vth.is_finite() && vth > 0.0 && vth < 2.0) {
            return Err(NbtiError::InvalidParameter {
                name: "vth",
                value: vth,
                expected: "0 < vth < 2 V",
            });
        }
        if !(k.is_finite() && k > 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "k",
                value: k,
                expected: "k > 0",
            });
        }
        if !(1.0..=2.0).contains(&alpha) {
            return Err(NbtiError::InvalidParameter {
                name: "alpha",
                value: alpha,
                expected: "1 <= alpha <= 2",
            });
        }
        Ok(Self {
            kind,
            vth,
            k,
            alpha,
            kv: 0.9,
        })
    }

    /// Polarity of the device.
    pub fn kind(&self) -> MosfetKind {
        self.kind
    }

    /// Threshold voltage magnitude in volts.
    pub fn vth(&self) -> f64 {
        self.vth
    }

    /// Transconductance coefficient `k` in A/V^alpha.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Velocity-saturation exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Returns a copy of this device with its threshold shifted by
    /// `delta_vth` volts (an NBTI-aged pMOS has a *larger* |Vth|).
    ///
    /// The shift is clamped so the resulting threshold stays positive.
    #[must_use]
    pub fn with_vth_shift(&self, delta_vth: f64) -> Self {
        let mut aged = *self;
        aged.vth = (self.vth + delta_vth).max(1e-6);
        aged
    }

    /// Gate overdrive `max(v_gs − vth, 0)` in volts (magnitudes).
    pub fn overdrive(&self, v_gs: f64) -> f64 {
        (v_gs - self.vth).max(0.0)
    }

    /// The gate-drive half of the alpha-power law at gate-source
    /// magnitude `v_gs`: the saturation current and voltage, each one
    /// `powf`. A solver that holds the gate still while it searches over
    /// the drain voltage computes them once.
    pub(crate) fn saturation(&self, v_gs: f64) -> Saturation {
        let od = self.overdrive(v_gs);
        if od <= 0.0 {
            return Saturation::CUTOFF;
        }
        Saturation {
            i_dsat: self.k * od.powf(self.alpha),
            v_dsat: self.kv * od.powf(self.alpha / 2.0),
        }
    }

    /// Drain current in amperes for gate-source and drain-source voltage
    /// *magnitudes* (both ≥ 0; negative inputs are treated as 0).
    ///
    /// Piecewise: cutoff below threshold, alpha-power triode below
    /// `V_dsat`, constant saturation current above (channel-length
    /// modulation is neglected — the SNM solver needs monotonicity, not
    /// output-resistance fidelity).
    pub fn drain_current(&self, v_gs: f64, v_ds: f64) -> f64 {
        self.saturation(v_gs).drain_current(v_ds)
    }

    /// Saturation current at the given gate overdrive voltage.
    pub fn saturation_current(&self, v_gs: f64) -> f64 {
        self.saturation(v_gs).i_dsat
    }
}

/// A device's saturation point at one gate drive (see
/// [`Mosfet::saturation`]); [`drain_current`](Self::drain_current) is
/// the cheap drain-voltage half of the model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Saturation {
    /// Saturation current `I_dsat`, amperes (0 in cutoff).
    i_dsat: f64,
    /// Saturation voltage `V_dsat`, volts (0 in cutoff).
    v_dsat: f64,
}

impl Saturation {
    /// A device below threshold: no current at any drain voltage.
    const CUTOFF: Self = Self {
        i_dsat: 0.0,
        v_dsat: 0.0,
    };

    /// Drain current in amperes at drain-source magnitude `v_ds`
    /// (negative treated as 0): triode below `V_dsat`, `I_dsat` above.
    pub(crate) fn drain_current(&self, v_ds: f64) -> f64 {
        let v_ds = v_ds.max(0.0);
        if v_ds == 0.0 {
            return 0.0;
        }
        if v_ds >= self.v_dsat {
            self.i_dsat
        } else {
            let x = v_ds / self.v_dsat;
            self.i_dsat * (2.0 - x) * x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos() -> Mosfet {
        Mosfet::new(MosfetKind::Nmos, 0.32, 3.2e-4, 1.3).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Mosfet::new(MosfetKind::Nmos, -0.1, 1e-4, 1.3).is_err());
        assert!(Mosfet::new(MosfetKind::Nmos, 0.3, 0.0, 1.3).is_err());
        assert!(Mosfet::new(MosfetKind::Nmos, 0.3, 1e-4, 0.9).is_err());
        assert!(Mosfet::new(MosfetKind::Nmos, 0.3, 1e-4, 2.5).is_err());
        assert!(Mosfet::new(MosfetKind::Nmos, f64::NAN, 1e-4, 1.3).is_err());
    }

    #[test]
    fn cutoff_region_yields_zero_current() {
        let d = nmos();
        assert_eq!(d.drain_current(0.0, 1.1), 0.0);
        assert_eq!(d.drain_current(0.31, 0.5), 0.0);
        assert_eq!(d.drain_current(1.1, 0.0), 0.0);
    }

    #[test]
    fn current_is_monotone_in_vgs() {
        let d = nmos();
        let mut last = 0.0;
        for i in 0..=20 {
            let v_gs = 0.3 + 0.04 * i as f64;
            let i_d = d.drain_current(v_gs, 1.1);
            assert!(i_d >= last, "current must not decrease with v_gs");
            last = i_d;
        }
    }

    #[test]
    fn current_is_monotone_in_vds_and_saturates() {
        let d = nmos();
        let mut last = 0.0;
        for i in 0..=110 {
            let v_ds = 0.01 * i as f64;
            let i_d = d.drain_current(1.1, v_ds);
            assert!(i_d + 1e-15 >= last, "current must not decrease with v_ds");
            last = i_d;
        }
        // Deep in saturation the current equals the saturation current.
        assert!((d.drain_current(1.1, 1.1) - d.saturation_current(1.1)).abs() < 1e-12);
    }

    #[test]
    fn triode_saturation_boundary_is_continuous() {
        let d = nmos();
        let od = d.overdrive(1.1);
        let v_dsat = 0.9 * od.powf(d.alpha() / 2.0);
        let below = d.drain_current(1.1, v_dsat - 1e-9);
        let above = d.drain_current(1.1, v_dsat + 1e-9);
        assert!((below - above).abs() < 1e-9 * d.saturation_current(1.1).max(1.0));
    }

    #[test]
    fn vth_shift_reduces_current() {
        let fresh = nmos();
        let aged = fresh.with_vth_shift(0.05);
        assert!(aged.vth() > fresh.vth());
        assert!(aged.drain_current(1.1, 1.1) < fresh.drain_current(1.1, 1.1));
    }

    #[test]
    fn vth_shift_clamps_to_positive() {
        let d = nmos().with_vth_shift(-10.0);
        assert!(d.vth() > 0.0);
    }

    #[test]
    fn negative_vds_treated_as_zero() {
        let d = nmos();
        assert_eq!(d.drain_current(1.1, -0.5), 0.0);
    }
}
