//! Numerical voltage-transfer-curve (VTC) solver for SRAM cell inverters.
//!
//! A 6T SRAM cell is two cross-coupled inverters plus two access nMOS
//! transistors. During a **read**, both bitlines are precharged to `Vdd` and
//! the wordline is high, so each storage node is additionally pulled toward
//! `Vdd` through its access transistor — the classic read-disturb condition
//! that makes the *read* SNM the worst-case stability metric (paper §IV-A,
//! ref. \[23\]).
//!
//! For one inverter with input `u` (the opposite storage node) and output
//! `v` (its own storage node), the node equation is
//!
//! ```text
//! I_pullup(u, v) + I_access(v) = I_pulldown(u, v)
//! ```
//!
//! The left side is non-increasing and the right side non-decreasing in `v`,
//! so the residual is monotone and a bisection finds the unique operating
//! point.

use crate::device::Mosfet;
use crate::error::NbtiError;

/// Relative voltage tolerance of the bisection, in volts.
const V_TOL: f64 = 1e-9;
/// Maximum bisection iterations (60 halvings of ~1 V ≈ 1e-18 V, ample).
const MAX_ITER: usize = 200;

/// One inverter of a 6T cell in the read condition (access device on,
/// bitline at `Vdd`).
///
/// # Examples
///
/// ```
/// use nbti_model::{CellDesign, ReadInverter};
///
/// let design = CellDesign::default_45nm();
/// let inv = ReadInverter::from_design(&design, 0.0);
/// // With the input low the output is pulled high:
/// let v_hi = inv.output(0.0).unwrap();
/// assert!(v_hi > 0.9 * design.vdd());
/// // With the input high the output sits at the read-disturb voltage,
/// // above ground but well below Vdd/2:
/// let v_lo = inv.output(design.vdd()).unwrap();
/// assert!(v_lo > 0.0 && v_lo < design.vdd() / 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReadInverter {
    pullup: Mosfet,
    pulldown: Mosfet,
    access: Option<Mosfet>,
    vdd: f64,
}

impl ReadInverter {
    /// Creates an inverter from explicit devices and rail voltage.
    ///
    /// Pass `access: None` to model the *hold* condition (wordline low),
    /// `Some(_)` for the read condition with the bitline at `vdd`.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidVoltage`] if `vdd` is not finite and
    /// positive.
    pub fn new(
        pullup: Mosfet,
        pulldown: Mosfet,
        access: Option<Mosfet>,
        vdd: f64,
    ) -> Result<Self, NbtiError> {
        if !(vdd.is_finite() && vdd > 0.0) {
            return Err(NbtiError::InvalidVoltage {
                name: "vdd",
                value: vdd,
            });
        }
        Ok(Self {
            pullup,
            pulldown,
            access,
            vdd,
        })
    }

    /// Builds the read-condition inverter of a [`CellDesign`], with the
    /// pull-up pMOS aged by `delta_vth_p` volts.
    ///
    /// [`CellDesign`]: crate::lifetime::CellDesign
    pub fn from_design(design: &crate::lifetime::CellDesign, delta_vth_p: f64) -> Self {
        Self {
            pullup: design.pullup().with_vth_shift(delta_vth_p),
            pulldown: design.pulldown(),
            access: Some(design.access()),
            vdd: design.vdd(),
        }
    }

    /// Supply voltage in volts.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Solves the inverter output voltage for input `u` by bisection on the
    /// monotone KCL residual.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::SolverDiverged`] if the residual does not change
    /// sign over `[0, vdd]` within tolerance (never happens for physical
    /// device parameters; guarded for robustness).
    pub fn output(&self, u: f64) -> Result<f64, NbtiError> {
        // Pull-up pMOS: source at Vdd, gate at u, drain at v. Pull-down
        // nMOS: gate at u, drain at v, source at ground. Their gate
        // drives are fixed for the whole bisection.
        let up = self.pullup.saturation(self.vdd - u);
        let down = self.pulldown.saturation(u);
        // KCL residual at output voltage v: current pushed into the node
        // minus current pulled out. Positive means the node will rise.
        let residual = |v: f64| {
            // Access nMOS: gate and drain (bitline) at Vdd, source at v.
            let i_acc = self
                .access
                .as_ref()
                .map(|a| a.drain_current(self.vdd - v, self.vdd - v))
                .unwrap_or(0.0);
            up.drain_current(self.vdd - v) + i_acc - down.drain_current(v)
        };
        let mut lo = 0.0_f64;
        let mut hi = self.vdd;
        let r_lo = residual(lo);
        let r_hi = residual(hi);
        // residual(lo) >= 0 (nothing can pull below ground) and
        // residual(hi) <= 0 (nothing can push above Vdd). If a degenerate
        // device set makes both zero, any point is an operating point.
        if r_lo < 0.0 {
            return Ok(0.0);
        }
        if r_hi > 0.0 {
            return Ok(self.vdd);
        }
        for _ in 0..MAX_ITER {
            let mid = 0.5 * (lo + hi);
            let r = residual(mid);
            if r > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < V_TOL {
                return Ok(0.5 * (lo + hi));
            }
        }
        Err(NbtiError::SolverDiverged {
            context: "inverter VTC bisection",
        })
    }
}

/// Dense sampling of an inverter VTC, reusable by the SNM extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct VtcSolver {
    samples: Vec<(f64, f64)>,
    vdd: f64,
}

impl VtcSolver {
    /// Samples the VTC of `inverter` at `points` evenly spaced inputs over
    /// `[0, vdd]`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from [`ReadInverter::output`]. Returns
    /// [`NbtiError::InvalidParameter`] if `points < 2`.
    pub fn sample(inverter: &ReadInverter, points: usize) -> Result<Self, NbtiError> {
        if points < 2 {
            return Err(NbtiError::InvalidParameter {
                name: "points",
                value: points as f64,
                expected: "at least 2 sample points",
            });
        }
        let vdd = inverter.vdd();
        let mut samples = Vec::with_capacity(points);
        for i in 0..points {
            let u = vdd * i as f64 / (points - 1) as f64;
            samples.push((u, inverter.output(u)?));
        }
        Ok(Self { samples, vdd })
    }

    /// The sampled `(input, output)` pairs, ordered by input.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Supply voltage the curve was sampled at.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Linear interpolation of the output at input `u` (clamped to the
    /// sampled range).
    pub fn interpolate(&self, u: f64) -> f64 {
        let s = &self.samples;
        if u <= s[0].0 {
            return s[0].1;
        }
        if u >= s[s.len() - 1].0 {
            return s[s.len() - 1].1;
        }
        // Uniform grid: locate the segment directly.
        let step = (s[s.len() - 1].0 - s[0].0) / (s.len() - 1) as f64;
        let idx = ((u - s[0].0) / step) as usize;
        let idx = idx.min(s.len() - 2);
        let (u0, v0) = s[idx];
        let (u1, v1) = s[idx + 1];
        if u1 == u0 {
            v0
        } else {
            v0 + (v1 - v0) * (u - u0) / (u1 - u0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::CellDesign;

    fn read_inverter() -> ReadInverter {
        ReadInverter::from_design(&CellDesign::default_45nm(), 0.0)
    }

    #[test]
    fn vtc_is_monotone_decreasing() {
        let inv = read_inverter();
        let vtc = VtcSolver::sample(&inv, 200).unwrap();
        for w in vtc.samples().windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-7, "VTC must be non-increasing: {w:?}");
        }
    }

    #[test]
    fn read_disturb_raises_low_node() {
        let design = CellDesign::default_45nm();
        let read = ReadInverter::from_design(&design, 0.0);
        let hold =
            ReadInverter::new(design.pullup(), design.pulldown(), None, design.vdd()).unwrap();
        let v_read = read.output(design.vdd()).unwrap();
        let v_hold = hold.output(design.vdd()).unwrap();
        assert!(v_hold < 1e-6, "hold low level should be ~0, got {v_hold}");
        assert!(
            v_read > 0.02,
            "read-disturb voltage should be clearly above ground, got {v_read}"
        );
    }

    #[test]
    fn output_endpoints_are_sane() {
        let inv = read_inverter();
        let hi = inv.output(0.0).unwrap();
        let lo = inv.output(inv.vdd()).unwrap();
        assert!(hi > 0.9 * inv.vdd());
        assert!(lo < 0.5 * inv.vdd());
        assert!(hi > lo);
    }

    #[test]
    fn aged_pullup_weakens_high_output_transition() {
        let design = CellDesign::default_45nm();
        let fresh = ReadInverter::from_design(&design, 0.0);
        let aged = ReadInverter::from_design(&design, 0.10);
        // At mid-input the aged pull-up fights the pull-down less, so the
        // output is lower (the transition shifts left).
        let mid = 0.5 * design.vdd();
        assert!(aged.output(mid).unwrap() <= fresh.output(mid).unwrap() + 1e-9);
    }

    #[test]
    fn interpolation_matches_samples_and_clamps() {
        let inv = read_inverter();
        let vtc = VtcSolver::sample(&inv, 64).unwrap();
        let (u3, v3) = vtc.samples()[3];
        assert!((vtc.interpolate(u3) - v3).abs() < 1e-12);
        assert_eq!(vtc.interpolate(-1.0), vtc.samples()[0].1);
        assert_eq!(
            vtc.interpolate(10.0),
            vtc.samples()[vtc.samples().len() - 1].1
        );
    }

    #[test]
    fn sample_rejects_degenerate_grid() {
        let inv = read_inverter();
        assert!(matches!(
            VtcSolver::sample(&inv, 1),
            Err(NbtiError::InvalidParameter { .. })
        ));
    }
}
