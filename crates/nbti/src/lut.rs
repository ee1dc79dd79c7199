//! Lifetime characterization lookup table.
//!
//! The paper's flow runs its SPICE framework offline and stores the results
//! "in a lookup table, which is used by the cache simulator to estimate the
//! aging of the cache banks" (§IV-A). This module is that artifact: a dense
//! `(p0 × sleep-fraction)` grid of lifetimes with bilinear interpolation,
//! built once from a [`LifetimeSolver`] and then queried millions of times
//! by the architectural simulation at negligible cost.

use crate::error::NbtiError;
use crate::lifetime::LifetimeSolver;
use crate::stress::{SleepMode, StressProfile};

/// Lifetime lookup table over `(p0, sleep_fraction)`.
///
/// # Examples
///
/// ```
/// use nbti_model::{AgingLut, CellDesign, LifetimeSolver, SleepMode};
///
/// # fn main() -> Result<(), nbti_model::NbtiError> {
/// let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93)?;
/// let lut = AgingLut::build(&solver, SleepMode::VoltageScaled, 9, 9, 500.0)?;
/// // Balanced always-on cell: the calibration anchor.
/// let base = lut.lifetime_years(0.5, 0.0)?;
/// assert!((base - 2.93).abs() < 0.05);
/// // More sleep, longer life:
/// assert!(lut.lifetime_years(0.5, 0.8)? > base);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgingLut {
    p0_axis: Vec<f64>,
    sleep_axis: Vec<f64>,
    /// Row-major: `values[i_p0 * sleep_axis.len() + i_sleep]`.
    values: Vec<f64>,
    mode: SleepMode,
    cap_years: f64,
}

impl AgingLut {
    /// Builds the table by characterizing `p0_points × sleep_points`
    /// profiles with `solver`.
    ///
    /// Infinite lifetimes (possible under power gating) are clamped to
    /// `cap_years` so interpolation stays finite; queries report the clamp
    /// faithfully.
    ///
    /// The builder exploits the solver structure: the critical threshold
    /// shift depends only on the `p0` row's duty split, so each distinct
    /// split costs one SNM bisection regardless of the number of sleep
    /// points, and rows `p0` and `1 − p0` share theirs.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if either axis has fewer
    /// than 2 points or `cap_years` is not positive; propagates solver
    /// errors.
    pub fn build(
        solver: &LifetimeSolver,
        mode: SleepMode,
        p0_points: usize,
        sleep_points: usize,
        cap_years: f64,
    ) -> Result<Self, NbtiError> {
        if p0_points < 2 {
            return Err(NbtiError::InvalidParameter {
                name: "p0_points",
                value: p0_points as f64,
                expected: "at least 2 grid points",
            });
        }
        if sleep_points < 2 {
            return Err(NbtiError::InvalidParameter {
                name: "sleep_points",
                value: sleep_points as f64,
                expected: "at least 2 grid points",
            });
        }
        if !(cap_years.is_finite() && cap_years > 0.0) {
            return Err(NbtiError::InvalidParameter {
                name: "cap_years",
                value: cap_years,
                expected: "cap_years > 0",
            });
        }
        let p0_axis: Vec<f64> = (0..p0_points)
            .map(|i| i as f64 / (p0_points - 1) as f64)
            .collect();
        let sleep_axis: Vec<f64> = (0..sleep_points)
            .map(|i| i as f64 / (sleep_points - 1) as f64)
            .collect();
        let mut values = Vec::with_capacity(p0_points * sleep_points);
        // Failure budgets by the bits of their duty ratio: the ratio
        // fixes the shape of the failure condition independent of
        // sleep, and mirrored rows give the same bits.
        let mut budgets: Vec<(u64, f64)> = Vec::new();
        for &p0 in &p0_axis {
            let minor_ratio = solver.rd().minor_ratio(p0);
            let key = minor_ratio.to_bits();
            let t_eff_star = match budgets.iter().find(|&&(k, _)| k == key) {
                Some(&(_, budget)) => budget,
                None => {
                    let dv_star = solver.critical_shift(minor_ratio)?;
                    let budget = solver.rd().effective_years_for(dv_star);
                    budgets.push((key, budget));
                    budget
                }
            };
            for &s in &sleep_axis {
                let profile = StressProfile::new(p0, s, mode)?;
                let (ra, rb) = solver.device_rates(&profile);
                let r_max = ra.max(rb);
                let lt = if r_max <= 0.0 {
                    f64::INFINITY
                } else {
                    t_eff_star / r_max
                };
                values.push(lt.min(cap_years));
            }
        }
        Ok(Self {
            p0_axis,
            sleep_axis,
            values,
            mode,
            cap_years,
        })
    }

    /// Constructs a table from explicit axes and values (row-major over
    /// `p0` then `sleep`). Primarily for tests and deserialization.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if the axes are not strictly
    /// increasing, are shorter than 2, or the value count mismatches.
    pub fn from_grid(
        p0_axis: Vec<f64>,
        sleep_axis: Vec<f64>,
        values: Vec<f64>,
        mode: SleepMode,
    ) -> Result<Self, NbtiError> {
        if p0_axis.len() < 2 || sleep_axis.len() < 2 {
            return Err(NbtiError::InvalidParameter {
                name: "axes",
                value: p0_axis.len().min(sleep_axis.len()) as f64,
                expected: "axes with at least 2 points",
            });
        }
        let increasing = |a: &[f64]| a.windows(2).all(|w| w[1] > w[0]);
        if !increasing(&p0_axis) || !increasing(&sleep_axis) {
            return Err(NbtiError::InvalidParameter {
                name: "axes",
                value: f64::NAN,
                expected: "strictly increasing axes",
            });
        }
        if values.len() != p0_axis.len() * sleep_axis.len() {
            return Err(NbtiError::InvalidParameter {
                name: "values",
                value: values.len() as f64,
                expected: "p0_axis.len() * sleep_axis.len() values",
            });
        }
        let cap_years = values.iter().cloned().fold(0.0, f64::max);
        Ok(Self {
            p0_axis,
            sleep_axis,
            values,
            mode,
            cap_years,
        })
    }

    /// The sleep mode the table was characterized for.
    pub fn mode(&self) -> SleepMode {
        self.mode
    }

    /// The clamp applied to unbounded lifetimes, in years.
    pub fn cap_years(&self) -> f64 {
        self.cap_years
    }

    /// Grid dimensions `(p0_points, sleep_points)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.p0_axis.len(), self.sleep_axis.len())
    }

    /// Bilinear lifetime lookup at `(p0, sleep_fraction)`.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::LutOutOfRange`] if either coordinate lies
    /// outside the tabulated axes (no extrapolation).
    pub fn lifetime_years(&self, p0: f64, sleep_fraction: f64) -> Result<f64, NbtiError> {
        let (i, tp) = Self::locate(&self.p0_axis, p0, "p0")?;
        let (j, ts) = Self::locate(&self.sleep_axis, sleep_fraction, "sleep_fraction")?;
        let w = self.sleep_axis.len();
        let v00 = self.values[i * w + j];
        let v01 = self.values[i * w + j + 1];
        let v10 = self.values[(i + 1) * w + j];
        let v11 = self.values[(i + 1) * w + j + 1];
        let v0 = v00 + (v01 - v00) * ts;
        let v1 = v10 + (v11 - v10) * ts;
        Ok(v0 + (v1 - v0) * tp)
    }

    /// Locates `x` on `axis`: returns the lower cell index and the
    /// interpolation weight within the cell.
    fn locate(axis: &[f64], x: f64, name: &'static str) -> Result<(usize, f64), NbtiError> {
        let first = axis[0];
        let last = axis[axis.len() - 1];
        if !x.is_finite() || x < first - 1e-12 || x > last + 1e-12 {
            return Err(NbtiError::LutOutOfRange {
                axis: name,
                value: x,
            });
        }
        let x = x.clamp(first, last);
        // Binary search for the containing cell.
        let mut lo = 0usize;
        let mut hi = axis.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if axis[mid] <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t = (x - axis[lo]) / (axis[lo + 1] - axis[lo]);
        Ok((lo, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::CellDesign;

    fn lut() -> AgingLut {
        let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
        AgingLut::build(&solver, SleepMode::VoltageScaled, 9, 9, 500.0).unwrap()
    }

    #[test]
    fn lookup_matches_direct_solve_on_and_off_grid() {
        let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
        let lut = lut();
        for &(p0, s) in &[(0.5, 0.0), (0.5, 0.5), (0.25, 0.33), (0.8, 0.9)] {
            let direct = solver
                .lifetime_years(&StressProfile::new(p0, s, SleepMode::VoltageScaled).unwrap())
                .unwrap();
            let interp = lut.lifetime_years(p0, s).unwrap();
            let rel = (direct - interp).abs() / direct;
            assert!(
                rel < 0.05,
                "LUT vs direct at ({p0}, {s}): {interp} vs {direct} (rel {rel})"
            );
        }
    }

    #[test]
    fn out_of_range_is_rejected() {
        let lut = lut();
        assert!(matches!(
            lut.lifetime_years(-0.1, 0.5),
            Err(NbtiError::LutOutOfRange { .. })
        ));
        assert!(matches!(
            lut.lifetime_years(0.5, 1.1),
            Err(NbtiError::LutOutOfRange { .. })
        ));
        assert!(lut.lifetime_years(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn monotone_in_sleep_along_grid() {
        let lut = lut();
        let mut last = 0.0;
        for i in 0..=8 {
            let s = i as f64 / 8.0;
            let lt = lut.lifetime_years(0.5, s).unwrap();
            assert!(lt >= last, "lifetime must grow with sleep in the LUT");
            last = lt;
        }
    }

    #[test]
    fn power_gated_lut_saturates_at_cap() {
        let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
        let lut = AgingLut::build(&solver, SleepMode::power_gated(), 5, 5, 100.0).unwrap();
        let lt = lut.lifetime_years(0.5, 1.0).unwrap();
        assert!((lt - 100.0).abs() < 1e-9, "gated idle cell clamps to cap");
    }

    #[test]
    fn from_grid_validates() {
        let ok = AgingLut::from_grid(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 2.0, 3.0, 4.0],
            SleepMode::VoltageScaled,
        );
        assert!(ok.is_ok());
        assert!(AgingLut::from_grid(
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 2.0, 3.0, 4.0],
            SleepMode::VoltageScaled,
        )
        .is_err());
        assert!(AgingLut::from_grid(
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 2.0],
            SleepMode::VoltageScaled,
        )
        .is_err());
    }

    #[test]
    fn bilinear_interpolation_is_exact_for_bilinear_data() {
        // values = 1 + 2*p0 + 3*s (+0*p0*s) is reproduced exactly.
        let p0_axis = vec![0.0, 0.5, 1.0];
        let s_axis = vec![0.0, 0.5, 1.0];
        let mut values = Vec::new();
        for &p in &p0_axis {
            for &s in &s_axis {
                values.push(1.0 + 2.0 * p + 3.0 * s);
            }
        }
        let lut = AgingLut::from_grid(p0_axis, s_axis, values, SleepMode::VoltageScaled).unwrap();
        for &(p, s) in &[(0.1, 0.9), (0.33, 0.66), (0.75, 0.25)] {
            let got = lut.lifetime_years(p, s).unwrap();
            let want = 1.0 + 2.0 * p + 3.0 * s;
            assert!((got - want).abs() < 1e-12, "({p},{s}): {got} vs {want}");
        }
    }

    #[test]
    fn build_rejects_degenerate_grids() {
        let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap();
        assert!(AgingLut::build(&solver, SleepMode::VoltageScaled, 1, 5, 100.0).is_err());
        assert!(AgingLut::build(&solver, SleepMode::VoltageScaled, 5, 1, 100.0).is_err());
        assert!(AgingLut::build(&solver, SleepMode::VoltageScaled, 5, 5, 0.0).is_err());
    }
}
