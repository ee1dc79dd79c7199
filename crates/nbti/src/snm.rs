//! Butterfly-curve Static Noise Margin (SNM) extraction.
//!
//! The SNM of an SRAM cell is "the minimum DC noise voltage necessary to
//! change the state of the cell" (paper §II-A). Graphically it is the side
//! of the **largest square** that fits inside either lobe of the butterfly
//! plot formed by the voltage-transfer curves of the two cross-coupled
//! inverters; the cell's SNM is the *smaller* of the two lobes (asymmetric
//! NBTI degradation shrinks one lobe faster than the other).
//!
//! # Method
//!
//! Both VTCs are sampled densely. For every sample point `P` on curve 1 we
//! shoot the 45° diagonal `P + d·(1, 1)` and find its nearest intersections
//! with curve 2 in the `+d` and `−d` directions (linear interpolation over
//! the curve's segments). A candidate is kept only if the diagonal reaches
//! curve 2 *before* re-crossing curve 1 (this guards against measuring
//! across the butterfly "eye" into the opposite lobe). The corner pair
//! `(P, P + d·(1, 1))` spans an axis-aligned square of side `|d|`; the
//! upper-left lobe is swept in the `+d` direction and the lower-right lobe
//! in `−d`, and `SNM = min(lobe₊, lobe₋)`.
//!
//! Only segments whose ends straddle the diagonal can meet it. Along a
//! sampled VTC the diagonal coordinate `x − y` is monotone, so those
//! segments are one contiguous run, found by binary search; a curve
//! without that order is scanned segment by segment, with the same
//! arithmetic and so the same answer.
//!
//! A cell that has lost bistability (curves cross only once) has a vanished
//! lobe and the extraction correctly reports `SNM = 0`.

use crate::error::NbtiError;
use crate::vtc::{ReadInverter, VtcSolver};
use std::ops::Range;

/// Default number of VTC samples per curve.
const DEFAULT_SAMPLES: usize = 161;

/// The two sampled butterfly curves in the `(V_A, V_B)` plane.
///
/// Curve 1 is inverter 1 (input `V_B`, output `V_A`) sampled as
/// `(f1(v_b), v_b)`; curve 2 is inverter 2 sampled as `(v_a, f2(v_a))`.
#[derive(Debug, Clone, PartialEq)]
pub struct ButterflyCurves {
    /// Points of inverter 1's transfer curve, `(V_A, V_B)` pairs.
    pub curve1: Vec<(f64, f64)>,
    /// Points of inverter 2's transfer curve, `(V_A, V_B)` pairs.
    pub curve2: Vec<(f64, f64)>,
}

/// Result of an SNM extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnmExtraction {
    /// The static noise margin (side of the smaller lobe square), volts.
    pub snm: f64,
    /// Largest square side found in the `+d` (lower-right) sweep, volts.
    pub lobe_pos: f64,
    /// Largest square side found in the `−d` (upper-left) sweep, volts.
    pub lobe_neg: f64,
}

/// Butterfly SNM solver.
///
/// # Examples
///
/// ```
/// use nbti_model::{CellDesign, ReadInverter, SnmSolver};
///
/// # fn main() -> Result<(), nbti_model::NbtiError> {
/// let design = CellDesign::default_45nm();
/// let solver = SnmSolver::new();
/// let fresh = solver.extract(
///     &ReadInverter::from_design(&design, 0.0),
///     &ReadInverter::from_design(&design, 0.0),
/// )?;
/// // A fresh symmetric cell has two equal lobes and a healthy margin.
/// assert!(fresh.snm > 0.05);
/// assert!((fresh.lobe_pos - fresh.lobe_neg).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnmSolver {
    samples: usize,
}

impl Default for SnmSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SnmSolver {
    /// Creates a solver with the default sampling density (161 points per
    /// curve, ≈ 7 mV resolution at Vdd = 1.1 V).
    pub fn new() -> Self {
        Self {
            samples: DEFAULT_SAMPLES,
        }
    }

    /// Creates a solver with a custom per-curve sampling density.
    ///
    /// # Errors
    ///
    /// Returns [`NbtiError::InvalidParameter`] if `samples < 16` (the
    /// extraction becomes meaningless below that).
    pub fn with_samples(samples: usize) -> Result<Self, NbtiError> {
        if samples < 16 {
            return Err(NbtiError::InvalidParameter {
                name: "samples",
                value: samples as f64,
                expected: "at least 16 samples per curve",
            });
        }
        Ok(Self { samples })
    }

    /// Number of samples taken per curve.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Samples the butterfly curves for a pair of (possibly aged) inverters.
    ///
    /// Equal inverters have one VTC, so it is sampled once and mirrored.
    ///
    /// # Errors
    ///
    /// Propagates VTC solver failures.
    pub fn butterfly(
        &self,
        inverter1: &ReadInverter,
        inverter2: &ReadInverter,
    ) -> Result<ButterflyCurves, NbtiError> {
        let vtc2 = VtcSolver::sample(inverter2, self.samples)?;
        let vtc1 = if inverter1 == inverter2 {
            vtc2.clone()
        } else {
            VtcSolver::sample(inverter1, self.samples)?
        };
        // Curve 1: V_A = f1(V_B)  → points (f1(v), v).
        let curve1 = vtc1.samples().iter().map(|&(u, v)| (v, u)).collect();
        // Curve 2: V_B = f2(V_A)  → points (v, f2(v)).
        let curve2 = vtc2.samples().to_vec();
        Ok(ButterflyCurves { curve1, curve2 })
    }

    /// Extracts the read SNM for a pair of (possibly aged) inverters.
    ///
    /// `inverter1` drives node A (its pMOS is stressed while the cell holds
    /// `A = 1`), `inverter2` drives node B.
    ///
    /// # Errors
    ///
    /// Propagates VTC solver failures.
    pub fn extract(
        &self,
        inverter1: &ReadInverter,
        inverter2: &ReadInverter,
    ) -> Result<SnmExtraction, NbtiError> {
        let curves = self.butterfly(inverter1, inverter2)?;
        Ok(Self::extract_from_curves(&curves))
    }

    /// Runs the diagonal-sweep extraction on pre-sampled curves.
    pub fn extract_from_curves(curves: &ButterflyCurves) -> SnmExtraction {
        let curve1 = Diagonal::new(&curves.curve1);
        let curve2 = Diagonal::new(&curves.curve2);
        let lobe_pos = Self::lobe(&curve1, &curve2, Direction::Plus);
        let lobe_neg = Self::lobe(&curve1, &curve2, Direction::Minus);
        SnmExtraction {
            snm: lobe_pos.min(lobe_neg).max(0.0),
            lobe_pos,
            lobe_neg,
        }
    }

    /// Sweeps every point of `from`, shooting the 45° diagonal in the given
    /// direction, and returns the largest guarded square side.
    fn lobe(from: &Diagonal, to: &Diagonal, dir: Direction) -> f64 {
        let mut best = 0.0_f64;
        for (i, &p) in from.points.iter().enumerate() {
            // Nearest crossing with the target curve.
            let Some(d_target) = to.nearest_crossing(p, dir, None) else {
                continue;
            };
            // Nearest re-crossing with our own curve (ignoring the segments
            // adjacent to the launch point).
            let d_self = from.nearest_crossing(p, dir, Some(i));
            if let Some(d_self) = d_self {
                if d_self < d_target {
                    // The diagonal exits the lobe through our own curve
                    // first; the square would not be inscribed.
                    continue;
                }
            }
            best = best.max(d_target);
        }
        best
    }
}

/// Sweep direction along the `(1, 1)` diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Growing `V_A` and `V_B` (toward the upper-left lobe's far corner).
    Plus,
    /// Shrinking `V_A` and `V_B` (toward the lower-right lobe's far corner).
    Minus,
}

/// A sampled curve with each point's diagonal coordinate `x − y`.
///
/// A diagonal through `p` meets segment `j` only if the segment's ends
/// lie on both sides of (or on) the level `p.x − p.y`. Along a sampled
/// VTC that coordinate is monotone — curve 2's input rises while its
/// output falls, and curve 1 is its mirror — so those segments form one
/// contiguous run that a binary search finds. A curve whose coordinate
/// is not monotone is scanned whole.
struct Diagonal<'a> {
    points: &'a [(f64, f64)],
    level: Vec<f64>,
    order: Order,
}

/// How a curve's diagonal coordinate runs along its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Non-decreasing.
    Rising,
    /// Non-increasing.
    Falling,
    /// Neither, or not comparable (a NaN).
    Unordered,
}

impl<'a> Diagonal<'a> {
    fn new(points: &'a [(f64, f64)]) -> Self {
        let level: Vec<f64> = points.iter().map(|&(x, y)| x - y).collect();
        let order = if level.windows(2).all(|w| w[0] <= w[1]) {
            Order::Rising
        } else if level.windows(2).all(|w| w[0] >= w[1]) {
            Order::Falling
        } else {
            Order::Unordered
        };
        Self {
            points,
            level,
            order,
        }
    }

    /// Every segment index, the scan's range.
    fn segments(&self) -> Range<usize> {
        0..self.points.len().saturating_sub(1)
    }

    /// The segments whose ends straddle or touch level `l` — on a
    /// monotone curve, the only ones [`crossing_over`](Self::crossing_over)
    /// does not skip.
    fn candidates(&self, l: f64) -> Range<usize> {
        // `first` is the first point at or past `l`, `past` the first
        // point strictly past it: segment j is a candidate iff
        // j + 1 >= first and j < past.
        let (first, past) = match self.order {
            Order::Rising => (
                self.level.partition_point(|&h| h < l),
                self.level.partition_point(|&h| h <= l),
            ),
            Order::Falling => (
                self.level.partition_point(|&h| h > l),
                self.level.partition_point(|&h| h >= l),
            ),
            Order::Unordered => return self.segments(),
        };
        first.saturating_sub(1)..past.min(self.points.len().saturating_sub(1))
    }

    /// Finds the nearest intersection of the diagonal through `p` with
    /// this curve, in direction `dir`, returning the |distance| along the
    /// `V_A` axis. `skip_around` excludes the two segments adjacent to a
    /// launch index (used when intersecting a curve with itself).
    fn nearest_crossing(
        &self,
        p: (f64, f64),
        dir: Direction,
        skip_around: Option<usize>,
    ) -> Option<f64> {
        let line_level = p.0 - p.1;
        self.crossing_over(self.candidates(line_level), p, dir, skip_around)
    }

    /// [`nearest_crossing`](Self::nearest_crossing) over the segments in
    /// `segments` only.
    fn crossing_over(
        &self,
        segments: Range<usize>,
        p: (f64, f64),
        dir: Direction,
        skip_around: Option<usize>,
    ) -> Option<f64> {
        let line_level = p.0 - p.1;
        let mut nearest: Option<f64> = None;
        for j in segments {
            if let Some(skip) = skip_around {
                // Exclude segments that touch the launch sample.
                if j + 1 == skip || j == skip {
                    continue;
                }
            }
            let (ax, _) = self.points[j];
            let (bx, _) = self.points[j + 1];
            let ha = self.level[j] - line_level;
            let hb = self.level[j + 1] - line_level;
            if (ha > 0.0 && hb > 0.0) || (ha < 0.0 && hb < 0.0) {
                continue;
            }
            let denom = ha - hb;
            let t = if denom.abs() < f64::EPSILON {
                0.0
            } else {
                ha / denom
            };
            let qx = ax + t * (bx - ax);
            let d = qx - p.0;
            let dist = match dir {
                Direction::Plus if d > 1e-12 => d,
                Direction::Minus if d < -1e-12 => -d,
                _ => continue,
            };
            nearest = Some(match nearest {
                Some(cur) => cur.min(dist),
                None => dist,
            });
        }
        nearest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::CellDesign;

    fn design() -> CellDesign {
        CellDesign::default_45nm()
    }

    fn snm_with_shifts(d1: f64, d2: f64) -> SnmExtraction {
        let d = design();
        SnmSolver::new()
            .extract(
                &ReadInverter::from_design(&d, d1),
                &ReadInverter::from_design(&d, d2),
            )
            .unwrap()
    }

    #[test]
    fn fresh_cell_has_symmetric_lobes() {
        let e = snm_with_shifts(0.0, 0.0);
        assert!(e.snm > 0.05, "fresh read SNM too small: {}", e.snm);
        assert!(e.snm < 0.5, "fresh read SNM implausibly large: {}", e.snm);
        let asym = (e.lobe_pos - e.lobe_neg).abs() / e.snm;
        assert!(asym < 0.05, "lobes should be symmetric, asym = {asym}");
    }

    #[test]
    fn read_snm_below_hold_snm() {
        let d = design();
        let read = snm_with_shifts(0.0, 0.0);
        let hold_inv = ReadInverter::new(d.pullup(), d.pulldown(), None, d.vdd()).unwrap();
        let hold = SnmSolver::new().extract(&hold_inv, &hold_inv).unwrap();
        assert!(
            read.snm < hold.snm,
            "read SNM ({}) must be below hold SNM ({})",
            read.snm,
            hold.snm
        );
    }

    #[test]
    fn snm_decreases_monotonically_with_symmetric_aging() {
        let mut last = f64::INFINITY;
        for step in 0..6 {
            let dv = 0.02 * step as f64;
            let e = snm_with_shifts(dv, dv);
            assert!(
                e.snm <= last + 1e-4,
                "SNM must not grow with aging (dv = {dv}): {} > {last}",
                e.snm
            );
            last = e.snm;
        }
    }

    #[test]
    fn asymmetric_aging_hurts_more_than_balanced_half() {
        // Same *total* Vth shift, concentrated on one device vs split:
        // the worst-case lobe shrinks faster when concentrated.
        let concentrated = snm_with_shifts(0.08, 0.0);
        let split = snm_with_shifts(0.04, 0.04);
        assert!(
            concentrated.snm <= split.snm + 1e-3,
            "concentrated {} vs split {}",
            concentrated.snm,
            split.snm
        );
    }

    #[test]
    fn snm_is_symmetric_under_inverter_swap() {
        let a = snm_with_shifts(0.06, 0.01);
        let b = snm_with_shifts(0.01, 0.06);
        assert!(
            (a.snm - b.snm).abs() < 2e-3,
            "swap symmetry violated: {} vs {}",
            a.snm,
            b.snm
        );
    }

    #[test]
    fn heavy_aging_erodes_most_of_the_margin() {
        // 0.5 V of symmetric drift destroys well over half the fresh
        // margin (far beyond the paper's 20 % failure criterion). Beyond
        // that the model's read "SNM" recovers non-physically (the dead
        // pull-up leaves an access-loaded 4T-like cell), which is why the
        // lifetime solver brackets the FIRST crossing.
        let fresh = snm_with_shifts(0.0, 0.0);
        let aged = snm_with_shifts(0.5, 0.5);
        assert!(
            aged.snm < 0.5 * fresh.snm,
            "0.5 V of aging should halve the margin: {} vs fresh {}",
            aged.snm,
            fresh.snm
        );
    }

    #[test]
    fn solver_sampling_validation() {
        assert!(SnmSolver::with_samples(8).is_err());
        assert!(SnmSolver::with_samples(64).is_ok());
    }

    #[test]
    fn denser_sampling_refines_but_does_not_change_regime() {
        let d = design();
        let coarse = SnmSolver::with_samples(81)
            .unwrap()
            .extract(
                &ReadInverter::from_design(&d, 0.0),
                &ReadInverter::from_design(&d, 0.0),
            )
            .unwrap();
        let fine = SnmSolver::with_samples(321)
            .unwrap()
            .extract(
                &ReadInverter::from_design(&d, 0.0),
                &ReadInverter::from_design(&d, 0.0),
            )
            .unwrap();
        assert!(
            (coarse.snm - fine.snm).abs() < 0.01,
            "sampling sensitivity too high: {} vs {}",
            coarse.snm,
            fine.snm
        );
    }

    /// Bit-exact form of a crossing, so `None`, `-0.0` and NaN compare.
    fn bits(d: Option<f64>) -> Option<u64> {
        d.map(f64::to_bits)
    }

    /// Asserts the searched crossing equals the full scan for the
    /// diagonal through `p`, both directions; returns the length of
    /// the candidate run.
    fn check_against_scan(curve: &Diagonal, p: (f64, f64), skip_around: Option<usize>) -> usize {
        for dir in [Direction::Plus, Direction::Minus] {
            let searched = curve.nearest_crossing(p, dir, skip_around);
            let scanned = curve.crossing_over(curve.segments(), p, dir, skip_around);
            assert_eq!(
                bits(searched),
                bits(scanned),
                "p = {p:?}, {dir:?}, skip {skip_around:?}, run {:?}, curve {:?}",
                curve.candidates(p.0 - p.1),
                curve.points
            );
        }
        curve.candidates(p.0 - p.1).len()
    }

    /// The searched crossing equals the scan bit for bit on random
    /// polylines with a monotone diagonal coordinate: rising and
    /// falling, with plateaus of equal `x − y`, diagonals through
    /// vertices, between them and off either end, and each vertex as a
    /// launch point on its own curve with its neighbours skipped.
    ///
    /// Coordinates are multiples of 1/64, so `x − y` is exact and the
    /// plateaus and vertex hits are real ties, not near-misses.
    #[test]
    fn searched_crossing_equals_the_scan_on_monotone_polylines() {
        let cases = if cfg!(debug_assertions) { 256 } else { 4096 };
        let (mut plateaus, mut vertex_hits, mut falling, mut self_runs) = (0, 0, 0, 0);
        quickprop::cases(cases, |g| {
            let n = g.usize_in(1..24);
            let mut level = g.u64_in(0..8) as i64;
            let mut points: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    // Repeats make plateaus; steps of 1-3 make rises.
                    if g.u64_in(0..3) != 0 {
                        level += g.u64_in(1..4) as i64;
                    }
                    let x = g.u64_in(0..96) as i64 - 32;
                    ((x as f64) / 64.0, ((x - level) as f64) / 64.0)
                })
                .collect();
            if g.u64_in(0..2) == 0 {
                points.reverse();
            }
            let curve = Diagonal::new(&points);
            assert_ne!(curve.order, Order::Unordered, "{points:?}");
            if curve.order == Order::Falling {
                falling += 1;
            }
            if curve.level.windows(2).any(|w| w[0] == w[1]) {
                plateaus += 1;
            }
            for (i, &(x, y)) in points.iter().enumerate() {
                if check_against_scan(&curve, (x, y), Some(i)) > 0 {
                    self_runs += 1;
                }
                // A diagonal through a vertex from off the curve.
                let dx = g.u64_in(0..64) as f64 / 64.0 - 0.5;
                let through = (x + dx, y + dx);
                vertex_hits += usize::from(check_against_scan(&curve, through, None) > 0);
            }
            for _ in 0..8 {
                let p = (g.f64_in(-1.0..1.5), g.f64_in(-1.0..1.5));
                check_against_scan(&curve, p, None);
            }
        });
        // Every shape the property claims to cover occurred.
        for (what, count) in [
            ("plateau", plateaus),
            ("vertex hit", vertex_hits),
            ("falling curve", falling),
            ("self-curve run", self_runs),
        ] {
            assert!(count > 0, "no {what} generated");
        }
    }

    /// The same equality on real butterflies: every sample of either
    /// curve launched at both curves, read and hold, fresh and aged,
    /// symmetric and not — and both VTC curves classify as monotone, so
    /// the extraction never falls back to the scan.
    #[test]
    fn searched_crossing_equals_the_scan_on_butterflies() {
        let d = design();
        let hold = |vdd: f64, dv: f64| {
            ReadInverter::new(d.pullup().with_vth_shift(dv), d.pulldown(), None, vdd).unwrap()
        };
        let pairs = [
            (
                ReadInverter::from_design(&d, 0.0),
                ReadInverter::from_design(&d, 0.0),
            ),
            (
                ReadInverter::from_design(&d, 0.08),
                ReadInverter::from_design(&d, 0.02),
            ),
            (
                ReadInverter::from_design(&d, 0.0),
                ReadInverter::from_design(&d, 0.3),
            ),
            (
                ReadInverter::from_design(&d, 0.5),
                ReadInverter::from_design(&d, 0.5),
            ),
            (hold(1.1, 0.0), hold(1.1, 0.0)),
            (hold(0.3, 0.08), hold(0.3, 0.0)),
        ];
        let solver = SnmSolver::with_samples(81).unwrap();
        for (i1, i2) in &pairs {
            let curves = solver.butterfly(i1, i2).unwrap();
            let c1 = Diagonal::new(&curves.curve1);
            let c2 = Diagonal::new(&curves.curve2);
            assert_eq!(c1.order, Order::Falling);
            assert_eq!(c2.order, Order::Rising);
            for (from, to) in [(&c1, &c2), (&c2, &c1)] {
                for (i, &p) in from.points.iter().enumerate() {
                    check_against_scan(to, p, None);
                    check_against_scan(from, p, Some(i));
                }
            }
        }
    }

    #[test]
    fn unordered_curves_are_scanned_whole() {
        let points = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (1.0, 0.0)];
        let curve = Diagonal::new(&points);
        assert_eq!(curve.order, Order::Unordered);
        assert_eq!(curve.candidates(0.25), curve.segments());
        check_against_scan(&curve, (0.25, 0.0), None);
    }

    #[test]
    fn equal_inverters_sample_one_curve_exactly() {
        let d = design();
        let inv = ReadInverter::from_design(&d, 0.04);
        let curves = SnmSolver::new().butterfly(&inv, &inv).unwrap();
        let vtc = VtcSolver::sample(&inv, SnmSolver::new().samples()).unwrap();
        assert_eq!(curves.curve2, vtc.samples());
        let mirrored: Vec<(f64, f64)> = vtc.samples().iter().map(|&(u, v)| (v, u)).collect();
        assert_eq!(curves.curve1, mirrored);
    }
}
