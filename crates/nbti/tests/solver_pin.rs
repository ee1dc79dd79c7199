//! Bit pins of the SNM machinery: sampled VTCs, butterfly extractions,
//! critical shifts, DRV bounds and a variation table.
//!
//! Every calibration, lifetime and table in the workspace is a chain of
//! these solves, so any change to the device, VTC or SNM code that moves
//! one bit of their output moves a paper number somewhere. The digests
//! were recorded with the solver that evaluated every device term inside
//! the VTC bisection, sampled both butterfly curves and scanned every
//! segment for every diagonal; they hash `f64`s by their bits.

use nbti_model::{
    AgingLut, CellDesign, DrvAnalysis, LifetimeSolver, ReadInverter, SleepMode, SnmSolver,
    VariationModel, VtcSolver,
};
use std::sync::OnceLock;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn design() -> CellDesign {
    CellDesign::default_45nm()
}

fn solver() -> &'static LifetimeSolver {
    static S: OnceLock<LifetimeSolver> = OnceLock::new();
    S.get_or_init(|| LifetimeSolver::calibrated(design(), 2.93).expect("calibration"))
}

/// A hold-condition inverter (no access device) at rail `vdd`.
fn hold(vdd: f64, shift: f64) -> ReadInverter {
    let d = design();
    ReadInverter::new(d.pullup().with_vth_shift(shift), d.pulldown(), None, vdd).expect("hold")
}

/// The pull-up shifts the grids visit, 0 to 0.5 V.
const SHIFTS: [f64; 9] = [0.0, 0.0125, 0.03, 0.0625, 0.1, 0.15, 0.25, 0.375, 0.5];

#[test]
fn vtc_samples_are_pinned() {
    let d = design();
    let mut h = Fnv::new();
    for &shift in &SHIFTS {
        for points in [161, 64] {
            let read = VtcSolver::sample(&ReadInverter::from_design(&d, shift), points).unwrap();
            for &(u, v) in read.samples() {
                h.f(u);
                h.f(v);
            }
        }
        for vdd in [1.1, 0.4] {
            let held = VtcSolver::sample(&hold(vdd, shift), 161).unwrap();
            for &(u, v) in held.samples() {
                h.f(u);
                h.f(v);
            }
        }
    }
    assert_eq!(
        h.0, 0xc866_1207_aa28_f751,
        "VTC digest moved: {:#018x}",
        h.0
    );
}

#[test]
fn snm_extractions_are_pinned() {
    let d = design();
    let snm = SnmSolver::new();
    let mut h = Fnv::new();
    for &s1 in &SHIFTS {
        for &s2 in &SHIFTS {
            let e = snm
                .extract(
                    &ReadInverter::from_design(&d, s1),
                    &ReadInverter::from_design(&d, s2),
                )
                .unwrap();
            h.f(e.snm);
            h.f(e.lobe_pos);
            h.f(e.lobe_neg);
        }
    }
    // Hold butterflies, symmetric and not, at the rail and near the DRV.
    for vdd in [1.1, 0.75, 0.3] {
        for (s1, s2) in [(0.0, 0.0), (0.08, 0.08), (0.08, 0.0), (0.0, 0.2)] {
            let e = snm.extract(&hold(vdd, s1), &hold(vdd, s2)).unwrap();
            h.f(e.snm);
            h.f(e.lobe_pos);
            h.f(e.lobe_neg);
        }
    }
    assert_eq!(
        h.0, 0xf91f_4246_8723_757d,
        "SNM digest moved: {:#018x}",
        h.0
    );
}

#[test]
fn critical_shifts_are_pinned() {
    let s = solver();
    let mut h = Fnv::new();
    h.f(s.fresh_snm());
    h.f(s.rd().k_nom());
    for ratio in [0.0, 0.5, 1.0] {
        h.f(s.critical_shift(ratio).unwrap());
    }
    assert_eq!(
        h.0, 0x52e9_c712_2b56_3abe,
        "critical-shift digest moved: {:#018x}",
        h.0
    );
}

#[test]
fn drv_bounds_are_pinned() {
    let drv = DrvAnalysis::new(design());
    let mut h = Fnv::new();
    h.f(drv.min_retention_voltage(0.0, 0.0).unwrap());
    h.f(drv.min_retention_voltage(0.08, 0.08).unwrap());
    assert_eq!(
        h.0, 0x1fb3_7154_df41_2d25,
        "DRV digest moved: {:#018x}",
        h.0
    );
}

#[test]
fn variation_table_is_pinned() {
    let table = VariationModel::new(0.030, 32 * 1024)
        .unwrap()
        .characterize(solver())
        .unwrap();
    let mut h = Fnv::new();
    for (m, t) in table.grid() {
        h.f(m);
        h.f(t);
    }
    assert_eq!(
        h.0, 0xc2db_aaf1_c68c_1f27,
        "variation-table digest moved: {:#018x}",
        h.0
    );
}

#[test]
fn aging_lut_is_pinned() {
    // A 9 x 9 table in both sleep modes (power gating clamps the
    // always-asleep column to the cap), read at every grid point and
    // every midpoint between them.
    let mut h = Fnv::new();
    for mode in [SleepMode::VoltageScaled, SleepMode::power_gated()] {
        let lut = AgingLut::build(solver(), mode, 9, 9, 500.0).unwrap();
        for i in 0..=16 {
            for j in 0..=16 {
                h.f(lut
                    .lifetime_years(f64::from(i) / 16.0, f64::from(j) / 16.0)
                    .unwrap());
            }
        }
    }
    assert_eq!(
        h.0, 0x5233_95cf_1e77_9143,
        "AgingLut digest moved: {:#018x}",
        h.0
    );
}
