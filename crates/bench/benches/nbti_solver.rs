//! Cost of the NBTI characterization pieces: VTC sampling, butterfly SNM
//! extraction, the critical-shift solve, a full calibrated lifetime
//! solve, the DRV bounds, LUT construction and the LUT lookup the cache
//! simulator actually pays per query.
//!
//! The model layer's pieces run several times, and the median of each
//! run's mean goes into `BENCH_study.json` as the `nbti_model` row.
//! Each piece is single-threaded, but the host's scheduling still moves
//! the numbers: rows are comparable only when both were written pinned
//! to one CPU,
//!
//! `taskset -c 0 cargo bench -p repro-bench --bench nbti_solver`

use nbti_model::{
    AgingLut, CellDesign, DrvAnalysis, LifetimeSolver, ReadInverter, SleepMode, SnmSolver,
    StressProfile, VtcSolver,
};
use repro_bench::harness::{median, write_baseline, Harness};
use std::hint::black_box;

/// How many harness runs each row figure is the median of.
const RUNS: usize = 5;

fn main() {
    let design = CellDesign::default_45nm();
    let mut g = Harness::new("nbti");

    let inv = ReadInverter::from_design(&design, 0.02);
    let snm = SnmSolver::new();
    let (i1, i2) = (
        ReadInverter::from_design(&design, 0.03),
        ReadInverter::from_design(&design, 0.01),
    );
    let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).expect("solver");
    let profile = StressProfile::new(0.5, 0.42, SleepMode::VoltageScaled).expect("profile");
    // The `drv` model's calibration: the fresh and end-of-life bounds.
    let drv = DrvAnalysis::new(design.clone());

    // (harness name, row field, ns per unit of the field, piece)
    type Piece<'a> = (&'a str, &'a str, f64, Box<dyn FnMut() + 'a>);
    let mut pieces: Vec<Piece> = vec![
        (
            "vtc_sample_161",
            "vtc_sample_161_us",
            1e3,
            Box::new(|| {
                black_box(VtcSolver::sample(black_box(&inv), 161).expect("vtc"));
            }),
        ),
        (
            "snm_extract",
            "snm_extract_us",
            1e3,
            Box::new(|| {
                black_box(snm.extract(black_box(&i1), black_box(&i2)).expect("snm"));
            }),
        ),
        (
            "snm_extract_symmetric",
            "snm_extract_symmetric_us",
            1e3,
            Box::new(|| {
                black_box(snm.extract(black_box(&i1), black_box(&i1)).expect("snm"));
            }),
        ),
        (
            "critical_shift_1",
            "critical_shift_ms",
            1e6,
            Box::new(|| {
                black_box(solver.critical_shift(black_box(1.0)).expect("critical"));
            }),
        ),
        (
            "critical_shift_0.5",
            "critical_shift_asymmetric_ms",
            1e6,
            Box::new(|| {
                black_box(solver.critical_shift(black_box(0.5)).expect("critical"));
            }),
        ),
        (
            "lifetime_solve",
            "lifetime_solve_ms",
            1e6,
            Box::new(|| {
                black_box(
                    solver
                        .lifetime_years(black_box(&profile))
                        .expect("lifetime"),
                );
            }),
        ),
        (
            "drv_bounds",
            "drv_bounds_ms",
            1e6,
            Box::new(|| {
                black_box(drv.min_retention_voltage(0.0, 0.0).expect("fresh drv"));
                black_box(drv.min_retention_voltage(0.08, 0.08).expect("aged drv"));
            }),
        ),
    ];
    let mut runs = vec![Vec::with_capacity(RUNS); pieces.len()];
    for _ in 0..RUNS {
        for ((name, _, unit, piece), runs) in pieces.iter_mut().zip(&mut runs) {
            runs.push(g.bench(name, piece) / *unit);
        }
    }
    let mut fields = vec![("runs", RUNS as f64)];
    for ((_, field, _, _), runs) in pieces.iter().zip(&mut runs) {
        fields.push((*field, median(runs)));
    }

    g.bench("lut_build_9x9", || {
        AgingLut::build(&solver, SleepMode::VoltageScaled, 9, 9, 500.0).expect("lut")
    });

    let lut = AgingLut::build(&solver, SleepMode::VoltageScaled, 17, 17, 500.0).expect("lut");
    let mut x = 0.1f64;
    g.bench("lut_lookup", || {
        x = (x + 0.013) % 0.99;
        black_box(
            lut.lifetime_years(black_box(0.5), black_box(x))
                .expect("lookup"),
        )
    });

    println!();
    for (name, value) in &fields {
        println!("nbti_model/{name:<30} {value:>12.3}");
    }
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_study.json");
    write_baseline(baseline, "nbti_model", &fields).expect("write BENCH_study.json");
    println!("\nwrote {baseline}");
}
