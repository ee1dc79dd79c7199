//! Cost of the rotation-aware lifetime pipeline per policy: the daily
//! update loop runs thousands of iterations over the device lifetime,
//! and the tables evaluate it hundreds of times.

use aging_cache::aging::AgingAnalysis;
use aging_cache::registry::PolicyRegistry;
use nbti_model::{CellDesign, LifetimeSolver};
use repro_bench::harness::Harness;
use std::hint::black_box;

fn main() {
    let solver = LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).expect("solver");
    let aging = AgingAnalysis::new(solver);
    let sleep = [0.05, 0.95, 0.90, 0.40];
    // Warm the critical-shift memo so the benches measure the rotation
    // loop, not the one-time SNM bisection.
    aging
        .cache_lifetime(&sleep, 0.5, "identity", 1)
        .expect("warmup");

    let mut g = Harness::new("aging/cache_lifetime");
    for name in PolicyRegistry::global().names() {
        g.bench(&name, || {
            black_box(
                aging
                    .cache_lifetime(black_box(&sleep), 0.5, &name, 1)
                    .expect("lifetime"),
            )
        });
    }

    let mut g = Harness::new("aging");
    g.bench("critical_shift_cold", || {
        let a = AgingAnalysis::new(
            LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).expect("solver"),
        );
        black_box(a.critical_effective_years(0.5).expect("t*"))
    });
}
