//! Sweep the device model: the third open axis of the Study API,
//! driven through the [`StudySession`] execution front door.
//!
//! The paper evaluates one device model — a 45 nm cell calibrated to a
//! 2.93-year lifetime at 85 °C with a 20 % SNM failure criterion. This
//! example sweeps exactly that axis: operating temperature, drowsy
//! rail, failure criterion, process variation — and registers a custom
//! model, all through the same grid engine the paper tables run on.
//! The session owns the model context, so calibration counts (and the
//! cross-run simulation memo) are first-class observables.
//!
//! ```sh
//! cargo run --release --example model_sweep
//! ```
//!
//! [`StudySession`]: nbti_cache_repro::arch::session::StudySession

use nbti_cache_repro::arch::model::{ModelContext, ModelRegistry};
use nbti_cache_repro::arch::report::years;
use nbti_cache_repro::arch::session::StudySession;
use nbti_cache_repro::arch::StudySpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A pinned idleness profile drives the physics directly — no trace
    // simulation, so the sweep is pure model evaluation.
    let profile = "profile:0.1,0.8,0.6,0.3";

    // 1. One session, three device-axis sweeps. Every distinct model
    //    calibrates exactly once in the session's context;
    //    `nbti:vlow=0.75` canonicalizes back to `nbti-45nm`, so it
    //    reuses the reference calibration.
    let session = StudySession::new();
    let spec = StudySpec::new("device-model sweep")
        .models([
            "nbti-45nm",        // the paper's reference, bit-for-bit
            "nbti:temp=45",     // cooler silicon, same calibrated drift model
            "nbti:temp=125",    // hotter silicon
            "nbti:fail=10",     // a stricter failure criterion
            "nbti:sleep=gated", // power gating instead of drowsy sleep
            "variation:30",     // worst cell of 37k under 30 mV mismatch
        ])
        .workload_names([profile])?;
    let report = session.run(&spec)?;

    println!(
        "model sweep ({} calibrations):",
        session.context().calibration_count()
    );
    for r in report.records() {
        println!(
            "{:>18}: LT0 {:>8}  LT {:>8}",
            r.scenario.model,
            years(r.lt0_years()),
            years(r.lt_years()),
        );
    }

    // 2. Models expose their calibration provenance — a published
    //    report can name exactly what was measured.
    let model = session.context().registry().resolve("variation:30")?;
    println!(
        "\nprovenance of {}:\n  {}",
        model.name(),
        model.provenance()
    );

    // 3. Custom models register by name, like policies and workloads;
    //    a session over a custom context resolves them everywhere.
    //    This one wraps the reference at a fixed 105 °C hotspot.
    let mut registry = ModelRegistry::builtin();
    let hotspot = registry.resolve("nbti:temp=105")?;
    registry.register_fn(
        "hotspot",
        "the reference cell at a 105 degC hotspot",
        "alias of nbti:temp=105",
        move || hotspot.calibrate(),
    )?;
    let session = StudySession::with_context(ModelContext::with_registry(registry));
    let spec = StudySpec::new("custom model")
        .models(["hotspot"])
        .workload_names([profile])?;
    let report = session.run(&spec)?;
    println!(
        "\ncustom `hotspot` model: LT {}",
        years(report.records()[0].lt_years())
    );
    Ok(())
}
