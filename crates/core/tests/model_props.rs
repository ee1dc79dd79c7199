//! Properties of the device-model axis: operating-point physics moves
//! the right way, the reference model reproduces the pre-model-axis
//! numbers bit-for-bit, and calibration runs exactly once per distinct
//! model key across a grid.

use aging_cache::aging::AgingAnalysis;
use aging_cache::model::{ModelContext, ModelEval, METRIC_LT, METRIC_LT0};
use aging_cache::registry::PolicyRegistry;
use aging_cache::session::StudySession;
use aging_cache::study::StudySpec;
use aging_cache::CoreError;
use cache_sim::{BankMapping, IdentityMapping};
use nbti_model::calibration;

fn probing4() -> impl Fn() -> Result<Box<dyn BankMapping>, CoreError> {
    || PolicyRegistry::global().build("probing", 4, 1)
}

/// Evaluates one model key on a fixed profile and returns `(lt0, lt)`.
fn lifetimes(ctx: &ModelContext, key: &str, sleep: &[f64]) -> (f64, f64) {
    let policy = probing4();
    let metrics = ctx
        .calibrated(key)
        .unwrap_or_else(|e| panic!("{key}: {e}"))
        .evaluate(&ModelEval {
            sleep_fractions: sleep,
            p0: 0.5,
            update_days: 1.0,
            policy: &policy,
        })
        .unwrap_or_else(|e| panic!("{key}: {e}"));
    (
        metrics.get(METRIC_LT0).expect("lt0_years"),
        metrics.get(METRIC_LT).expect("lt_years"),
    )
}

/// Higher operating temperature → shorter lifetime (Arrhenius), for
/// random temperature pairs and sleep profiles.
#[test]
fn hotter_models_always_age_faster() {
    let ctx = ModelContext::new();
    quickprop::cases(if cfg!(debug_assertions) { 4 } else { 8 }, |g| {
        let t_cool = 30.0 + g.f64_in(0.0..60.0);
        let t_hot = t_cool + 5.0 + g.f64_in(0.0..60.0);
        let busy = g.f64_in(0.0..0.4);
        let sleep = [busy, 0.9, 0.7, 0.3];
        let (lt0_cool, lt_cool) = lifetimes(&ctx, &format!("nbti:temp={t_cool}"), &sleep);
        let (lt0_hot, lt_hot) = lifetimes(&ctx, &format!("nbti:temp={t_hot}"), &sleep);
        assert!(
            lt0_hot < lt0_cool && lt_hot < lt_cool,
            "hotter must be shorter-lived: {t_cool}C ({lt0_cool}/{lt_cool}) vs \
             {t_hot}C ({lt0_hot}/{lt_hot})"
        );
    });
}

/// Uniformly larger sleep fractions → longer lifetime, on the
/// reference model.
#[test]
fn more_sleep_always_extends_lifetime() {
    let ctx = ModelContext::new();
    quickprop::cases(if cfg!(debug_assertions) { 4 } else { 8 }, |g| {
        let base: Vec<f64> = (0..4).map(|_| g.f64_in(0.0..0.5)).collect();
        let extra = 0.05 + g.f64_in(0.0..0.3);
        let more: Vec<f64> = base.iter().map(|s| s + extra).collect();
        let (lt0_a, lt_a) = lifetimes(&ctx, "nbti-45nm", &base);
        let (lt0_b, lt_b) = lifetimes(&ctx, "nbti-45nm", &more);
        assert!(
            lt0_b > lt0_a && lt_b > lt_a,
            "sleeping more must extend life: {base:?} ({lt0_a}/{lt_a}) vs \
             {more:?} ({lt0_b}/{lt_b})"
        );
    });
}

/// A laxer failure criterion (larger tolerated SNM degradation) →
/// longer lifetime, monotonically across the axis.
#[test]
fn failure_criterion_is_monotone() {
    let ctx = ModelContext::new();
    let sleep = [0.1, 0.8, 0.6, 0.3];
    let mut last = 0.0f64;
    for fail_pct in [5.0, 10.0, 20.0, 30.0, 40.0] {
        let (lt0, lt) = lifetimes(&ctx, &format!("nbti:fail={fail_pct}"), &sleep);
        assert!(
            lt0 > last,
            "tolerating more degradation must extend life: fail={fail_pct}% \
             gives LT0 {lt0} after {last}"
        );
        // Under the strictest criteria the cell can die within the
        // first update period, where rotation cannot help yet — but it
        // must never hurt.
        assert!(lt >= lt0, "re-indexing must never hurt at fail={fail_pct}%");
        last = lt0;
    }
}

/// Golden: the `nbti-45nm` reference model reproduces the
/// pre-model-axis engine — the reference-calibrated `AgingAnalysis`
/// driving `cache_lifetime_with` directly — **bit for bit**, through a real
/// simulated workload.
#[test]
fn reference_model_matches_the_pr2_engine_bit_for_bit() {
    let spec = StudySpec::new("golden")
        .workload_names(["sha", "CRC32"])
        .unwrap()
        .trace_cycles(40_000)
        .policy_seed(1);
    let report = StudySession::new().run(&spec).expect("study");
    // The analysis the pre-model-axis engine calibrated to the paper's
    // 2.93-year cell.
    let aging = AgingAnalysis::new(calibration::reference_45nm().clone());
    for r in report.records() {
        // The PR-2 engine path: identity baseline + policy rotation
        // from the measured sleep fractions, on that calibrated
        // analysis.
        let mut identity = IdentityMapping;
        let lt0 = aging
            .cache_lifetime_with(&r.sleep_fractions, 0.5, &mut identity)
            .expect("lt0");
        let mut probing = PolicyRegistry::global()
            .build("probing", r.scenario.banks, 1)
            .expect("probing");
        let lt = aging
            .cache_lifetime_with(&r.sleep_fractions, 0.5, probing.as_mut())
            .expect("lt");
        assert_eq!(
            r.lt0_years().to_bits(),
            lt0.to_bits(),
            "{}: LT0 drifted from the historic engine",
            r.scenario.workload
        );
        assert_eq!(
            r.lt_years().to_bits(),
            lt.to_bits(),
            "{}: LT drifted from the historic engine",
            r.scenario.workload
        );
        assert_eq!(
            r.metrics.names().collect::<Vec<_>>(),
            ["lt0_years", "lt_years"]
        );
    }
}

/// Calibration runs exactly once per distinct canonical model key
/// across a whole grid — aliases included.
#[test]
fn grid_calibrates_once_per_distinct_model() {
    let session = StudySession::new();
    let ctx = session.context();
    let spec = StudySpec::new("calibration count")
        .models(["nbti-45nm", "nbti:vlow=0.75", "nbti:temp=105"])
        .policies(["probing", "gray"])
        .workload_names(["profile:0.1,0.8,0.6,0.3"])
        .unwrap();
    let report = session.run(&spec).expect("study");
    // 3 listed models × 2 policies = 6 scenarios, but `nbti:vlow=0.75`
    // canonicalizes to `nbti-45nm`: only 2 distinct models calibrate.
    assert_eq!(report.records().len(), 6);
    assert_eq!(
        ctx.calibration_count(),
        2,
        "one calibration per distinct model"
    );
    // Re-running on the same context calibrates nothing new.
    let again = StudySpec::new("again")
        .models(["nbti:temp=105"])
        .workload_names(["profile:0.1,0.8,0.6,0.3"])
        .unwrap();
    session.run(&again).expect("study");
    assert_eq!(ctx.calibration_count(), 2, "contexts cache across runs");
}

/// The model axis round-trips through report JSON: non-default keys
/// are recorded, the default stays invisible.
#[test]
fn model_axis_round_trips_through_reports() {
    let spec = StudySpec::new("model json")
        .models(["nbti-45nm", "variation:30"])
        .workload_names(["profile:0.1,0.8,0.6,0.3"])
        .unwrap();
    let report = StudySession::new().run(&spec).expect("study");
    let text = report.to_json();
    let back = aging_cache::study::StudyReport::from_json(&text).expect("parse");
    assert_eq!(back.to_json(), text);
    assert_eq!(back.records()[0].scenario.model, "nbti-45nm");
    assert_eq!(back.records()[1].scenario.model, "variation:30");
    assert_eq!(
        back.records()[1].metric("lt0_q10_years"),
        report.records()[1].metric("lt0_q10_years")
    );
}
