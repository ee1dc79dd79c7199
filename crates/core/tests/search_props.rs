//! Properties of the search layer: drivers are deterministic
//! (same space + budget ⇒ byte-identical [`SearchReport`]), bisection
//! agrees with the exhaustive reference on monotone axes while
//! issuing measurably fewer probes, no driver exceeds its budget, and
//! a repeated search over a warm journal performs **zero**
//! simulations and replays the identical report.

use aging_cache::rescache::JsonlCache;
use aging_cache::search::{Constraint, Driver, Objective, ScenarioSpace, Search, SearchReport};
use aging_cache::session::StudySession;
use aging_cache::study::StudySpec;

/// A pinned monotone space: one workload, one geometry, a
/// temperature family on the model axis. `tests/model_props.rs`
/// proves hotter models always age faster, so `lt_years` is strictly
/// decreasing along this axis — exactly the contract the bisection
/// driver exploits.
fn temp_space(n: usize) -> ScenarioSpace {
    let keys: Vec<String> = (0..n)
        .map(|i| format!("nbti:temp={}", 60 + 10 * i))
        .collect();
    ScenarioSpace::grid(
        StudySpec::new("temp family")
            .workload_names(["sha"])
            .expect("workloads")
            .trace_cycles(20_000)
            .models(keys),
    )
}

/// A cheap space on the update-period axis: a single simulation
/// serves every point (the memo dedupes by sim inputs), so property
/// loops stay fast. The policy seed is pinned so the same axis point
/// keeps the same identity in every composition — different spaces
/// number their scenarios differently, and a derived policy seed
/// would make the "same" point a different measurement.
fn update_space(days: &[f64]) -> ScenarioSpace {
    ScenarioSpace::grid(update_spec(days))
}

fn update_spec(days: &[f64]) -> StudySpec {
    StudySpec::new("update sweep")
        .workload_names(["sha"])
        .expect("workloads")
        .trace_cycles(20_000)
        .policy_seed(1)
        .update_days(days.iter().copied())
}

#[test]
fn bisect_agrees_with_exhaustive_and_probes_fewer() {
    let session = StudySession::new();
    let exhaustive = Search::new(temp_space(8), Objective::maximize("lt_years"))
        .driver(Driver::Exhaustive)
        .run(&session)
        .expect("exhaustive");
    let bisect = Search::new(temp_space(8), Objective::maximize("lt_years"))
        .driver(Driver::Bisect)
        .run(&session)
        .expect("bisect");

    let (e, b) = (
        exhaustive.incumbent().expect("exhaustive incumbent"),
        bisect.incumbent().expect("bisect incumbent"),
    );
    assert_eq!(e.scenario, b.scenario, "same winning configuration");
    assert_eq!(e.value, b.value, "same winning value, bit for bit");
    assert_eq!(exhaustive.probes_issued(), 8);
    assert!(
        bisect.probes_issued() < exhaustive.probes_issued(),
        "bisection must beat enumeration: {} vs {}",
        bisect.probes_issued(),
        exhaustive.probes_issued()
    );
    assert!(
        bisect.notes().iter().all(|n| !n.contains("falling back")),
        "the proven-monotone axis must not trip the audit: {:?}",
        bisect.notes()
    );
}

#[test]
fn bisect_finds_the_constrained_boundary() {
    let session = StudySession::new();
    // Reference pass: the exhaustive lifetimes along the temp axis.
    let reference = Search::new(temp_space(8), Objective::maximize("lt_years"))
        .run(&session)
        .expect("reference");
    let mut lifetimes: Vec<f64> = reference
        .batches()
        .iter()
        .flat_map(|b| b.probes.iter().map(|p| p.value))
        .collect();
    assert_eq!(lifetimes.len(), 8);
    lifetimes.sort_by(|a, b| a.total_cmp(b));
    // A bound strictly between two interior lifetimes, so the
    // feasibility boundary is interior to the axis.
    let bound = (lifetimes[2] + lifetimes[3]) / 2.0;

    // "Hottest operating point still meeting the lifetime bound":
    // minimize lt_years subject to lt_years >= bound.
    let constrained = Search::new(temp_space(8), Objective::minimize("lt_years"))
        .constraint(Constraint::at_least("lt_years", bound).expect("bound"))
        .driver(Driver::Bisect)
        .run(&session)
        .expect("bisect");
    let exhaustive = Search::new(temp_space(8), Objective::minimize("lt_years"))
        .constraint(Constraint::at_least("lt_years", bound).expect("bound"))
        .driver(Driver::Exhaustive)
        .run(&session)
        .expect("exhaustive");

    let (b, e) = (
        constrained.incumbent().expect("bisect incumbent"),
        exhaustive.incumbent().expect("exhaustive incumbent"),
    );
    assert_eq!(b.scenario, e.scenario, "boundary point agrees");
    assert!(b.value >= bound, "incumbent is feasible");
    assert!(
        constrained.probes_issued() < 8,
        "boundary search must not enumerate: {} probes",
        constrained.probes_issued()
    );
}

#[test]
fn drivers_are_deterministic_and_respect_budget() {
    quickprop::cases(if cfg!(debug_assertions) { 3 } else { 5 }, |g| {
        let n = g.usize_in(2..7);
        let days: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let budget = g.usize_in(1..(n + 3));
        let driver = *g.pick(&[Driver::Exhaustive, Driver::Bisect, Driver::Refine]);

        let run = || {
            Search::new(update_space(&days), Objective::maximize("lt_years"))
                .driver(driver)
                .budget(budget)
                .run(&StudySession::new())
                .expect("search")
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{driver:?} over {n} points, budget {budget}: reports must be byte-identical"
        );
        assert!(
            a.probes_issued() <= budget,
            "{driver:?} issued {} probes over budget {budget}",
            a.probes_issued()
        );
        // The trace's own arithmetic agrees with the accessors.
        let traced: usize = a.batches().iter().map(|b| b.probes.len()).sum();
        assert_eq!(traced, a.probes_issued());
        assert_eq!(a.space_len(), n);
    });
}

#[test]
fn search_report_round_trips_through_json() {
    let report = Search::new(
        update_space(&[1.0, 2.0, 4.0]),
        Objective::maximize("lt_years"),
    )
    .constraint(Constraint::at_most("miss_rate", 0.5).expect("constraint"))
    .driver(Driver::Refine)
    .ensemble(2)
    .run(&StudySession::new())
    .expect("search");
    let back = SearchReport::from_json(&report.to_json()).expect("parse");
    assert_eq!(back, report);
    assert_eq!(back.to_json(), report.to_json());
    assert_eq!(back.ensemble(), 2);
    // Every candidate carries two ensemble members in the probed
    // study, and the canonical member stays byte-compatible with a
    // plain sweep (member 0 is the untouched scenario).
    assert_eq!(report.probed().records().len(), report.probes_issued() * 2);
}

#[test]
fn ensemble_mean_brackets_are_finite_and_member_zero_is_canonical() {
    let session = StudySession::new();
    let report = Search::new(update_space(&[1.0, 2.0]), Objective::maximize("lt_years"))
        .ensemble(3)
        .run(&session)
        .expect("search");
    for batch in report.batches() {
        for p in &batch.probes {
            assert!(p.value.is_finite());
            assert!(p.ci95.is_finite() && p.ci95 >= 0.0);
        }
    }
    // Member 0 of each candidate is the canonical scenario: same
    // trace seed a plain sweep derives.
    let sweep = StudySession::new()
        .run(&update_spec(&[1.0, 2.0]))
        .expect("sweep");
    for (candidate, chunk) in sweep
        .records()
        .iter()
        .zip(report.probed().records().chunks(3))
    {
        let member0 = chunk.first().expect("ensemble member 0");
        assert_eq!(member0.scenario, candidate.scenario);
        assert_eq!(member0.lt_years(), candidate.lt_years());
    }
}

#[test]
fn warm_journal_replays_the_identical_report_with_zero_simulations() {
    let dir = std::env::temp_dir().join(format!("nbti-search-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let search = || {
        Search::new(temp_space(5), Objective::maximize("lt_years"))
            .driver(Driver::Bisect)
            .constraint(Constraint::at_least("esav", 0.0).expect("constraint"))
    };

    // Cold: every probe simulates and lands in the journal.
    let cold_session = StudySession::new().cache(JsonlCache::in_dir(&dir).expect("journal"));
    let cold = search().run(&cold_session).expect("cold search");
    let cold_stats = cold_session.stats();
    assert!(cold_stats.simulations > 0, "cold run must compute");
    assert_eq!(cold_stats.cache_hits, 0);

    // Warm: a fresh session over the same journal replays everything.
    let warm_session = StudySession::new().cache(JsonlCache::in_dir(&dir).expect("journal"));
    let warm = search().run(&warm_session).expect("warm search");
    let warm_stats = warm_session.stats();
    assert_eq!(warm_stats.simulations, 0, "warm search must not simulate");
    assert_eq!(warm_stats.evaluations, 0, "warm search must not evaluate");
    assert_eq!(
        warm.to_json(),
        cold.to_json(),
        "replay must be byte-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn space_algebra_composes_with_caching_intact() {
    // filter keeps ids and seeds, so the filtered space's probes hit
    // the cache entries the full space wrote.
    let dir = std::env::temp_dir().join(format!("nbti-search-algebra-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let full = || update_space(&[1.0, 2.0, 4.0, 8.0]);
    let session = StudySession::new().cache(JsonlCache::in_dir(&dir).expect("journal"));
    Search::new(full(), Objective::maximize("lt_years"))
        .run(&session)
        .expect("full space");
    let sims_after_full = session.stats().simulations;
    let evals_after_full = session.stats().evaluations;

    let filtered = full().filter(|s| s.update_days <= 2.0);
    let report = Search::new(filtered, Objective::maximize("lt_years"))
        .run(&session)
        .expect("filtered");
    assert_eq!(report.space_len(), 2);
    assert_eq!(
        session.stats().simulations,
        sims_after_full,
        "filtered probes must replay, not simulate"
    );
    assert_eq!(session.stats().evaluations, evals_after_full);

    // union dedups by full identity: the overlap costs nothing new.
    let unioned = full().union(update_space(&[2.0, 16.0]));
    let report = Search::new(unioned, Objective::maximize("lt_years"))
        .run(&session)
        .expect("union");
    assert_eq!(report.space_len(), 5, "4 + 2 with one duplicate");
    assert_eq!(
        session.stats().evaluations - evals_after_full,
        1,
        "only the genuinely new point computes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_search_rejects_bad_metrics_and_categorical_bisection() {
    use aging_cache::check::check_search;
    use aging_cache::model::ModelRegistry;

    let check = |search: &Search| {
        check_search(
            search,
            search.space().expand().as_ref(),
            ModelRegistry::global(),
        )
    };
    let good = Search::new(update_space(&[1.0, 2.0]), Objective::maximize("lt_years"));
    assert!(check(&good).is_clean());

    let bad_metric = Search::new(
        update_space(&[1.0, 2.0]),
        Objective::maximize("warp_factor"),
    );
    let report = check(&bad_metric);
    assert!(!report.is_clean());
    assert!(
        report
            .findings()
            .iter()
            .any(|f| f.code == "search-objective" && f.message.contains("warp_factor")),
        "{report}"
    );

    let categorical = ScenarioSpace::grid(
        StudySpec::new("policies")
            .workload_names(["sha"])
            .expect("workloads")
            .trace_cycles(20_000)
            .policies(["identity", "probing", "scrambling"]),
    );
    let report =
        check(&Search::new(categorical, Objective::maximize("lt_years")).driver(Driver::Bisect));
    assert!(
        report
            .findings()
            .iter()
            .any(|f| f.code == "search-driver" && f.message.contains("categorical")),
        "{report}"
    );

    // Zero budget is an error before anything expands.
    let report =
        check(&Search::new(update_space(&[1.0, 2.0]), Objective::maximize("lt_years")).budget(0));
    assert!(report.findings().iter().any(|f| f.code == "search-budget"));
}
