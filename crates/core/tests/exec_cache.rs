//! Execution-layer invariants: every executor backend — and a
//! cache-warm replay, in-process or from a reopened on-disk journal —
//! must produce byte-identical `StudyReport` JSON; corrupted journal
//! entries must be rejected loudly, naming their fingerprint.

use aging_cache::exec::ExecOptions;
use aging_cache::rescache::{JsonlCache, MemoryCache};
use aging_cache::session::StudySession;
use aging_cache::study::StudySpec;
use aging_cache::CoreError;

fn grid_spec(session: &StudySession) -> StudySpec {
    session
        .spec("exec equivalence")
        .cache_kb([8, 16])
        .policies(["probing", "gray"])
        .workload_names(["sha", "CRC32"])
        .unwrap()
        .trace_cycles(40_000)
}

#[test]
fn sequential_threaded_and_cache_warm_reports_are_byte_identical() {
    let sequential = StudySession::new().exec(ExecOptions::sequential());
    let reference = sequential.run(&grid_spec(&sequential)).unwrap().to_json();

    let threaded = StudySession::new().exec(ExecOptions::threaded());
    assert_eq!(
        threaded.run(&grid_spec(&threaded)).unwrap().to_json(),
        reference,
        "threaded vs sequential"
    );

    let two_workers = StudySession::new().exec(ExecOptions::threaded().with_threads(2));
    assert_eq!(
        two_workers.run(&grid_spec(&two_workers)).unwrap().to_json(),
        reference,
        "capped worker pool"
    );

    let cached = StudySession::new().cache(MemoryCache::new());
    let spec = grid_spec(&cached);
    assert_eq!(cached.run(&spec).unwrap().to_json(), reference, "cold");
    assert_eq!(cached.run(&spec).unwrap().to_json(), reference, "warm");
    let stats = cached.stats();
    assert_eq!(stats.cache_hits, 8, "the warm run was all hits");
    assert_eq!(stats.evaluations, 8, "only the cold run evaluated");
}

#[test]
fn reopened_journal_replays_without_simulating() {
    let dir = std::env::temp_dir().join(format!("nbti-exec-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let reference = cold.run(&grid_spec(&cold)).unwrap().to_json();
    assert_eq!(cold.stats().cache_stores, 8);

    // A fresh session over the reopened journal — a second process, in
    // effect. Zero simulations, zero model evaluations, same bytes.
    let warm = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    assert_eq!(warm.run(&grid_spec(&warm)).unwrap().to_json(), reference);
    let stats = warm.stats();
    assert_eq!(stats.simulations, 0);
    assert_eq!(stats.evaluations, 0);
    assert_eq!(stats.cache_hits, 8);

    // A widened grid computes only the missing points (the presets pin
    // the policy seed, so shared points keep their fingerprints).
    let wider = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let spec = grid_spec(&wider).policy_seed(1);
    wider.run(&spec).unwrap();
    let before = wider.stats();
    let widened = grid_spec(&wider).policy_seed(1).cache_kb([8, 16, 32]);
    wider.run(&widened).unwrap();
    let after = wider.stats();
    assert_eq!(
        after.evaluations - before.evaluations,
        4,
        "only the new 32 kB column computes"
    );
    // Trace groups skip peer geometries whose every scenario is
    // journaled: the 32 kB column's groups carry no 8 or 16 kB target.
    assert_eq!(
        after.simulations - before.simulations,
        2,
        "only the 32 kB geometry simulates, once per workload"
    );
    assert_eq!(
        after.trace_opens - before.trace_opens,
        2,
        "one stream per workload, opened for the 32 kB column alone"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn poisoned_journal_is_rejected_with_fingerprint_not_deserialized() {
    let dir = std::env::temp_dir().join(format!("nbti-exec-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let spec = session
        .spec("poison")
        .workload_names(["sha"])
        .unwrap()
        .trace_cycles(40_000);
    session.run(&spec).unwrap();
    drop(session);

    // Flip one digit of a measured value inside the journal.
    let path = dir.join(JsonlCache::FILE_NAME);
    let text = std::fs::read_to_string(&path).unwrap();
    let fp = text
        .split('"')
        .nth(3)
        .expect("first line starts {\"fp\":\"…\"}")
        .to_string();
    assert!(fp.starts_with("fnv1a64:"), "{fp}");
    let poisoned = text.replacen("\"esav\":0.", "\"esav\":9.", 1);
    assert_ne!(poisoned, text, "the corruption must apply");
    std::fs::write(&path, poisoned).unwrap();

    let e = JsonlCache::in_dir(&dir).unwrap_err();
    assert!(matches!(e, CoreError::Cache { .. }), "{e:?}");
    let msg = e.to_string();
    assert!(msg.contains(&fp), "error must name the fingerprint: {msg}");
    assert!(msg.contains("mismatch"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_after_interruption_computes_only_missing_points() {
    // Simulate an interrupted sweep: journal only half the grid, then
    // "resume" — the replayed half must not recompute and the report
    // must match an uninterrupted run byte for byte.
    // (The policy seed is pinned: a *sub*-grid renumbers scenario ids,
    // and derived policy seeds — correctly — follow the id. A truly
    // interrupted run keeps its grid and needs no pinning.)
    let dir = std::env::temp_dir().join(format!("nbti-exec-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let full = StudySession::new();
    let reference = full.run(&grid_spec(&full).policy_seed(1)).unwrap();

    let half = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let half_spec = grid_spec(&half).policy_seed(1).policies(["probing"]); // 4 of 8 points
    half.run(&half_spec).unwrap();
    assert_eq!(half.stats().cache_stores, 4);

    let resumed = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let report = resumed.run(&grid_spec(&resumed).policy_seed(1)).unwrap();
    let stats = resumed.stats();
    assert_eq!(stats.cache_hits, 4, "the journaled half replays");
    assert_eq!(stats.evaluations, 4, "only the missing half computes");
    assert_eq!(report.to_json(), reference.to_json());
    std::fs::remove_dir_all(&dir).unwrap();
}
