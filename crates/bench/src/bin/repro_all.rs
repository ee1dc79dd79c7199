//! Runs the complete reproduction: Tables I–IV, the headline claims, the
//! RNG-error study and the policy-equivalence check, in paper order —
//! every table a `StudySpec` preset over the generic grid runner.
//!
//! All presets share one [`StudySession`], so its session-scoped
//! simulation memo deduplicates the trace simulations the tables have
//! in common (Table II's 16 kB column is Table I's grid; Table IV's
//! 4-bank row is Table II's; the claims re-run Table II whole; the
//! policy-equivalence grid re-uses Table I's simulations under a
//! second policy). The stdout report is byte-identical to the
//! pre-session runner; the sharing is asserted — strictly fewer
//! simulations than scenarios — and summarized on stderr.
//!
//! `cargo run --release -p repro-bench --bin repro_all | tee repro.txt`
//!
//! [`StudySession`]: aging_cache::session::StudySession

use aging_cache::experiment::rng_error;
use aging_cache::{presets, views};
use repro_bench::{default_config, run_preset, section, session};

fn main() {
    let cfg = default_config();
    let session = session();

    section("Table I - idleness distribution (16 kB, 16 B lines, M = 4)");
    run_preset(presets::table1(&cfg), &session, views::table1);

    section("Table II - Esav / LT0 / LT vs cache size");
    run_preset(presets::table2(&cfg), &session, views::table2);

    section("Table III - Esav / LT vs line size");
    run_preset(presets::table3(&cfg), &session, views::table3);

    section("Table IV - idleness / LT vs cache size and banks");
    run_preset(presets::table4(&cfg), &session, views::table4);

    section("Headline claims (Sec. IV-B1)");
    run_preset(presets::claims(&cfg), &session, views::claims);

    section("RNG repetition error (Sec. IV-B2)");
    match rng_error(2, &[16, 64, 256, 1024, 4096, 16384, 65536]) {
        Ok(t) => println!("{t}"),
        Err(e) => eprintln!("rng_error failed: {e}"),
    }

    section("Probing vs Scrambling (Sec. IV-B2)");
    run_preset(
        presets::policy_equivalence(&cfg),
        &session,
        views::policy_equivalence,
    );

    // The whole point of sharing one session: overlapping table grids
    // must not re-simulate their common points.
    let stats = session.stats();
    assert!(
        stats.simulations < stats.scenarios,
        "session memo failed to share work: {} simulations for {} scenarios",
        stats.simulations,
        stats.scenarios
    );
    eprintln!(
        "[session] scenarios: {}, simulations: {} ({} shared via the session memo), \
         trace opens: {}",
        stats.scenarios, stats.simulations, stats.sim_memo_hits, stats.trace_opens
    );
}
