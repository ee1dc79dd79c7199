//! The paper's tables as [`StudySpec`] presets.
//!
//! Each preset is a handful of axis declarations over the generic grid
//! runner — the entire "runner" the old hardcoded `tableN` functions
//! used to be. Rendering lives in [`crate::views`], which are pure
//! functions of the resulting [`StudyReport`](crate::study::StudyReport).
//!
//! All presets pin the policy seed to `1` (the historic LFSR seed) so
//! the measured values match the pre-redesign runners bit-for-bit.
//!
//! # Examples
//!
//! Regenerating a paper table is preset → run → view:
//!
//! ```no_run
//! use aging_cache::experiment::ExperimentConfig;
//! use aging_cache::session::StudySession;
//! use aging_cache::{presets, views};
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let cfg = ExperimentConfig::paper_reference(); // 16 kB, 16 B, M = 4
//! let session = StudySession::new();
//! let report = session.run(&presets::table2(&cfg))?;
//! println!("{}", views::table2(&report)?);
//! # Ok(())
//! # }
//! ```
//!
//! A preset is an ordinary [`StudySpec`], so axes can be overridden
//! before running — e.g. Table II on a trace file instead of the
//! synthetic suite:
//!
//! ```no_run
//! # use aging_cache::experiment::ExperimentConfig;
//! # use aging_cache::presets;
//! # use aging_cache::session::StudySession;
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! # let cfg = ExperimentConfig::paper_reference();
//! # let session = StudySession::new();
//! let spec = presets::table2(&cfg).workload_names(["csv:/traces/my_app.csv"])?;
//! let report = session.run(&spec)?;
//! # Ok(())
//! # }
//! ```

use crate::experiment::ExperimentConfig;
use crate::study::StudySpec;

fn base(name: &str, cfg: &ExperimentConfig) -> StudySpec {
    cfg.study(name)
}

/// **Table I** — idleness distribution at the configured geometry,
/// full suite, Probing.
pub fn table1(cfg: &ExperimentConfig) -> StudySpec {
    base("Table I", cfg).policies(["probing"])
}

/// **Table II** — Esav / LT0 / LT vs cache size (8/16/32 kB).
pub fn table2(cfg: &ExperimentConfig) -> StudySpec {
    base("Table II", cfg)
        .cache_kb([8, 16, 32])
        .policies(["probing"])
}

/// **Table III** — Esav / LT vs line size (16/32 B at 16 kB).
pub fn table3(cfg: &ExperimentConfig) -> StudySpec {
    base("Table III", cfg)
        .cache_kb([16])
        .line_bytes([16, 32])
        .policies(["probing"])
}

/// **Table IV** — idleness / LT over the (size × banks) grid.
pub fn table4(cfg: &ExperimentConfig) -> StudySpec {
    base("Table IV", cfg)
        .cache_kb([8, 16, 32])
        .banks([2, 4, 8])
        .policies(["probing"])
}

/// §IV-B1 headline claims — the Table II grid under another name.
pub fn claims(cfg: &ExperimentConfig) -> StudySpec {
    table2(cfg)
}

/// §IV-B2 — Probing vs Scrambling on every benchmark.
pub fn policy_equivalence(cfg: &ExperimentConfig) -> StudySpec {
    base("Probing vs Scrambling", cfg).policies(["probing", "scrambling"])
}

/// Ablation — operating temperature: the reference model swept over
/// the Arrhenius range on the
/// [`StudySpec::temps_c`] axis, driven by the historic pinned
/// idleness profile (NBTI rates scale uniformly with temperature, so
/// the re-indexing gain is temperature-invariant).
pub fn ablation_temperature() -> StudySpec {
    StudySpec::new("Ablation: operating temperature")
        .models(["nbti-45nm"])
        .temps_c([45.0, 65.0, 85.0, 105.0, 125.0])
        .policies(["probing"])
        .workload_names(["profile:0.1,0.8,0.6,0.3"])
        .expect("static profile key")
        .policy_seed(1)
}

/// Ablation — the drowsy-voltage design knob: lifetime (`nbti` model)
/// and fresh/aged retention margins (`drv` model) swept together over
/// the [`StudySpec::vdd_low`] axis, on the historic sha-like pinned
/// profile, bracketing the paper's 0.75 V choice.
pub fn ablation_vlow() -> StudySpec {
    StudySpec::new("Ablation: drowsy rail voltage")
        .models(["nbti-45nm", "drv"])
        .vdd_low([0.55, 0.65, 0.75, 0.85, 0.95])
        .policies(["probing"])
        .workload_names(["profile:0.05,0.95,0.9,0.4"])
        .expect("static profile key")
        .policy_seed(1)
}

/// Extension — process variation × NBTI: `variation:<sigma>`
/// Monte-Carlo/extreme-value models over the mismatch-sigma range, on
/// a pinned profile whose busiest bank is always-on (the historic
/// "busy" rate) and whose mean sleep is the suite-average 42 %.
pub fn variation_study() -> StudySpec {
    StudySpec::new("Process variation x NBTI")
        .models([
            "variation:0",
            "variation:15",
            "variation:30",
            "variation:45",
        ])
        .policies(["probing"])
        .workload_names(["profile:0,0.56,0.56,0.56"])
        .expect("static profile key")
        .policy_seed(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_expand_to_expected_grid_sizes() {
        let cfg = ExperimentConfig::paper_reference();
        assert_eq!(table1(&cfg).expand().unwrap().len(), 18);
        assert_eq!(table2(&cfg).expand().unwrap().len(), 3 * 18);
        assert_eq!(table3(&cfg).expand().unwrap().len(), 2 * 18);
        assert_eq!(table4(&cfg).expand().unwrap().len(), 9 * 18);
        assert_eq!(policy_equivalence(&cfg).expand().unwrap().len(), 2 * 18);
        assert_eq!(ablation_temperature().expand().unwrap().len(), 5);
        assert_eq!(ablation_vlow().expand().unwrap().len(), 2 * 5);
        assert_eq!(variation_study().expand().unwrap().len(), 4);
    }

    #[test]
    fn ablation_presets_compose_canonical_model_keys() {
        let grid = ablation_vlow().expand().unwrap();
        let models: Vec<&str> = grid.scenarios().iter().map(|s| s.model.as_str()).collect();
        // The paper's 0.75 V point canonicalizes back to the reference
        // keys, so those two scenarios share the default calibrations.
        assert!(models.contains(&"nbti-45nm"));
        assert!(models.contains(&"drv"));
        assert!(models.contains(&"nbti:vlow=0.55"));
        assert!(models.contains(&"drv:vlow=0.95"));

        let temps = ablation_temperature().expand().unwrap();
        assert!(temps
            .scenarios()
            .iter()
            .all(|s| s.model.starts_with("nbti:temp=")));
    }

    #[test]
    fn presets_keep_the_historic_seeds() {
        let cfg = ExperimentConfig::paper_reference();
        let grid = table2(&cfg).expand().unwrap();
        for s in grid.scenarios() {
            assert_eq!(s.trace_seed, cfg.seed + s.workload_index as u64);
            assert_eq!(s.policy_seed, 1);
        }
    }
}
