//! Shared plumbing for the reproduction harness: the preset table
//! behind `study preset <name>` and the benches.
//!
//! Every table and headline claim of the paper is a row of
//! [`presets::PRESETS`]:
//!
//! | preset | regenerates |
//! |---|---|
//! | `table1` | Table I — idleness distribution, 4-bank 16 kB cache |
//! | `table2` | Table II — Esav/LT0/LT vs cache size |
//! | `table3` | Table III — Esav/LT vs line size |
//! | `table4` | Table IV — idleness/LT vs (size × banks) |
//! | `claims` | §IV-B1 headline claims |
//! | `rng_error` | §IV-B2 RNG repetition error study |
//! | `policy_equivalence` | §IV-B2 Probing ≡ Scrambling |
//! | `snm_curves` | SNM-vs-time trajectories behind the 20 % criterion |
//! | `update_cost` | miss-rate cost of (absurdly) frequent updates |
//! | `variation_study` | process variation x NBTI bank-lifetime quantiles |
//! | `ablation_fine_grain` | bank-level vs ref. \[7\] line-level idleness |
//! | `ablation_flip` | cell flipping (ref. \[15\]) composition |
//! | `ablation_gating` | power gating vs voltage scaling sleep |
//! | `ablation_graceful` | §III-A2 graceful-degradation alternative |
//! | `ablation_narrow_lfsr` | p-bit vs wide LFSR scrambling bias |
//! | `ablation_temperature` | Arrhenius sweep; reindex gain is T-invariant |
//! | `ablation_vlow` | drowsy-rail sweep: aging relief vs retention margin |
//! | `all` | the paper-table subset, in order, on one session |
//!
//! Run any of them with `cargo run --release -p repro-bench --bin study
//! -- preset <name> [--format text|md|csv|json]`; the `study` binary
//! also runs arbitrary scenario grids from the command line.

pub mod harness;
pub mod presets;

use aging_cache::experiment::ExperimentConfig;

/// The default experiment configuration used by every preset: the
/// paper's reference cache with traces long enough (8 macro periods)
/// for sub-percent idleness stability.
pub fn default_config() -> ExperimentConfig {
    ExperimentConfig::paper_reference().with_trace_cycles(640_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_paper_reference() {
        let c = default_config();
        assert_eq!(c.cache_bytes, 16 * 1024);
        assert_eq!(c.line_bytes, 16);
        assert_eq!(c.banks, 4);
        assert!(c.trace_cycles >= 320_000);
    }
}
