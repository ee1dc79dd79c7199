//! The experiment configuration the paper-table presets start from.
//!
//! An [`ExperimentConfig`] is the paper's reference cache plus a trace
//! horizon and base seed; [`ExperimentConfig::study`] turns it into the
//! single-point [`StudySpec`] every preset in [`crate::presets`] widens.
//! Running a study is [`StudySession::run`](crate::session::StudySession::run),
//! and rendering is a view in [`crate::views`].

use crate::error::CoreError;
use crate::study::StudySpec;
use cache_sim::CacheGeometry;

/// A cache configuration plus simulation horizon for one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Number of uniform banks `M`.
    pub banks: u32,
    /// Trace length in cycles.
    pub trace_cycles: u64,
    /// Base seed; benchmark `i` uses `seed + i`.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's reference configuration: 16 kB, 16 B lines, M = 4.
    pub fn paper_reference() -> Self {
        Self {
            cache_bytes: 16 * 1024,
            line_bytes: 16,
            banks: 4,
            trace_cycles: 320_000,
            seed: 1000,
        }
    }

    /// Overrides the simulated trace length.
    #[must_use]
    pub fn with_trace_cycles(mut self, cycles: u64) -> Self {
        self.trace_cycles = cycles;
        self
    }

    /// The geometry this configuration describes.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors.
    pub fn geometry(&self) -> Result<CacheGeometry, CoreError> {
        Ok(CacheGeometry::direct_mapped(
            self.cache_bytes,
            self.line_bytes,
            self.banks,
        )?)
    }

    /// A [`StudySpec`] at exactly this configuration: single point on
    /// every geometry axis, the full suite on the workload axis, the
    /// historic seeds. The starting point of every preset.
    pub fn study(&self, name: impl Into<String>) -> StudySpec {
        StudySpec::new(name)
            .cache_bytes([self.cache_bytes])
            .line_bytes([self.line_bytes])
            .banks([self.banks])
            .trace_cycles(self.trace_cycles)
            .base_seed(self.seed)
            .policy_seed(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::StudySession;
    use crate::{presets, views};

    fn quick_cfg() -> ExperimentConfig {
        // Shorter traces keep debug-mode tests fast; two full macro
        // periods are enough for stable idleness statistics.
        ExperimentConfig::paper_reference().with_trace_cycles(160_000)
    }

    #[test]
    fn reference_benchmark_run_reproduces_sha_shape() {
        let spec = quick_cfg()
            .study("bench:sha")
            .workload_names(["sha"])
            .unwrap()
            .policies(["probing"]);
        let report = StudySession::new().run(&spec).unwrap();
        let r = &report.records()[0];
        // sha: banks 1-2 nearly always idle, banks 0,3 busy.
        assert!(r.useful_idleness[1] > 0.9);
        assert!(r.useful_idleness[2] > 0.9);
        assert!(r.useful_idleness[0] < 0.15);
        assert!(r.lt_years() > r.lt0_years());
        assert!((r.esav - 0.443).abs() < 0.05, "esav {}", r.esav);
    }

    #[test]
    fn table1_structure() {
        let report = StudySession::new()
            .run(&presets::table1(&quick_cfg()))
            .unwrap();
        let t = views::table1(&report).unwrap();
        assert_eq!(t.rows().len(), 18);
        assert!(t.to_string().contains("adpcm.dec"));
        assert!(t.to_markdown().contains("| bench |"));
    }
}
