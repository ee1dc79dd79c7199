//! Error type for the architectural (core) crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the partitioned-cache architecture and its
/// experiment pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A structural parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the accepted range.
        expected: &'static str,
    },
    /// An underlying cache-simulator error.
    Sim(cache_sim::SimError),
    /// An underlying NBTI-model error.
    Nbti(nbti_model::NbtiError),
    /// An underlying power-model error.
    Power(sram_power::PowerError),
    /// The aging pipeline exceeded its search horizon without a failure.
    HorizonExceeded {
        /// The horizon that was searched, in years.
        horizon_years: f64,
    },
    /// A registry key resolved to nothing.
    Unknown {
        /// The registry's kind of entry (`"policy"`, `"workload"`,
        /// `"model"`, `"replacement policy"`).
        kind: &'static str,
        /// The unresolved key.
        name: String,
        /// Comma-separated list of registered keys.
        known: String,
    },
    /// A registry key was registered twice.
    Duplicate {
        /// The registry's kind of entry, as for [`CoreError::Unknown`].
        kind: &'static str,
        /// The colliding key.
        name: String,
    },
    /// A parameterized model key failed to parse.
    InvalidModelKey {
        /// The offending key.
        key: String,
        /// What went wrong.
        message: String,
    },
    /// A trace source failed to open or decode.
    Trace(trace_synth::TraceError),
    /// A study report failed to serialize or deserialize.
    Report {
        /// What went wrong.
        message: String,
    },
    /// A worker thread of the parallel grid runner panicked.
    WorkerPanicked,
    /// A scenario task panicked; the payload is captured so the
    /// offending grid point and message survive the unwind.
    ScenarioPanicked {
        /// Grid id of the scenario whose task panicked.
        scenario: usize,
        /// The downcast panic message.
        message: String,
    },
    /// A result-cache operation failed, or a journaled entry was
    /// corrupted (the message names the entry's fingerprint).
    Cache {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter {
                name,
                value,
                expected,
            } => write!(
                f,
                "parameter `{name}` = {value} is invalid (expected {expected})"
            ),
            CoreError::Sim(e) => write!(f, "cache simulator error: {e}"),
            CoreError::Nbti(e) => write!(f, "NBTI model error: {e}"),
            CoreError::Power(e) => write!(f, "power model error: {e}"),
            CoreError::HorizonExceeded { horizon_years } => {
                write!(f, "no bank failed within the {horizon_years}-year horizon")
            }
            CoreError::Unknown { kind, name, known } => {
                // The kinds with dynamic keys say how to spell one.
                let hint = match *kind {
                    "workload" => {
                        "; file-backed workloads use `csv:`, `din:`, `lackey:` or `file:` \
                         keys, pinned profiles use `profile:s0,s1,…`"
                    }
                    "model" => {
                        "; parameterized keys use `nbti:temp=…,vlow=…,sleep=…,fail=…`, \
                         `variation:<sigma-mv>` or `drv:vlow=…`"
                    }
                    _ => "",
                };
                write!(f, "unknown {kind} `{name}` (registered: {known}{hint})")
            }
            CoreError::Duplicate { kind, name } => {
                write!(f, "{kind} `{name}` is already registered")
            }
            CoreError::InvalidModelKey { key, message } => {
                write!(f, "invalid model key `{key}`: {message}")
            }
            CoreError::Trace(e) => write!(f, "trace error: {e}"),
            CoreError::Report { message } => write!(f, "study report error: {message}"),
            CoreError::WorkerPanicked => write!(f, "a study worker thread panicked"),
            CoreError::ScenarioPanicked { scenario, message } => {
                write!(f, "scenario {scenario} panicked: {message}")
            }
            CoreError::Cache { message } => write!(f, "result cache error: {message}"),
        }
    }
}

impl From<crate::json::JsonError> for CoreError {
    fn from(e: crate::json::JsonError) -> Self {
        CoreError::Report {
            message: e.to_string(),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Nbti(e) => Some(e),
            CoreError::Power(e) => Some(e),
            CoreError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cache_sim::SimError> for CoreError {
    fn from(e: cache_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<nbti_model::NbtiError> for CoreError {
    fn from(e: nbti_model::NbtiError) -> Self {
        CoreError::Nbti(e)
    }
}

impl From<sram_power::PowerError> for CoreError {
    fn from(e: sram_power::PowerError) -> Self {
        CoreError::Power(e)
    }
}

impl From<trace_synth::TraceError> for CoreError {
    fn from(e: trace_synth::TraceError) -> Self {
        CoreError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain() {
        let e = CoreError::from(nbti_model::NbtiError::SolverDiverged { context: "x" });
        assert!(e.source().is_some());
        let e = CoreError::HorizonExceeded {
            horizon_years: 50.0,
        };
        assert!(e.source().is_none());
        assert!(e.to_string().contains("50"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
