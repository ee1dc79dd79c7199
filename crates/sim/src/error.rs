//! Error type for the cache simulator crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the cache simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A geometry dimension was invalid (zero, not a power of two, or
    /// inconsistent with the other dimensions).
    InvalidGeometry {
        /// Name of the offending dimension.
        name: &'static str,
        /// The rejected value.
        value: u64,
        /// Human-readable description of the accepted range.
        expected: &'static str,
    },
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the problem.
        reason: &'static str,
    },
    /// An underlying power-model error.
    Power(sram_power::PowerError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidGeometry {
                name,
                value,
                expected,
            } => write!(
                f,
                "geometry `{name}` = {value} is invalid (expected {expected})"
            ),
            SimError::InvalidConfig { name, reason } => {
                write!(f, "configuration `{name}` is invalid: {reason}")
            }
            SimError::Power(e) => write!(f, "power model error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Power(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sram_power::PowerError> for SimError {
    fn from(e: sram_power::PowerError) -> Self {
        SimError::Power(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_errors_chain_as_source() {
        let e = SimError::from(sram_power::PowerError::InvalidGeometry {
            name: "depth",
            value: 0,
            expected: "positive",
        });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("power model"));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SimError>();
    }
}
