//! Cell-flipping ablation (ref. \[15\] of the paper: Kunitake et al.,
//! "Short Term Cell-Flipping", ISQED 2010).
//!
//! Periodically inverting the stored word balances the probability of
//! storing a '0' toward 0.5, which equalizes the stress duty of the two
//! cell pMOS devices — the *value-based* mitigation the paper contrasts
//! with its idleness-based one. Both compose: flipping fixes `p0`,
//! partitioning + re-indexing fixes the idleness distribution.

use crate::aging::AgingAnalysis;
use crate::error::CoreError;

/// A word-level cell-flipping scheme.
///
/// `balance` is the fraction of time the flip mechanism manages to hold
/// the inverted polarity: 1.0 models an ideal scheme (perfect 50/50
/// duty), 0.0 disables flipping. A flip bit per `word_bits`-bit word
/// costs `1 / word_bits` extra storage.
///
/// # Examples
///
/// ```
/// use aging_cache::flip::CellFlip;
///
/// let flip = CellFlip::new(0.8, 32)?;
/// // A heavily skewed workload is pulled most of the way to balance.
/// let p0 = flip.effective_p0(0.9);
/// assert!((p0 - 0.58).abs() < 1e-12);
/// assert!((flip.storage_overhead() - 1.0 / 32.0).abs() < 1e-12);
/// # Ok::<(), aging_cache::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFlip {
    balance: f64,
    word_bits: u32,
}

impl CellFlip {
    /// Creates a scheme with the given balancing effectiveness and word
    /// width.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `balance` is outside
    /// `[0, 1]` or `word_bits` is zero.
    pub fn new(balance: f64, word_bits: u32) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&balance) || !balance.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "balance",
                value: balance,
                expected: "0 <= balance <= 1",
            });
        }
        if word_bits == 0 {
            return Err(CoreError::InvalidParameter {
                name: "word_bits",
                value: 0.0,
                expected: "a positive word width",
            });
        }
        Ok(Self { balance, word_bits })
    }

    /// An ideal flipper (perfect balance, 32-bit words).
    pub fn ideal() -> Self {
        Self {
            balance: 1.0,
            word_bits: 32,
        }
    }

    /// The effective stored-zero probability after flipping: a convex
    /// blend between the raw workload `p0` and the balanced 0.5.
    pub fn effective_p0(&self, raw_p0: f64) -> f64 {
        0.5 * self.balance + raw_p0 * (1.0 - self.balance)
    }

    /// Extra storage for the flip bits, as a fraction of the data array.
    pub fn storage_overhead(&self) -> f64 {
        1.0 / self.word_bits as f64
    }

    /// Cache lifetime with flipping composed onto a partitioned cache:
    /// the sleep distribution is handled by the registry policy `policy`
    /// (seeded with `seed`), the value balance by this scheme.
    ///
    /// # Errors
    ///
    /// Propagates aging-model errors.
    pub fn cache_lifetime(
        &self,
        aging: &AgingAnalysis,
        sleep_fractions: &[f64],
        raw_p0: f64,
        policy: &str,
        seed: u64,
    ) -> Result<f64, CoreError> {
        aging.cache_lifetime(sleep_fractions, self.effective_p0(raw_p0), policy, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbti_model::{CellDesign, LifetimeSolver};

    fn aging() -> AgingAnalysis {
        AgingAnalysis::new(LifetimeSolver::calibrated(CellDesign::default_45nm(), 2.93).unwrap())
    }

    #[test]
    fn ideal_flip_centers_any_skew() {
        let f = CellFlip::ideal();
        for raw in [0.0, 0.3, 0.9, 1.0] {
            assert!((f.effective_p0(raw) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn no_flip_is_identity() {
        let f = CellFlip::new(0.0, 32).unwrap();
        assert_eq!(f.effective_p0(0.87), 0.87);
    }

    #[test]
    fn flipping_helps_skewed_workloads() {
        let a = aging();
        let sleep = [0.4, 0.4, 0.4, 0.4];
        let skewed = a.cache_lifetime(&sleep, 0.95, "probing", 1).unwrap();
        let flipped = CellFlip::ideal()
            .cache_lifetime(&a, &sleep, 0.95, "probing", 1)
            .unwrap();
        assert!(
            flipped > skewed,
            "balancing must extend life: {flipped} vs {skewed}"
        );
    }

    #[test]
    fn flipping_is_neutral_for_balanced_workloads() {
        let a = aging();
        let sleep = [0.4, 0.4, 0.4, 0.4];
        let plain = a.cache_lifetime(&sleep, 0.5, "probing", 1).unwrap();
        let flipped = CellFlip::ideal()
            .cache_lifetime(&a, &sleep, 0.5, "probing", 1)
            .unwrap();
        assert!((plain - flipped).abs() / plain < 1e-6);
    }

    #[test]
    fn validation() {
        assert!(CellFlip::new(1.5, 32).is_err());
        assert!(CellFlip::new(-0.1, 32).is_err());
        assert!(CellFlip::new(0.5, 0).is_err());
    }

    #[test]
    fn composition_beats_either_alone_on_skewed_uneven_workloads() {
        // The headline of the ablation: value balancing and idleness
        // balancing attack independent factors.
        let a = aging();
        let sleep = [0.9, 0.6, 0.3, 0.0];
        let raw_p0 = 0.9;
        let neither = a.cache_lifetime(&sleep, raw_p0, "identity", 1).unwrap();
        let only_flip = CellFlip::ideal()
            .cache_lifetime(&a, &sleep, raw_p0, "identity", 1)
            .unwrap();
        let only_reindex = a.cache_lifetime(&sleep, raw_p0, "probing", 1).unwrap();
        let both = CellFlip::ideal()
            .cache_lifetime(&a, &sleep, raw_p0, "probing", 1)
            .unwrap();
        assert!(only_flip > neither);
        assert!(only_reindex > neither);
        assert!(both > only_flip);
        assert!(both > only_reindex);
    }
}
