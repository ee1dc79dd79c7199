//! Victim selection for set-associative caches.
//!
//! The paper's reference cache is direct-mapped, where replacement is
//! vacuous; opening the associativity axis makes the victim choice a
//! real policy. This module holds the [`ReplacementPolicy`] trait and
//! the two built-ins, [`Lru`] and [`Mru`]; the string-keyed registry
//! that resolves them by name lives with the other registries in the
//! core crate (`aging_cache::registry::ReplacementRegistry`).
//!
//! The [`CacheArray`](crate::CacheArray) keeps one invariant to itself:
//! an invalid way is always filled before any valid way is evicted.
//! Policies only ever choose among *full* sets, so they see one stamp
//! per way and nothing else — enough for recency-order policies, and a
//! deliberate bottleneck that keeps replay byte-deterministic.

/// The default replacement policy name (the registry key of [`Lru`]).
pub const DEFAULT_REPLACEMENT: &str = "lru";

/// A victim-selection policy for full set-associative sets.
///
/// `stamps[i]` is the last-touch clock of way `i`; stamps within a set
/// are unique (the array's clock strictly increases per access), so a
/// policy that orders by stamp is total. Implementations must be pure
/// functions of `stamps` — replay determinism depends on it.
pub trait ReplacementPolicy: Send + Sync {
    /// The registry key (stable, lowercase, kebab-case by convention).
    fn name(&self) -> &str;

    /// One-line human-readable description for listings.
    fn description(&self) -> &str {
        ""
    }

    /// Chooses the victim way among a full set. The return value is
    /// clamped by the caller to `stamps.len() - 1`, so an out-of-range
    /// index cannot corrupt the array (it just picks the last way).
    fn victim(&self, stamps: &[u64]) -> usize;
}

/// Evicts the least-recently-used way (first on ties): the default,
/// and the exact victim order direct-mapped history was produced under.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lru;

impl ReplacementPolicy for Lru {
    fn name(&self) -> &str {
        DEFAULT_REPLACEMENT
    }

    fn description(&self) -> &str {
        "evict the least-recently-used way (the classic default)"
    }

    fn victim(&self, stamps: &[u64]) -> usize {
        stamps
            .iter()
            .enumerate()
            .min_by_key(|&(_, s)| *s)
            .map_or(0, |(i, _)| i)
    }
}

/// Evicts the most-recently-used way (first on ties): an openness proof
/// with visibly different conflict behaviour on looping working sets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mru;

impl ReplacementPolicy for Mru {
    fn name(&self) -> &str {
        "mru"
    }

    fn description(&self) -> &str {
        "evict the most-recently-used way (thrash-resistant on loops)"
    }

    fn victim(&self, stamps: &[u64]) -> usize {
        stamps
            .iter()
            .enumerate()
            .max_by_key(|&(_, s)| *s)
            .map_or(0, |(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_and_mru_pick_opposite_ends() {
        let stamps = [7u64, 3, 9, 5];
        assert_eq!(Lru.victim(&stamps), 1);
        assert_eq!(Mru.victim(&stamps), 2);
        assert_eq!((Lru.name(), Mru.name()), ("lru", "mru"));
    }
}
