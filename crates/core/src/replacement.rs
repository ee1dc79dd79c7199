//! The string-keyed replacement-policy registry.
//!
//! The simulator crate defines the victim-selection trait
//! ([`ReplacementPolicy`]) and its two built-ins ([`Lru`], [`Mru`]);
//! this module names them, so a spec's `replacement` axis and
//! [`PartitionedCache::with_replacement`](crate::PartitionedCache::with_replacement)
//! resolve policies by key, and user code registers custom victim rules
//! by closure.

use crate::error::CoreError;
use crate::registry::{Entry, FnEntry, Registry};
use cache_sim::{Lru, Mru, ReplacementPolicy};
use std::sync::{Arc, OnceLock};

/// The string-keyed replacement-policy registry: `lru` and `mru` built
/// in, custom victim rules by closure.
pub type ReplacementRegistry = Registry<dyn ReplacementPolicy>;

impl Entry for dyn ReplacementPolicy {
    const KIND: &'static str = "replacement policy";

    fn key(&self) -> &str {
        self.name()
    }
}

impl<F> ReplacementPolicy for FnEntry<F>
where
    F: Fn(&[u64]) -> usize + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn victim(&self, stamps: &[u64]) -> usize {
        (self.run)(stamps)
    }
}

impl ReplacementRegistry {
    /// A shared, immutable instance of [`ReplacementRegistry::builtin`]
    /// for hot paths that would otherwise rebuild the map per call.
    pub fn global() -> &'static ReplacementRegistry {
        static GLOBAL: OnceLock<ReplacementRegistry> = OnceLock::new();
        GLOBAL.get_or_init(ReplacementRegistry::builtin)
    }

    /// The registry with the two built-in policies, [`Lru`] (the
    /// default) and [`Mru`].
    pub fn builtin() -> Self {
        Self::of([Arc::new(Lru) as Arc<dyn ReplacementPolicy>, Arc::new(Mru)])
    }

    /// Registers a policy from a victim closure — the one-liner path
    /// for user code and examples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Duplicate`] on a name collision.
    pub fn register_fn<F>(
        &mut self,
        name: &str,
        description: &str,
        victim: F,
    ) -> Result<(), CoreError>
    where
        F: Fn(&[u64]) -> usize + Send + Sync + 'static,
    {
        self.register(Arc::new(FnEntry::new(name, description, victim)))
    }

    /// Resolves a named policy to a shareable handle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unknown`] for an unregistered name, listing
    /// the known keys.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn ReplacementPolicy>, CoreError> {
        self.get(name).cloned().ok_or_else(|| self.unknown(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_lru_and_mru() {
        let r = ReplacementRegistry::builtin();
        assert_eq!(r.names(), vec!["lru", "mru"]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(r.get("lru").is_some());
    }

    #[test]
    fn unknown_replacement_reports_known_names() {
        let e = ReplacementRegistry::builtin()
            .resolve("nope")
            .err()
            .expect("must fail");
        let text = e.to_string();
        assert!(text.contains("nope"), "{text}");
        assert!(text.contains("lru"), "{text}");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = ReplacementRegistry::builtin();
        let e = r.register_fn("lru", "clash", |_| 0).unwrap_err();
        assert!(matches!(
            e,
            CoreError::Duplicate { kind: "replacement policy", ref name } if name == "lru"
        ));
    }

    #[test]
    fn custom_registration_resolves_by_name() {
        let mut r = ReplacementRegistry::empty();
        // A "pin way 0" policy: always evict the first way.
        r.register_fn("pin-zero", "always evict way 0", |_| 0)
            .unwrap();
        assert_eq!(r.resolve("pin-zero").unwrap().victim(&[1, 2, 3]), 0);
        assert!(r.resolve("lru").is_err(), "empty registry has no builtins");
    }
}
