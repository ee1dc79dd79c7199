//! The open, string-keyed indexing-policy registry.
//!
//! The paper evaluates three indexing functions, and the original
//! reproduction froze them into a closed enum. Related work varies exactly this axis — decoder-level
//! rejuvenation policies (Gürsoy et al.) and utilization-aware allocation
//! (Brandalero et al.) are alternative bijections over the bank-select
//! bits — so the registry makes the axis open: any [`IndexingPolicy`]
//! factory can be registered under a name and then referenced from a
//! [`StudySpec`](crate::study::StudySpec) like the built-ins.
//!
//! # Seed derivation
//!
//! Policy construction takes a full `u64` seed (the old API bottlenecked
//! on `u16`). The documented derivation chain is:
//!
//! 1. **base seed** — one `u64` per study ([`StudySpec::base_seed`](crate::study::StudySpec::base_seed));
//! 2. **per-scenario** — [`derive_policy_seed`] mixes the base seed with
//!    the scenario id and the policy name through a SplitMix64
//!    finalizer, so every grid point gets an independent stream;
//! 3. **per-policy** — policies that need a narrow seed (the 16-bit
//!    LFSRs) fold the `u64` down with [`fold_seed`], which is the
//!    identity on values `<= u16::MAX`. Historic results used small
//!    literal seeds, so they are reproduced bit-for-bit.
//!
//! # Examples
//!
//! Registering a custom policy from user code:
//!
//! ```
//! use aging_cache::registry::PolicyRegistry;
//! use cache_sim::mapping::is_bijective;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let mut registry = PolicyRegistry::builtin();
//! // A bit-reversal policy: reverses the p bank-select bits.
//! registry.register_fn("bit-reverse", "reverses the bank-select bits", |banks, _seed| {
//!     let p = banks.trailing_zeros();
//!     Ok(Box::new(cache_sim::mapping::FnMapping::new(move |logical, _| {
//!         logical.reverse_bits() >> (32 - p)
//!     })))
//! })?;
//! let mapping = registry.build("bit-reverse", 8, 42)?;
//! assert!(is_bijective(mapping.as_ref(), 8));
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use crate::policy::{GrayRotation, Probing, RotateXor, Scrambling};
use cache_sim::{BankMapping, IdentityMapping};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named factory for bank-indexing functions.
///
/// Implementations must return a [`BankMapping`] that is a bijection over
/// `0..banks` after any number of `update` calls; the Study API's
/// property tests enforce this for every registered policy.
pub trait IndexingPolicy: Send + Sync {
    /// The registry key (stable, lowercase, kebab-case by convention).
    fn name(&self) -> &str;

    /// One-line human-readable description for listings.
    fn description(&self) -> &str {
        ""
    }

    /// Instantiates the policy for `banks` banks from a `u64` seed.
    ///
    /// # Errors
    ///
    /// Implementations should reject unsupported geometries (the
    /// built-ins require a power-of-two bank count of at least 2).
    fn build(&self, banks: u32, seed: u64) -> Result<Box<dyn BankMapping>, CoreError>;
}

/// Folds a `u64` seed into the `u16` range used by the LFSR-backed
/// policies, by XOR-ing the four 16-bit limbs.
///
/// The fold is the identity on values that already fit in 16 bits, which
/// keeps historic results (seeded with small literals) reproducible.
pub fn fold_seed(seed: u64) -> u16 {
    (seed ^ (seed >> 16) ^ (seed >> 32) ^ (seed >> 48)) as u16
}

/// SplitMix64 finalizer (Stafford variant 13) — the mixing primitive for
/// seed derivation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a hash of a policy name, for the per-policy seed stream.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derives the per-scenario, per-policy seed from a study's base seed.
///
/// `derive_policy_seed(base, id, name)` is deterministic in its inputs
/// and statistically independent across scenario ids and policy names
/// (two rounds of SplitMix64 finalization over the mixed inputs).
pub fn derive_policy_seed(base_seed: u64, scenario_id: u64, policy_name: &str) -> u64 {
    mix64(mix64(base_seed ^ hash_name(policy_name)).wrapping_add(scenario_id))
}

struct FnPolicy<F> {
    name: String,
    description: String,
    build: F,
}

impl<F> IndexingPolicy for FnPolicy<F>
where
    F: Fn(u32, u64) -> Result<Box<dyn BankMapping>, CoreError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn build(&self, banks: u32, seed: u64) -> Result<Box<dyn BankMapping>, CoreError> {
        (self.build)(banks, seed)
    }
}

/// The string-keyed policy registry.
///
/// Keys are ordered (a `BTreeMap`), so listings and expanded grids are
/// deterministic regardless of registration order.
#[derive(Clone, Default)]
pub struct PolicyRegistry {
    entries: BTreeMap<String, Arc<dyn IndexingPolicy>>,
}

impl std::fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("policies", &self.names())
            .finish()
    }
}

impl PolicyRegistry {
    /// An empty registry (no policies at all).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A shared, immutable instance of [`PolicyRegistry::builtin`] for
    /// hot paths that would otherwise rebuild the map per call.
    pub fn global() -> &'static PolicyRegistry {
        static GLOBAL: std::sync::OnceLock<PolicyRegistry> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(PolicyRegistry::builtin)
    }

    /// The registry with the five built-in policies: `identity`,
    /// `probing`, `scrambling` (the paper's three), plus `gray` and
    /// `rotate-xor` (openness proofs — see [`crate::policy`]).
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register_fn(
            "identity",
            "no re-indexing: the paper's power-managed LT0 baseline",
            |_banks, _seed| Ok(Box::new(IdentityMapping)),
        )
        .expect("fresh registry");
        r.register_fn(
            "probing",
            "modular-increment rotation (paper Fig. 3a, optimal)",
            |banks, _seed| Ok(Box::new(Probing::new(banks)?)),
        )
        .expect("fresh registry");
        r.register_fn(
            "scrambling",
            "LFSR-XOR masking (paper Fig. 3b, asymptotically optimal)",
            |banks, seed| Ok(Box::new(Scrambling::new(banks, fold_seed(seed))?)),
        )
        .expect("fresh registry");
        r.register_fn(
            "gray",
            "Gray-coded rotation: single-bit remap transitions per update",
            |banks, _seed| Ok(Box::new(GrayRotation::new(banks)?)),
        )
        .expect("fresh registry");
        r.register_fn(
            "rotate-xor",
            "rotation + LFSR-XOR hybrid of probing and scrambling",
            |banks, seed| Ok(Box::new(RotateXor::new(banks, fold_seed(seed))?)),
        )
        .expect("fresh registry");
        r
    }

    /// Registers a policy object. Fails if the name is already taken.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicatePolicy`] on a name collision.
    pub fn register(&mut self, policy: Arc<dyn IndexingPolicy>) -> Result<(), CoreError> {
        let name = policy.name().to_string();
        if self.entries.contains_key(&name) {
            return Err(CoreError::DuplicatePolicy { name });
        }
        self.entries.insert(name, policy);
        Ok(())
    }

    /// Registers a policy from a closure — the one-liner path for user
    /// code and examples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicatePolicy`] on a name collision.
    pub fn register_fn<F>(
        &mut self,
        name: &str,
        description: &str,
        build: F,
    ) -> Result<(), CoreError>
    where
        F: Fn(u32, u64) -> Result<Box<dyn BankMapping>, CoreError> + Send + Sync + 'static,
    {
        self.register(Arc::new(FnPolicy {
            name: name.to_string(),
            description: description.to_string(),
            build,
        }))
    }

    /// Looks up a policy by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn IndexingPolicy>> {
        self.entries.get(name)
    }

    /// Instantiates a named policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownPolicy`] for an unregistered name, or
    /// the policy's own construction error.
    pub fn build(
        &self,
        name: &str,
        banks: u32,
        seed: u64,
    ) -> Result<Box<dyn BankMapping>, CoreError> {
        match self.entries.get(name) {
            Some(policy) => policy.build(banks, seed),
            None => Err(CoreError::UnknownPolicy {
                name: name.to_string(),
                known: self.names().join(", "),
            }),
        }
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, policy)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<dyn IndexingPolicy>)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::mapping::is_bijective;

    #[test]
    fn builtin_has_five_policies() {
        let r = PolicyRegistry::builtin();
        assert_eq!(
            r.names(),
            vec!["gray", "identity", "probing", "rotate-xor", "scrambling"]
        );
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
    }

    #[test]
    fn every_builtin_builds_bijective_mappings() {
        let r = PolicyRegistry::builtin();
        for (name, _) in r.iter() {
            let mut m = r.build(name, 8, 12345).unwrap();
            for step in 0..40 {
                assert!(
                    is_bijective(m.as_ref(), 8),
                    "{name} broke bijectivity at step {step}"
                );
                m.update();
            }
        }
    }

    #[test]
    fn unknown_policy_reports_known_names() {
        let r = PolicyRegistry::builtin();
        let e = r.build("nope", 4, 0).err().expect("must fail");
        let text = e.to_string();
        assert!(text.contains("nope"), "{text}");
        assert!(text.contains("probing"), "{text}");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = PolicyRegistry::builtin();
        let e = r
            .register_fn("probing", "clash", |_b, _s| Ok(Box::new(IdentityMapping)))
            .unwrap_err();
        assert!(matches!(e, CoreError::DuplicatePolicy { .. }));
    }

    #[test]
    fn fold_seed_is_identity_below_u16() {
        assert_eq!(fold_seed(0), 0);
        assert_eq!(fold_seed(1), 1);
        assert_eq!(fold_seed(0xFFFF), 0xFFFF);
        assert_eq!(fold_seed(0x1_0001), 0); // limbs cancel
        assert_ne!(fold_seed(0xdead_beef_cafe_f00d), 0);
    }

    #[test]
    fn derived_seeds_differ_across_axes() {
        let a = derive_policy_seed(1000, 0, "scrambling");
        let b = derive_policy_seed(1000, 1, "scrambling");
        let c = derive_policy_seed(1000, 0, "rotate-xor");
        let d = derive_policy_seed(1001, 0, "scrambling");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Deterministic.
        assert_eq!(a, derive_policy_seed(1000, 0, "scrambling"));
    }

    #[test]
    fn custom_registration_resolves_by_name() {
        let mut r = PolicyRegistry::empty();
        r.register_fn("flip", "XOR with all-ones", |banks, _| {
            let mask = banks - 1;
            Ok(Box::new(cache_sim::mapping::FnMapping::new(
                move |logical, _| logical ^ mask,
            )))
        })
        .unwrap();
        let m = r.build("flip", 4, 0).unwrap();
        assert_eq!(m.map_bank(0, 4), 3);
        assert!(is_bijective(m.as_ref(), 4));
    }
}
