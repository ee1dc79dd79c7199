//! The one string-keyed [`Registry`] type, and the open
//! indexing-policy registry built on it.
//!
//! Every named axis — indexing policies, workloads, device models and
//! replacement policies — is a [`Registry`] of trait objects; each kind
//! adds only its built-in table and how a name becomes an object.
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
use std::sync::{Arc, OnceLock};

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

/// What a [`Registry`] holds: a trait object that knows its own key.
///
/// Implemented for the four registered trait-object types (`dyn`
/// [`IndexingPolicy`], [`Workload`](crate::workload::Workload),
/// [`AgingModel`](crate::model::AgingModel) and
/// [`ReplacementPolicy`](cache_sim::ReplacementPolicy)), so none of
/// those traits gains a method.
pub trait Entry {
    /// The kind of entry, as registry errors name it (`"policy"`).
    const KIND: &'static str;

    /// The registry key.
    fn key(&self) -> &str;
}

/// An ordered, string-keyed table of named trait objects: the one
/// implementation behind [`PolicyRegistry`],
/// [`WorkloadRegistry`](crate::workload::WorkloadRegistry),
/// [`ModelRegistry`](crate::model::ModelRegistry) and
/// [`ReplacementRegistry`](crate::replacement::ReplacementRegistry).
///
/// Keys are ordered (a `BTreeMap`), so listings and expanded grids are
/// deterministic regardless of registration order. Each kind adds only
/// what differs: its built-in table, and how a name becomes an object
/// (`build` for policies, `resolve` with dynamic keys for the rest).
pub struct Registry<T: ?Sized> {
    entries: BTreeMap<String, Arc<T>>,
}

impl<T: ?Sized> Clone for Registry<T> {
    fn clone(&self) -> Self {
        Self {
            entries: self.entries.clone(),
        }
    }
}

impl<T: ?Sized + Entry> std::fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &T::KIND)
            .field("names", &self.names())
            .finish()
    }
}

impl<T: ?Sized + Entry> Registry<T> {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// A registry of `entries`, which must have distinct keys (a
    /// repeated key keeps the last entry): the built-in tables.
    pub(crate) fn of(entries: impl IntoIterator<Item = Arc<T>>) -> Self {
        let entries = entries
            .into_iter()
            .map(|entry| (entry.key().to_string(), entry))
            .collect();
        Self { entries }
    }

    /// Registers an entry under its own key. Fails if the key is taken.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Duplicate`] on a key collision.
    pub fn register(&mut self, entry: Arc<T>) -> Result<(), CoreError> {
        let name = entry.key().to_string();
        if self.entries.contains_key(&name) {
            return Err(CoreError::Duplicate {
                kind: T::KIND,
                name,
            });
        }
        self.entries.insert(name, entry);
        Ok(())
    }

    /// The error for a key this registry cannot resolve: names the
    /// kind and lists the registered keys.
    pub(crate) fn unknown(&self, name: &str) -> CoreError {
        CoreError::Unknown {
            kind: T::KIND,
            name: name.to_string(),
            known: self.names().join(", "),
        }
    }

    /// Looks up an entry by exact key (no dynamic key resolution).
    pub fn get(&self, name: &str) -> Option<&Arc<T>> {
        self.entries.get(name)
    }

    /// The registered keys, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Number of registered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, entry)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<T>)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// The string-keyed indexing-policy registry.
pub type PolicyRegistry = Registry<dyn IndexingPolicy>;

impl Entry for dyn IndexingPolicy {
    const KIND: &'static str = "policy";

    fn key(&self) -> &str {
        self.name()
    }
}

/// A closure-backed entry: a name, a description and the closure that
/// does the entry's one job (building a policy's mapping, choosing a
/// replacement victim).
pub(crate) struct FnEntry<F> {
    pub(crate) name: String,
    pub(crate) description: String,
    pub(crate) run: F,
}

impl<F> FnEntry<F> {
    pub(crate) fn new(name: &str, description: &str, run: F) -> Self {
        Self {
            name: name.to_string(),
            description: description.to_string(),
            run,
        }
    }
}

impl<F> IndexingPolicy for FnEntry<F>
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
        (self.run)(banks, seed)
    }
}

/// A policy object from a closure: what [`PolicyRegistry::register_fn`]
/// registers, and how the built-in table is written.
fn policy_fn<F>(name: &str, description: &str, build: F) -> Arc<dyn IndexingPolicy>
where
    F: Fn(u32, u64) -> Result<Box<dyn BankMapping>, CoreError> + Send + Sync + 'static,
{
    Arc::new(FnEntry::new(name, description, build))
}

impl PolicyRegistry {
    /// A shared, immutable instance of [`PolicyRegistry::builtin`] for
    /// hot paths that would otherwise rebuild the map per call.
    pub fn global() -> &'static PolicyRegistry {
        static GLOBAL: OnceLock<PolicyRegistry> = OnceLock::new();
        GLOBAL.get_or_init(PolicyRegistry::builtin)
    }

    /// The registry with the five built-in policies: `identity`,
    /// `probing`, `scrambling` (the paper's three), plus `gray` and
    /// `rotate-xor` (openness proofs — see [`crate::policy`]).
    pub fn builtin() -> Self {
        Self::of([
            policy_fn(
                "identity",
                "no re-indexing: the paper's power-managed LT0 baseline",
                |_banks, _seed| Ok(Box::new(IdentityMapping)),
            ),
            policy_fn(
                "probing",
                "modular-increment rotation (paper Fig. 3a, optimal)",
                |banks, _seed| Ok(Box::new(Probing::new(banks)?)),
            ),
            policy_fn(
                "scrambling",
                "LFSR-XOR masking (paper Fig. 3b, asymptotically optimal)",
                |banks, seed| Ok(Box::new(Scrambling::new(banks, fold_seed(seed))?)),
            ),
            policy_fn(
                "gray",
                "Gray-coded rotation: single-bit remap transitions per update",
                |banks, _seed| Ok(Box::new(GrayRotation::new(banks)?)),
            ),
            policy_fn(
                "rotate-xor",
                "rotation + LFSR-XOR hybrid of probing and scrambling",
                |banks, seed| Ok(Box::new(RotateXor::new(banks, fold_seed(seed))?)),
            ),
        ])
    }

    /// Registers a policy from a closure — the one-liner path for user
    /// code and examples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Duplicate`] on a name collision.
    pub fn register_fn<F>(
        &mut self,
        name: &str,
        description: &str,
        build: F,
    ) -> Result<(), CoreError>
    where
        F: Fn(u32, u64) -> Result<Box<dyn BankMapping>, CoreError> + Send + Sync + 'static,
    {
        self.register(policy_fn(name, description, build))
    }

    /// Instantiates a named policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unknown`] for an unregistered name, or the
    /// policy's own construction error.
    pub fn build(
        &self,
        name: &str,
        banks: u32,
        seed: u64,
    ) -> Result<Box<dyn BankMapping>, CoreError> {
        let policy = self.get(name).ok_or_else(|| self.unknown(name))?;
        policy.build(banks, seed)
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
        assert!(matches!(
            e,
            CoreError::Duplicate { kind: "policy", ref name } if name == "probing"
        ));
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
