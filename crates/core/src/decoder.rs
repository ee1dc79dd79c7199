//! Decoder `D` with the dynamic-indexing stage (paper Figs. 1b and 2).
//!
//! The decoder splits the `n`-bit cache index into `n − p` LSBs (routed
//! unchanged to every bank) and `p` MSBs, passes the MSBs through the
//! time-varying function `f()`, and one-hot encodes the result into the
//! per-bank activation signals consumed by Block Control and the Block
//! Selector.

use crate::error::CoreError;
use crate::onehot::OneHotEncoder;
use cache_sim::{BankMapping, CacheGeometry};

/// The result of routing one address through the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoutedAccess {
    /// The logical bank (the raw `p` MSBs of the index).
    pub logical_bank: u32,
    /// The physical bank after `f()`.
    pub physical_bank: u32,
    /// One-hot activation word (bit `physical_bank` set).
    pub activation: u32,
    /// The `n − p` LSBs, identical for every bank.
    pub slot: u64,
    /// The physical set index (`physical_bank · sets_per_bank + slot`).
    pub physical_set: u64,
}

/// Decoder `D`: address split + dynamic indexing + one-hot activation.
///
/// # Examples
///
/// ```
/// use aging_cache::{Decoder, PolicyRegistry};
/// use cache_sim::CacheGeometry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geom = CacheGeometry::direct_mapped(16 * 1024, 16, 4)?;
/// let mut dec = Decoder::new(geom, PolicyRegistry::global().build("probing", 4, 0)?)?;
/// let r = dec.route(0x1230)?;
/// assert_eq!(r.logical_bank, r.physical_bank, "identity at time zero");
/// dec.update();
/// let r2 = dec.route(0x1230)?;
/// assert_eq!(r2.physical_bank, (r.physical_bank + 1) % 4);
/// # Ok(())
/// # }
/// ```
pub struct Decoder {
    geometry: CacheGeometry,
    policy: Box<dyn BankMapping>,
    onehot: OneHotEncoder,
    updates: u64,
}

impl std::fmt::Debug for Decoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Decoder")
            .field("geometry", &self.geometry)
            .field("policy", &self.policy.name())
            .field("updates", &self.updates)
            .finish()
    }
}

impl Decoder {
    /// Builds the decoder for a geometry and indexing policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the geometry has fewer
    /// than 2 banks (no decoder needed for a monolithic cache).
    pub fn new(geometry: CacheGeometry, policy: Box<dyn BankMapping>) -> Result<Self, CoreError> {
        let onehot = OneHotEncoder::new(geometry.banks())?;
        Ok(Self {
            geometry,
            policy,
            onehot,
            updates: 0,
        })
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of `update` pulses applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Routes a byte address through split → `f()` → one-hot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the policy emits a bank
    /// outside the geometry (a buggy custom policy).
    pub fn route(&self, addr: u64) -> Result<RoutedAccess, CoreError> {
        let set = self.geometry.set_of(addr);
        let logical_bank = self.geometry.bank_of_set(set);
        let slot = self.geometry.slot_in_bank(set);
        let physical_bank = self.policy.map_bank(logical_bank, self.geometry.banks());
        let activation = self.onehot.encode(physical_bank)?;
        Ok(RoutedAccess {
            logical_bank,
            physical_bank,
            activation,
            slot,
            physical_set: self.geometry.set_from_bank_slot(physical_bank, slot),
        })
    }

    /// Applies the `update` signal to `f()`.
    pub fn update(&mut self) {
        self.policy.update();
        self.updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoder(policy: &str) -> Decoder {
        let geom = CacheGeometry::direct_mapped(256 * 16, 16, 4).unwrap();
        let mapping = crate::registry::PolicyRegistry::global()
            .build(policy, 4, 1)
            .unwrap();
        Decoder::new(geom, mapping).unwrap()
    }

    #[test]
    fn slot_bits_pass_through_unchanged() {
        let mut dec = decoder("probing");
        let addr = 70 * 16; // paper Example 1: line 70
        let before = dec.route(addr).unwrap();
        dec.update();
        let after = dec.route(addr).unwrap();
        assert_eq!(before.slot, after.slot, "the n-p LSBs never change");
        assert_ne!(before.physical_bank, after.physical_bank);
    }

    #[test]
    fn paper_example_1_full_walk() {
        // Address 70 (line index), M = 4, 64 lines/bank: bank walk
        // 1 -> 2 -> 3 -> 0 on successive updates, always slot 6.
        let mut dec = decoder("probing");
        let addr = 70 * 16;
        let mut banks = Vec::new();
        for _ in 0..4 {
            let r = dec.route(addr).unwrap();
            assert_eq!(r.slot, 6);
            banks.push(r.physical_bank);
            dec.update();
        }
        assert_eq!(banks, vec![1, 2, 3, 0]);
    }

    #[test]
    fn activation_is_one_hot_of_physical_bank() {
        let dec = decoder("identity");
        for line in 0..256u64 {
            let r = dec.route(line * 16).unwrap();
            assert_eq!(r.activation, 1 << r.physical_bank);
            assert_eq!(r.activation.count_ones(), 1);
        }
    }

    #[test]
    fn physical_set_recombines_bank_and_slot() {
        let dec = decoder("scrambling");
        let geom = *dec.geometry();
        for line in (0..256u64).step_by(7) {
            let r = dec.route(line * 16).unwrap();
            assert_eq!(
                r.physical_set,
                geom.set_from_bank_slot(r.physical_bank, r.slot)
            );
        }
    }

    #[test]
    fn scrambling_decoder_stays_bijective_over_updates() {
        let mut dec = decoder("scrambling");
        for _ in 0..10 {
            let mut seen = [false; 4];
            for l in 0..4u64 {
                let r = dec.route(l * 64 * 16).unwrap(); // one address per bank
                assert!(!seen[r.physical_bank as usize], "collision");
                seen[r.physical_bank as usize] = true;
            }
            dec.update();
        }
    }

    #[test]
    fn update_counter_increments() {
        let mut dec = decoder("probing");
        assert_eq!(dec.updates(), 0);
        dec.update();
        dec.update();
        assert_eq!(dec.updates(), 2);
    }
}
