//! The dynamic-indexing functions `f()` (paper §III-A3, Fig. 3).
//!
//! Both policies remap only the `p` bank-select MSBs of the cache index;
//! they are bijections at every point in time, so the cache's hit/miss
//! behaviour is untouched between updates (the paper's "no degradation of
//! miss rate" property).
//!
//! * **Probing** (Fig. 3a) "implements the re-mapping of lines of Bank i
//!   to Bank i+1 (modulo M)" — in hardware a `p`-bit counter incremented
//!   by the `update` signal and a `p`-bit adder. Proven in ref. \[7\] to
//!   distribute idleness *perfectly* uniformly once at least `M` updates
//!   have been executed.
//! * **Scrambling** (Fig. 3b) XORs the bank address with an LFSR value
//!   drawn on each `update`. Approaches uniformity asymptotically; the
//!   deviation shrinks as `1/√N` in the number of updates (§IV-B2).
//!
//! Beyond the paper's pair, this module ships two more bijections that
//! prove the policy axis is open — [`GrayRotation`] (Gray-coded
//! rotation) and [`RotateXor`] (a rotation/LFSR hybrid) — and the
//! [`registry`](crate::registry) makes the set extensible from user
//! code without touching this crate.

use crate::error::CoreError;
use crate::lfsr::Lfsr;
use cache_sim::BankMapping;

fn validate_banks(banks: u32) -> Result<(), CoreError> {
    if banks < 2 || !banks.is_power_of_two() {
        return Err(CoreError::InvalidParameter {
            name: "banks",
            value: banks as f64,
            expected: "a power of two of at least 2",
        });
    }
    Ok(())
}

/// The Probing policy: `bank' = (bank + c) mod M`, `c` incremented on each
/// update (paper Fig. 3a).
///
/// # Examples
///
/// ```
/// use aging_cache::Probing;
/// use cache_sim::BankMapping;
///
/// // The paper's Example 1: N = 256 lines, M = 4; address 70 lives in
/// // bank 1 and walks through banks 2, 3, 0 on successive updates.
/// let mut f = Probing::new(4)?;
/// assert_eq!(f.map_bank(1, 4), 1);
/// f.update();
/// assert_eq!(f.map_bank(1, 4), 2);
/// f.update();
/// assert_eq!(f.map_bank(1, 4), 3);
/// f.update();
/// assert_eq!(f.map_bank(1, 4), 0);
/// # Ok::<(), aging_cache::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Probing {
    banks: u32,
    offset: u32,
}

impl Probing {
    /// Creates the policy with offset 0 (identity at time zero).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a bad bank count.
    pub fn new(banks: u32) -> Result<Self, CoreError> {
        validate_banks(banks)?;
        Ok(Self { banks, offset: 0 })
    }

    /// The current offset `c`.
    pub fn offset(&self) -> u32 {
        self.offset
    }
}

impl BankMapping for Probing {
    fn map_bank(&self, logical: u32, banks: u32) -> u32 {
        debug_assert_eq!(banks, self.banks);
        // Restricting the adder to p bits realizes the modulo for free
        // (paper: "Modulo M operations are automatically achieved by
        // restricting all signals to p bits").
        (logical + self.offset) & (self.banks - 1)
    }

    fn update(&mut self) {
        self.offset = (self.offset + 1) & (self.banks - 1);
    }

    fn name(&self) -> &str {
        "probing"
    }
}

/// The Scrambling policy: `bank' = bank XOR r`, `r` drawn from an LFSR on
/// each update (paper Fig. 3b).
///
/// The XOR mask starts at 0 (identity at time zero) and becomes the low
/// `p` bits of the LFSR state after each update. The LFSR is wider than
/// `p` by default (16 bits): a maximal-length register never outputs the
/// all-zero *state*, so a `p`-bit register would never produce the
/// identity mask and every bank would systematically skip hosting its own
/// traffic — a measurable uniformity bias (about 14 % of the lifetime
/// gain at M = 4, see the `narrow_lfsr` ablation bench). Taking the low
/// bits of a wide register makes all `M` masks equally likely, which is
/// what lets Scrambling match Probing "de facto" as the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scrambling {
    banks: u32,
    lfsr: Lfsr,
    mask: u32,
}

impl Scrambling {
    /// Default LFSR register width.
    pub const DEFAULT_LFSR_WIDTH: u32 = 16;

    /// Creates the policy with an identity initial mask, the given LFSR
    /// seed and the default 16-bit register.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a bad bank count.
    pub fn new(banks: u32, seed: u16) -> Result<Self, CoreError> {
        Self::with_lfsr_width(banks, Self::DEFAULT_LFSR_WIDTH, seed)
    }

    /// Creates the policy with an explicit LFSR register width (must be
    /// at least `p = log2(banks)`). Width exactly `p` reproduces the
    /// paper's literal Fig. 3b wiring — and its self-exclusion bias.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a bad bank count or a
    /// width below `p` / above 16.
    pub fn with_lfsr_width(banks: u32, width: u32, seed: u16) -> Result<Self, CoreError> {
        validate_banks(banks)?;
        let p = banks.trailing_zeros();
        if width < p {
            return Err(CoreError::InvalidParameter {
                name: "width",
                value: width as f64,
                expected: "an LFSR at least as wide as the bank-select field",
            });
        }
        Ok(Self {
            banks,
            lfsr: Lfsr::new(width, seed)?,
            mask: 0,
        })
    }

    /// The current XOR mask `r`.
    pub fn mask(&self) -> u32 {
        self.mask
    }
}

impl BankMapping for Scrambling {
    fn map_bank(&self, logical: u32, banks: u32) -> u32 {
        debug_assert_eq!(banks, self.banks);
        logical ^ self.mask
    }

    fn update(&mut self) {
        self.mask = self.lfsr.next_value() as u32 & (self.banks - 1);
    }

    fn name(&self) -> &str {
        "scrambling"
    }
}

/// Gray-coded rotation: `bank' = gray((bank + c) mod M)` with the
/// counter `c` incremented on each update, where
/// `gray(x) = x ^ (x >> 1)`.
///
/// Both stages are bijections on the `p` bank-select bits, so the
/// composition is too. Compared to plain Probing, consecutive updates
/// move each logical bank's *physical* location by a single bit flip in
/// the decoder's one-hot stage — the same single-transition property
/// that motivates Gray counters in low-power address decoders (and the
/// rejuvenation-oriented decoder policies of Gürsoy et al.). Over any
/// window of `M` consecutive updates each logical bank still visits
/// every physical bank exactly once, so the idleness-uniformization
/// argument of ref. \[7\] carries over unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GrayRotation {
    banks: u32,
    offset: u32,
}

impl GrayRotation {
    /// Creates the policy with offset 0.
    ///
    /// Note that unlike [`Probing`], the mapping at time zero is the
    /// Gray code itself, not the identity — the policy is a different
    /// fixed bijection between updates, which leaves hit/miss behaviour
    /// untouched (the simulator only cares that it *is* a bijection).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a bad bank count.
    pub fn new(banks: u32) -> Result<Self, CoreError> {
        validate_banks(banks)?;
        Ok(Self { banks, offset: 0 })
    }

    /// The current rotation offset `c`.
    pub fn offset(&self) -> u32 {
        self.offset
    }
}

impl BankMapping for GrayRotation {
    fn map_bank(&self, logical: u32, banks: u32) -> u32 {
        debug_assert_eq!(banks, self.banks);
        let rotated = (logical + self.offset) & (self.banks - 1);
        rotated ^ (rotated >> 1)
    }

    fn update(&mut self) {
        self.offset = (self.offset + 1) & (self.banks - 1);
    }

    fn name(&self) -> &str {
        "gray"
    }
}

/// Rotate-XOR hybrid: `bank' = ((bank + c) mod M) ^ r`, combining
/// Probing's counter with Scrambling's LFSR mask.
///
/// The rotation guarantees the perfect `M`-update fairness window of
/// Probing even when the LFSR stream is unlucky, while the XOR mask
/// decorrelates the *sequence* in which physical banks are visited —
/// useful when the workload's idleness itself drifts with a period close
/// to `M` updates, which makes plain rotation alias. Both stages are
/// bijections on the `p` bank-select bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RotateXor {
    banks: u32,
    offset: u32,
    lfsr: Lfsr,
    mask: u32,
}

impl RotateXor {
    /// Creates the hybrid with offset 0 and an identity initial mask
    /// (so, like [`Probing`], it is the identity at time zero). The LFSR
    /// uses the same wide default register as [`Scrambling`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a bad bank count.
    pub fn new(banks: u32, seed: u16) -> Result<Self, CoreError> {
        validate_banks(banks)?;
        Ok(Self {
            banks,
            offset: 0,
            lfsr: Lfsr::new(Scrambling::DEFAULT_LFSR_WIDTH, seed)?,
            mask: 0,
        })
    }

    /// The current rotation offset `c`.
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// The current XOR mask `r`.
    pub fn mask(&self) -> u32 {
        self.mask
    }
}

impl BankMapping for RotateXor {
    fn map_bank(&self, logical: u32, banks: u32) -> u32 {
        debug_assert_eq!(banks, self.banks);
        (((logical + self.offset) & (self.banks - 1)) ^ self.mask) & (self.banks - 1)
    }

    fn update(&mut self) {
        self.offset = (self.offset + 1) & (self.banks - 1);
        self.mask = self.lfsr.next_value() as u32 & (self.banks - 1);
    }

    fn name(&self) -> &str {
        "rotate-xor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::mapping::is_bijective;

    #[test]
    fn probing_is_always_bijective() {
        let mut p = Probing::new(8).unwrap();
        for _ in 0..20 {
            assert!(is_bijective(&p, 8));
            p.update();
        }
    }

    #[test]
    fn scrambling_is_always_bijective() {
        let mut s = Scrambling::new(8, 5).unwrap();
        for _ in 0..20 {
            assert!(is_bijective(&s, 8));
            s.update();
        }
    }

    #[test]
    fn probing_visits_every_bank_uniformly() {
        // Ref [7]: perfectly uniform after >= M updates.
        let m = 8u32;
        let mut p = Probing::new(m).unwrap();
        let mut visits = vec![vec![0u32; m as usize]; m as usize];
        for _ in 0..m {
            for l in 0..m {
                visits[l as usize][p.map_bank(l, m) as usize] += 1;
            }
            p.update();
        }
        for (l, row) in visits.iter().enumerate() {
            assert!(
                row.iter().all(|&v| v == 1),
                "logical bank {l} should visit each physical bank exactly once: {row:?}"
            );
        }
    }

    #[test]
    fn scrambling_wide_lfsr_visits_all_banks_nearly_uniformly() {
        let m = 8u32;
        let mut s = Scrambling::new(m, 3).unwrap();
        let n = 8000usize;
        let mut visited = vec![0u32; m as usize];
        for _ in 0..n {
            s.update();
            visited[s.map_bank(2, m) as usize] += 1;
        }
        let ideal = n as f64 / m as f64;
        for (b, &v) in visited.iter().enumerate() {
            let dev = (v as f64 - ideal).abs() / ideal;
            assert!(dev < 0.10, "bank {b} visited {v}, ideal {ideal}");
        }
    }

    #[test]
    fn scrambling_narrow_lfsr_skips_self() {
        // The paper's literal p-bit register (Fig. 3b): the mask is never
        // zero, so a bank never hosts its own traffic — the uniformity
        // bias documented in EXPERIMENTS.md.
        let m = 8u32;
        let mut s = Scrambling::with_lfsr_width(m, 3, 5).unwrap();
        let period = (m - 1) as usize;
        let mut visited = vec![0u32; m as usize];
        for _ in 0..period {
            s.update();
            visited[s.map_bank(2, m) as usize] += 1;
        }
        assert_eq!(visited[2], 0, "a non-zero mask never maps a bank to itself");
        for (b, &v) in visited.iter().enumerate() {
            if b != 2 {
                assert_eq!(v, 1, "bank 2 should visit bank {b} exactly once");
            }
        }
    }

    #[test]
    fn scrambling_rejects_too_narrow_register() {
        assert!(Scrambling::with_lfsr_width(8, 2, 1).is_err());
        assert!(Scrambling::with_lfsr_width(8, 3, 1).is_ok());
    }

    #[test]
    fn identity_at_time_zero_for_both() {
        let p = Probing::new(4).unwrap();
        let s = Scrambling::new(4, 9).unwrap();
        for l in 0..4 {
            assert_eq!(p.map_bank(l, 4), l);
            assert_eq!(s.map_bank(l, 4), l);
        }
    }

    #[test]
    fn paper_policies_build_from_the_registry() {
        let registry = crate::registry::PolicyRegistry::global();
        for name in ["identity", "probing", "scrambling"] {
            let m = registry.build(name, 4, 1).unwrap();
            assert!(is_bijective(m.as_ref(), 4), "{name} not bijective");
        }
        assert!(registry.build("probing", 3, 1).is_err());
        assert!(registry.build("scrambling", 1, 1).is_err());
    }

    #[test]
    fn gray_rotation_is_bijective_and_fair() {
        let m = 8u32;
        let mut g = GrayRotation::new(m).unwrap();
        let mut visits = vec![vec![0u32; m as usize]; m as usize];
        for _ in 0..m {
            assert!(is_bijective(&g, m));
            for l in 0..m {
                visits[l as usize][g.map_bank(l, m) as usize] += 1;
            }
            g.update();
        }
        for (l, row) in visits.iter().enumerate() {
            assert!(
                row.iter().all(|&v| v == 1),
                "logical bank {l} must visit each physical bank once per window: {row:?}"
            );
        }
    }

    #[test]
    fn gray_rotation_single_bit_transitions() {
        // The Gray property: one update moves any logical bank's
        // physical location by exactly one bit flip.
        let m = 8u32;
        let mut g = GrayRotation::new(m).unwrap();
        for _ in 0..2 * m {
            let before: Vec<u32> = (0..m).map(|l| g.map_bank(l, m)).collect();
            g.update();
            for (l, &b) in before.iter().enumerate() {
                let after = g.map_bank(l as u32, m);
                assert_eq!(
                    (b ^ after).count_ones(),
                    1,
                    "bank {l}: {b} -> {after} is not a single-bit move"
                );
            }
        }
    }

    #[test]
    fn rotate_xor_is_bijective_under_updates() {
        let mut h = RotateXor::new(8, 0xbeef).unwrap();
        for _ in 0..50 {
            assert!(is_bijective(&h, 8));
            h.update();
        }
    }

    #[test]
    fn rotate_xor_identity_at_time_zero() {
        let h = RotateXor::new(4, 77).unwrap();
        for l in 0..4 {
            assert_eq!(h.map_bank(l, 4), l);
        }
    }

    #[test]
    fn new_policies_reject_bad_bank_counts() {
        assert!(GrayRotation::new(3).is_err());
        assert!(GrayRotation::new(1).is_err());
        assert!(RotateXor::new(6, 1).is_err());
    }

    #[test]
    fn probing_matches_paper_example_walk() {
        // Example 1: address 70 -> bank 1; after updates: 2, 3, 0.
        let mut f = Probing::new(4).unwrap();
        let walk: Vec<u32> = (0..4)
            .map(|_| {
                let b = f.map_bank(1, 4);
                f.update();
                b
            })
            .collect();
        assert_eq!(walk, vec![1, 2, 3, 0]);
    }
}
