//! Deterministic pseudo-random number generation.
//!
//! Trace generation must be exactly reproducible across runs and platforms
//! (the experiment tables in `EXPERIMENTS.md` are regenerated bit-for-bit),
//! so we implement a small, well-known generator instead of depending on a
//! crate whose stream might change between versions.

/// SplitMix64: a tiny, fast, high-quality 64-bit generator.
///
/// Passes BigCrush when used as a stream; here it both drives trace
/// decisions directly and seeds derived streams. Reference: Steele, Lea &
/// Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014.
///
/// # Examples
///
/// ```
/// use trace_synth::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let r = a.next_f64();
/// assert!((0.0..1.0).contains(&r));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

/// The state increment per draw (the golden-ratio "gamma").
const GAMMA: u64 = 0x9e3779b97f4a7c15;

/// The output function: the draw at state `z`.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Maps a raw draw to `[0, bound)` for `bound > 0`, as
/// [`SplitMix64::next_below`] does: multiply-shift bounded sampling
/// (Lemire), whose bias is < 2^-64 per draw, irrelevant for trace
/// synthesis.
#[inline]
pub(crate) fn below(draw: u64, bound: u64) -> u64 {
    ((draw as u128 * bound as u128) >> 64) as u64
}

/// Maps a raw draw to `[0, 1)`, as [`SplitMix64::next_f64`] does.
#[inline]
pub(crate) fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent stream for a named sub-purpose; mixing the
    /// label keeps streams decorrelated even for adjacent seeds.
    pub fn derive(&self, label: u64) -> Self {
        let mut child = Self::new(self.state ^ label.wrapping_mul(GAMMA));
        child.next_u64();
        Self::new(child.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.skip(1);
        mix(self.state)
    }

    /// The raw value `k` draws ahead (`peek(1)` is what `next_u64`
    /// returns next), without drawing: the generator is counter-based,
    /// so draw `k` is a pure function of the state. Lets a caller compute
    /// every outcome of a choice branch-free, then [`skip`] the draws
    /// the chosen one took.
    ///
    /// [`skip`]: SplitMix64::skip
    #[inline]
    pub(crate) fn peek(&self, k: u64) -> u64 {
        mix(self.state.wrapping_add(GAMMA.wrapping_mul(k)))
    }

    /// Consumes `k` draws unseen.
    #[inline]
    pub(crate) fn skip(&mut self, k: u64) {
        self.state = self.state.wrapping_add(GAMMA.wrapping_mul(k));
    }

    /// Uniform value in `[0, bound)`. Returns 0 for `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            below(self.next_u64(), bound)
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks an index from a slice of non-negative weights. Returns the
    /// last index if the weights sum to zero (without drawing).
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        self.pick_weighted_summed(weights, weights.iter().sum())
    }

    /// [`SplitMix64::pick_weighted`] with the weights' sum already taken
    /// (by `weights.iter().sum()`), so a caller drawing many times from
    /// one weight set sums it once.
    ///
    /// The pick is the first `i` where the running remainder `x_i` (the
    /// scaled draw minus the weights before `i`) is below `w_i`, or the
    /// last index if there is none. For non-negative weights, once
    /// `x_i < w_i` holds the remainder is negative and it holds for every
    /// later `i` too, so that first index equals the count of
    /// `!(x_i < w_i)` over the first `len - 1` remainders. Counting does
    /// the same f64 subtractions without a branch on the draw.
    // `!(x < w)`, not `x >= w`: an infinite weight makes the remainder
    // NaN, which the first-match loop passes over, so it must count.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn pick_weighted_summed(&mut self, weights: &[f64], total: f64) -> usize {
        debug_assert!(!weights.is_empty());
        debug_assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative: {weights:?}"
        );
        let last = weights.len() - 1;
        if total <= 0.0 {
            return last;
        }
        let mut x = self.next_f64() * total;
        let mut idx = 0;
        for &w in &weights[..last] {
            idx += usize::from(!(x < w));
            x -= w;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_first_value() {
        // First output for seed 0 of the canonical SplitMix64.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220a8397b1dcdaf);
    }

    #[test]
    fn bounded_sampling_stays_in_bounds_and_covers() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.next_below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut r = SplitMix64::new(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut r = SplitMix64::new(5);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.pick_weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn degenerate_weights_fall_back_to_last() {
        let mut r = SplitMix64::new(9);
        assert_eq!(r.pick_weighted(&[0.0, 0.0]), 1);
    }

    #[test]
    fn derived_streams_differ() {
        let base = SplitMix64::new(1234);
        let mut a = base.derive(1);
        let mut b = base.derive(2);
        assert_ne!(a.next_u64(), b.next_u64());
        // Deriving twice with the same label gives the same stream.
        let mut c = base.derive(1);
        let mut d = base.derive(1);
        assert_eq!(c.next_u64(), d.next_u64());
    }
}
