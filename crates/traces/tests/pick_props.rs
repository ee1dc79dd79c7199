//! `SplitMix64::pick_weighted` counts instead of branching on its draw.
//! These properties hold it to the first-match loop it replaced (kept
//! here only), index for index and draw for draw.

use trace_synth::SplitMix64;

/// The first-match loop: the first index whose weight exceeds the
/// running remainder of the scaled draw, or the last index.
fn first_match(rng: &mut SplitMix64, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return weights.len() - 1;
    }
    let mut x = rng.next_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// Picks `draws` times from `weights` with both forms on one seed: same
/// indices, and the generators end in the same state (same draw count).
fn agree(seed: u64, weights: &[f64], draws: usize) {
    let mut fast = SplitMix64::new(seed);
    let mut reference = SplitMix64::new(seed);
    for draw in 0..draws {
        assert_eq!(
            fast.pick_weighted(weights),
            first_match(&mut reference, weights),
            "weights {weights:?}, seed {seed}, draw {draw}"
        );
    }
    assert_eq!(fast, reference, "draw counts diverge for {weights:?}");
}

#[test]
fn random_non_negative_weights_pick_like_the_loop() {
    quickprop::cases(256, |g| {
        let len = g.usize_in(1..9);
        let scale = *g.pick(&[1e-300, 1e-3, 1.0, 1e6, 1e300]);
        let weights = g.vec_f64(0.0..scale, len);
        agree(g.next_u64(), &weights, 64);
    });
}

#[test]
fn zero_weights_are_never_picked_unless_last() {
    quickprop::cases(256, |g| {
        let len = g.usize_in(2..9);
        let weights: Vec<f64> = (0..len)
            .map(|_| {
                if g.u32_in(0..2) == 0 {
                    0.0
                } else {
                    g.f64_in(0.0..4.0)
                }
            })
            .collect();
        agree(g.next_u64(), &weights, 64);
        let mut rng = SplitMix64::new(g.next_u64());
        for _ in 0..64 {
            let i = rng.pick_weighted(&weights);
            assert!(
                weights[i] > 0.0 || i == len - 1,
                "picked zero weight {i} of {weights:?}"
            );
        }
    });
}

#[test]
fn a_zero_total_picks_the_last_index_without_drawing() {
    quickprop::cases(32, |g| {
        let len = g.usize_in(1..9);
        let weights = vec![0.0; len];
        let seed = g.next_u64();
        agree(seed, &weights, 8);
        let mut rng = SplitMix64::new(seed);
        assert_eq!(rng.pick_weighted(&weights), len - 1);
        assert_eq!(rng, SplitMix64::new(seed), "a zero total must not draw");
    });
}

#[test]
fn a_three_way_read_mix_picks_like_the_loop() {
    // The shape of a three-route request mix.
    quickprop::cases(64, |g| {
        agree(g.next_u64(), &[0.35, 0.35, 0.3], 256);
        let a = g.f64_in(0.0..1.0);
        let b = g.f64_in(0.0..1.0 - a);
        agree(g.next_u64(), &[a, b, 1.0 - a - b], 256);
    });
}

#[test]
fn infinite_weights_pick_like_the_loop() {
    let inf = f64::INFINITY;
    for weights in [[1.0, inf, 2.0], [inf, 1.0, 0.0], [inf, inf, 1.0]] {
        agree(11, &weights, 64);
    }
}
