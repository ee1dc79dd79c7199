//! Latency of the dynamic-indexing primitives: `f()` evaluation (on the
//! critical cache-access path!) and the `update` pulse. The paper's
//! feasibility argument rests on `f()` being a couple of gates; these
//! benches confirm the software model is nanoseconds.

use aging_cache::policy::{GrayRotation, Probing, RotateXor, Scrambling};
use cache_sim::{BankMapping, IdentityMapping};
use repro_bench::harness::Harness;
use std::hint::black_box;

fn bench_map() {
    let mut g = Harness::new("policy/map_bank");
    let identity = IdentityMapping;
    let probing = Probing::new(16).expect("policy");
    let scrambling = Scrambling::new(16, 7).expect("policy");
    let gray = GrayRotation::new(16).expect("policy");
    let hybrid = RotateXor::new(16, 7).expect("policy");
    g.bench("identity", || {
        black_box(identity.map_bank(black_box(11), 16))
    });
    g.bench("probing", || black_box(probing.map_bank(black_box(11), 16)));
    g.bench("scrambling", || {
        black_box(scrambling.map_bank(black_box(11), 16))
    });
    g.bench("gray", || black_box(gray.map_bank(black_box(11), 16)));
    g.bench("rotate-xor", || {
        black_box(hybrid.map_bank(black_box(11), 16))
    });
}

fn bench_update() {
    let mut g = Harness::new("policy/update");
    let mut p = Probing::new(16).expect("policy");
    g.bench("probing", || p.update());
    let mut s = Scrambling::new(16, 7).expect("policy");
    g.bench("scrambling", || s.update());
    let mut gr = GrayRotation::new(16).expect("policy");
    g.bench("gray", || gr.update());
    let mut h = RotateXor::new(16, 7).expect("policy");
    g.bench("rotate-xor", || h.update());
}

fn main() {
    bench_map();
    bench_update();
}
