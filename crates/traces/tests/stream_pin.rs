//! Pins the synthetic streams themselves: an FNV-1a 64 hash over the
//! first 200k accesses of every suite workload, at two seeds. Any
//! change to `TraceGen` that moves a single address or access kind
//! moves a hash, so generator optimisations must leave every line here
//! untouched.
//!
//! Beyond the 200k table: the full 640k-cycle horizon for a few
//! workloads (16 schedule periods, so many epoch, slot and burst
//! rollovers), custom profiles whose cursors stride or walk a region
//! size or more, and a check that `TraceSource::next_batch` yields the
//! `Iterator` stream whatever the batch sizes.

use cache_sim::{Access, AccessKind};
use trace_synth::source::{Fnv64, TraceSource, BATCH_ACCESSES};
use trace_synth::{suite, AccessPattern, Region, ScheduleBuilder, WorkloadProfile};

const ACCESSES: usize = 200_000;

/// `(workload, hash at seed 1000, hash at seed 7)`, captured from the
/// generator while it still divided per access.
const PINNED: [(&str, u64, u64); 18] = [
    ("adpcm.dec", 0x745e_66c1_2930_16f0, 0xfbd8_ec45_2e25_a63c),
    ("cjpeg", 0x87ab_e839_edfa_2882, 0x5a6a_c705_b93c_3e32),
    ("CRC32", 0x4fda_672d_090a_d4f8, 0xb2f5_f46a_8742_9e6e),
    ("dijkstra", 0xaaa1_9f01_5bc0_38f3, 0xb1d5_70d0_f1f6_cd19),
    ("djpeg", 0x4c2f_6ca5_1851_09bf, 0xc992_dfed_f2bd_5954),
    ("fft_1", 0xd3ff_6aa1_cd6d_4229, 0x5d79_480e_2fc1_f766),
    ("fft_2", 0x7d2e_9ccc_dd4d_ec64, 0x69e9_4c0e_c76a_80c1),
    ("gsmd", 0xff2d_f80b_8e2a_49ef, 0x67e7_e338_fe9a_60b9),
    ("gsme", 0x9be5_cfc9_f0ff_a80a, 0x4c4b_f922_b271_8a90),
    ("ispell", 0xb0f0_72fc_11e0_dbcb, 0x568f_191e_d73c_14c1),
    ("lame", 0x27e3_7cd5_f7b6_9f35, 0xe967_7069_a7fe_1770),
    ("mad", 0xbf6e_2fdc_bb23_e85b, 0x0d81_5db0_e3c9_d7dd),
    ("rijndael_i", 0x370e_d476_4c16_7f7c, 0x3ec2_9d8d_34b6_dc15),
    ("rijndael_o", 0x9e32_af49_604d_c3bc, 0x93c1_1a7f_5327_2d09),
    ("say", 0x9d38_53c7_b2e5_c903, 0xc769_5a4f_980c_07b0),
    ("search", 0xcb5c_eb44_0db1_db34, 0xcc25_e95c_c503_b026),
    ("sha", 0xa49b_d8cd_5a0a_0a6e, 0x950f_68a3_c696_2d0c),
    ("tiff2bw", 0x87a4_2b87_4055_ce63, 0x9380_154c_515c_4158),
];

fn hash<'a>(accesses: impl IntoIterator<Item = &'a Access>) -> u64 {
    let mut h = Fnv64::new();
    for access in accesses {
        h.update(&access.addr.to_le_bytes());
        h.update(&[match access.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }]);
    }
    h.finish()
}

fn stream_hash(name: &str, seed: u64) -> u64 {
    let profile = suite::by_name(name).unwrap();
    let accesses: Vec<Access> = profile.trace(seed).take(ACCESSES).collect();
    hash(&accesses)
}

/// The first `len` accesses, pulled through `next_batch` in batches of
/// `sizes`, cycled.
fn batched(profile: &WorkloadProfile, seed: u64, len: usize, sizes: &[usize]) -> Vec<Access> {
    let mut source = profile.trace(seed);
    let mut buf = Vec::with_capacity(len);
    for &size in sizes.iter().cycle() {
        let room = size.min(len - buf.len());
        if room == 0 {
            break;
        }
        let before = buf.len();
        assert_eq!(source.next_batch(&mut buf, room).unwrap(), room);
        assert_eq!(
            buf.len() - before,
            room,
            "next_batch appends what it reports"
        );
    }
    buf
}

#[test]
fn every_suite_stream_hashes_to_its_pin() {
    let names: Vec<String> = suite::mediabench()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _, _)| *name).collect();
    assert_eq!(names, pinned, "the pin table covers the whole suite");
    for (name, at_1000, at_7) in PINNED {
        assert_eq!(stream_hash(name, 1000), at_1000, "{name} @ seed 1000");
        assert_eq!(stream_hash(name, 7), at_7, "{name} @ seed 7");
    }
}

/// The Table II horizon: 640k cycles is 16 schedule periods (each one a
/// segment epoch) and 833 burst periods.
const FULL_HORIZON: usize = 640_000;

/// `(workload, hash at seed 1000, hash at seed 7)` over [`FULL_HORIZON`]
/// accesses through `next_batch` at [`BATCH_ACCESSES`], captured from the
/// per-access generator. Every suite profile has two segments; these
/// span five of the seven styles.
const PINNED_FULL: [(&str, u64, u64); 6] = [
    ("adpcm.dec", 0x5e8d_72aa_d4fc_a1e0, 0x242d_1f04_adad_9051),
    ("cjpeg", 0x1df5_b8a1_6679_ccaf, 0x6046_2887_04e4_2e6e),
    ("dijkstra", 0x1c3d_d49f_bd14_ac76, 0x58d5_08da_2c9d_5f6c),
    ("fft_1", 0x2985_32ce_f7b1_5b67, 0xdf0d_e868_5b1c_7d25),
    ("ispell", 0xf3bf_796a_d5f3_bf5b, 0xc663_f0ce_4d8d_010a),
    ("sha", 0xfca0_2ee0_83c7_4a76, 0x0c5d_f2f3_c14c_fd69),
];

#[test]
fn full_horizon_streams_hash_to_their_pins() {
    for (name, at_1000, at_7) in PINNED_FULL {
        let profile = suite::by_name(name).unwrap();
        for (seed, pinned) in [(1000, at_1000), (7, at_7)] {
            let accesses = batched(&profile, seed, FULL_HORIZON, &[BATCH_ACCESSES]);
            assert_eq!(hash(&accesses), pinned, "{name} @ seed {seed}");
        }
    }
}

/// Two custom profiles at the cursor edges: sequential strides and walk
/// steps equal to or larger than their region (down to a 1-byte
/// region), a hotspot whose hot set rounds down to one byte, three
/// segments with heavy lingering traffic, and short odd slots.
fn edge_profiles() -> [WorkloadProfile; 2] {
    let seq = |base: u64, size: u64, stride: u32| {
        Region::new(base, size, AccessPattern::Sequential { stride })
    };
    let walk = |base: u64, size: u64, max_step: u32| {
        Region::new(base, size, AccessPattern::Walk { max_step })
    };
    let hotspot =
        |base: u64, size: u64, hot: f64| Region::new(base, size, AccessPattern::Hotspot { hot });
    let wide_strides = WorkloadProfile::builder(
        "edge.wide_strides",
        [
            vec![seq(0, 64, 64)],
            vec![seq(4096, 48, 1000), seq(4096 + 2048, 1, 16)],
            vec![seq(8192, 100, u32::MAX), hotspot(8192 + 2048, 64, 1e-4)],
            vec![seq(12288, 4096, 16), hotspot(12288 + 64, 512, 1.0)],
        ],
        ScheduleBuilder::new([0.2, 0.4, 0.6, 0.8])
            .slots(7)
            .slot_cycles(333)
            .build(),
    )
    .segments(3)
    .leak_through(0.5)
    .write_ratio(0.5)
    .build();
    let wide_walks = WorkloadProfile::builder(
        "edge.wide_walks",
        [
            vec![walk(0, 64, 64)],
            vec![walk(4096, 48, 1000), walk(4096 + 2048, 1, 3)],
            vec![
                walk(8192, 100, u32::MAX),
                Region::new(8192 + 2048, 512, AccessPattern::Random),
            ],
            vec![walk(12288, 4096, 4095)],
        ],
        ScheduleBuilder::new([0.1, 0.5, 0.999, 0.7])
            .slots(5)
            .slot_cycles(1000)
            .build(),
    )
    .build();
    [wide_strides, wide_walks]
}

/// `(profile, hash at seed 1000, hash at seed 7)` over [`ACCESSES`]
/// accesses of [`edge_profiles`], captured from the per-access generator.
const PINNED_EDGES: [(&str, u64, u64); 2] = [
    (
        "edge.wide_strides",
        0xb8b4_fb7c_7dfb_8e29,
        0xf8c7_063e_c545_b112,
    ),
    (
        "edge.wide_walks",
        0x8629_6737_584c_11d0,
        0x1142_9b85_6582_04ad,
    ),
];

#[test]
fn cursor_edge_streams_hash_to_their_pins() {
    for (profile, (name, at_1000, at_7)) in edge_profiles().iter().zip(PINNED_EDGES) {
        assert_eq!(profile.name(), name);
        for (seed, pinned) in [(1000, at_1000), (7, at_7)] {
            let iterated: Vec<Access> = profile.trace(seed).take(ACCESSES).collect();
            assert_eq!(hash(&iterated), pinned, "{name} @ seed {seed}");
            let pulled = batched(profile, seed, ACCESSES, &[BATCH_ACCESSES]);
            assert_eq!(hash(&pulled), pinned, "{name} @ seed {seed}, batched");
        }
    }
}

/// Batch sizes for [`next_batch_yields_the_iterator_stream`]: single
/// accesses, a size coprime to every run edge, one just under a slot, the
/// study batch, and a ragged mix.
const BATCH_SHAPES: [&[usize]; 5] = [&[1], &[7], &[999], &[4096], &[1, 4096, 3, 777, 96, 5000, 2]];

#[test]
fn next_batch_yields_the_iterator_stream() {
    // Two schedule periods: every slot edge, one epoch rollover and
    // over a hundred burst edges.
    const LEN: usize = 80_000;
    let profiles = suite::mediabench().into_iter().chain(edge_profiles());
    for profile in profiles {
        let iterated: Vec<Access> = profile.trace(1000).take(LEN).collect();
        for sizes in BATCH_SHAPES {
            let pulled = batched(&profile, 1000, LEN, sizes);
            assert!(
                pulled == iterated,
                "{}: next_batch at {sizes:?} diverges from the iterator at access {}",
                profile.name(),
                pulled
                    .iter()
                    .zip(&iterated)
                    .take_while(|(a, b)| a == b)
                    .count()
            );
        }
    }
}
