//! Pins the synthetic streams themselves: an FNV-1a 64 hash over the
//! first 200k accesses of every suite workload, at two seeds. Any
//! change to `TraceGen` that moves a single address or access kind
//! moves a hash, so generator optimisations must leave every line here
//! untouched.

use cache_sim::AccessKind;
use trace_synth::source::Fnv64;
use trace_synth::suite;

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

fn stream_hash(name: &str, seed: u64) -> u64 {
    let profile = suite::by_name(name).unwrap();
    let mut h = Fnv64::new();
    for access in profile.trace(seed).take(ACCESSES) {
        h.update(&access.addr.to_le_bytes());
        h.update(&[match access.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }]);
    }
    h.finish()
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
