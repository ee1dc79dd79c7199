//! Property tests for the trace parsers.
//!
//! * **Round-trip**: emit → parse is the identity on access streams,
//!   for every format, across randomized streams and batch sizes.
//! * **Malformed input**: a corrupted line is rejected with the exact
//!   1-based line number, wherever it is injected.
//! * **Strict batching**: `next_batch(max)` never overshoots `max`,
//!   even across Lackey's two-access `M` records.
//! * **Untrusted bytes**: arbitrary, truncated and non-UTF-8 input ends
//!   in `Ok` or a typed `TraceError` for every reader, never a panic,
//!   within a time bound.

use cache_sim::{Access, AccessKind};
use quickprop::Gen;
use trace_synth::formats::{write_csv, write_din, write_lackey, TraceFormat};

fn random_stream(g: &mut Gen, len: usize) -> Vec<Access> {
    (0..len)
        .map(|_| {
            // Mix tiny, page-scale and full-range addresses.
            let addr = match g.u32_in(0..3) {
                0 => g.u64_in(0..4096),
                1 => g.u64_in(0..16 * 1024 * 1024),
                _ => g.next_u64() >> g.u32_in(0..32),
            };
            if g.u32_in(0..4) == 0 {
                Access::write(addr)
            } else {
                Access::read(addr)
            }
        })
        .collect()
}

fn emit(format: TraceFormat, accesses: &[Access]) -> String {
    let mut text = String::new();
    match format {
        TraceFormat::Din => write_din(&mut text, accesses),
        TraceFormat::Lackey => write_lackey(&mut text, accesses),
        TraceFormat::Csv => write_csv(&mut text, accesses),
    }
    text
}

fn parse(format: TraceFormat, text: &str, batch: usize) -> Vec<Access> {
    let mut source = format.reader(std::io::Cursor::new(text.to_string()));
    let mut out = Vec::new();
    loop {
        let before = out.len();
        let n = source
            .next_batch(&mut out, batch)
            .expect("well-formed input parses");
        assert!(n <= batch, "next_batch overshot max ({n} > {batch})");
        assert_eq!(out.len() - before, n, "return value counts appended items");
        if n == 0 {
            return out;
        }
    }
}

#[test]
fn round_trip_is_identity_for_every_format() {
    quickprop::cases(24, |g| {
        let len = g.usize_in(0..400);
        let stream = random_stream(g, len);
        let batch = [1, 3, 7, 64, 4096][g.usize_in(0..5)];
        for format in TraceFormat::ALL {
            let text = emit(format, &stream);
            let back = parse(format, &text, batch);
            assert_eq!(back, stream, "{format} round-trip, batch {batch}");
        }
    });
}

#[test]
fn corrupted_line_is_rejected_with_its_line_number() {
    quickprop::cases(24, |g| {
        let len = 1 + g.usize_in(0..60);
        let stream = random_stream(g, len);
        for format in TraceFormat::ALL {
            let text = emit(format, &stream);
            let mut lines: Vec<&str> = text.lines().collect();
            let victim = g.usize_in(0..lines.len());
            // Each of these fails in all three formats (note `#…` would
            // be a legal CSV comment, so it is not usable here).
            let garbage = ["bogus line here", "9 zz", "X 10,,4", "0x10;w"][g.usize_in(0..4)];
            lines[victim] = garbage;
            let corrupted = lines.join("\n");
            let mut source = format.reader(std::io::Cursor::new(corrupted));
            let mut buf = Vec::new();
            let err = loop {
                match source.next_batch(&mut buf, 16) {
                    Ok(0) => panic!("{format}: corrupted input parsed cleanly"),
                    Ok(_) => continue,
                    Err(e) => break e,
                }
            };
            match err {
                trace_synth::TraceError::Parse { line, ref message } => {
                    assert_eq!(
                        line as usize,
                        victim + 1,
                        "{format}: wrong line number ({message})"
                    );
                }
                other => panic!("{format}: expected a parse error, got {other}"),
            }
        }
    });
}

#[test]
fn every_access_kind_survives_each_format() {
    let stream = vec![
        Access::read(0),
        Access::write(0),
        Access::read(u64::MAX >> 1),
        Access::write(1),
    ];
    for format in TraceFormat::ALL {
        let back = parse(format, &emit(format, &stream), 2);
        assert_eq!(back, stream, "{format}");
        assert!(back.iter().any(|a| a.kind == AccessKind::Write));
    }
}

/// Bytes a reader may be handed: noise over the formats' alphabets, a
/// well-formed trace cut at an arbitrary byte, or one with bytes
/// overwritten, non-UTF-8 included.
fn untrusted_bytes(g: &mut Gen) -> Vec<u8> {
    const ALPHABET: &[u8] = b"0123456789abcdefxX ,:;#ILSMrwRW\t\r\n\xff\xc3\x80";
    match g.u32_in(0..3) {
        0 => (0..g.usize_in(0..512))
            .map(|_| match g.u32_in(0..4) {
                0 => g.u32_in(0..256) as u8,
                _ => *g.pick(ALPHABET),
            })
            .collect(),
        kind => {
            let format = *g.pick(&TraceFormat::ALL);
            let len = g.usize_in(1..60);
            let mut bytes = emit(format, &random_stream(g, len)).into_bytes();
            if kind == 1 {
                bytes.truncate(g.usize_in(0..bytes.len() + 1));
            } else {
                for _ in 0..g.usize_in(1..8) {
                    let at = g.usize_in(0..bytes.len());
                    bytes[at] = g.u32_in(0..256) as u8;
                }
            }
            bytes
        }
    }
}

/// Every untrusted input to every reader ends in `Ok` or a typed
/// `TraceError`, never a panic, within a time bound, and yields at most
/// two accesses (a Lackey `M` record) per input byte.
#[test]
fn untrusted_bytes_parse_or_fail_typed_within_a_bound() {
    const BOUND: std::time::Duration = std::time::Duration::from_secs(1);
    quickprop::cases(if cfg!(debug_assertions) { 256 } else { 2048 }, |g| {
        let bytes = untrusted_bytes(g);
        let batch = [1, 2, 7, 64, 4096][g.usize_in(0..5)];
        for format in TraceFormat::ALL {
            let started = std::time::Instant::now();
            let mut source = format.reader(std::io::Cursor::new(bytes.clone()));
            let mut buf = Vec::new();
            let outcome = loop {
                match source.next_batch(&mut buf, batch) {
                    Ok(0) => break Ok(()),
                    Ok(n) => assert!(n <= batch, "{format}: batch overshot"),
                    Err(e) => break Err(e),
                }
                assert!(
                    buf.len() <= 2 * bytes.len(),
                    "{format}: {} accesses from {} bytes",
                    buf.len(),
                    bytes.len()
                );
            };
            if let Err(e) = outcome {
                assert!(
                    !e.to_string().is_empty(),
                    "{format}: an error names its cause"
                );
            }
            let elapsed = started.elapsed();
            assert!(
                elapsed < BOUND,
                "{format}: {} bytes took {elapsed:?}",
                bytes.len()
            );
        }
    });
}
