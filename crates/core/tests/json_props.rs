//! Properties of the JSON codec and the two readers built on it, the
//! report parser and the journal loader:
//!
//! * emit → parse round-trips arbitrary [`Json`] trees exactly (floats
//!   by bit pattern), also after an ASCII-only re-encoding that writes
//!   every non-ASCII character as a `\u` escape, surrogate pairs
//!   included;
//! * arbitrary, truncated and mutated inputs come back as `Ok` or a
//!   typed error — never a panic — through [`Json::parse`],
//!   [`StudyReport::from_json`] and [`JsonlCache::open`];
//! * parsing is linear: documents that a per-character re-validation
//!   of the remaining input would take minutes on parse well inside a
//!   generous bound, even in a debug build, and so do a report record
//!   and a journal line with 50,000 metric keys, which a per-key
//!   duplicate scan would take seconds on.

use aging_cache::json::Json;
use aging_cache::model::Metrics;
use aging_cache::rescache::{CachedMeasurement, Fingerprint, JsonlCache, ResultCache};
use aging_cache::session::StudySession;
use aging_cache::study::{StudyReport, StudySpec};
use quickprop::Gen;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 256 };

/// Characters strings are drawn from: ASCII, the two characters the
/// emitter escapes by name, control characters, and 2-, 3- and 4-byte
/// UTF-8.
const ALPHABET: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '\u{7ff}',
    '€',
    '中',
    '\u{fffd}',
    '\u{ffff}',
    '😀',
    '𝄞',
    '\u{10ffff}',
];

fn arb_string(g: &mut Gen) -> String {
    let len = g.usize_in(0..12);
    (0..len).map(|_| *g.pick(ALPHABET)).collect()
}

fn arb_num(g: &mut Gen) -> f64 {
    match g.u32_in(0..6) {
        0 => g.u64_in(0..1 << 53) as f64,
        1 => -(g.u64_in(0..1000) as f64),
        2 => g.f64_in(-1.0..1.0),
        3 => *g.pick(&[0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, f64::MIN]),
        // Any finite bit pattern, subnormals and extremes included.
        _ => loop {
            let v = f64::from_bits(g.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

fn arb_json(g: &mut Gen, depth: u32) -> Json {
    let leaf = depth == 0 || g.u32_in(0..3) == 0;
    match g.u32_in(0..if leaf { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(g.u32_in(0..2) == 1),
        2 => Json::Num(arb_num(g)),
        3 => Json::Str(arb_string(g)),
        4 => Json::Arr(
            (0..g.usize_in(0..5))
                .map(|_| arb_json(g, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..g.usize_in(0..5))
                .map(|_| (arb_string(g), arb_json(g, depth - 1)))
                .collect(),
        ),
    }
}

/// Structural equality with numbers compared by bit pattern, so `-0.0`
/// and `0.0` differ and the comparison is exact.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// Re-encodes emitted JSON the way an ASCII-only encoder (Python's
/// `json.dumps` default) would: every non-ASCII character becomes a
/// `\u` escape, as a surrogate pair outside the Basic Multilingual
/// Plane. Emitted text only holds non-ASCII inside strings, so this
/// never touches structure.
fn ascii_escaped(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if c.is_ascii() {
            out.push(c);
        } else {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        }
    }
    out
}

#[test]
fn emit_parse_round_trips_arbitrary_trees() {
    quickprop::cases(CASES, |g| {
        let value = arb_json(g, 4);
        let text = value.emit();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert!(same(&back, &value), "{text}");
        assert_eq!(back.emit(), text, "emit is stable across a round trip");
        let escaped = ascii_escaped(&text);
        assert!(escaped.is_ascii());
        let back = Json::parse(&escaped).unwrap_or_else(|e| panic!("{e}: {escaped}"));
        assert!(same(&back, &value), "{escaped}");
    });
}

/// A small real study, run once: its report JSON and journal text.
fn study() -> &'static (String, String) {
    static STUDY: OnceLock<(String, String)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let dir = scratch_dir("study");
        let session = StudySession::new().cache(JsonlCache::in_dir(&dir).expect("open journal"));
        let spec = StudySpec::new("codec props")
            .cache_kb([8, 16])
            .banks([8])
            .workload_names(["sha", "CRC32"])
            .expect("built-in workloads")
            .trace_cycles(5_000);
        let report = session.run(&spec).expect("study").to_json();
        let journal = std::fs::read_to_string(dir.join(JsonlCache::FILE_NAME)).expect("journal");
        let _ = std::fs::remove_dir_all(&dir);
        (report, journal)
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nbti-json-props-{tag}-{}", std::process::id()))
}

/// Bytes a mutation splices in: JSON structure, escapes, digits and
/// multi-byte characters.
const SPLICES: &[&str] = &[
    "{", "}", "[", "]", "\"", "\\", "\\u", "\\ud83d", "\\ude00", "\\u+abc", ",", ":", "-", "1e999",
    "0", ".", "e", "null", "tru", "NaN", "é", "😀", " ", "\n",
];

/// Truncates `text` at a random char boundary, or splices, deletes or
/// duplicates a random span of it.
fn mutate(g: &mut Gen, text: &str) -> String {
    let mut at = g.usize_in(0..text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let (head, tail) = text.split_at(at);
    match g.u32_in(0..4) {
        0 => head.to_string(),
        1 => format!("{head}{}{tail}", g.pick(SPLICES)),
        2 => {
            let skip = tail
                .char_indices()
                .nth(g.usize_in(1..8))
                .map_or(tail.len(), |(i, _)| i);
            format!("{head}{}", &tail[skip..])
        }
        _ => format!("{head}{head}{tail}"),
    }
}

#[test]
fn arbitrary_and_truncated_inputs_never_panic() {
    let (report, journal) = study();
    assert!(StudyReport::from_json(report).is_ok());
    let path = scratch_dir("journal").with_extension("jsonl");
    quickprop::cases(CASES, |g| {
        // Mutations of a real report and of an arbitrary tree.
        let tree = arb_json(g, 3).emit();
        for base in [report.as_str(), tree.as_str()] {
            let mut text = base.to_string();
            for _ in 0..g.usize_in(1..4) {
                text = mutate(g, &text);
            }
            let _ = Json::parse(&text);
            let _ = StudyReport::from_json(&text);
        }
        // Random splices with no valid document underneath.
        let noise: String = (0..g.usize_in(0..40)).map(|_| *g.pick(SPLICES)).collect();
        let _ = Json::parse(&noise);
        let _ = StudyReport::from_json(&noise);
        // A damaged journal opens or fails with a typed error.
        std::fs::write(&path, mutate(g, journal)).expect("write journal");
        if let Ok(cache) = JsonlCache::open(&path) {
            let _ = aging_cache::rescache::ResultCache::len(&cache);
        }
    });
    let _ = std::fs::remove_file(&path);
}

/// Parses `text` with `parse`, failing if it takes longer than a bound
/// generous enough for any linear parser in a debug build.
fn assert_parses_fast<T, E: std::fmt::Debug>(
    what: &str,
    text: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) {
    const BOUND: Duration = Duration::from_secs(2);
    let t = Instant::now(); // aging-lint: allow(no-wallclock) a time bound is the property under test; nothing measured reaches a result
    parse(text).unwrap_or_else(|e| panic!("{what}: {e:?}"));
    let took = t.elapsed();
    assert!(
        took < BOUND,
        "{what} ({} bytes) took {took:?}; parsing must be linear",
        text.len()
    );
}

#[test]
fn parsing_is_linear_in_document_length() {
    // Two-byte characters: UTF-8 validation has no ASCII fast path
    // for them, so re-validating the rest of the input per character
    // is at its slowest.
    let long = format!("{{\"s\":\"{}\"}}", "é".repeat(128 * 1024));
    assert_parses_fast("a 256 KiB string value", &long, Json::parse);

    // ~1,000 report-shaped records: the study's own, repeated.
    let report = StudyReport::from_json(&study().0).expect("study report");
    let records: Vec<_> = report
        .records()
        .iter()
        .cycle()
        .take(1_000)
        .cloned()
        .collect();
    let big = StudyReport::from_records("big", records).to_json();
    assert!(big.len() > 400_000, "{} bytes", big.len());
    assert_parses_fast("a 1,000-record report", &big, StudyReport::from_json);
}

#[test]
fn metric_maps_parse_in_linear_time() {
    // 50,000 distinct keys: a duplicate scan per key would compare
    // 1.25e9 pairs of names.
    const KEYS: usize = 50_000;
    let report = StudyReport::from_json(&study().0).expect("study report");
    let mut record = report.records()[0].clone();
    record.metrics = Metrics::from_pairs((0..KEYS).map(|i| (format!("metric_{i}"), i as f64)));
    let text = StudyReport::from_records("wide", vec![record.clone()]).to_json();
    assert_parses_fast(
        "a report record with 50,000 metric keys",
        &text,
        StudyReport::from_json,
    );

    // The same measurement as one journal line, read back on open.
    let dir = scratch_dir("wide");
    let _ = std::fs::remove_dir_all(&dir);
    let fingerprint = Fingerprint::from_canonical("wide");
    JsonlCache::in_dir(&dir)
        .expect("open journal")
        .store(&fingerprint, &CachedMeasurement::of_record(&record))
        .expect("store");
    let journal = dir.join(JsonlCache::FILE_NAME);
    let journal = journal.to_str().expect("UTF-8 scratch path");
    assert_parses_fast(
        "a journal line with 50,000 metric keys",
        journal,
        |path: &str| JsonlCache::open(path),
    );
    let cache = JsonlCache::open(journal).expect("reopen journal");
    let replayed = cache.lookup(&fingerprint).expect("lookup").expect("hit");
    assert_eq!(replayed.metrics, record.metrics, "order and values survive");
    let _ = std::fs::remove_dir_all(&dir);
}
