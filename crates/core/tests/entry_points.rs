//! Every entry point returns the same bytes. Small random grids — cache
//! sizes, banks, ways, replacement, an optional L2, policies, a suite
//! workload, a `profile:` workload, a CSV trace and a parameterized
//! model — run six ways:
//!
//! * a fresh session on one worker, the reference;
//! * a fresh session on two workers;
//! * a warm `MemoryCache` re-run;
//! * a `JsonlCache` reopened from disk;
//! * `presets::run_specs` beside a second random spec, sliced back;
//! * `POST /run`, then `GET /render?format=json` on a study server.
//!
//! Every path must emit the reference report JSON byte for byte, and
//! every warm path must simulate nothing.
//!
//! `cargo test -p aging-cache --test entry_points`

use aging_cache::model::{ModelContext, DEFAULT_MODEL};
use aging_cache::presets;
use aging_cache::rescache::{JsonlCache, MemoryCache};
use aging_cache::serve::{ServeOptions, StudyServer, REPORT_NAME};
use aging_cache::session::StudySession;
use aging_cache::study::{SpecParser, StudySpec};
use quickprop::Gen;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

/// A grid as `study` keys, the form both the library parser and the
/// server's query string take.
type Keys = Vec<(&'static str, String)>;

/// Picks a non-empty subset of `items`, in their order.
fn subset<T: Copy + ToString>(g: &mut Gen, items: &[T]) -> String {
    let mask = g.usize_in(1..1 << items.len());
    let picked: Vec<String> = (items.iter().enumerate())
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, item)| item.to_string())
        .collect();
    picked.join(",")
}

/// Draws a small grid over every axis kind. `csv` is a trace file's
/// path.
fn draw(g: &mut Gen, csv: &Path) -> Keys {
    let banks = *g.pick(&[2u32, 4]);
    let mut keys: Keys = vec![
        ("cache-kb", subset(g, &[4u64, 8, 16])),
        ("banks", banks.to_string()),
        ("ways", subset(g, &[1u32, 2])),
        ("replacement", subset(g, &["lru", "mru"])),
        (
            "policies",
            subset(g, &["identity", "probing", "gray", "scrambling"]),
        ),
        (
            "workloads",
            g.pick(&["sha", "CRC32", "dijkstra"]).to_string(),
        ),
        (
            "model",
            g.pick(&["nbti:temp=85", "nbti:vlow=0.7", "nbti:temp=105,fail=15"])
                .to_string(),
        ),
        ("trace-cycles", g.u64_in(2_000..4_000).to_string()),
        ("seed", g.u64_in(0..1_000).to_string()),
    ];
    if g.u32_in(0..2) == 1 {
        keys.push(("l2-kb", "32".to_string()));
        keys.push(("l2-ways", subset(g, &[1u32, 2])));
    }
    if g.u32_in(0..2) == 1 {
        let profile: Vec<String> = (0..banks)
            .map(|_| format!("{:.2}", g.f64_in(0.05..0.95)))
            .collect();
        keys.push(("profile", profile.join(",")));
    }
    if g.u32_in(0..2) == 1 {
        keys.push(("trace", format!("csv:{}", csv.display())));
    }
    keys
}

/// The spec `keys` describe, named as the server names its studies.
fn spec(keys: &Keys, threads: usize) -> StudySpec {
    let mut parser = SpecParser::new(StudySpec::new(REPORT_NAME));
    for (key, value) in keys {
        assert!(parser.apply(key, value).unwrap(), "spec key {key}");
    }
    parser.finish().unwrap().threads(threads)
}

/// `keys` as a percent-encoded query string.
fn query(keys: &Keys) -> String {
    let encode = |s: &str| -> String {
        s.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'/' => {
                    (b as char).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect()
    };
    let pairs: Vec<String> = keys
        .iter()
        .map(|(key, value)| format!("{key}={}", encode(value)))
        .collect();
    pairs.join("&")
}

/// One HTTP exchange: the status and the body.
fn http(addr: SocketAddr, method: &str, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head =
        format!("{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let response = String::from_utf8(response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_string())
}

/// A short CSV trace over a few kB of addresses, reads and writes.
fn write_csv_trace(dir: &Path) -> PathBuf {
    let mut text = String::new();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..1_500 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let addr = ((state >> 20) % 24_576) & !3;
        let kind = if state & 7 == 0 { 'w' } else { 'r' };
        text.push_str(&format!("{addr:#x},{kind}\n"));
    }
    let path = dir.join("entry-points.csv");
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn every_entry_point_returns_the_same_bytes() {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("entry-points-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = write_csv_trace(&dir);
    // Library sessions share one calibration memo; each server
    // calibrates its own.
    let ctx = ModelContext::new();
    ctx.calibrated(DEFAULT_MODEL).unwrap();
    let session = || StudySession::with_context(ctx.clone());

    quickprop::cases(if cfg!(debug_assertions) { 10 } else { 40 }, |g| {
        let keys = draw(g, &csv);
        let case = g.case();

        // A fresh session on one worker: the reference bytes, and the
        // counters the grid predicts.
        let grid = spec(&keys, 1).expand().unwrap();
        let sequential = session();
        let reference = sequential.run_grid(&grid).unwrap().to_json();
        assert_eq!(sequential.stats(), grid.cold_stats(1), "{keys:?}");

        // A fresh session on two workers.
        let threaded = session();
        let report = threaded.run(&spec(&keys, 2)).unwrap().to_json();
        assert_eq!(report, reference, "two workers: {keys:?}");
        assert_eq!(threaded.stats(), grid.cold_stats(2), "{keys:?}");

        // A warm in-memory cache replays without simulating.
        let memory = session().cache(MemoryCache::new());
        memory.run(&spec(&keys, 2)).unwrap();
        let cold = memory.stats().simulations;
        let warm = memory.run(&spec(&keys, 2)).unwrap().to_json();
        assert_eq!(warm, reference, "warm MemoryCache: {keys:?}");
        assert_eq!(
            memory.stats().simulations,
            cold,
            "warm MemoryCache simulated"
        );

        // A journal reopened from disk replays without simulating.
        let journal = dir.join(format!("journal-{case}"));
        let _ = std::fs::remove_dir_all(&journal);
        session()
            .cache(JsonlCache::in_dir(&journal).unwrap())
            .run(&spec(&keys, 1))
            .unwrap();
        let path = journal.join(JsonlCache::FILE_NAME);
        let reopened = session().cache(JsonlCache::open(&path).unwrap());
        let replayed = reopened.run(&spec(&keys, 2)).unwrap().to_json();
        assert_eq!(replayed, reference, "reopened JsonlCache: {keys:?}");
        assert_eq!(
            reopened.stats().simulations,
            0,
            "reopened JsonlCache simulated"
        );

        // Planned beside a second random spec, on either side of the
        // union, and sliced back.
        let other = spec(&draw(g, &csv), 2);
        let (specs, at) = if g.u32_in(0..2) == 1 {
            (vec![spec(&keys, 2), other], 0)
        } else {
            (vec![other, spec(&keys, 2)], 1)
        };
        let reports = presets::run_specs(&session(), &specs).unwrap();
        assert_eq!(
            reports[at].to_json(),
            reference,
            "run_specs slice {at}: {keys:?}"
        );

        // Served: the run computes, the render replays.
        let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
        let handle = server.shutdown_handle();
        let query = query(&keys);
        let served = std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve());
            let exchange = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (status, body) = http(server.addr(), "POST", &format!("/run?{query}"));
                assert_eq!(status, 200, "POST /run: {body}");
                let computed = server.session().stats().simulations;
                let (status, body) = http(
                    server.addr(),
                    "GET",
                    &format!("/render?{query}&format=json"),
                );
                assert_eq!(status, 200, "GET /render: {body}");
                assert_eq!(
                    server.session().stats().simulations,
                    computed,
                    "GET /render simulated"
                );
                body
            }));
            handle.store(true, Ordering::SeqCst);
            serving.join().unwrap().unwrap();
            exchange.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        assert_eq!(served, format!("{reference}\n"), "served JSON: {keys:?}");
    });
    let _ = std::fs::remove_dir_all(&dir);
}
