//! Serving-layer benchmark: warm-cache request latency and
//! throughput through the real HTTP surface — a [`StudyServer`] over
//! the Table II grid, journaled in a temp-dir [`JsonlCache`], driven by
//! a keep-alive client connection.
//!
//! Like `study_exec`, the unit of work is too coarse for the
//! micro-harness: this bench times individual request round-trips in
//! several runs, reports the median over the runs of each run's
//! p50/p90 served-warm latency and requests/s, and merges its row into
//! the shared `BENCH_study.json` baseline.
//!
//! Client and server share the machine, so scheduling moves the
//! numbers as much as the code does: rows are comparable only when
//! both were written pinned to one CPU,
//!
//! `taskset -c 0 cargo bench -p repro-bench --bench study_serve`

use aging_cache::rescache::JsonlCache;
use aging_cache::serve::{ServeOptions, StudyServer};
use repro_bench::harness::{median, write_baseline};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The Table II sweep at the exec-bench trace horizon, as the serve
/// query grammar (54 scenarios; the warm path this bench measures is
/// trace-length independent, so the short horizon only cheapens the
/// one-time warm-up).
const SPEC_QUERY: &str = "cache-kb=8,16,32&policies=probing&workloads=all&trace-cycles=40000";

/// How many warm requests each measured run makes.
const REQUESTS: usize = 400;

/// How many measured runs the row's medians are taken over.
const RUNS: usize = 7;

/// One round-trip on a persistent connection: write the request, read
/// status line + headers, then exactly `Content-Length` body bytes.
fn roundtrip(stream: &mut TcpStream, method: &str, target: &str) -> (u16, usize) {
    let head = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(head.as_bytes()).expect("write request");

    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let head_len = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric content-length");
    let mut body_have = buf.len() - head_len - 4;
    while body_have < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "server closed mid-body");
        body_have += n;
    }
    (status, content_length)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("nbti-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = JsonlCache::in_dir(&dir).expect("open journal");
    let server = StudyServer::bind(journal, ServeOptions::default()).expect("bind server");
    let addr = server.addr();
    let handle = server.shutdown_handle();

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");

        // Warm-up: one /run computes and journals the whole grid;
        // everything after is journal replay + render.
        let t = Instant::now();
        let (status, _) = roundtrip(&mut stream, "POST", &format!("/run?{SPEC_QUERY}"));
        assert_eq!(status, 200, "warm-up run failed");
        let warmup_s = t.elapsed().as_secs_f64();

        // Measured: RUNS x REQUESTS warm renders over the one
        // keep-alive connection, timed individually for each run's
        // latency quantiles.
        let target = format!("/render?{SPEC_QUERY}&format=md");
        let (mut p50s, mut p90s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        let mut body_bytes = 0usize;
        let sims = server.session().stats().simulations;
        for _ in 0..RUNS {
            let mut latencies_s: Vec<f64> = Vec::with_capacity(REQUESTS);
            let total_t = Instant::now();
            for _ in 0..REQUESTS {
                let t = Instant::now();
                let (status, len) = roundtrip(&mut stream, "GET", &target);
                latencies_s.push(t.elapsed().as_secs_f64());
                assert_eq!(status, 200);
                body_bytes = len;
            }
            rates.push(REQUESTS as f64 / total_t.elapsed().as_secs_f64());
            latencies_s.sort_by(f64::total_cmp);
            let quantile = |q: f64| latencies_s[((latencies_s.len() - 1) as f64 * q) as usize];
            p50s.push(quantile(0.5));
            p90s.push(quantile(0.9));
        }
        drop(stream);
        // The whole measured window must have replayed, not computed:
        // post-warm-up GETs never simulate.
        let warm_sims = server.session().stats().simulations - sims;

        handle.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(warm_sims, 0, "a measured request simulated");

        let (p50, p90, rps) = (median(&mut p50s), median(&mut p90s), median(&mut rates));
        println!();
        println!("benchmark group: study_serve (Table II preset, warm journal, keep-alive)");
        println!("{:<32} {:>14}", "name", "value");
        println!("{}", "-".repeat(48));
        println!("{:<32} {:>11.3} s", "study_serve/warmup-run", warmup_s);
        println!("{:<32} {:>10.3} ms", "study_serve/render-p50", p50 * 1e3);
        println!("{:<32} {:>10.3} ms", "study_serve/render-p90", p90 * 1e3);
        println!("{:<32} {:>9.1} req/s", "study_serve/throughput", rps);
        println!("{:<32} {:>14}", "study_serve/body-bytes", body_bytes);

        let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_study.json");
        write_baseline(
            baseline,
            "study_serve",
            &[
                ("requests", REQUESTS as f64),
                ("runs", RUNS as f64),
                ("warmup_wall_s", warmup_s),
                ("served_warm_p50_s", p50),
                ("served_warm_p90_s", p90),
                ("served_warm_requests_per_s", rps),
                ("render_body_bytes", body_bytes as f64),
            ],
        )
        .expect("write BENCH_study.json");
        println!("\nwrote {baseline}");
    });
}
