//! The serving layer over real TCP: concurrent identical requests
//! must cost exactly one simulation per cell, served bytes must match
//! the CLI renderers for every format, cold cells must 409 instead of
//! computing on a GET, a GET must look each cell up exactly once,
//! cells another journal handle appended must turn warm without a
//! restart, and a token-gated shutdown must drain and flush the
//! journal.

use aging_cache::analysis::{self, Axis};
use aging_cache::render::{self, Format};
use aging_cache::rescache::{CachedMeasurement, Fingerprint, JsonlCache, MemoryCache, ResultCache};
use aging_cache::serve::{ServeOptions, StudyServer, REPORT_NAME};
use aging_cache::session::{SessionStats, StudySession};
use aging_cache::CoreError;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The spec every test serves, as CLI-mirroring query params.
const SPEC_QUERY: &str = "cache-kb=8,16&policies=probing,gray&workloads=sha&trace-cycles=40000";

/// The same spec through the library front door — the byte-parity
/// reference the server must reproduce.
fn reference_report(session: &StudySession) -> aging_cache::study::StudyReport {
    let spec = session
        .spec(REPORT_NAME)
        .cache_kb([8, 16])
        .policies(["probing", "gray"])
        .workload_names(["sha"])
        .unwrap()
        .trace_cycles(40_000);
    session.run(&spec).unwrap()
}

/// One dependency-free HTTP exchange: returns status, Content-Type,
/// and the exact body bytes.
fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8(response[..split].to_vec()).unwrap();
    let status = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or_default()
        .to_string();
    (status, content_type, response[split + 4..].to_vec())
}

fn get(addr: SocketAddr, target: &str) -> (u16, String, Vec<u8>) {
    http(addr, "GET", target, b"")
}

fn post(addr: SocketAddr, target: &str) -> (u16, String, Vec<u8>) {
    http(addr, "POST", target, b"")
}

/// Runs `body` against a serving `server`, then drains it via the
/// shutdown handle so the scope joins. The drain happens even when
/// `body` panics — otherwise a failed assertion would leave the serve
/// thread running and hang the scope join instead of failing the test.
fn with_server<T>(server: &StudyServer, body: impl FnOnce(SocketAddr) -> T) -> T {
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(server.addr())));
        handle.store(true, Ordering::SeqCst);
        serving.join().unwrap().unwrap();
        match out {
            Ok(v) => v,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

#[test]
fn concurrent_identical_runs_cost_one_simulation_per_cell() {
    // What a cold run of this grid legitimately costs, front-door.
    let reference = StudySession::new();
    reference_report(&reference);
    let expected = reference.stats();
    assert!(expected.simulations > 0);

    let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
    with_server(&server, |addr| {
        // Eight simultaneous identical POST /run: coalescing must
        // collapse them onto one computation of each cell — however
        // the arrivals interleave, a cell simulates exactly once.
        std::thread::scope(|scope| {
            let posts: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || post(addr, &format!("/run?{SPEC_QUERY}"))))
                .collect();
            for p in posts {
                let (status, _, body) = p.join().unwrap();
                assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            }
        });
        let stats = server.session().stats();
        assert_eq!(
            stats.simulations, expected.simulations,
            "eight identical requests must simulate like one"
        );
        assert_eq!(stats.evaluations, expected.evaluations);

        // The follow-up GET the /run response points at is warm.
        let (_, _, run_body) = post(addr, &format!("/run?{SPEC_QUERY}"));
        let run_text = String::from_utf8(run_body).unwrap();
        assert!(
            run_text.contains(&format!("\"location\":\"/render?{SPEC_QUERY}\"")),
            "{run_text}"
        );
        let (status, _, _) = get(addr, &format!("/render?{SPEC_QUERY}"));
        assert_eq!(status, 200);
        let after = server.session().stats();
        assert_eq!(
            after.simulations, expected.simulations,
            "GETs never simulate"
        );
    });
}

#[test]
fn served_bytes_match_the_cli_renderers_for_every_format() {
    let reference = StudySession::new();
    let report = reference_report(&reference);

    let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
    with_server(&server, |addr| {
        let (status, _, _) = post(addr, &format!("/run?{SPEC_QUERY}"));
        assert_eq!(status, 200);

        // Tabular formats render through the same summary_table the
        // CLI calls, newline included.
        for (format, param, content_type) in [
            (Format::Text, "text", "text/plain; charset=utf-8"),
            (Format::Markdown, "md", "text/markdown; charset=utf-8"),
            (Format::Csv, "csv", "text/csv; charset=utf-8"),
        ] {
            let expected = format!(
                "{}\n",
                render::table(
                    &analysis::summary_table(&report, &[], None).unwrap(),
                    format
                )
            );
            let (status, ct, body) = get(addr, &format!("/render?{SPEC_QUERY}&format={param}"));
            assert_eq!(status, 200);
            assert_eq!(ct, content_type);
            assert_eq!(String::from_utf8(body).unwrap(), expected, "{param}");
        }

        // Grouped + baseline-joined rendering too.
        let grouped = format!(
            "{}\n",
            render::table(
                &analysis::summary_table(&report, &[Axis::Policy], None).unwrap(),
                Format::Markdown
            )
        );
        let (status, _, body) = get(
            addr,
            &format!("/render?{SPEC_QUERY}&format=md&group-by=policy"),
        );
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(body).unwrap(), grouped);

        // JSON is the canonical report — byte-identical to `--json`.
        let (status, ct, body) = get(addr, &format!("/render?{SPEC_QUERY}&format=json"));
        assert_eq!(status, 200);
        assert_eq!(ct, "application/json");
        assert_eq!(
            String::from_utf8(body).unwrap(),
            format!("{}\n", report.to_json())
        );

        // /query reduces the same warm cells.
        let (status, ct, body) = get(
            addr,
            &format!("/query?{SPEC_QUERY}&metric=esav&reduce=mean&group-by=policy&format=json"),
        );
        assert_eq!(status, 200);
        assert_eq!(ct, "application/json");
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"metric\":\"esav\""), "{text}");
        assert!(text.contains("\"probing\""), "{text}");
    });
}

#[test]
fn cold_cells_answer_409_with_coverage_not_computation() {
    let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
    with_server(&server, |addr| {
        for endpoint in ["/render", "/query"] {
            let (status, ct, body) = get(addr, &format!("{endpoint}?{SPEC_QUERY}"));
            assert_eq!(status, 409, "{endpoint}");
            assert_eq!(ct, "application/json");
            let text = String::from_utf8(body).unwrap();
            assert!(text.contains("\"missing\":4"), "{text}");
            assert!(text.contains("POST /run"), "{text}");
        }
        assert_eq!(
            server.session().stats().simulations,
            0,
            "a GET never computes"
        );
    });
}

#[test]
fn cells_another_handle_journaled_turn_warm_without_a_restart() {
    let dir = std::env::temp_dir().join(format!("nbti-serve-refresh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let server =
        StudyServer::bind(JsonlCache::in_dir(&dir).unwrap(), ServeOptions::default()).unwrap();
    with_server(&server, |addr| {
        let (status, _, body) = get(addr, &format!("/render?{SPEC_QUERY}"));
        assert_eq!(status, 409, "{}", String::from_utf8_lossy(&body));

        // A second process, in effect: its own session and its own
        // handle on the same journal directory runs the grid.
        let cli = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
        let report = reference_report(&cli);
        assert_eq!(cli.stats().cache_stores, 4);

        // The server refreshes its handle before checking coverage, so
        // the appended cells are warm and render the CLI's bytes.
        let expected = format!(
            "{}\n",
            render::table(
                &analysis::summary_table(&report, &[], None).unwrap(),
                Format::Text
            )
        );
        let (status, _, body) = get(addr, &format!("/render?{SPEC_QUERY}"));
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(String::from_utf8(body).unwrap(), expected);
        assert_eq!(
            server.session().stats().simulations,
            0,
            "the server replayed the other handle's cells"
        );
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_paths_params_and_methods_are_client_errors() {
    let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
    with_server(&server, |addr| {
        let (status, _, body) = get(addr, "/");
        assert_eq!(status, 200);
        let help = String::from_utf8(body).unwrap();
        assert!(help.contains("/render"), "{help}");
        assert!(help.contains("/shutdown"), "{help}");

        let (status, _, body) = get(addr, "/nope");
        assert_eq!(status, 404);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("no such endpoint"), "{text}");
        assert!(
            text.contains("/render"),
            "the 404 teaches the routes: {text}"
        );

        let (status, _, _) = post(addr, "/render");
        assert_eq!(status, 405);

        let (status, _, body) = get(addr, "/render?cach-kb=8");
        assert_eq!(status, 400);
        assert!(String::from_utf8(body).unwrap().contains("cach-kb"));

        let (status, _, _) = get(addr, "/stats");
        assert_eq!(status, 200);
        let stats = server.stats();
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.errors, 3);
    });
}

#[test]
fn compare_agrees_with_the_journal_and_flags_divergence() {
    let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
    with_server(&server, |addr| {
        post(addr, &format!("/run?{SPEC_QUERY}"));
        let warmed = server.session().stats().simulations;
        let (_, _, report_json) = get(addr, &format!("/render?{SPEC_QUERY}&format=json"));

        let (status, _, _) = http(addr, "POST", "/compare", b"");
        assert_eq!(status, 400, "a body is required");

        let (status, _, body) = http(addr, "POST", "/compare", &report_json);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("4 scenarios matched"), "{text}");

        // A report the journal has never seen: its fingerprints miss,
        // and a missing cell is a divergence, not a silent pass.
        let other = StudySession::new();
        let spec = other
            .spec(REPORT_NAME)
            .cache_kb([8, 16])
            .policies(["probing", "gray"])
            .workload_names(["sha"])
            .unwrap()
            .trace_cycles(30_000);
        let foreign = other.run(&spec).unwrap().to_json();
        let (status, _, _) = http(addr, "POST", "/compare", foreign.as_bytes());
        assert_eq!(status, 409);

        assert_eq!(
            server.session().stats().simulations,
            warmed,
            "comparing replays nothing"
        );
    });
}

#[test]
fn shutdown_is_token_gated_drains_and_flushes_the_journal() {
    let dir = std::env::temp_dir().join(format!("nbti-serve-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let options = ServeOptions {
        shutdown_token: Some("letmein".to_string()),
        ..ServeOptions::default()
    };
    let server = StudyServer::bind(JsonlCache::in_dir(&dir).unwrap(), options).unwrap();
    with_server(&server, |addr| {
        let (status, _, _) = post(addr, &format!("/run?{SPEC_QUERY}"));
        assert_eq!(status, 200);

        // Wrong and missing tokens bounce; the server keeps serving.
        let (status, _, _) = post(addr, "/shutdown?token=wrong");
        assert_eq!(status, 403);
        let (status, _, _) = post(addr, "/shutdown");
        assert_eq!(status, 403);
        let (status, _, _) = get(addr, "/stats");
        assert_eq!(status, 200);

        let (status, _, body) = post(addr, "/shutdown?token=letmein");
        assert_eq!(status, 200);
        assert_eq!(String::from_utf8(body).unwrap(), "draining\n");
    });
    assert!(
        server.shutdown_handle().load(Ordering::SeqCst),
        "the endpoint itself flipped the drain flag"
    );

    // The journal survived the drain: a fresh process replays the
    // whole study without a single simulation.
    let warm = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    reference_report(&warm);
    let stats = warm.stats();
    assert_eq!(stats.simulations, 0);
    assert_eq!(stats.cache_hits, 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unconfigured_shutdown_endpoint_is_always_403() {
    let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
    with_server(&server, |addr| {
        let (status, _, body) = post(addr, "/shutdown?token=anything");
        assert_eq!(status, 403);
        assert!(String::from_utf8(body).unwrap().contains("disabled"));
    });
}

#[test]
fn overflowing_kb_sizes_are_bad_requests() {
    // 2^54 + 1 kB wraps to 1 kB in an unchecked multiply; it must be
    // rejected by name instead of silently serving a 1 kB cache.
    let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
    with_server(&server, |addr| {
        for target in [
            "/render?cache-kb=18014398509481985&workloads=sha",
            "/query?l2-kb=18014398509481985&workloads=sha",
        ] {
            let (status, _, body) = get(addr, target);
            let text = String::from_utf8(body).unwrap();
            assert_eq!(status, 400, "{target}: {text}");
            assert!(text.contains("18014398509481985"), "{target}: {text}");
        }
        let (status, _, body) = post(addr, "/run?cache-kb=18014398509481985&workloads=sha");
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    });
    assert_eq!(server.session().stats().simulations, 0);
}

/// Every call a server makes on its result cache, counted.
#[derive(Default)]
struct CallCounts {
    lookups: AtomicUsize,
    contains: AtomicUsize,
    stores: AtomicUsize,
}

impl CallCounts {
    /// `(lookups, contains, stores)` so far.
    fn get(&self) -> (usize, usize, usize) {
        (
            self.lookups.load(Ordering::SeqCst),
            self.contains.load(Ordering::SeqCst),
            self.stores.load(Ordering::SeqCst),
        )
    }
}

struct CountingCache {
    inner: MemoryCache,
    counts: Arc<CallCounts>,
}

impl ResultCache for CountingCache {
    fn lookup(&self, fingerprint: &Fingerprint) -> Result<Option<CachedMeasurement>, CoreError> {
        self.counts.lookups.fetch_add(1, Ordering::SeqCst);
        self.inner.lookup(fingerprint)
    }

    fn contains(&self, fingerprint: &Fingerprint) -> Result<bool, CoreError> {
        self.counts.contains.fetch_add(1, Ordering::SeqCst);
        self.inner.contains(fingerprint)
    }

    fn store(
        &self,
        fingerprint: &Fingerprint,
        measurement: &CachedMeasurement,
    ) -> Result<(), CoreError> {
        self.counts.stores.fetch_add(1, Ordering::SeqCst);
        self.inner.store(fingerprint, measurement)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[test]
fn a_get_looks_each_cell_up_once_and_never_claims_or_stores() {
    const CELLS: usize = 4;
    let counts = Arc::new(CallCounts::default());
    let cache = CountingCache {
        inner: MemoryCache::new(),
        counts: Arc::clone(&counts),
    };
    // A short backstop: a claim a GET leaked would make the `/run`
    // below wait it out, and count as a coalesced wait.
    let options = ServeOptions {
        coalesce_wait_ms: 200,
        ..ServeOptions::default()
    };
    let server = StudyServer::bind(cache, options).unwrap();
    with_server(&server, |addr| {
        // Cold: one lookup per cell answers the unchanged 409.
        for endpoint in ["/render", "/query"] {
            let before = counts.get();
            let (status, _, body) = get(addr, &format!("{endpoint}?{SPEC_QUERY}"));
            let text = String::from_utf8(body).unwrap();
            assert_eq!(status, 409, "{endpoint}: {text}");
            assert!(
                text.contains("\"warm\":0,\"missing\":4,\"scenarios\":4"),
                "{text}"
            );
            let (lookups, contains, stores) = counts.get();
            assert_eq!(lookups - before.0, CELLS, "{endpoint}: one lookup per cell");
            assert_eq!((contains, stores), (before.1, before.2), "{endpoint}");
        }
        assert_eq!(server.session().stats(), SessionStats::default());

        let (status, _, body) = post(addr, &format!("/run?{SPEC_QUERY}"));
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(counts.get().2, CELLS, "the run stores every cell");
        assert_eq!(server.stats().coalesced_waits, 0, "no GET left a claim");

        // Warm: one lookup per cell replays the report; nothing is
        // stored, and the session counters move by one replay per cell.
        for target in [
            format!("/render?{SPEC_QUERY}&format=md"),
            format!("/query?{SPEC_QUERY}&metric=esav&group-by=policy"),
        ] {
            let before = (counts.get(), server.session().stats());
            let (status, _, body) = get(addr, &target);
            assert_eq!(status, 200, "{target}: {}", String::from_utf8_lossy(&body));
            let (lookups, contains, stores) = counts.get();
            assert_eq!(
                lookups - before.0 .0,
                CELLS,
                "{target}: one lookup per cell"
            );
            assert_eq!((contains, stores), (before.0 .1, before.0 .2), "{target}");
            let expected = SessionStats {
                scenarios: before.1.scenarios + CELLS,
                cache_hits: before.1.cache_hits + CELLS,
                ..before.1
            };
            assert_eq!(server.session().stats(), expected, "{target}");
        }
        assert_eq!(server.stats().coalesced_waits, 0);
    });
}
