//! The `serve-mixed` workload: one in-process `StudyServer` over a
//! journal warmed at set-up with the Table II grid at a short horizon,
//! driven by one keep-alive client. It sends its next request when
//! the previous answer is in: a write when one is due on its fixed
//! schedule (`POST /run` of fresh pinned-profile cells, which evaluate
//! models and append to the journal but simulate nothing), otherwise a
//! seeded read (`GET /render` as Markdown or JSON, `GET /query`).

use crate::trace::{self, TracedCache, Tracer};
use crate::{
    median, median_us, quantile, report_layers, secs, workers, Outcome, ReadKind, RunConfig,
};
use aging_cache::analysis::{Axis, Query, Reduce};
use aging_cache::json::Json;
use aging_cache::model::ModelContext;
use aging_cache::rescache::{JsonlCache, MemoryCache};
use aging_cache::serve::{ServeOptions, StudyServer, REPORT_NAME};
use aging_cache::session::StudySession;
use aging_cache::study::{StudyReport, StudySpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace_synth::SplitMix64;

/// The warm grid: the Table II sweep at a short horizon, in the serve
/// query grammar.
const WARM_QUERY: &str = "cache-kb=8,16,32&policies=probing&workloads=all&trace-cycles=40000";
/// The warm grid's horizon (must match [`WARM_QUERY`]).
const WARM_CYCLES: u64 = 40_000;
/// The query route's parameters.
const QUERY_PARAMS: &str = "metric=lt_years&reduce=mean&group-by=cache-kb&format=json";
/// Models and policies of every write; with one pinned profile, a
/// write is 2 × 3 = 6 fresh cells.
const WRITE_PARAMS: &str = "model=nbti-45nm&model=drv&policies=probing,scrambling,gray";
const WRITE_CELLS: f64 = 6.0;
/// Closed-loop clients, each on its own keep-alive connection. One: a
/// second client's requests queue behind the first's on a two-CPU host,
/// so its latencies measure the scheduler rather than the server.
const CLIENTS: usize = 1;
/// Client patience per request; a request that takes longer fails.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Each client writes on this schedule, so the number of fresh cells a
/// run journals (and the memory they take) depends on the window's
/// length, not on the server's speed.
const WRITE_EVERY: Duration = Duration::from_millis(25);
/// Read mix between writes: Markdown render, JSON render, query.
const READ_MIX: [f64; 3] = [0.35, 0.35, 0.3];
/// Set-up repetitions (warm-up, journal open, bind, first
/// calibration); `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The traced run toggles tracing on and off in phases this long.
const PHASE: Duration = Duration::from_millis(250);

/// A request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Markdown,
    Json,
    Query,
    Run,
}

impl Route {
    fn is_read(self) -> bool {
        self != Route::Run
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    route: Route,
    ms: f64,
    ok: bool,
    traced: bool,
}

/// The response bodies the warm grid must produce, rendered in process
/// from the same report.
struct Expected {
    report: StudyReport,
    markdown: String,
    json: String,
    query: String,
}

impl Expected {
    fn of(report: StudyReport) -> Result<Expected, String> {
        let rows = Query::new(&report)
            .group_by([Axis::CacheBytes])
            .reduce("lt_years", Reduce::Mean)
            .map_err(|e| e.to_string())?;
        let query = Json::obj(vec![
            ("metric", Json::Str("lt_years".into())),
            ("reduce", Json::Str(Reduce::Mean.name().into())),
            ("scenarios", Json::Num(report.records().len() as f64)),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|row| {
                            Json::obj(vec![
                                (
                                    "key",
                                    Json::Arr(
                                        row.key.iter().map(|v| Json::Str(v.to_string())).collect(),
                                    ),
                                ),
                                ("value", Json::Num(row.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        Ok(Expected {
            markdown: format!("{}\n", ReadKind::Markdown.render(&report)?),
            json: format!("{}\n", report.to_json()),
            query: format!("{}\n", query.emit()),
            report,
        })
    }

    fn body(&self, route: Route) -> Option<&str> {
        match route {
            Route::Markdown => Some(&self.markdown),
            Route::Json => Some(&self.json),
            Route::Query => Some(&self.query),
            Route::Run => None,
        }
    }
}

/// The warm grid as an in-process spec (the same spec the server
/// builds from [`WARM_QUERY`]).
fn warm_spec() -> Result<StudySpec, String> {
    let names: Vec<String> = trace_synth::suite::mediabench()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    Ok(StudySpec::new(REPORT_NAME)
        .cache_kb([8, 16, 32])
        .policies(["probing"])
        .workload_names(&names)
        .map_err(|e| e.to_string())?
        .trace_cycles(WARM_CYCLES))
}

/// A keep-alive client connection that reconnects after a failure.
struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    /// One request; returns the status and body. Any I/O failure drops
    /// the connection, so the next request reconnects.
    fn request(&mut self, method: &str, target: &str) -> Result<(u16, Vec<u8>), String> {
        let result = self.exchange(method, target);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, method: &str, target: &str) -> Result<(u16, Vec<u8>), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, TIMEOUT)
                .map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(TIMEOUT))
                .map_err(|e| e.to_string())?;
            s.set_write_timeout(Some(TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.stream = Some(s);
        }
        let stream = self.stream.as_mut().ok_or("no connection")?;
        let head =
            format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
        stream
            .write_all(head.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
        let mut chunk = [0u8; 16 * 1024];
        let head_len = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed mid-response".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_len]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in `{head}`"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let l = l.to_ascii_lowercase();
                l.strip_prefix("content-length:")
                    .and_then(|v| v.trim().parse().ok())
            })
            .ok_or("no content-length")?;
        let mut body = buf.split_off(head_len + 4);
        while body.len() < length {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed mid-body".into());
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(length);
        Ok((status, body))
    }
}

/// Counters read from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounts {
    simulations: f64,
    evaluations: f64,
    coalesced_waits: f64,
}

fn server_counts(client: &mut Client) -> Result<ServerCounts, String> {
    let (status, body) = client.request("GET", "/stats")?;
    if status != 200 {
        return Err(format!("GET /stats answered {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    let v = Json::parse(text.trim()).map_err(|e| e.to_string())?;
    let num = |j: &Json, key: &str| -> Result<f64, String> {
        j.field(key)
            .and_then(|x| x.as_num(key))
            .map_err(|e| e.to_string())
    };
    let session = v.field("session").map_err(|e| e.to_string())?;
    Ok(ServerCounts {
        simulations: num(session, "simulations")?,
        evaluations: num(session, "evaluations")?,
        coalesced_waits: num(&v, "coalesced_waits")?,
    })
}

/// A fresh write: one pinned profile drawn from `rng`.
fn write_target(rng: &mut SplitMix64) -> String {
    let profile: Vec<String> = (0..4)
        .map(|_| format!("{:.6}", 0.05 + 0.9 * rng.next_f64()))
        .collect();
    format!("/run?profile={}&{WRITE_PARAMS}", profile.join(","))
}

/// Checks a `POST /run` body: every cell of the request is covered.
fn run_covered(body: &[u8]) -> bool {
    let Ok(v) = Json::parse(String::from_utf8_lossy(body).trim()) else {
        return false;
    };
    let num = |key: &str| v.field(key).and_then(|x| x.as_num(key)).ok();
    match (num("scenarios"), num("replayed"), num("computed")) {
        (Some(s), Some(r), Some(c)) => s == WRITE_CELLS && r + c == s,
        _ => false,
    }
}

/// One client's loop until `deadline`: a write whenever one is due
/// (every [`WRITE_EVERY`]), otherwise the next seeded read, each sent
/// when the previous answer is in. Returns the samples and the reasons
/// of the first few failures.
fn client_loop(
    addr: SocketAddr,
    mut rng: SplitMix64,
    deadline: Instant,
    expected: &Expected,
    tracer: Option<&Tracer>,
) -> (Vec<Sample>, Vec<String>) {
    let mut client = Client::new(addr);
    let reads: Vec<(Route, String)> = vec![
        (Route::Markdown, format!("/render?{WARM_QUERY}&format=md")),
        (Route::Json, format!("/render?{WARM_QUERY}&format=json")),
        (Route::Query, format!("/query?{WARM_QUERY}&{QUERY_PARAMS}")),
    ];
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    let mut next_write = Instant::now() + WRITE_EVERY;
    while Instant::now() < deadline {
        let (route, method, target) = if Instant::now() >= next_write {
            next_write += WRITE_EVERY;
            (Route::Run, "POST", write_target(&mut rng))
        } else {
            let (route, target) = &reads[rng.pick_weighted(&READ_MIX)];
            (*route, "GET", target.clone())
        };
        let traced = tracer.is_some_and(Tracer::is_enabled);
        let t = Instant::now();
        let response = client.request(method, &target);
        let mut ms = secs(t) * 1e3;
        let failure = match &response {
            Err(e) => Some(e.clone()),
            Ok((200, body)) => match expected.body(route) {
                Some(want) if body.as_slice() != want.as_bytes() => Some("wrong body".into()),
                None if !run_covered(body) => Some("incomplete coverage".into()),
                _ => None,
            },
            Ok((status, body)) => Some(format!(
                "status {status}: {}",
                String::from_utf8_lossy(body).trim()
            )),
        };
        if let Some(reason) = &failure {
            // A failed request misses every latency limit.
            ms = ms.max(TIMEOUT.as_secs_f64() * 1e3);
            if failures.len() < 5 {
                failures.push(format!("{method} {target}: {reason}"));
            }
        }
        samples.push(Sample {
            route,
            ms,
            ok: failure.is_none(),
            traced,
        });
    }
    (samples, failures)
}

/// One set-up: warm a fresh journal in `dir` in process, open it,
/// bind a server over it. Returns the server, the expected bodies and
/// the journal open time.
fn set_up(
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(StudyServer, Expected, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let report = {
        let session =
            StudySession::new().cache(JsonlCache::in_dir(dir).map_err(|e| e.to_string())?);
        session.run(&warm_spec()?).map_err(|e| e.to_string())?
    };
    let t = Instant::now();
    let cache = JsonlCache::in_dir(dir).map_err(|e| e.to_string())?;
    let open_ms = secs(t) * 1e3;
    let options = ServeOptions {
        threads: workers(),
        ..ServeOptions::default()
    };
    let server = match tracer {
        Some(tracer) => StudyServer::bind(TracedCache::new(cache, tracer), options),
        None => StudyServer::bind(cache, options),
    }
    .map_err(|e| e.to_string())?;
    Ok((server, Expected::of(report)?, open_ms))
}

/// What the measured window produced.
struct Window {
    samples: Vec<Sample>,
    seconds: f64,
    before: ServerCounts,
    after: ServerCounts,
    expected: Expected,
}

/// Runs `serve-mixed`.
///
/// # Errors
///
/// Returns a message if set-up fails.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let tracer = cfg.trace.then(Tracer::new);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut open_ms = Vec::with_capacity(SETUP_REPS);
    let mut window = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let dir = cfg.work_dir.join("journals").join(format!("serve-{rep}"));
        let t = Instant::now();
        let (server, expected, open) = set_up(&dir, tracer.as_ref().filter(|_| last))?;
        open_ms.push(open);
        let addr = server.addr();
        let stop = server.shutdown_handle();
        let result = std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve());
            let measured = (|| {
                // First calibration of both write models, on the
                // server's own session.
                let mut client = Client::new(addr);
                let (status, body) = client.request(
                    "POST",
                    &format!("/run?profile=0.1,0.8,0.6,0.3&{WRITE_PARAMS}"),
                )?;
                if status != 200 || !run_covered(&body) {
                    return Err(format!("set-up write answered {status}"));
                }
                setup_s.push(secs(t));
                if !last {
                    return Ok(None);
                }
                let before = server_counts(&mut client)?;
                // Close the set-up connection: the server serves one
                // connection per worker, and an idle one would hold a
                // worker until the server's read timeout.
                drop(client);
                let start = Instant::now();
                let deadline = start + Duration::from_secs_f64(cfg.seconds);
                let (samples, failures) = std::thread::scope(|clients| {
                    let handles: Vec<_> = (0..CLIENTS)
                        .map(|c| {
                            let rng = SplitMix64::new(cfg.seed).derive(c as u64);
                            let (expected, tracer) = (&expected, tracer.as_deref());
                            clients
                                .spawn(move || client_loop(addr, rng, deadline, expected, tracer))
                        })
                        .collect();
                    if let Some(tracer) = &tracer {
                        let mut on = false;
                        while Instant::now() < deadline {
                            on = !on;
                            tracer.set_enabled(on);
                            std::thread::sleep(
                                PHASE.min(deadline.saturating_duration_since(Instant::now())),
                            );
                        }
                        tracer.set_enabled(false);
                    }
                    let mut samples = Vec::new();
                    let mut failures = Vec::new();
                    for handle in handles {
                        let (s, f) = handle.join().expect("client thread panicked");
                        samples.extend(s);
                        failures.extend(f);
                    }
                    (samples, failures)
                });
                let seconds = secs(start);
                // The set-up connection idled through the window past the
                // server's read timeout; ask on a fresh one.
                let after = server_counts(&mut Client::new(addr))?;
                Ok(Some((samples, failures, seconds, before, after)))
            })();
            stop.store(true, Ordering::SeqCst);
            let served = serving.join().expect("serve thread panicked");
            served.map_err(|e| e.to_string())?;
            measured
        });
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        if let Some((samples, failures, seconds, before, after)) = result? {
            for failure in failures {
                out.problem(failure);
            }
            window = Some(Window {
                samples,
                seconds,
                before,
                after,
                expected,
            });
        }
    }
    let w = window.ok_or("no measured window")?;

    for s in &w.samples {
        out.operation(s.ok);
    }
    if out.failed > 0 {
        out.problem(format!(
            "{} of {} requests failed",
            out.failed, out.attempted
        ));
    }
    let window_sims = w.after.simulations - w.before.simulations;
    if window_sims != 0.0 {
        out.problem(format!(
            "{window_sims} simulations ran in the measured window"
        ));
    }

    let ms_of = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        w.samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect()
    };
    let reads = ms_of(&|s| s.route.is_read());
    let writes = ms_of(&|s| s.route == Route::Run);
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("study_wall_s", median(&writes) / 1e3);
    m.insert("read_p50_ms", median(&reads));
    m.insert("read_p99_ms", quantile(&reads, 0.99));

    if let Some(tracer) = &tracer {
        layer_metrics(&mut out, tracer, &w, &open_ms, window_sims)?;
        let path = cfg.work_dir.join("spans-serve-mixed.jsonl");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Fills the per-layer metrics of a traced `serve-mixed` run.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    w: &Window,
    open_ms: &[f64],
    window_sims: f64,
) -> Result<(), String> {
    let ms_of = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        w.samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect()
    };
    // Route latencies come from the untraced phases.
    let route_ms = |route: Route| ms_of(&|s| s.route == route && !s.traced);
    let traced_requests = w.samples.iter().filter(|s| s.traced).count().max(1) as f64;
    let requests = w.samples.len().max(1) as f64;
    let spans = tracer.since(0);
    let durations_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    };
    let counts = tracer.take_counts();
    // The in-process cost of the same read: replay the warm grid from a
    // warm cache and render it, as a GET does, minus HTTP.
    let replay_md_us = {
        let session = StudySession::new().cache(MemoryCache::new());
        let spec = warm_spec()?;
        session.run(&spec).map_err(|e| e.to_string())?;
        median_us(|| {
            let report = session.run(&spec).map_err(|e| e.to_string())?;
            Ok(ReadKind::Markdown.render(&report)?.len())
        })?
    };
    let md_p50 = median(&route_ms(Route::Markdown));
    let run_p50 = median(&route_ms(Route::Run));
    let traced_run_p50 = median(&ms_of(&|s| s.route == Route::Run && s.traced));

    let m = &mut out.metrics;
    for name in [
        "traces.accesses",
        "traces.busy_s",
        "traces.ns_per_access",
        "traces.reuse_ratio",
        "sim.busy_s",
        "sim.ns_per_access",
        "sim.memo_hits",
        "exec.parallel_efficiency",
        "exec.other_s",
    ] {
        m.insert(name, 0.0);
    }
    // Each simulation opens exactly one stream. The server builds its
    // specs over the built-in registry, out of the wrappers' reach, so
    // the window's opens are read from its simulation counter.
    m.insert("traces.opens", window_sims / requests);
    m.insert("sim.simulations", window_sims / requests);
    m.insert(
        "model.evaluations",
        (w.after.evaluations - w.before.evaluations) / requests,
    );
    m.insert("rescache.store_us", median(&durations_us(trace::STORE)));
    m.insert("rescache.stores", counts.stores as f64 / traced_requests);
    m.insert("rescache.lookup_us", median(&durations_us(trace::LOOKUP)));
    m.insert("rescache.hits", counts.hits as f64 / traced_requests);
    m.insert("rescache.open_ms", median(open_ms));
    m.insert("exec.workers", workers() as f64);
    m.insert("serve.render_md_p50_ms", md_p50);
    m.insert("serve.render_json_p50_ms", median(&route_ms(Route::Json)));
    m.insert("serve.query_p50_ms", median(&route_ms(Route::Query)));
    m.insert("serve.run_p50_ms", run_p50);
    m.insert("serve.run_p99_ms", quantile(&route_ms(Route::Run), 0.99));
    m.insert("serve.requests_per_s", w.samples.len() as f64 / w.seconds);
    m.insert("serve.http_overhead_us", md_p50 * 1e3 - replay_md_us);
    m.insert(
        "serve.coalesced_waits",
        w.after.coalesced_waits - w.before.coalesced_waits,
    );
    m.insert("serve.window_simulations", window_sims);
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced_run_p50 / run_p50 - 1.0),
    );
    report_layers(out, &ModelContext::new(), &w.expected.report, true)
}
