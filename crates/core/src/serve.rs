//! The serving layer: a long-lived HTTP study server over the warm
//! result cache.
//!
//! A CLI process per request cannot serve heavy traffic: every
//! invocation re-calibrates models, re-opens the journal, and rebuilds
//! the session memo, only to answer a query the warm cache could have
//! served in microseconds. [`StudyServer`] keeps **one**
//! [`StudySession`] (and therefore one calibration memo, one
//! simulation memo, one [`ResultCache`] handle) alive behind a
//! hand-rolled, dependency-free HTTP/1.1 listener — std
//! [`TcpListener`] plus a small worker pool with the grid runner's
//! self-scheduling shape (idle workers claim the next queued
//! connection; no static partition).
//!
//! Endpoints ([`ENDPOINTS`] is the machine-readable table; `GET /`
//! prints it):
//!
//! * `GET /render` — render a **warm** study through
//!   [`analysis::summary_table`] and [`render::table`]. Spec query
//!   parameters go through the CLI's own [`SpecParser`], so they are
//!   the `study` flags without the `--` prefix
//!   (`cache-kb=8,16,32&policies=probing&format=md&group-by=policy&
//!   baseline=identity`…); the response `Content-Type` follows the
//!   format (text/md/csv/json) and the body is byte-identical to the
//!   CLI's stdout for the same flags. Cold cells are never computed on
//!   a GET: a partially warm grid answers `409 Conflict` with a
//!   coverage report and a hint to `POST /run` first.
//! * `GET /query` — reduce one metric over a warm study
//!   (`metric=lt_years&reduce=geomean&group-by=policy`) via
//!   [`analysis::Query`]; same warm-only rule.
//! * `POST /run` — expand the spec, compute what is missing (on the
//!   worker count its `threads` key caps; a CLI run may share the
//!   journal), and answer a JSON coverage summary plus the
//!   `/render` location for the finished study.
//! * `POST /compare` — diff a report JSON body cell-by-cell against
//!   the journal ([`ReportDiff::against_cache`]): `200` when the sides
//!   agree within `tol`, `409` with the full diff otherwise.
//! * `GET /stats` — server and session counters as JSON.
//! * `POST /shutdown` — graceful drain, gated by a token (below).
//!
//! **Coalescing.** Concurrent identical work must cost one simulation,
//! not N. Every `/run` goes through the server's one [`StudySession`],
//! which claims each cell a run misses until that run's task stores
//! it: every other run that misses the same cell waits for the store,
//! then replays the hit. Claims are per cell, so two
//! overlapping-but-different grids still share the cells they have in
//! common. A run that fails releases its own claims and no others, so
//! a waiter on one of them computes the cell itself. GETs claim
//! nothing.
//!
//! **Determinism.** The server adds no nondeterminism: responses are
//! rendered by the same pure functions the CLI uses, cache replay is
//! byte-identical by construction (pinned by `tests/serve_http.rs`),
//! and this module never reads the wall clock.
//!
//! **Graceful shutdown.** `POST /shutdown?token=…` (enabled by
//! [`ServeOptions::shutdown_token`]) flips the shutdown flag: the
//! accept loop stops, queued connections drain, in-flight requests
//! finish, and [`StudyServer::serve`] flushes the journal before
//! returning — the daemon never leaves a torn tail for the journal's
//! truncation repair to clean up.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::analysis::{self, Axis, Query, Reduce, ReportDiff};
use crate::error::CoreError;
use crate::json::Json;
use crate::render::{self, Format};
use crate::rescache::{relock, ResultCache};
use crate::session::{Coverage, StudySession, WarmRead};
use crate::study::{SpecParser, StudyReport, StudySpec};
use crate::workload::WorkloadRegistry;

/// The report name served specs run under — the same literal the
/// `study` CLI has always used, so `/render?format=json` bodies are
/// byte-identical to `study --json` stdout (the name is embedded in
/// the canonical report JSON).
pub const REPORT_NAME: &str = "cli study";

/// Largest accepted request head (request line + headers), bytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Largest accepted request body (a `/compare` report JSON), bytes.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// The largest body a request to `path` may carry: only `/compare`
/// reads one.
fn body_cap(path: &str) -> usize {
    if path == "/compare" {
        MAX_BODY_BYTES
    } else {
        0
    }
}
/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL_MS: u64 = 5;
/// How long an idle worker waits on the queue before re-checking the
/// shutdown flag.
const WORKER_POLL_MS: u64 = 50;

/// One row of the endpoint table: path, method, one-line help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// Request path (exact match; no trailing-slash aliasing).
    pub path: &'static str,
    /// The one method the path answers (anything else is a 405).
    pub method: &'static str,
    /// One-line description, printed by `GET /`.
    pub help: &'static str,
}

const fn endpoint(path: &'static str, method: &'static str, help: &'static str) -> Endpoint {
    Endpoint { path, method, help }
}

/// Every route the server answers — the grammar `GET /` prints and the
/// dispatch table the handler walks. Paths here are checked against
/// DESIGN.md by the `registry-doc-coherence` lint.
pub const ENDPOINTS: [Endpoint; 7] = [
    endpoint("/", "GET", "this endpoint table"),
    endpoint("/stats", "GET", "server + session counters as JSON"),
    endpoint(
        "/render",
        "GET",
        "render a warm study (CLI spec params + format/group-by/baseline); 409 when cells are cold",
    ),
    endpoint(
        "/query",
        "GET",
        "reduce one metric over a warm study (metric/reduce/group-by params)",
    ),
    endpoint(
        "/run",
        "POST",
        "compute a spec's missing cells (coalesced) and report coverage",
    ),
    endpoint(
        "/compare",
        "POST",
        "diff a report JSON body against the journal (tol param); 409 on divergence",
    ),
    endpoint(
        "/shutdown",
        "POST",
        "drain in-flight requests, flush the journal, stop (token param; off unless configured)",
    ),
];

/// How to run the server: bind address, pool size, admin gating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bind address; port `0` asks the OS for a free one (read it back
    /// via [`StudyServer::addr`]). Default `127.0.0.1:0`.
    pub addr: String,
    /// Connection-worker pool size. Default 4. (Grid execution inside
    /// a request has its own worker pool, capped by the request's
    /// `threads` key; this only bounds how many HTTP requests are in
    /// flight.)
    pub threads: usize,
    /// Enables `POST /shutdown?token=…` when set; with `None` the
    /// endpoint always answers 403. There is no default token — an
    /// unguessable admin surface must be opted into.
    pub shutdown_token: Option<String>,
    /// Per-read socket patience; a client that stalls mid-request this
    /// long is disconnected. Default 5 000 ms.
    pub read_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            shutdown_token: None,
            read_timeout_ms: 5_000,
        }
    }
}

/// Per-request logging hook — the server core cannot read the wall
/// clock (determinism lint), so timing belongs to the caller's
/// implementation if it wants any.
pub trait ServeLog: Send + Sync {
    /// One finished request: method, decoded path, response status.
    fn request(&self, method: &str, path: &str, status: u16);
}

/// A server-side counter snapshot (see `GET /stats` for the JSON
/// shape, which nests the session's counters too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests answered (including error responses).
    pub requests: usize,
    /// Responses with status ≥ 400.
    pub errors: usize,
    /// `/run` cache lookups that waited for a cell another run was
    /// computing — each one a computation that coalescing avoided
    /// (or, when that run failed, deferred to the waiter).
    pub coalesced_waits: usize,
}

/// One parsed HTTP request.
#[derive(Debug, PartialEq)]
struct Request {
    method: String,
    path: String,
    /// Decoded `key=value` pairs, in query-string order.
    query: Vec<(String, String)>,
    /// The raw (undecoded) query string, echoed into `/run` locations.
    raw_query: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// One response about to be written.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

const CT_TEXT: &str = "text/plain; charset=utf-8";
const CT_JSON: &str = "application/json";

fn content_type_for(format: Format) -> &'static str {
    match format {
        Format::Text => CT_TEXT,
        Format::Markdown => "text/markdown; charset=utf-8",
        Format::Csv => "text/csv; charset=utf-8",
        Format::Json => CT_JSON,
    }
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    }
}

fn error_response(status: u16, message: impl Into<String>) -> Response {
    let mut body = message.into();
    if !body.ends_with('\n') {
        body.push('\n');
    }
    Response {
        status,
        content_type: CT_TEXT,
        body,
    }
}

/// Maps a [`CoreError`] onto a status: infrastructure failures are the
/// server's fault (500), everything else is a bad request (unknown
/// keys, invalid parameters, shape errors — 400).
fn status_for(e: &CoreError) -> u16 {
    match e {
        CoreError::Cache { .. }
        | CoreError::ScenarioPanicked { .. }
        | CoreError::WorkerPanicked => 500,
        _ => 400,
    }
}

fn core_error_response(e: &CoreError) -> Response {
    error_response(status_for(e), e.to_string())
}

/// Percent-decodes one URL component (`%41` → `A`, `+` → space).
/// Malformed escapes pass through literally — a decode must never
/// fail, and the downstream parsers reject garbage with typed errors.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b == b'+' {
            out.push(b' ');
            i += 1;
            continue;
        }
        if b == b'%' {
            let hex = |offset: usize| {
                bytes
                    .get(i + offset)
                    .and_then(|c| (*c as char).to_digit(16))
            };
            if let (Some(hi), Some(lo)) = (hex(1), hex(2)) {
                out.push((hi * 16 + lo) as u8);
                i += 3;
                continue;
            }
        }
        out.push(b);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded pairs (`a=1&b` →
/// `[("a","1"),("b","")]`).
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(key), percent_decode(value))
        })
        .collect()
}

/// Why a request could not be read; every one answers 400.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RequestError {
    /// No blank line within [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The bytes ended inside the head (`false`) or the body (`true`).
    Closed { in_body: bool },
    /// The client stalled inside the head or the body.
    TimedOut { in_body: bool },
    /// The socket read failed.
    Io(String),
    /// The request line is empty, lacks a target or names another
    /// protocol.
    RequestLine(String),
    /// A `Content-Length` that is not a `usize`.
    ContentLength(String),
    /// A `Content-Length` over the route's cap ([`body_cap`]).
    BodyTooLarge(usize),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let part = |in_body: bool| if in_body { "body" } else { "request" };
        match self {
            Self::HeadTooLarge => write!(f, "request head too large"),
            Self::Closed { in_body } => write!(f, "connection closed mid-{}", part(*in_body)),
            Self::TimedOut { in_body } => write!(f, "timed out mid-{}", part(*in_body)),
            Self::Io(e) => write!(f, "read failed: {e}"),
            Self::RequestLine(message) => f.write_str(message),
            Self::ContentLength(value) => write!(f, "bad content-length `{value}`"),
            Self::BodyTooLarge(n) => write!(f, "body of {n} bytes exceeds the limit"),
        }
    }
}

/// The length of the head in `buf` (request line and headers, without
/// the blank line), or `None` while more bytes may complete it. Only
/// the first [`MAX_HEAD_BYTES`] and a blank line are searched.
fn head_end(buf: &[u8]) -> Result<Option<usize>, RequestError> {
    let window = buf.get(..MAX_HEAD_BYTES + 4).unwrap_or(buf);
    match window.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(len) => Ok(Some(len)),
        None if buf.len() >= MAX_HEAD_BYTES + 4 => Err(RequestError::HeadTooLarge),
        None => Ok(None),
    }
}

/// What a prefix of a request's bytes holds.
#[derive(Debug, PartialEq)]
enum Parsed {
    /// The whole request (bytes past its declared body are ignored).
    Request(Request),
    /// Only part of it: the bytes end inside the head or the body.
    Partial { in_body: bool },
}

/// Parses one request from the bytes received so far — the pure half
/// of [`read_request`], with no socket.
fn parse_request(bytes: &[u8]) -> Result<Parsed, RequestError> {
    let Some(head_len) = head_end(bytes)? else {
        return Ok(Parsed::Partial { in_body: false });
    };
    let head = String::from_utf8_lossy(bytes.get(..head_len).unwrap_or_default());
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::RequestLine("empty request line".to_string()))?;
    let target = parts.next().ok_or_else(|| {
        RequestError::RequestLine(format!("request line `{request_line}` lacks a target"))
    })?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        let message = format!("unsupported protocol `{version}`");
        return Err(RequestError::RequestLine(message));
    }

    let mut content_length = 0usize;
    let mut keep_alive = version != "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| RequestError::ContentLength(value.to_string()))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let (path_raw, query_raw) = target.split_once('?').unwrap_or((target, ""));
    let path = percent_decode(path_raw);
    if content_length > body_cap(&path) {
        return Err(RequestError::BodyTooLarge(content_length));
    }

    let body = bytes.get(head_len + 4..).unwrap_or_default();
    let Some(body) = body.get(..content_length) else {
        return Ok(Parsed::Partial { in_body: true });
    };
    Ok(Parsed::Request(Request {
        method: method.to_string(),
        path,
        query: parse_query(query_raw),
        raw_query: query_raw.to_string(),
        body: body.to_vec(),
        keep_alive,
    }))
}

/// Reads one request off the stream, one chunk at a time until
/// [`parse_request`] has all of it. `Ok(None)` is a clean close (EOF
/// or idle timeout between keep-alive requests); `Err` is a malformed
/// or truncated request the caller answers with a 400 before closing.
fn read_request(stream: &mut impl Read) -> Result<Option<Request>, RequestError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let in_body = match parse_request(&buf)? {
            Parsed::Request(request) => return Ok(Some(request)),
            Parsed::Partial { in_body } => in_body,
        };
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err(RequestError::Closed { in_body }),
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(RequestError::TimedOut { in_body });
            }
            Err(e) => return Err(RequestError::Io(e.to_string())),
        }
    }
}

fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) -> bool {
    // Head and body go out in ONE write: a split write makes the body
    // segment wait out the peer's delayed ACK under Nagle (~40 ms per
    // response on loopback), two orders of magnitude over the warm
    // render itself.
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason_for(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes();
    out.extend_from_slice(response.body.as_bytes());
    stream.write_all(&out).is_ok() && stream.flush().is_ok()
}

/// A request's study parameters: the [`StudySpec`] assembled from the
/// CLI-mirroring query params, plus the presentation/analysis knobs.
#[derive(Debug)]
struct Params {
    spec: StudySpec,
    format: Format,
    group_by: Vec<Axis>,
    baseline: Option<String>,
    metric: String,
    reduce: Reduce,
    tol: f64,
}

impl Params {
    /// Parses decoded query pairs. Spec params mirror the `study` CLI
    /// flags without the `--` prefix (underscores also accepted);
    /// unknown keys are a hard 400 — a typo must not silently run the
    /// wrong sweep.
    fn from_query(pairs: &[(String, String)]) -> Result<Params, CoreError> {
        let mut spec = SpecParser::new(StudySpec::new(REPORT_NAME));
        let mut format = Format::Text;
        let mut group_by = Vec::new();
        let mut baseline = None;
        let mut metric = "lt_years".to_string();
        let mut reduce = Reduce::Mean;
        let mut tol = 0.0;
        for (key, value) in pairs {
            let k = key.replace('_', "-");
            if spec.apply(&k, value)? {
                continue;
            }
            match k.as_str() {
                "format" => format = Format::parse(value)?,
                "group-by" => {
                    group_by = value
                        .split(',')
                        .map(Axis::parse)
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "baseline" => baseline = Some(value.trim().to_string()),
                "metric" => metric = value.trim().to_string(),
                "reduce" => reduce = Reduce::parse(value)?,
                "tol" => {
                    tol = value.trim().parse::<f64>().unwrap_or(f64::NAN);
                    if tol < 0.0 || tol.is_nan() {
                        return Err(CoreError::Report {
                            message: format!(
                                "serve: `tol` must be a non-negative absolute tolerance, got `{value}`"
                            ),
                        });
                    }
                }
                // The shutdown gate, consumed by its handler.
                "token" => {}
                _ => {
                    return Err(CoreError::Report {
                        message: format!("serve: unknown query parameter `{key}`"),
                    })
                }
            }
        }
        Ok(Params {
            spec: spec.finish()?,
            format,
            group_by,
            baseline,
            metric,
            reduce,
            tol,
        })
    }
}

/// The study server: one warm [`StudySession`] behind an HTTP/1.1
/// listener. Construct with [`StudyServer::bind`], read the bound
/// address with [`StudyServer::addr`], then block in
/// [`StudyServer::serve`].
pub struct StudyServer {
    listener: TcpListener,
    local: SocketAddr,
    session: StudySession,
    options: ServeOptions,
    shutdown: Arc<AtomicBool>,
    requests: AtomicUsize,
    errors: AtomicUsize,
    log: Option<Box<dyn ServeLog>>,
}

impl StudyServer {
    /// Binds a server over a fresh session whose result cache is
    /// `cache`. Requests build their specs with [`StudySpec::new`], so
    /// they resolve names against the built-in registries.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] when the address cannot be bound.
    pub fn bind(
        cache: impl ResultCache + 'static,
        options: ServeOptions,
    ) -> Result<StudyServer, CoreError> {
        let session = StudySession::new().cache(cache);
        let listener = TcpListener::bind(&options.addr).map_err(|e| CoreError::Report {
            message: format!("serve: cannot bind {}: {e}", options.addr),
        })?;
        let local = listener.local_addr().map_err(|e| CoreError::Report {
            message: format!("serve: bound address unavailable: {e}"),
        })?;
        Ok(StudyServer {
            listener,
            local,
            session,
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
            requests: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
            log: None,
        })
    }

    /// Installs a per-request logging hook.
    #[must_use]
    pub fn with_log(mut self, log: impl ServeLog + 'static) -> Self {
        self.log = Some(Box::new(log));
        self
    }

    /// The bound address (resolves port `0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// The long-lived session behind every request — its
    /// [`stats`](StudySession::stats) are cumulative across requests,
    /// which is how the coalescing tests count simulations.
    pub fn session(&self) -> &StudySession {
        &self.session
    }

    /// A handle that stops [`StudyServer::serve`] when set — the
    /// programmatic equivalent of `POST /shutdown`.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Server-side counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            coalesced_waits: self.session.claim_waits(),
        }
    }

    /// Runs the accept loop until shutdown, then drains: queued
    /// connections are handled, in-flight requests finish, and the
    /// journal absorbs any tail before this returns.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] when the listener cannot be
    /// polled, or a cache error from the final journal flush.
    pub fn serve(&self) -> Result<(), CoreError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| CoreError::Report {
                message: format!("serve: cannot poll the listener: {e}"),
            })?;
        let queue: Mutex<VecDeque<TcpStream>> = Mutex::new(VecDeque::new());
        let available = Condvar::new();
        let workers = self.options.threads.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Pop-before-shutdown-check ordering is the drain:
                    // accepted connections are answered even when the
                    // flag flipped while they were queued.
                    let stream = {
                        let mut q = relock(queue.lock());
                        loop {
                            if let Some(s) = q.pop_front() {
                                break Some(s);
                            }
                            if self.shutdown.load(Ordering::SeqCst) {
                                break None;
                            }
                            let (guard, _) = relock(
                                available.wait_timeout(q, Duration::from_millis(WORKER_POLL_MS)),
                            );
                            q = guard;
                        }
                    };
                    match stream {
                        Some(s) => self.handle_connection(s),
                        None => break,
                    }
                });
            }
            while !self.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        // Workers read blockingly (with a timeout);
                        // the accepted socket inherits nonblocking
                        // from the listener on some platforms.
                        let _ = stream.set_nonblocking(false);
                        // Responses are single-write and latency-bound
                        // on keep-alive connections; never batch them.
                        let _ = stream.set_nodelay(true);
                        relock(queue.lock()).push_back(stream);
                        available.notify_one();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(ACCEPT_POLL_MS)),
                }
            }
            available.notify_all();
        });
        self.cache()?.refresh().map(|_| ())
    }

    /// The session's result cache, which [`StudyServer::bind`] always
    /// attaches.
    fn cache(&self) -> Result<&dyn ResultCache, CoreError> {
        self.session.result_cache().ok_or_else(|| CoreError::Cache {
            message: "serve: the session has no result cache".to_string(),
        })
    }

    /// One connection: requests are answered in order until the client
    /// closes, asks to close, errors, or the server begins draining.
    fn handle_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(
            self.options.read_timeout_ms.max(1),
        )));
        loop {
            match read_request(&mut stream) {
                Ok(Some(request)) => {
                    let response = self.dispatch(&request);
                    self.requests.fetch_add(1, Ordering::Relaxed);
                    if response.status >= 400 {
                        self.errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some(log) = &self.log {
                        log.request(&request.method, &request.path, response.status);
                    }
                    let keep = request.keep_alive && !self.shutdown.load(Ordering::SeqCst);
                    if !write_response(&mut stream, &response, keep) || !keep {
                        return;
                    }
                }
                Ok(None) => return,
                Err(error) => {
                    self.requests.fetch_add(1, Ordering::Relaxed);
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    let response = error_response(400, error.to_string());
                    if let Some(log) = &self.log {
                        log.request("?", "?", response.status);
                    }
                    let _ = write_response(&mut stream, &response, false);
                    return;
                }
            }
        }
    }

    fn dispatch(&self, request: &Request) -> Response {
        let Some(route) = ENDPOINTS.iter().find(|e| e.path == request.path) else {
            return error_response(
                404,
                format!("no such endpoint `{}`\n\n{}", request.path, help_text()),
            );
        };
        if route.method != request.method {
            return error_response(405, format!("{} answers {} only", route.path, route.method));
        }
        match request.path.as_str() {
            "/" => Response {
                status: 200,
                content_type: CT_TEXT,
                body: help_text(),
            },
            "/stats" => self.stats_response(),
            "/render" => self
                .render_response(request)
                .unwrap_or_else(|e| core_error_response(&e)),
            "/query" => self
                .query_response(request)
                .unwrap_or_else(|e| core_error_response(&e)),
            "/run" => self
                .run_response(request)
                .unwrap_or_else(|e| core_error_response(&e)),
            "/compare" => self
                .compare_response(request)
                .unwrap_or_else(|e| core_error_response(&e)),
            "/shutdown" => self.shutdown_response(request),
            _ => error_response(404, help_text()),
        }
    }

    fn cold_response(&self, coverage: Coverage, total: usize) -> Response {
        let body = Json::obj(vec![
            (
                "error",
                Json::Str("cold cells: GETs serve the warm cache only".to_string()),
            ),
            ("warm", Json::Num(coverage.replayed as f64)),
            ("missing", Json::Num(coverage.computed as f64)),
            ("scenarios", Json::Num(total as f64)),
            (
                "hint",
                Json::Str("POST /run with the same parameters, then retry".to_string()),
            ),
        ]);
        Response {
            status: 409,
            content_type: CT_JSON,
            body: format!("{}\n", body.emit()),
        }
    }

    /// A GET's warm report, or its 409 coverage answer when some cell
    /// is cold. The spec expands once, the cache absorbs cells other
    /// handles journaled, and the session looks each cell up once, so
    /// a GET never claims, computes or stores a cell.
    fn warm_report(&self, params: &Params) -> Result<Result<StudyReport, Response>, CoreError> {
        let grid = params.spec.expand()?;
        let cells = grid.len();
        self.cache()?.refresh()?;
        Ok(match self.session.read_warm(grid)? {
            WarmRead::Replayed(report) => Ok(report),
            WarmRead::Cold(coverage) => Err(self.cold_response(coverage, cells)),
        })
    }

    fn render_response(&self, request: &Request) -> Result<Response, CoreError> {
        let params = Params::from_query(&request.query)?;
        let report = match self.warm_report(&params)? {
            Ok(report) => report,
            Err(cold) => return Ok(cold),
        };
        // The trailing newline matches the CLI's `println!` — served
        // bytes and CLI stdout are identical for every format.
        let body = if params.format == Format::Json {
            format!("{}\n", report.to_json())
        } else {
            let table =
                analysis::summary_table(&report, &params.group_by, params.baseline.as_deref())?;
            format!("{}\n", render::table(&table, params.format))
        };
        Ok(Response {
            status: 200,
            content_type: content_type_for(params.format),
            body,
        })
    }

    fn query_response(&self, request: &Request) -> Result<Response, CoreError> {
        let params = Params::from_query(&request.query)?;
        let report = match self.warm_report(&params)? {
            Ok(report) => report,
            Err(cold) => return Ok(cold),
        };
        let rows = Query::new(&report)
            .group_by(params.group_by.iter().copied())
            .reduce(&params.metric, params.reduce)?;
        if params.format == Format::Json {
            let body = Json::obj(vec![
                ("metric", Json::Str(params.metric.clone())),
                ("reduce", Json::Str(params.reduce.name().to_string())),
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
                                            row.key
                                                .iter()
                                                .map(|v| Json::Str(v.to_string()))
                                                .collect(),
                                        ),
                                    ),
                                    ("value", Json::Num(row.value)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            return Ok(Response {
                status: 200,
                content_type: CT_JSON,
                body: format!("{}\n", body.emit()),
            });
        }
        let mut headers: Vec<String> = params
            .group_by
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        headers.push(format!("{}({})", params.reduce.name(), params.metric));
        let mut table = crate::report::Table::new(
            format!(
                "query: {} over {} scenarios",
                params.metric,
                report.records().len()
            ),
            headers,
        );
        for row in &rows {
            let mut cells: Vec<String> = row.key.iter().map(ToString::to_string).collect();
            cells.push(row.value.to_string());
            table.push_row(cells);
        }
        Ok(Response {
            status: 200,
            content_type: content_type_for(params.format),
            body: format!("{}\n", render::table(&table, params.format)),
        })
    }

    fn run_response(&self, request: &Request) -> Result<Response, CoreError> {
        let params = Params::from_query(&request.query)?;
        let grid = params.spec.expand()?;
        self.cache()?.refresh()?;
        let (report, coverage) = self.session.run_counted(Cow::Owned(grid))?;
        let stats = self.session.stats();
        let location = if request.raw_query.is_empty() {
            "/render".to_string()
        } else {
            format!("/render?{}", request.raw_query)
        };
        let body = Json::obj(vec![
            ("scenarios", Json::Num(report.records().len() as f64)),
            ("replayed", Json::Num(coverage.replayed as f64)),
            ("computed", Json::Num(coverage.computed as f64)),
            ("location", Json::Str(location)),
            ("session", session_stats_json(&stats)),
        ]);
        Ok(Response {
            status: 200,
            content_type: CT_JSON,
            body: format!("{}\n", body.emit()),
        })
    }

    fn compare_response(&self, request: &Request) -> Result<Response, CoreError> {
        let params = Params::from_query(&request.query)?;
        let text = String::from_utf8_lossy(&request.body);
        if text.trim().is_empty() {
            return Ok(error_response(
                400,
                "POST /compare needs a report JSON body",
            ));
        }
        let report = StudyReport::from_json(&text)?;
        let cache = self.cache()?;
        cache.refresh()?;
        let diff =
            ReportDiff::against_cache(&report, cache, WorkloadRegistry::global(), params.tol)?;
        Ok(Response {
            status: if diff.is_empty() { 200 } else { 409 },
            content_type: CT_TEXT,
            body: diff.to_string(),
        })
    }

    fn shutdown_response(&self, request: &Request) -> Response {
        let Some(expected) = &self.options.shutdown_token else {
            return error_response(
                403,
                "shutdown endpoint disabled (start the server with a shutdown token)",
            );
        };
        let supplied = request
            .query
            .iter()
            .find(|(k, _)| k == "token")
            .map(|(_, v)| v.as_str());
        if supplied != Some(expected.as_str()) {
            return error_response(403, "bad or missing shutdown token");
        }
        self.shutdown.store(true, Ordering::SeqCst);
        Response {
            status: 200,
            content_type: CT_TEXT,
            body: "draining\n".to_string(),
        }
    }

    fn stats_response(&self) -> Response {
        let serve = self.stats();
        let session = self.session.stats();
        let body = Json::obj(vec![
            ("requests", Json::Num(serve.requests as f64)),
            ("errors", Json::Num(serve.errors as f64)),
            ("coalesced_waits", Json::Num(serve.coalesced_waits as f64)),
            (
                "cache_entries",
                Json::Num(self.session.result_cache().map_or(0, |c| c.len()) as f64),
            ),
            ("session", session_stats_json(&session)),
        ]);
        Response {
            status: 200,
            content_type: CT_JSON,
            body: format!("{}\n", body.emit()),
        }
    }
}

fn session_stats_json(stats: &crate::session::SessionStats) -> Json {
    Json::obj(vec![
        ("scenarios", Json::Num(stats.scenarios as f64)),
        ("simulations", Json::Num(stats.simulations as f64)),
        ("trace_opens", Json::Num(stats.trace_opens as f64)),
        ("sim_memo_hits", Json::Num(stats.sim_memo_hits as f64)),
        ("evaluations", Json::Num(stats.evaluations as f64)),
        ("cache_hits", Json::Num(stats.cache_hits as f64)),
        ("cache_stores", Json::Num(stats.cache_stores as f64)),
    ])
}

fn help_text() -> String {
    let mut out = String::from(
        "aging-cache study server — spec params mirror the study CLI flags \
         (cache-kb, line-bytes, banks, ways, replacement, l2-kb, l2-ways, \
         update-days, policies, workloads, trace, profile, model, temp, vlow, \
         fail, trace-cycles, seed, threads)\n\n",
    );
    for e in &ENDPOINTS {
        out.push_str(&format!("{:5} {:10} {}\n", e.method, e.path, e.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rescache::MemoryCache;
    use std::collections::BTreeSet;

    fn _assert_server_is_sync(server: &StudyServer) -> &dyn Sync {
        server
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%2Cb+c%20d"), "a,b c d");
        assert_eq!(percent_decode("plain"), "plain");
        // Malformed escapes pass through instead of failing.
        assert_eq!(percent_decode("50%"), "50%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn query_pairs_decode_in_order() {
        let pairs = parse_query("cache-kb=8%2C16&flag&x=a+b");
        assert_eq!(
            pairs,
            vec![
                ("cache-kb".to_string(), "8,16".to_string()),
                ("flag".to_string(), String::new()),
                ("x".to_string(), "a b".to_string()),
            ]
        );
    }

    #[test]
    fn params_mirror_cli_flags() {
        let pairs = parse_query(
            "cache-kb=8,16&policies=probing,gray&trace_cycles=40000&format=md&group_by=policy",
        );
        let params = Params::from_query(&pairs).unwrap();
        assert_eq!(params.format, Format::Markdown);
        assert_eq!(params.group_by, vec![Axis::Policy]);
        let grid = params.spec.expand().unwrap();
        assert!(!grid.is_empty());
    }

    #[test]
    fn unknown_params_are_rejected() {
        let pairs = parse_query("cach-kb=8");
        let err = Params::from_query(&pairs).unwrap_err();
        assert!(err.to_string().contains("cach-kb"), "{err}");
    }

    #[test]
    fn endpoint_table_is_well_formed() {
        for e in &ENDPOINTS {
            assert!(e.path.starts_with('/'));
            assert!(matches!(e.method, "GET" | "POST"));
            assert!(!e.help.is_empty());
        }
        // Paths are unique — the dispatch table is first-match.
        let paths: BTreeSet<&str> = ENDPOINTS.iter().map(|e| e.path).collect();
        assert_eq!(paths.len(), ENDPOINTS.len());
    }

    #[test]
    fn http_request_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /compare?tol=0.5 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
            )
            .unwrap();
            s.flush().unwrap();
            // Keep the socket open until the server side parsed it.
            let mut sink = [0u8; 16];
            let _ = s.read(&mut sink);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compare");
        assert_eq!(req.query, vec![("tol".to_string(), "0.5".to_string())]);
        assert_eq!(req.raw_query, "tol=0.5");
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive);
        drop(stream);
        client.join().unwrap();
    }

    /// Request bytes for the parse property: a request assembled from
    /// well-formed and malformed parts, then maybe truncated, spliced
    /// with non-UTF-8 bytes, padded past the head limit, or replaced
    /// by noise.
    fn arb_request_bytes(g: &mut quickprop::Gen) -> Vec<u8> {
        const METHODS: &[&str] = &["GET", "POST", "get", ""];
        const TARGETS: &[&str] = &[
            "/render?cache-kb=8%2C16&format=md",
            "/",
            "/compare?tol=0.5",
            "/run?threads=1",
            "/%63ompare",
            "/a?b=%zz&c&=d",
            "/%ff%fe?%e9=%",
            "",
        ];
        const VERSIONS: &[&str] = &["HTTP/1.1", "HTTP/1.0", "HTTP/2", ""];
        const LENGTHS: &[&str] = &[
            "-1",
            "abc",
            "",
            " 7 ",
            "+3",
            "0",
            "16777216",
            "16777217",
            "18446744073709551616",
            "99999999999999999999999",
        ];
        let body: Vec<u8> = (0..g.usize_in(0..64)).map(|_| g.next_u64() as u8).collect();
        let line = [*g.pick(METHODS), *g.pick(TARGETS), *g.pick(VERSIONS)].join(" ");
        let mut head = format!("{line}\r\nHost: test\r\n");
        match g.u32_in(0..3) {
            0 => head.push_str(&format!("Content-Length: {}\r\n", body.len())),
            1 => head.push_str(&format!("content-length:{}\r\n", g.pick(LENGTHS))),
            _ => {}
        }
        if g.u32_in(0..2) == 0 {
            head.push_str("Connection: close\r\nno colon here\r\n: \r\n");
        }
        let mut bytes = head.into_bytes();
        if g.u32_in(0..6) == 0 {
            let pad = MAX_HEAD_BYTES - bytes.len() + g.usize_in(0..8);
            bytes.extend(std::iter::repeat_n(b'x', pad));
        }
        bytes.extend_from_slice(b"\r\n");
        bytes.extend_from_slice(&body);
        let at = g.usize_in(0..bytes.len() + 1);
        match g.u32_in(0..5) {
            0 => bytes.truncate(at),
            1 => {
                let junk: Vec<u8> = (0..g.usize_in(1..6))
                    .map(|_| 0x80 | g.next_u64() as u8)
                    .collect();
                bytes.splice(at..at, junk);
            }
            2 => {
                bytes = (0..g.usize_in(0..200))
                    .map(|_| g.next_u64() as u8)
                    .collect()
            }
            _ => {}
        }
        bytes
    }

    #[test]
    fn request_bytes_parse_or_fail_typed_in_bounded_time() {
        // Release builds run 512 cases, and hold each parse to a bound
        // only a linear parser meets.
        let (cases, bound) = if cfg!(debug_assertions) {
            (64, Duration::from_secs(2))
        } else {
            (512, Duration::from_millis(50))
        };
        quickprop::cases(cases, |g| {
            let bytes = arb_request_bytes(g);
            let start = std::time::Instant::now();
            let parsed = parse_request(&bytes);
            // The socket reader, fed the same bytes in chunks, agrees.
            let read = read_request(&mut bytes.as_slice());
            let took = start.elapsed();
            assert!(took < bound, "{} bytes took {took:?}", bytes.len());
            let expected = match parsed {
                Ok(Parsed::Request(request)) => Ok(Some(request)),
                Ok(Parsed::Partial { .. }) if bytes.is_empty() => Ok(None),
                Ok(Parsed::Partial { in_body }) => Err(RequestError::Closed { in_body }),
                Err(e) => Err(e),
            };
            assert_eq!(read, expected, "{:?}", String::from_utf8_lossy(&bytes));
        });
    }

    #[test]
    fn malformed_requests_fail_with_typed_errors() {
        let parse = |bytes: &[u8]| parse_request(bytes);
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
            Err(RequestError::ContentLength("-1".to_string()))
        );
        assert_eq!(
            parse(b"POST /compare HTTP/1.1\r\nContent-Length: 16777217\r\n\r\n"),
            Err(RequestError::BodyTooLarge(16_777_217))
        );
        assert_eq!(
            parse(b"POST /compare HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc"),
            Ok(Parsed::Partial { in_body: true })
        );
        // Every other route reads no body: a declared one fails before
        // any body byte arrives.
        for head in [
            &b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n"[..],
            b"POST /run?threads=1 HTTP/1.1\r\nContent-Length: 5\r\n\r\n",
            b"GET /render HTTP/1.1\r\nContent-Length: 5\r\n\r\n",
        ] {
            assert_eq!(parse(head), Err(RequestError::BodyTooLarge(5)));
        }
        assert!(matches!(
            parse(b"POST /run HTTP/1.1\r\nContent-Length: 0\r\n\r\n"),
            Ok(Parsed::Request(_))
        ));
        assert_eq!(parse(b"GET / HT"), Ok(Parsed::Partial { in_body: false }));
        assert!(matches!(
            parse(b"GET / HTTP/2\r\n\r\n"),
            Err(RequestError::RequestLine(_))
        ));
        let mut huge = b"GET / HTTP/1.1\r\nX: ".to_vec();
        huge.resize(MAX_HEAD_BYTES + 4, b'x');
        assert_eq!(parse(&huge), Err(RequestError::HeadTooLarge));
        // Non-UTF-8 in the head decodes lossily instead of failing.
        let Ok(Parsed::Request(request)) = parse(b"GET /\xff?a=\xfe HTTP/1.1\r\n\r\n") else {
            panic!("a non-UTF-8 target still parses");
        };
        assert_eq!(request.path, "/\u{fffd}");
        // The 400 body keeps its historic wording.
        assert_eq!(
            RequestError::Closed { in_body: true }.to_string(),
            "connection closed mid-body"
        );
    }

    #[test]
    fn shutdown_requires_a_configured_token() {
        let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
        let _ = _assert_server_is_sync(&server);
        let req = Request {
            method: "POST".to_string(),
            path: "/shutdown".to_string(),
            query: parse_query("token=secret"),
            raw_query: "token=secret".to_string(),
            body: Vec::new(),
            keep_alive: false,
        };
        assert_eq!(server.dispatch(&req).status, 403);

        let options = ServeOptions {
            shutdown_token: Some("secret".to_string()),
            ..ServeOptions::default()
        };
        let server = StudyServer::bind(MemoryCache::new(), options).unwrap();
        assert_eq!(server.dispatch(&req).status, 200);
        assert!(server.shutdown_handle().load(Ordering::SeqCst));
        let wrong = Request {
            query: parse_query("token=wrong"),
            ..req
        };
        assert_eq!(server.dispatch(&wrong).status, 403);
    }

    #[test]
    fn dispatch_rejects_unknown_paths_and_methods() {
        let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
        let get = |path: &str| Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            raw_query: String::new(),
            body: Vec::new(),
            keep_alive: false,
        };
        assert_eq!(server.dispatch(&get("/nope")).status, 404);
        assert_eq!(server.dispatch(&get("/run")).status, 405);
        assert_eq!(server.dispatch(&get("/")).status, 200);
        assert_eq!(server.dispatch(&get("/stats")).status, 200);
        let stats = server.dispatch(&get("/stats"));
        assert_eq!(stats.content_type, CT_JSON);
        assert!(stats.body.contains("\"simulations\""));
    }
}
