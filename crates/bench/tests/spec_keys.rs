//! The `study` CLI flags and the study server's query parameters are
//! one key table: the same (key, value) pairs are accepted by both
//! front doors and rejected by both, and a one-value key handed a
//! list fails by name instead of keeping its first value.

use aging_cache::rescache::MemoryCache;
use aging_cache::serve::{ServeOptions, StudyServer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::sync::atomic::Ordering;

fn study() -> Command {
    Command::new(env!("CARGO_BIN_EXE_study"))
}

/// `(key, value, accepted)`. Every accepted pair also yields a valid
/// spec on top of the base selection below, so `study check` exits 0
/// on it and a cold server answers 409 (not yet computed); a rejected
/// pair is a usage error (exit 2) and a bad request (400).
const PAIRS: &[(&str, &str, bool)] = &[
    ("cache-kb", "8,16", true),
    ("cache-kb", "8,x", false),
    ("cache-kb", "-8", false),
    ("line-bytes", "16", true),
    ("line-bytes", "16.5", false),
    ("banks", "2,4", true),
    ("banks", "four", false),
    ("ways", "1,4", true),
    ("ways", "", false),
    ("replacement", "lru,mru", true),
    ("l2-kb", "64", true),
    ("l2-kb", "64kB", false),
    ("l2-ways", "4", true),
    ("l2-ways", "-1", false),
    ("update-days", "1,7.5", true),
    ("update-days", "daily", false),
    ("policies", "probing,gray", true),
    ("workloads", "all", true),
    ("workloads", "sha,CRC32", true),
    ("trace", "profile:0.1,0.8,0.6,0.3", true),
    ("profile", "0.1,0.8,0.6,0.3", true),
    ("model", "nbti:temp=85", true),
    ("temp", "45,125", true),
    ("temp", "hot", false),
    ("vlow", "0.3", true),
    ("vlow", "0.3v", false),
    ("fail", "10", true),
    ("fail", "ten", false),
    ("trace-cycles", "40000", true),
    ("trace-cycles", "40000,80000", false),
    ("seed", "7", true),
    ("seed", "7,8", false),
    ("threads", "2", true),
    ("threads", "2,9", false),
];

/// The selection every pair is added to: one short trace.
const BASE: [(&str, &str); 2] = [("workloads", "sha"), ("trace-cycles", "1000")];

/// Whether `study check` accepts the flags: exit 0, or exit 2 for a
/// usage error. Anything else fails the test.
fn cli_accepts(flags: &[(&str, &str)]) -> bool {
    let mut cmd = study();
    cmd.arg("check");
    for (key, value) in flags {
        cmd.arg(format!("--{key}")).arg(value);
    }
    let out = cmd.output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    match out.status.code() {
        Some(0) => true,
        Some(2) => false,
        code => panic!("{flags:?}: exit {code:?}\n{stderr}"),
    }
}

fn encode(value: &str) -> String {
    value
        .replace('%', "%25")
        .replace('&', "%26")
        .replace('=', "%3D")
        .replace('+', "%2B")
}

/// The status and body of `GET target`.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = response.split_once("\r\n\r\n").unwrap().1.to_string();
    (status, body)
}

/// Whether a cold server's `GET /render` accepts the parameters: 409
/// (valid, nothing computed yet), or 400 for a bad request.
fn server_accepts(addr: SocketAddr, params: &[(&str, &str)]) -> bool {
    let query: Vec<String> = params
        .iter()
        .map(|(key, value)| format!("{key}={}", encode(value)))
        .collect();
    let (status, body) = get(addr, &format!("/render?{}", query.join("&")));
    match status {
        409 => true,
        400 => false,
        _ => panic!("{params:?}: status {status}\n{body}"),
    }
}

#[test]
fn the_cli_and_the_server_accept_and_reject_the_same_pairs() {
    let server = StudyServer::bind(MemoryCache::new(), ServeOptions::default()).unwrap();
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for &(key, value, accepted) in PAIRS {
                let params = [BASE[0], BASE[1], (key, value)];
                assert_eq!(cli_accepts(&params), accepted, "study --{key} {value:?}");
                assert_eq!(
                    server_accepts(server.addr(), &params),
                    accepted,
                    "GET /render?{key}={value}"
                );
            }
        }));
        handle.store(true, Ordering::SeqCst);
        serving.join().unwrap().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
    assert_eq!(server.session().stats().simulations, 0);
}

#[test]
fn scalar_flags_with_several_values_exit_2_naming_the_flag() {
    let check = study()
        .args(["check", "--workloads", "sha"])
        .args(["--trace-cycles", "40000,80000", "--threads", "2,9"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("`40000,80000`") && stderr.contains("--trace-cycles"),
        "{stderr}"
    );
    assert!(check.stdout.is_empty(), "nothing was checked");

    for verb in [&[][..], &["optimize", "--objective", "max:lt_years"][..]] {
        let out = study()
            .args(verb)
            .args(["--workloads", "sha", "--seed", "1,2"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb:?}: {stderr}");
        assert!(stderr.contains("--seed"), "{verb:?}: {stderr}");
    }
}
