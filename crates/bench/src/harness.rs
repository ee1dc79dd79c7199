//! A minimal wall-clock benchmark harness (offline stand-in for
//! criterion).
//!
//! The workspace builds without network access, so the benches cannot
//! depend on criterion. This harness keeps their structure — named
//! groups of closures, warm-up then measurement — and reports mean and
//! best ns/iteration plus optional element throughput. Benches using it
//! declare `harness = false` in the manifest and drive it from `main`.
//!
//! Besides the human-readable tables, a bench can persist a
//! machine-readable baseline with [`write_baseline`] (e.g.
//! `BENCH_study.json` from `benches/study_exec.rs`), so the perf
//! trajectory of the hot path is tracked in artifacts instead of
//! scrollback.

use aging_cache::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target measurement time per benchmark.
const MEASURE: Duration = Duration::from_millis(1200);
/// Warm-up time per benchmark.
const WARMUP: Duration = Duration::from_millis(300);

/// A named group of benchmarks, printed as a table as they run.
pub struct Harness {
    group: String,
}

impl Harness {
    /// Opens a group and prints its header.
    pub fn new(group: &str) -> Self {
        println!();
        println!("benchmark group: {group}");
        println!(
            "{:<32} {:>12} {:>12} {:>10} {:>14}",
            "name", "mean", "best", "iters", "throughput"
        );
        println!("{}", "-".repeat(84));
        Self {
            group: group.to_string(),
        }
    }

    /// Benchmarks a closure, discarding its result via `black_box`.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.run(name, None, f);
    }

    /// Benchmarks a closure that processes `elems` elements per call and
    /// reports element throughput. Returns the mean ns per call.
    pub fn bench_throughput<R>(&mut self, name: &str, elems: u64, f: impl FnMut() -> R) -> f64 {
        self.run(name, Some(elems), f)
    }

    fn run<R>(&mut self, name: &str, elems: Option<u64>, mut f: impl FnMut() -> R) -> f64 {
        // Warm-up: also calibrates the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP {
            black_box(f());
            warm_iters += 1;
        }
        let est_per_iter = WARMUP.as_nanos() as f64 / warm_iters.max(1) as f64;
        // Batch size targeting ~50 timer reads over the measurement
        // window, so timer overhead stays negligible for fast closures.
        let batch = ((MEASURE.as_nanos() as f64 / est_per_iter / 50.0).ceil() as u64).max(1);

        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        let mut best_per_iter = f64::INFINITY;
        while total < MEASURE {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t.elapsed();
            best_per_iter = best_per_iter.min(dt.as_nanos() as f64 / batch as f64);
            total += dt;
            iters += batch;
        }
        let mean = total.as_nanos() as f64 / iters as f64;
        let throughput = match elems {
            Some(e) => format!("{}/s", human(e as f64 * 1e9 / mean)),
            None => "-".to_string(),
        };
        println!(
            "{:<32} {:>12} {:>12} {:>10} {:>14}",
            format!("{}/{}", self.group, name),
            format!("{} ns", human(mean)),
            format!("{} ns", human(best_per_iter)),
            iters,
            throughput
        );
        mean
    }
}

/// Writes a machine-readable benchmark baseline: one flat JSON object
/// of named measurements per bench, one line per bench (JSONL), to
/// `path` (conventionally `BENCH_<name>.json` in the working
/// directory). Values emit with shortest-round-trip formatting, so
/// baselines diff cleanly.
///
/// The write **merges by bench name**: an existing line for `bench`
/// is replaced in place, other benches' lines pass through untouched
/// — so `study_exec` and `study_serve` can share one baseline file
/// without clobbering each other, whichever ran last.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be written.
pub fn write_baseline(path: &str, bench: &str, fields: &[(&str, f64)]) -> std::io::Result<()> {
    let mut pairs = vec![("bench", Json::Str(bench.to_string()))];
    pairs.extend(fields.iter().map(|&(k, v)| (k, Json::Num(v))));
    let line = Json::obj(pairs).emit();

    // `bench` emits first, so a prefix match identifies this bench's
    // line without parsing the rest.
    let marker = format!("{{\"bench\":\"{bench}\"");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    match lines.iter().position(|l| l.starts_with(&marker)) {
        Some(i) => lines[i] = line,
        None => lines.push(line),
    }
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text)
}

/// Formats a positive quantity with 3 significant-ish digits and
/// thousands separators collapsed to k/M/G suffixes.
fn human(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_scales() {
        assert_eq!(human(12.34), "12.3");
        assert_eq!(human(1234.0), "1.23k");
        assert_eq!(human(1.234e7), "12.34M");
        assert_eq!(human(2.5e9), "2.50G");
    }

    #[test]
    fn baselines_merge_by_bench_name() {
        let path = std::env::temp_dir().join(format!("nbti-baseline-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        write_baseline(path, "alpha", &[("x", 1.0)]).unwrap();
        write_baseline(path, "beta", &[("y", 2.0)]).unwrap();
        // Re-running a bench replaces its own line in place, nothing
        // else — whichever bench runs last.
        write_baseline(path, "alpha", &[("x", 3.0)]).unwrap();

        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            text,
            "{\"bench\":\"alpha\",\"x\":3}\n{\"bench\":\"beta\",\"y\":2}\n"
        );
        std::fs::remove_file(path).unwrap();
    }
}
