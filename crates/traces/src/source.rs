//! The open workload axis: streaming sources of [`Access`] items.
//!
//! Everything downstream of the simulator — bank idleness, sleep
//! fractions, NBTI lifetimes — is a pure function of the access stream,
//! so *any* trace is admissible, not just the synthetic MediaBench-like
//! suite. A [`TraceSource`] yields accesses in caller-sized batches,
//! which lets the simulator consume multi-gigabyte trace files in
//! constant memory and lets in-memory generators skip per-item dispatch.
//!
//! Concrete sources:
//!
//! * the synthetic [`TraceGen`](crate::TraceGen), which fills batches
//!   itself (an infinite source: bound it by the access budget);
//! * the file readers in [`crate::formats`] — Dinero `.din`, Valgrind
//!   Lackey, and a simple CSV format;
//! * [`IterSource`] and [`SliceSource`] — adapt any access iterator or
//!   slice (tests, replay buffers).
//!
//! # Examples
//!
//! ```
//! use trace_synth::source::{TraceSource, BATCH_ACCESSES};
//! use trace_synth::suite;
//!
//! let profile = suite::by_name("sha").unwrap();
//! let mut source = profile.trace(42);
//! let mut buf = Vec::new();
//! let mut total = 0;
//! while total < 10_000 {
//!     buf.clear();
//!     total += source.next_batch(&mut buf, BATCH_ACCESSES.min(10_000 - total)).unwrap();
//! }
//! assert_eq!(total, 10_000);
//! // The batches are the iterator's stream.
//! let first: Vec<_> = suite::by_name("sha").unwrap().trace(42).take(10_000).collect();
//! assert_eq!(buf[..], first[first.len() - buf.len()..]);
//! ```

use cache_sim::Access;
use std::error::Error;
use std::fmt;

/// Default batch size for streaming consumption: large enough to
/// amortize per-batch setup (bank LUTs, buffer refills), small enough
/// to stay resident in L1/L2 while the simulator chews on it.
pub const BATCH_ACCESSES: usize = 4096;

/// Errors produced while opening or decoding a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// An I/O failure (open, read).
    Io {
        /// What failed, including the path when known.
        message: String,
    },
    /// A line of the trace failed to parse.
    Parse {
        /// 1-based line number of the offending line.
        line: u64,
        /// What was wrong, including the offending content.
        message: String,
    },
    /// A trace spec or file extension named no known format.
    UnknownFormat {
        /// The unrecognized spec.
        spec: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { message } => write!(f, "trace I/O error: {message}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
            TraceError::UnknownFormat { spec } => {
                write!(f, "unknown trace format `{spec}` (known: din, lackey, csv)")
            }
        }
    }
}

impl Error for TraceError {}

impl TraceError {
    /// Wraps an [`std::io::Error`] with context (usually the path).
    pub fn io(context: &str, e: std::io::Error) -> Self {
        TraceError::Io {
            message: format!("{context}: {e}"),
        }
    }
}

/// A streaming producer of memory accesses.
///
/// Implementations append up to `max` accesses per call, so consumers
/// control memory: a multi-GB file never materializes as a `Vec`.
/// Returning `0` signals exhaustion (synthetic generators are infinite
/// and never return `0`; bound them with the caller's access budget).
pub trait TraceSource {
    /// Appends up to `max` accesses to `buf`, returning how many were
    /// appended. `0` means the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O failures or malformed input (with
    /// the 1-based line number for file-backed sources).
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError>;
}

/// Adapts any access iterator into a [`TraceSource`], one `next` per
/// access (the synthetic [`TraceGen`](crate::TraceGen) is a source
/// itself and needs no adapter).
#[derive(Debug, Clone)]
pub struct IterSource<I> {
    iter: I,
}

impl<I: Iterator<Item = Access>> IterSource<I> {
    /// Wraps an iterator.
    pub fn new(iter: I) -> Self {
        Self { iter }
    }
}

impl<I: Iterator<Item = Access>> TraceSource for IterSource<I> {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        let before = buf.len();
        buf.extend(self.iter.by_ref().take(max));
        Ok(buf.len() - before)
    }
}

/// A [`TraceSource`] over a borrowed slice (tests, replay buffers).
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    rest: &'a [Access],
}

impl<'a> SliceSource<'a> {
    /// Wraps a slice.
    pub fn new(accesses: &'a [Access]) -> Self {
        Self { rest: accesses }
    }
}

impl TraceSource for SliceSource<'_> {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        let n = self.rest.len().min(max);
        let (head, tail) = self.rest.split_at(n);
        buf.extend_from_slice(head);
        self.rest = tail;
        Ok(n)
    }
}

/// Streaming FNV-1a (64-bit) hasher — the workload-provenance hash
/// recorded in study reports. Dependency-free and stable across
/// platforms and releases.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh hash.
    pub fn new() -> Self {
        Self {
            state: Self::OFFSET,
        }
    }

    /// Absorbs a chunk of bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// One-shot convenience.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.update(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_source_respects_max_and_exhausts() {
        let accesses: Vec<Access> = (0..10).map(|i| Access::read(i * 16)).collect();
        let mut s = IterSource::new(accesses.clone().into_iter());
        let mut buf = Vec::new();
        assert_eq!(s.next_batch(&mut buf, 4).unwrap(), 4);
        assert_eq!(s.next_batch(&mut buf, 4).unwrap(), 4);
        assert_eq!(s.next_batch(&mut buf, 4).unwrap(), 2);
        assert_eq!(s.next_batch(&mut buf, 4).unwrap(), 0);
        assert_eq!(buf, accesses);
    }

    #[test]
    fn slice_source_round_trips() {
        let accesses: Vec<Access> = (0..7).map(Access::write).collect();
        let mut s = SliceSource::new(&accesses);
        let mut buf = Vec::new();
        while s.next_batch(&mut buf, 3).unwrap() > 0 {}
        assert_eq!(buf, accesses);
    }

    #[test]
    fn fnv64_is_stable() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(Fnv64::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"ab");
        h.update(b"c");
        assert_eq!(h.finish(), Fnv64::hash(b"abc"));
    }

    #[test]
    fn errors_render_line_numbers() {
        let e = TraceError::Parse {
            line: 17,
            message: "bad token `xyz`".into(),
        };
        let text = e.to_string();
        assert!(text.contains("line 17"), "{text}");
        assert!(text.contains("xyz"), "{text}");
    }
}
