//! Trace file formats: Dinero `.din`, Valgrind Lackey, and CSV.
//!
//! All three readers stream line-by-line over any [`BufRead`], so a
//! multi-gigabyte trace runs in constant memory, and all errors carry
//! the 1-based line number of the offending input. Matching writers
//! exist for every format, and the property tests in
//! `tests/format_props.rs` hold them to an exact round-trip: emit →
//! parse → identical access stream.
//!
//! The cache under study is a data cache, so instruction fetches
//! (Dinero label `2`, Lackey `I` lines) are skipped, and Lackey's
//! modify (`M`) records expand to a read followed by a write.
//!
//! | format | line shape | read | write |
//! |---|---|---|---|
//! | `din` | `<label> <hex-addr>` | label `0` | label `1` |
//! | `lackey` | ` L addr,size` / ` S addr,size` / ` M addr,size` | `L` | `S` (`M` = both) |
//! | `csv` | `addr,kind` (`0x…` or decimal; `r`/`w`) | `r` | `w` |
//!
//! # Examples
//!
//! ```
//! use trace_synth::formats::{CsvReader, write_csv};
//! use trace_synth::source::TraceSource;
//! use cache_sim::Access;
//!
//! let trace = vec![Access::read(0x1000), Access::write(0x2010)];
//! let mut text = String::new();
//! write_csv(&mut text, &trace);
//! let mut reader = CsvReader::new(text.as_bytes());
//! let mut back = Vec::new();
//! reader.next_batch(&mut back, usize::MAX).unwrap();
//! assert_eq!(back, trace);
//! ```

use crate::source::{TraceError, TraceSource};
use cache_sim::{Access, AccessKind};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// The supported trace file formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceFormat {
    /// Dinero IV `.din`: `<label> <hex addr>` per reference.
    Din,
    /// Valgrind Lackey (`--trace-mem=yes`) output.
    Lackey,
    /// Simple CSV: `addr,kind` per line.
    Csv,
}

impl TraceFormat {
    /// All formats, in spec-key order.
    pub const ALL: [TraceFormat; 3] = [TraceFormat::Din, TraceFormat::Lackey, TraceFormat::Csv];

    /// The stable key used in trace specs (`csv:path`) and study
    /// reports.
    pub fn key(self) -> &'static str {
        match self {
            TraceFormat::Din => "din",
            TraceFormat::Lackey => "lackey",
            TraceFormat::Csv => "csv",
        }
    }

    /// Parses a format key (`"din"`, `"lackey"`, `"csv"`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownFormat`] for anything else.
    pub fn from_key(key: &str) -> Result<Self, TraceError> {
        match key {
            "din" => Ok(TraceFormat::Din),
            "lackey" => Ok(TraceFormat::Lackey),
            "csv" => Ok(TraceFormat::Csv),
            other => Err(TraceError::UnknownFormat { spec: other.into() }),
        }
    }

    /// Infers the format from a file extension (`.din`, `.lackey`,
    /// `.csv`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownFormat`] when the extension names
    /// no known format.
    pub fn from_path(path: &Path) -> Result<Self, TraceError> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("din") => Ok(TraceFormat::Din),
            Some("lackey") | Some("lk") => Ok(TraceFormat::Lackey),
            Some("csv") => Ok(TraceFormat::Csv),
            _ => Err(TraceError::UnknownFormat {
                spec: path.display().to_string(),
            }),
        }
    }

    /// Opens `reader` as a streaming [`TraceSource`] in this format.
    pub fn reader<R: BufRead + 'static>(self, reader: R) -> Box<dyn TraceSource> {
        match self {
            TraceFormat::Din => Box::new(DinReader::new(reader)),
            TraceFormat::Lackey => Box::new(LackeyReader::new(reader)),
            TraceFormat::Csv => Box::new(CsvReader::new(reader)),
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Splits a trace spec `format:path` (e.g. `csv:/tmp/t.csv`); the bare
/// `file:` prefix infers the format from the extension.
///
/// # Errors
///
/// Returns [`TraceError::UnknownFormat`] for a missing or unknown
/// prefix.
///
/// # Examples
///
/// ```
/// use trace_synth::formats::{parse_spec, TraceFormat};
///
/// let (fmt, path) = parse_spec("din:/traces/gcc.din").unwrap();
/// assert_eq!(fmt, TraceFormat::Din);
/// assert_eq!(path, "/traces/gcc.din");
/// let (fmt, _) = parse_spec("file:/traces/gcc.din").unwrap();
/// assert_eq!(fmt, TraceFormat::Din);
/// assert!(parse_spec("/traces/gcc.din").is_err());
/// ```
pub fn parse_spec(spec: &str) -> Result<(TraceFormat, &str), TraceError> {
    let Some((key, path)) = spec.split_once(':') else {
        return Err(TraceError::UnknownFormat { spec: spec.into() });
    };
    if key == "file" {
        return Ok((TraceFormat::from_path(Path::new(path))?, path));
    }
    Ok((TraceFormat::from_key(key)?, path))
}

/// Opens a trace file as a streaming source in the given format.
///
/// # Errors
///
/// Returns [`TraceError::Io`] when the file cannot be opened.
pub fn open_path(format: TraceFormat, path: &Path) -> Result<Box<dyn TraceSource>, TraceError> {
    let file =
        File::open(path).map_err(|e| TraceError::io(&format!("open {}", path.display()), e))?;
    Ok(format.reader(BufReader::new(file)))
}

/// Line-by-line parsing scaffolding shared by the three readers: pulls
/// lines, tracks the 1-based line number, and lets each format's
/// `parse_line` push 0..=2 accesses per line.
struct LineReader<R> {
    input: R,
    line: String,
    line_no: u64,
    done: bool,
    /// Second access of a two-access line (Lackey `M`) that did not fit
    /// in the previous batch; emitted first by the next one.
    pending: Option<Access>,
}

impl<R: BufRead> LineReader<R> {
    fn new(input: R) -> Self {
        Self {
            input,
            line: String::new(),
            line_no: 0,
            done: false,
            pending: None,
        }
    }

    /// Reads the next raw line; `Ok(false)` at end of input.
    fn advance(&mut self) -> Result<bool, TraceError> {
        if self.done {
            return Ok(false);
        }
        self.line.clear();
        let n = self
            .input
            .read_line(&mut self.line)
            .map_err(|e| TraceError::io(&format!("read line {}", self.line_no + 1), e))?;
        if n == 0 {
            self.done = true;
            return Ok(false);
        }
        self.line_no += 1;
        Ok(true)
    }

    fn parse_err(&self, message: String) -> TraceError {
        TraceError::Parse {
            line: self.line_no,
            message,
        }
    }
}

/// Drives `parse_line` over lines until exactly `max` accesses are
/// appended or input ends. A single line may yield two accesses
/// (Lackey `M`); when only one fits, the second is held back and
/// emitted first by the next batch, so `max` is a strict bound — the
/// batched simulation loop relies on it to clip batches at
/// update-schedule boundaries.
fn fill<R: BufRead>(
    lr: &mut LineReader<R>,
    buf: &mut Vec<Access>,
    max: usize,
    parse_line: impl Fn(&str, &LineReader<R>) -> Result<LineAction, TraceError>,
) -> Result<usize, TraceError> {
    let before = buf.len();
    if max > 0 {
        if let Some(held) = lr.pending.take() {
            buf.push(held);
        }
    }
    while buf.len() - before < max {
        if !lr.advance()? {
            break;
        }
        match parse_line(lr.line.trim_end_matches(['\n', '\r']), lr)? {
            LineAction::Skip => {}
            LineAction::One(a) => buf.push(a),
            LineAction::Two(a, b) => {
                buf.push(a);
                if buf.len() - before < max {
                    buf.push(b);
                } else {
                    lr.pending = Some(b);
                }
            }
        }
    }
    Ok(buf.len() - before)
}

enum LineAction {
    Skip,
    One(Access),
    Two(Access, Access),
}

fn parse_addr(token: &str, radix_hint_hex: bool, line_no: u64) -> Result<u64, TraceError> {
    let (text, radix) = match token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        Some(rest) => (rest, 16),
        None if radix_hint_hex => (token, 16),
        None => (token, 10),
    };
    u64::from_str_radix(text, radix).map_err(|_| TraceError::Parse {
        line: line_no,
        message: format!("invalid address `{token}`"),
    })
}

// ---------------------------------------------------------------------
// Dinero .din
// ---------------------------------------------------------------------

/// Streaming reader for the Dinero IV `.din` format: one
/// `<label> <hex addr>` pair per line, label `0` = data read, `1` =
/// data write, `2` = instruction fetch (skipped — this is a data-cache
/// study). Trailing fields after the address are ignored, as Dinero
/// does.
pub struct DinReader<R> {
    lr: LineReader<R>,
}

impl<R: BufRead> DinReader<R> {
    /// Wraps a buffered reader.
    pub fn new(input: R) -> Self {
        Self {
            lr: LineReader::new(input),
        }
    }
}

impl<R: BufRead> TraceSource for DinReader<R> {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        fill(&mut self.lr, buf, max, |line, lr| {
            let mut tokens = line.split_whitespace();
            let Some(label) = tokens.next() else {
                return Ok(LineAction::Skip); // blank line
            };
            let Some(addr_tok) = tokens.next() else {
                return Err(lr.parse_err(format!("missing address after label `{label}`")));
            };
            let addr = parse_addr(addr_tok, true, lr.line_no)?;
            match label {
                "0" => Ok(LineAction::One(Access::read(addr))),
                "1" => Ok(LineAction::One(Access::write(addr))),
                "2" => Ok(LineAction::Skip), // instruction fetch
                other => {
                    Err(lr.parse_err(format!("unknown din label `{other}` (expected 0, 1 or 2)")))
                }
            }
        })
    }
}

/// Writes accesses in Dinero `.din` format (`0 addr` / `1 addr`, hex).
pub fn write_din(out: &mut String, accesses: &[Access]) {
    for a in accesses {
        let label = match a.kind {
            AccessKind::Read => '0',
            AccessKind::Write => '1',
        };
        // Writing to a `String` cannot fail.
        let _ = writeln!(out, "{label} {addr:x}", addr = a.addr);
    }
}

// ---------------------------------------------------------------------
// Valgrind Lackey
// ---------------------------------------------------------------------

/// Streaming reader for `valgrind --tool=lackey --trace-mem=yes`
/// output: ` L addr,size` (load), ` S addr,size` (store),
/// ` M addr,size` (modify — expanded to a read then a write). `I`
/// instruction lines and `==`/`--` tool chatter are skipped.
pub struct LackeyReader<R> {
    lr: LineReader<R>,
}

impl<R: BufRead> LackeyReader<R> {
    /// Wraps a buffered reader.
    pub fn new(input: R) -> Self {
        Self {
            lr: LineReader::new(input),
        }
    }
}

impl<R: BufRead> TraceSource for LackeyReader<R> {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        fill(&mut self.lr, buf, max, |line, lr| {
            let trimmed = line.trim_start();
            if trimmed.is_empty() || trimmed.starts_with("==") || trimmed.starts_with("--") {
                return Ok(LineAction::Skip); // valgrind banner / blank
            }
            let Some((op, rest)) = trimmed.split_once(' ') else {
                return Err(lr.parse_err(format!("malformed lackey line `{line}`")));
            };
            if op == "I" {
                return Ok(LineAction::Skip); // instruction fetch
            }
            let addr_tok = rest.trim().split(',').next().unwrap_or("");
            let addr = parse_addr(addr_tok, true, lr.line_no)?;
            match op {
                "L" => Ok(LineAction::One(Access::read(addr))),
                "S" => Ok(LineAction::One(Access::write(addr))),
                "M" => Ok(LineAction::Two(Access::read(addr), Access::write(addr))),
                other => Err(lr.parse_err(format!(
                    "unknown lackey op `{other}` (expected I, L, S or M)"
                ))),
            }
        })
    }
}

/// Writes accesses in Lackey format (` L addr,4` / ` S addr,4`).
pub fn write_lackey(out: &mut String, accesses: &[Access]) {
    for a in accesses {
        let op = match a.kind {
            AccessKind::Read => 'L',
            AccessKind::Write => 'S',
        };
        // Writing to a `String` cannot fail.
        let _ = writeln!(out, " {op} {addr:x},4", addr = a.addr);
    }
}

// ---------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------

/// Streaming reader for the simple CSV format: `addr,kind` per line,
/// where `addr` is `0x`-prefixed hex or decimal and `kind` is `r`/`w`
/// (case-insensitive, `read`/`write` accepted). Blank lines, `#`
/// comments and an optional `addr,kind` header are skipped.
pub struct CsvReader<R> {
    lr: LineReader<R>,
}

impl<R: BufRead> CsvReader<R> {
    /// Wraps a buffered reader.
    pub fn new(input: R) -> Self {
        Self {
            lr: LineReader::new(input),
        }
    }
}

impl<R: BufRead> TraceSource for CsvReader<R> {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        fill(&mut self.lr, buf, max, |line, lr| {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                return Ok(LineAction::Skip);
            }
            // A header line can never be valid data, so accept it at
            // any position (tools often emit it below a comment block).
            if trimmed.eq_ignore_ascii_case("addr,kind") {
                return Ok(LineAction::Skip);
            }
            let Some((addr_tok, kind_tok)) = trimmed.split_once(',') else {
                return Err(lr.parse_err(format!("expected `addr,kind`, got `{trimmed}`")));
            };
            let addr = parse_addr(addr_tok.trim(), false, lr.line_no)?;
            let kind = kind_tok.trim();
            if kind.eq_ignore_ascii_case("r") || kind.eq_ignore_ascii_case("read") {
                Ok(LineAction::One(Access::read(addr)))
            } else if kind.eq_ignore_ascii_case("w") || kind.eq_ignore_ascii_case("write") {
                Ok(LineAction::One(Access::write(addr)))
            } else {
                Err(lr.parse_err(format!("unknown access kind `{kind}` (expected r or w)")))
            }
        })
    }
}

/// Writes accesses in CSV format (`0xADDR,r` / `0xADDR,w`).
pub fn write_csv(out: &mut String, accesses: &[Access]) {
    for a in accesses {
        let kind = match a.kind {
            AccessKind::Read => 'r',
            AccessKind::Write => 'w',
        };
        // Writing to a `String` cannot fail.
        let _ = writeln!(out, "0x{addr:x},{kind}", addr = a.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(mut src: Box<dyn TraceSource>) -> Result<Vec<Access>, TraceError> {
        let mut buf = Vec::new();
        loop {
            if src.next_batch(&mut buf, 1024)? == 0 {
                return Ok(buf);
            }
        }
    }

    #[test]
    fn din_reads_labels_and_skips_ifetch() {
        let text = "0 1000\n2 cafe\n1 0x2010\n\n0 20\n";
        let got = read_all(TraceFormat::Din.reader(text.as_bytes())).unwrap();
        assert_eq!(
            got,
            vec![
                Access::read(0x1000),
                Access::write(0x2010),
                Access::read(0x20)
            ]
        );
    }

    #[test]
    fn din_rejects_bad_label_with_line_number() {
        let text = "0 1000\n7 2000\n";
        let e = read_all(TraceFormat::Din.reader(text.as_bytes())).unwrap_err();
        assert_eq!(
            e,
            TraceError::Parse {
                line: 2,
                message: "unknown din label `7` (expected 0, 1 or 2)".into()
            }
        );
    }

    #[test]
    fn lackey_expands_modify_and_skips_chatter() {
        let text = "==123== Lackey, a tool\nI  04000000,2\n L 1000,8\n M 2000,4\n S 3000,4\n";
        let got = read_all(TraceFormat::Lackey.reader(text.as_bytes())).unwrap();
        assert_eq!(
            got,
            vec![
                Access::read(0x1000),
                Access::read(0x2000),
                Access::write(0x2000),
                Access::write(0x3000),
            ]
        );
    }

    #[test]
    fn lackey_modify_split_across_batches_holds_the_write() {
        let text = " M 2000,4\n L 3000,4\n";
        let mut src = TraceFormat::Lackey.reader(text.as_bytes());
        let mut buf = Vec::new();
        assert_eq!(src.next_batch(&mut buf, 1).unwrap(), 1, "strict max");
        assert_eq!(buf, vec![Access::read(0x2000)]);
        buf.clear();
        assert_eq!(src.next_batch(&mut buf, 10).unwrap(), 2);
        assert_eq!(buf, vec![Access::write(0x2000), Access::read(0x3000)]);
    }

    #[test]
    fn csv_accepts_hex_decimal_header_and_comments() {
        let text = "addr,kind\n# warm-up\n0x1000,r\n8208,W\n";
        let got = read_all(TraceFormat::Csv.reader(text.as_bytes())).unwrap();
        assert_eq!(got, vec![Access::read(0x1000), Access::write(8208)]);
    }

    #[test]
    fn csv_header_is_skipped_below_a_comment_block() {
        let text = "# generated by my tool\n\naddr,kind\n0x10,read\n0x20,WRITE\n";
        let got = read_all(TraceFormat::Csv.reader(text.as_bytes())).unwrap();
        assert_eq!(got, vec![Access::read(0x10), Access::write(0x20)]);
    }

    #[test]
    fn csv_rejects_garbage_with_line_number() {
        let text = "0x10,r\n0x20,r\nnot-a-line\n";
        let e = read_all(TraceFormat::Csv.reader(text.as_bytes())).unwrap_err();
        assert!(matches!(e, TraceError::Parse { line: 3, .. }), "{e}");
    }

    #[test]
    fn spec_parsing_covers_prefixes_and_extensions() {
        assert_eq!(parse_spec("csv:x.trace").unwrap().0, TraceFormat::Csv);
        assert_eq!(parse_spec("lackey:x").unwrap().0, TraceFormat::Lackey);
        assert_eq!(parse_spec("file:x.din").unwrap().0, TraceFormat::Din);
        assert!(parse_spec("file:x.bin").is_err());
        assert!(parse_spec("elf:x").is_err());
        assert!(parse_spec("no-colon").is_err());
    }

    #[test]
    fn open_path_reports_missing_files() {
        let Err(e) = open_path(TraceFormat::Csv, Path::new("/nonexistent/t.csv")) else {
            panic!("opening a missing file must fail");
        };
        assert!(matches!(e, TraceError::Io { .. }), "{e}");
        assert!(e.to_string().contains("/nonexistent/t.csv"), "{e}");
    }
}
