//! The renderer family: one table or report, many output formats.
//!
//! Every table view in [`crate::views`] produces a
//! [`Table`]; this module is where a table (or the whole
//! [`StudyReport`] behind it) turns into bytes:
//!
//! * [`Format::Text`] — the historic aligned plain-text layout
//!   (`Table`'s `Display`), byte-identical to what the paper tables
//!   have always printed;
//! * [`Format::Markdown`] — paper-style GitHub-flavoured Markdown
//!   ([`Table::to_markdown`]);
//! * [`Format::Csv`] — RFC-4180 data rows ([`Table::to_csv`]): headers
//!   then rows, quoted only where needed, no title or notes — data,
//!   not presentation;
//! * [`Format::Json`] — the canonical deterministic report JSON
//!   ([`StudyReport::to_json`]), which parses back and re-renders in
//!   any other format without re-running anything.
//!
//! All four are deterministic: same report, same bytes, pinned by the
//! golden fixtures in `tests/render_goldens.rs`.
//!
//! # Examples
//!
//! Render one report three ways without re-measuring:
//!
//! ```
//! use aging_cache::render::{self, Format};
//! use aging_cache::report::Table;
//!
//! let mut t = Table::new("Demo", vec!["bench".into(), "LT".into()]);
//! t.push_row(vec!["sha".into(), "4.31".into()]);
//! assert!(render::table(&t, Format::Text).starts_with("=== Demo ==="));
//! assert!(render::table(&t, Format::Markdown).contains("| sha | 4.31 |"));
//! assert_eq!(render::table(&t, Format::Csv), "bench,LT\nsha,4.31\n");
//! ```

use crate::error::CoreError;
use crate::json::Json;
use crate::report::Table;
use crate::study::StudyReport;

/// An output format for tables and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned plain text — the historic stdout of the paper tables.
    Text,
    /// GitHub-flavoured Markdown, paper-table style.
    Markdown,
    /// RFC-4180 CSV: headers and data rows only.
    Csv,
    /// The canonical deterministic report JSON.
    Json,
}

impl Format {
    /// Every format, in display order.
    pub const ALL: [Format; 4] = [Format::Text, Format::Markdown, Format::Csv, Format::Json];

    /// The canonical format name (the `--format` flag's vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Markdown => "md",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }

    /// Parses a format name (`text`/`txt`, `md`/`markdown`, `csv`,
    /// `json`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] naming the known formats.
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_cache::render::Format;
    ///
    /// assert_eq!(Format::parse("md").unwrap(), Format::Markdown);
    /// assert_eq!(Format::parse("markdown").unwrap(), Format::Markdown);
    /// assert!(Format::parse("pdf").is_err());
    /// ```
    pub fn parse(key: &str) -> Result<Format, CoreError> {
        match key.trim().to_ascii_lowercase().as_str() {
            "text" | "txt" | "plain" => Ok(Format::Text),
            "md" | "markdown" => Ok(Format::Markdown),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(CoreError::Report {
                message: format!(
                    "unknown format `{other}` (known: {})",
                    Format::ALL.map(Format::name).join(", ")
                ),
            }),
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Renders one table. [`Format::Json`] emits the table *structure*
/// (title, headers, rows, notes) as deterministic JSON — use
/// [`report`] when the canonical full-report JSON is wanted instead.
pub fn table(t: &Table, format: Format) -> String {
    match format {
        Format::Text => t.to_string(),
        Format::Markdown => t.to_markdown(),
        Format::Csv => t.to_csv(),
        Format::Json => Json::obj(vec![
            ("title", Json::Str(t.title().to_string())),
            (
                "headers",
                Json::Arr(t.headers().iter().map(|h| Json::Str(h.clone())).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    t.rows()
                        .map(|row| Json::Arr(row.map(|c| Json::Str(c.to_string())).collect()))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(t.notes().iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ])
        .emit(),
    }
}

/// Renders a report through a table view — the one function behind
/// every preset's `--format` flag. [`Format::Json`] bypasses the
/// view and emits the canonical [`StudyReport::to_json`] (so the
/// output can be parsed back and re-rendered any other way);
/// the table formats render `view(report)`.
///
/// # Errors
///
/// Propagates the view's shape errors.
///
/// # Examples
///
/// ```
/// use aging_cache::render::{self, Format};
/// use aging_cache::report::Table;
/// use aging_cache::study::StudyReport;
///
/// # fn main() -> Result<(), aging_cache::CoreError> {
/// let report = StudyReport::from_records("demo", vec![]);
/// let view = |r: &StudyReport| {
///     Ok(Table::new(r.name(), vec!["records".into()]))
/// };
/// let json = render::report(&report, view, Format::Json)?;
/// assert_eq!(StudyReport::from_json(&json)?.name(), "demo");
/// assert!(render::report(&report, view, Format::Csv)?.starts_with("records"));
/// # Ok(())
/// # }
/// ```
pub fn report(
    r: &StudyReport,
    view: impl FnOnce(&StudyReport) -> Result<Table, CoreError>,
    format: Format,
) -> Result<String, CoreError> {
    if format == Format::Json {
        return Ok(r.to_json());
    }
    Ok(table(&view(r)?, format))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", vec!["a".into(), "b,c".into()]);
        t.push_row(vec!["1".into(), "x\"y\"".into()]);
        t.push_note("hello");
        t
    }

    #[test]
    fn format_parse_roundtrip() {
        for f in Format::ALL {
            assert_eq!(Format::parse(f.name()).unwrap(), f);
        }
        assert!(Format::parse("yaml").is_err());
    }

    #[test]
    fn table_formats_dispatch() {
        let t = sample();
        assert!(table(&t, Format::Text).contains("=== T ==="));
        assert!(table(&t, Format::Markdown).contains("|---|"));
        assert_eq!(table(&t, Format::Csv), "a,\"b,c\"\n1,\"x\"\"y\"\"\"\n");
        let json = table(&t, Format::Json);
        assert!(json.contains("\"title\":\"T\""), "{json}");
        assert!(json.contains("\"notes\":[\"hello\"]"), "{json}");
    }

    #[test]
    fn report_json_bypasses_the_view() {
        let r = StudyReport::from_records("x", vec![]);
        let out = report(
            &r,
            |_| {
                Err(CoreError::Report {
                    message: "view must not run for json".into(),
                })
            },
            Format::Json,
        )
        .unwrap();
        assert_eq!(out, r.to_json());
    }
}
