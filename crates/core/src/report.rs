//! Plain-text / markdown table rendering for experiment reports.

use std::fmt::{self, Write as _};

/// A rendered experiment table.
///
/// # Examples
///
/// ```
/// use aging_cache::report::Table;
///
/// let mut t = Table::new("Demo", vec!["bench".into(), "Esav".into()]);
/// t.push_row(vec!["sha".into(), "44.2%".into()]);
/// let text = t.to_string();
/// assert!(text.contains("Demo"));
/// assert!(text.contains("sha"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    /// Every data cell's text, row by row, back to back.
    cells: String,
    /// Where each data cell ends in `cells`, row by row.
    ends: Vec<usize>,
    rows: usize,
    notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Self {
            title: title.into(),
            headers,
            cells: String::new(),
            ends: Vec::new(),
            rows: 0,
            notes: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows added so far, each as its cells in column order.
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_cache::report::Table;
    ///
    /// let mut t = Table::new("Demo", vec!["bench".into(), "Esav".into()]);
    /// t.push_row(vec!["sha".into(), "44.2".into()]);
    /// let rows: Vec<Vec<&str>> = t.rows().map(Iterator::collect).collect();
    /// assert_eq!(rows, [["sha", "44.2"]]);
    /// ```
    pub fn rows(&self) -> impl ExactSizeIterator<Item = impl Iterator<Item = &str>> {
        let width = self.headers.len();
        (0..self.rows).map(move |row| self.row_cells(row, width))
    }

    /// The text of the cell at `row`, `column`, if there is one.
    pub fn cell(&self, row: usize, column: usize) -> Option<&str> {
        let width = self.headers.len();
        if row >= self.rows {
            return None;
        }
        self.row_cells(row, width).nth(column)
    }

    /// Row `row`'s cells; `row` is below `self.rows`.
    fn row_cells(&self, row: usize, width: usize) -> impl Iterator<Item = &str> {
        let first = row * width;
        let mut start = match first.checked_sub(1) {
            Some(last) => self.ends.get(last).copied().unwrap_or(0),
            None => 0,
        };
        let ends = self.ends.get(first..first + width).unwrap_or(&[]);
        ends.iter().map(move |&end| {
            let cell = self.cells.get(start..end).unwrap_or("");
            start = end;
            cell
        })
    }

    /// The footnotes added so far.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header count.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.push_row_with(|cells| {
            for cell in &row {
                cells.text(cell);
            }
        });
    }

    /// Appends a data row whose cells `write` writes straight into the
    /// table, one [`RowWriter`] call per cell, with no string per cell.
    ///
    /// # Panics
    ///
    /// Panics if `write` writes a different number of cells than there
    /// are headers.
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_cache::report::Table;
    ///
    /// let mut t = Table::new("Demo", vec!["kB".into(), "Esav".into()]);
    /// t.push_row_with(|row| {
    ///     row.uint(16).pct(0.4425);
    /// });
    /// assert_eq!(t.cell(0, 1), Some("44.2"));
    /// ```
    pub fn push_row_with(&mut self, write: impl FnOnce(&mut RowWriter<'_>)) {
        let before = self.ends.len();
        let mut row = RowWriter { table: self };
        write(&mut row);
        assert_eq!(
            self.ends.len() - before,
            self.headers.len(),
            "row width must match headers"
        );
        self.rows += 1;
    }

    /// Appends a free-text footnote.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in self.rows() {
            for (w, cell) in w.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        w
    }

    /// Renders as RFC-4180 CSV: the header row then the data rows,
    /// `\n`-terminated, fields quoted only when they contain a comma,
    /// quote or newline (quotes doubled). The title and notes are
    /// presentation, not data, and are deliberately omitted.
    ///
    /// # Examples
    ///
    /// ```
    /// use aging_cache::report::Table;
    ///
    /// let mut t = Table::new("Demo", vec!["bench".into(), "Esav".into()]);
    /// t.push_row(vec!["sha, fast".into(), "44.2".into()]);
    /// assert_eq!(t.to_csv(), "bench,Esav\n\"sha, fast\",44.2\n");
    /// ```
    pub fn to_csv(&self) -> String {
        fn line<'c>(out: &mut String, cells: impl Iterator<Item = &'c str>) {
            for (i, cell) in cells.enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        let mut out = String::new();
        line(&mut out, self.headers.iter().map(String::as_str));
        for row in self.rows() {
            line(&mut out, row);
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table, written row by
    /// row into one buffer sized up front.
    pub fn to_markdown(&self) -> String {
        fn line<'c>(out: &mut String, cells: impl Iterator<Item = &'c str>) {
            out.push_str("| ");
            for (i, cell) in cells.enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(cell);
            }
            out.push_str(" |\n");
        }
        let headers: usize = self.headers.iter().map(|h| h.len() + 3).sum();
        let notes: usize = self.notes.iter().map(|n| n.len() + 4).sum();
        let mut out = String::with_capacity(
            self.title.len()
                + 8
                + 2 * headers
                + 4
                + self.cells.len()
                + (self.ends.len() * 3 + self.rows * 2)
                + notes,
        );
        out.push_str("### ");
        out.push_str(&self.title);
        out.push_str("\n\n");
        line(&mut out, self.headers.iter().map(String::as_str));
        out.push('|');
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in self.rows() {
            line(&mut out, row);
        }
        for note in &self.notes {
            out.push_str("\n*");
            out.push_str(note);
            out.push_str("*\n");
        }
        out
    }
}

/// Writes one data row of a [`Table`] cell by cell
/// ([`Table::push_row_with`]); every method writes one whole cell.
pub struct RowWriter<'t> {
    table: &'t mut Table,
}

impl RowWriter<'_> {
    /// Ends the cell the caller just wrote into `cells`.
    fn end(&mut self) -> &mut Self {
        self.table.ends.push(self.table.cells.len());
        self
    }

    /// A cell holding `text`.
    pub fn text(&mut self, text: &str) -> &mut Self {
        self.table.cells.push_str(text);
        self.end()
    }

    /// A cell holding `v` in decimal.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        push_uint(&mut self.table.cells, v);
        self.end()
    }

    /// A cell holding [`pct`]`(v)`.
    pub fn pct(&mut self, v: f64) -> &mut Self {
        push_fixed(&mut self.table.cells, 100.0 * v, 1);
        self.end()
    }

    /// A cell holding [`years`]`(v)`.
    pub fn years(&mut self, v: f64) -> &mut Self {
        push_years(&mut self.table.cells, v);
        self.end()
    }

    /// A cell holding [`factor`]`(v)`.
    pub fn factor(&mut self, v: f64) -> &mut Self {
        push_fixed(&mut self.table.cells, v, 2);
        self.table.cells.push('x');
        self.end()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "=== {} ===", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &mut dyn Iterator<Item = &str>| {
            for (cell, &width) in cells.zip(&widths) {
                write!(f, "{cell:>width$}  ")?;
            }
            writeln!(f)
        };
        line(f, &mut self.headers.iter().map(String::as_str))?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total))?;
        for mut row in self.rows() {
            line(f, &mut row)?;
        }
        for note in &self.notes {
            writeln!(f, "note: {note}")?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal (`0.443` → `44.3`).
pub fn pct(v: f64) -> String {
    let mut out = String::new();
    push_fixed(&mut out, 100.0 * v, 1);
    out
}

/// Formats years with two decimals.
pub fn years(v: f64) -> String {
    let mut out = String::new();
    push_years(&mut out, v);
    out
}

/// Formats a ratio as `x.xx×`.
pub fn factor(v: f64) -> String {
    let mut out = String::new();
    push_fixed(&mut out, v, 2);
    out.push('x');
    out
}

fn push_years(out: &mut String, v: f64) {
    if v.is_infinite() {
        out.push_str("inf");
    } else {
        push_fixed(out, v, 2);
    }
}

/// Appends `v` in decimal, two digits at a time.
pub(crate) fn push_uint(out: &mut String, mut v: u64) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        if let (Some(to), Some(from)) = (digits.get_mut(at..at + 2), PAIRS.get(pair..pair + 2)) {
            to.copy_from_slice(from);
        }
    }
    if v > 0 || at == digits.len() {
        at -= 1;
        if let Some(d) = digits.get_mut(at) {
            *d = b'0' + v as u8;
        }
    }
    out.push_str(std::str::from_utf8(digits.get(at..).unwrap_or(&[])).unwrap_or(""));
}

/// Appends exactly what `format!("{v:.decimals$}")` writes, for
/// `decimals` of 0, 1 or 2.
///
/// `format!` rounds the exact binary value of `v`, which costs a
/// big-number pass. Here the rounding is decided from `|v| * 10^decimals`
/// as a double, which lies within half an ulp of the exact product.
/// Below 2^40 that ulp is at most 2^-12, so when the double's
/// fractional part is further than 2^-12 from one half the product
/// rounds to the same integer, and that integer is written directly.
/// Non-finite values, values at or above 2^40 once scaled, and values
/// that close to a rounding tie go to `format!`.
fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    const POW10: [u64; 3] = [1, 10, 100];
    let Some(&pow) = POW10.get(decimals) else {
        let _ = write!(out, "{v:.decimals$}");
        return;
    };
    let scaled = v.abs() * pow as f64;
    // NaN and infinities go to `format!` too.
    if scaled.is_nan() || scaled >= (1u64 << 40) as f64 {
        let _ = write!(out, "{v:.decimals$}");
        return;
    }
    let floor = scaled.floor();
    // Exact: below 2^52 the fraction is a whole number of `scaled`'s
    // ulps, and fewer than 2^52 of them.
    let frac = scaled - floor;
    if (frac - 0.5).abs() <= 1.0 / 4096.0 {
        let _ = write!(out, "{v:.decimals$}");
        return;
    }
    let units = floor as u64 + u64::from(frac > 0.5);
    // `format!` keeps the sign of a negative value that rounds to
    // zero, and of -0.0.
    if v.is_sign_negative() {
        out.push('-');
    }
    push_uint(out, units / pow);
    if decimals > 0 {
        out.push('.');
        let frac_units = units % pow;
        if decimals == 2 && frac_units < 10 {
            out.push('0');
        }
        push_uint(out, frac_units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        t.push_note("hello");
        t
    }

    #[test]
    fn display_aligns_columns() {
        let s = sample().to_string();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("333"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn markdown_has_header_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("*hello*"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("T", vec!["a".into()]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.443), "44.3");
        assert_eq!(years(4.315), "4.32");
        assert_eq!(years(f64::INFINITY), "inf");
        assert_eq!(factor(2.0), "2.00x");
    }

    /// A value the fixed-point formatters must get right: an arbitrary
    /// bit pattern, a special value, an exact rounding tie at one or
    /// two decimals (or a double either side of one), a value whose
    /// percentage is such a tie, a small negative that rounds to
    /// `-0.0`, a subnormal, a value near 1e300 or a plain magnitude.
    fn arb_value(g: &mut quickprop::Gen) -> f64 {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324,
            0.005,
            -0.05,
        ];
        let sign = if g.u32_in(0..2) == 0 { 1.0 } else { -1.0 };
        let near = |g: &mut quickprop::Gen, v: f64| match g.u32_in(0..3) {
            0 => v.next_down(),
            1 => v.next_up(),
            _ => v,
        };
        match g.u32_in(0..9) {
            0 => f64::from_bits(g.next_u64()),
            1 => *g.pick(&SPECIAL),
            // n.25, n.75, n.125, …: ties at one and two decimals.
            2 => {
                let tie = g.u64_in(0..1 << 20) as f64 + *g.pick(&[0.25, 0.75, 0.125, 0.375]);
                sign * near(g, tie)
            }
            // 100 v lands on (or next to) a tie at one decimal.
            3 => {
                let tie = (g.u64_in(0..100_000) as f64 + 0.25) / 100.0;
                sign * near(g, tie)
            }
            4 => -g.f64_unit() * 1e-3,
            5 => sign * f64::from_bits(g.u64_in(1..1 << 52)),
            6 => sign * 1e300 * (1.0 + g.f64_unit()),
            7 => sign * g.f64_unit() * 10f64.powi(g.u32_in(0..16) as i32 - 4),
            _ => sign * g.u64_in(0..1 << 40) as f64 / 1000.0,
        }
    }

    #[test]
    fn fast_formatters_agree_with_format() {
        quickprop::cases(
            if cfg!(debug_assertions) {
                4_000
            } else {
                100_000
            },
            |g| {
                let v = arb_value(g);
                assert_eq!(pct(v), format!("{:.1}", 100.0 * v), "pct({v:e})");
                let want = if v.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{v:.2}")
                };
                assert_eq!(years(v), want, "years({v:e})");
                assert_eq!(factor(v), format!("{v:.2}x"), "factor({v:e})");
                let n = match g.u32_in(0..3) {
                    0 => g.next_u64(),
                    1 => g.u64_in(0..1_000),
                    _ => 10u64.pow(g.u32_in(0..20)) - u64::from(g.u32_in(0..2)),
                };
                let mut text = String::new();
                push_uint(&mut text, n);
                assert_eq!(text, n.to_string());
            },
        );
    }
}
