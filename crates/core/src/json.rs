//! A minimal, dependency-free JSON codec for study reports.
//!
//! The workspace builds in fully offline environments, so it cannot pull
//! `serde`/`serde_json` from a registry. This module is the stand-in: a
//! small [`Json`] value type with a deterministic compact emitter and a
//! strict recursive-descent parser.
//!
//! The emitter is deterministic — the Study API's parallel-vs-sequential
//! test compares reports byte-for-byte, so object keys are emitted in
//! insertion order and numbers use Rust's shortest round-trip
//! formatting, written straight into the output buffer with no
//! allocation per number.
//!
//! The parser runs in time linear in its input: string contents are
//! copied a run at a time up to the next `"` or `\`, and nesting is
//! capped at [`MAX_DEPTH`], so untrusted input (a `POST /compare` body,
//! a hand-edited journal) fails with a [`JsonError`] naming the byte
//! offset instead of hanging or overflowing the stack. `\u` escapes
//! decode UTF-16 surrogate pairs, as written by other JSON encoders for
//! characters outside the Basic Multilingual Plane.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Emitted with shortest-round-trip formatting, so parsing
    /// the emitted text recovers the exact `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved (and therefore deterministic).
    Obj(Vec<(String, Json)>),
}

/// A parse or shape error from the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, with enough context to locate the problem.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
    })
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of numbers from a float slice.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, or a shape error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a number (or one of
    /// the emitter's tagged non-finite strings, which decode back).
    pub fn as_num(&self, what: &str) -> Result<f64, JsonError> {
        match self {
            Json::Num(v) => Ok(*v),
            Json::Str(s) if s == "NaN" => Ok(f64::NAN),
            Json::Str(s) if s == "+Inf" => Ok(f64::INFINITY),
            Json::Str(s) if s == "-Inf" => Ok(f64::NEG_INFINITY),
            other => err(format!("expected number for {what}, got {other:?}")),
        }
    }

    /// The value as a string slice, or a shape error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string for {what}, got {other:?}")),
        }
    }

    /// The value as an array slice, or a shape error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not an array.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array for {what}, got {other:?}")),
        }
    }

    /// Fetches `key` from an object, erroring if absent.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if `self` is not an object or lacks the key.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self.get(key) {
            Some(v) => Ok(v),
            None => err(format!("missing field `{key}`")),
        }
    }

    /// Emits compact JSON text. Deterministic: key order is preserved and
    /// floats use shortest round-trip formatting.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // `Display` for f64 is shortest-round-trip, like
                    // `Debug`, but drops the trailing `.0` on integers.
                    // Writing to a `String` cannot fail.
                    let _ = write!(out, "{v}");
                } else {
                    // Non-finite values are not representable in strict
                    // JSON; encode them as tagged strings.
                    out.push('"');
                    out.push_str(if v.is_nan() {
                        "NaN"
                    } else if *v > 0.0 {
                        "+Inf"
                    } else {
                        "-Inf"
                    });
                    out.push('"');
                }
            }
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text, in time linear in its length.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, nesting deeper than
    /// [`MAX_DEPTH`], or trailing garbage; the message names the byte
    /// offset of the problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. Reports
/// and journal lines nest a handful of levels; the cap keeps a
/// pathological `[[[[…` input from exhausting the parser's stack.
pub const MAX_DEPTH: usize = 128;

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes
        .get(*pos..)
        .is_some_and(|r| r.starts_with(word.as_bytes()))
    {
        *pos += word.len();
        Ok(value)
    } else {
        err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    let start = *pos;
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash as one slice:
        // the cut lands on an ASCII byte, so it is a char boundary.
        let rest = bytes.get(*pos..).unwrap_or(&[]);
        let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
            return err(format!("unterminated string starting at byte {start}"));
        };
        out.push_str(text.get(*pos..*pos + run).unwrap_or(""));
        *pos += run;
        if bytes.get(*pos) == Some(&b'"') {
            *pos += 1;
            return Ok(out);
        }
        // A backslash: decode one escape.
        let escape = *pos;
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                out.push(parse_unicode_escape(bytes, pos, escape)?);
                continue;
            }
            _ => return err(format!("bad escape at byte {escape}")),
        }
        *pos += 1;
    }
}

/// Decodes the `\uXXXX` escape whose backslash sits at byte `escape`
/// (`*pos` is on its `u`), joining a UTF-16 surrogate pair into one
/// character, and leaves `*pos` just past the escape (or the pair).
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize, escape: usize) -> Result<char, JsonError> {
    let high = hex4(bytes, *pos + 1, escape)?;
    *pos += 5;
    let code = match high {
        0xD800..=0xDBFF => {
            let low = match bytes.get(*pos..*pos + 2) {
                Some(b"\\u") => hex4(bytes, *pos + 2, *pos)?,
                _ => 0,
            };
            if !(0xDC00..=0xDFFF).contains(&low) {
                return err(format!("unpaired surrogate \\u{high:04x} at byte {escape}"));
            }
            *pos += 6;
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        }
        0xDC00..=0xDFFF => {
            return err(format!("unpaired surrogate \\u{high:04x} at byte {escape}"));
        }
        code => code,
    };
    // Every non-surrogate code point up to U+10FFFF is a `char`.
    char::from_u32(code).ok_or_else(|| JsonError {
        message: format!("invalid \\u escape at byte {escape}"),
    })
}

/// The value of exactly four hex digits at `at`, for the escape whose
/// backslash sits at byte `escape`.
fn hex4(bytes: &[u8], at: usize, escape: usize) -> Result<u32, JsonError> {
    match bytes.get(at..at + 4) {
        Some(digits) if digits.iter().all(u8::is_ascii_hexdigit) => {
            Ok(digits.iter().fold(0, |code, &d| {
                // `is_ascii_hexdigit` held, so `to_digit` cannot fail.
                code * 16 + (d as char).to_digit(16).unwrap_or(0)
            }))
        }
        _ => err(format!(
            "\\u escape at byte {escape} needs exactly four hex digits"
        )),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    ) {
        *pos += 1;
    }
    // The consumed range is all ASCII, so this never fails; an empty
    // or malformed span falls through to the number-parse error below.
    let text = bytes
        .get(start..*pos)
        .and_then(|s| std::str::from_utf8(s).ok())
        .unwrap_or("");
    match text.parse::<f64>() {
        Ok(v) => Ok(Json::Num(v)),
        Err(_) => err(format!("invalid number `{text}` at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_roundtrip() {
        let v = Json::obj(vec![
            ("name", Json::Str("study \"A\"\n".into())),
            ("count", Json::Num(3.0)),
            ("pi", Json::Num(0.1 + 0.2)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::nums(&[1.5, -2.25, 1e-9])),
        ]);
        let text = v.emit();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -0.0] {
            let text = Json::Num(v).emit();
            match Json::parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(v.to_bits(), back.to_bits(), "{text}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_numbers_roundtrip_via_tagged_strings() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let text = Json::Num(v).emit();
            let back = Json::parse(&text).unwrap().as_num("v").unwrap();
            assert_eq!(v.is_nan(), back.is_nan());
            if !v.is_nan() {
                assert_eq!(v, back, "{text}");
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nested_structures_parse() {
        let v = Json::parse(r#"{"a": [1, {"b": "c"}, null], "d": false}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_arr("a").unwrap().len(), 3);
        assert_eq!(v.field("d").unwrap(), &Json::Bool(false));
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        // What an ASCII-only encoder (Python's `json.dumps`) writes for
        // non-ASCII text.
        let v = Json::parse(r#""\ud83d\ude00 caf\u00e9 \u20AC""#).unwrap();
        assert_eq!(v, Json::Str("\u{1f600} café €".into()));
        // The emitter writes such characters raw, and they round-trip.
        assert_eq!(Json::parse(&v.emit()).unwrap(), v);
    }

    #[test]
    fn malformed_unicode_escapes_name_their_offset() {
        for (text, offset) in [
            (r#""\ud83d""#, 1),
            (r#""ab\ud83dx""#, 3),
            (r#""\ud83d\u0041""#, 1),
            (r#""\ude00""#, 1),
            (r#""\u+abc""#, 1),
            (r#""\u12""#, 1),
            (r#""\u12g4""#, 1),
            (r#""x\ud83d\uzzzz""#, 8),
        ] {
            let e = Json::parse(text).unwrap_err();
            assert!(
                e.message.contains(&format!("at byte {offset}")),
                "{text}: {e}"
            );
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(1 << 20);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting deeper than"), "{e}");
        assert!(Json::parse(&"{\"a\":".repeat(1 << 16)).is_err());
    }

    #[test]
    fn key_order_is_preserved() {
        let v = Json::obj(vec![("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.emit(), r#"{"z":1,"a":2}"#);
    }
}
