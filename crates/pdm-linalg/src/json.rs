//! A minimal JSON tree with a deterministic writer and a strict parser.
//!
//! Every machine-readable artifact in the workspace — the `BENCH_*.json`
//! reports of `pdm-bench` and the tenant-state snapshots of `pdm-service` —
//! serialises through this hand-rolled module; the workspace has no serde.  It
//! lives here because `pdm-linalg` is the dependency-free root of the crate
//! DAG, so both producers can share one implementation.  Two properties
//! matter for those pipelines and are covered by tests:
//!
//! * **Determinism** — object keys keep insertion order and numbers go
//!   through the writer behind [`write_f64`], which writes exactly `f64`'s
//!   `Display` bytes: the shortest decimal that parses back to the same
//!   bits, an exact tie between two such decimals rounded up, never an
//!   exponent.  So the same report always produces the same bytes (the
//!   determinism suite compares outputs of runs with different worker
//!   counts byte-for-byte), and the text stays readable decimal for
//!   offline audit.
//! * **Round-trip** — `parse(render(v))` reproduces `v` for every value this
//!   module can emit.  Non-finite numbers are written as `null` (JSON has no
//!   NaN/inf) and read back as NaN.  Finite numbers round-trip *exactly*,
//!   which is what makes JSON snapshots bit-faithful.  The parser reads
//!   numbers in RFC 8259's grammar only and refuses a literal that
//!   overflows `f64`, so no text reads back as an infinity.
//!
//! Object keys are a [`Key`], a `Cow<'static, str>`.  The writers name
//! their fields with string literals, so [`Json::obj`] borrows those keys
//! and building a tree allocates no string per key.  Only [`Json::parse`]
//! and writers whose keys are runtime names (a metric registry's entries)
//! own theirs.  Lookup with [`Json::get`] and `==` compare the text alone,
//! so a borrowed and an owned key are the same key.
//!
//! [`Json::render`] and [`Json::render_pretty`] share one writer that
//! appends every token of the tree to a single byte buffer (numbers with
//! one copy each from the float writer's stack buffer) and turns it into
//! the document's `String` with one UTF-8 check at the end.

use std::borrow::Cow;

mod float;
mod pow5;

pub use float::write_f64;

/// An object key: borrowed for the writers' fixed field names, owned for
/// parsed documents and runtime names.
pub type Key = Cow<'static, str>;

/// A JSON value.  Objects preserve insertion order (no map type) so renders
/// are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also used to encode non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list.
    Obj(Vec<(Key, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (keeps the given order).  A
    /// `&'static str` key is borrowed, a `String` key moved in.
    #[must_use]
    pub fn obj<K: Into<Key>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    /// Looks up a key in an object (`None` for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.  `Null` reads back as NaN (the writer encodes
    /// non-finite numbers as `null`), anything else is `None`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives, fractions and
    /// anything from 2^64 up).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        // Not `<= u64::MAX as f64`: that cast rounds up to 2^64 itself.
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        Writer::document(self, None)
    }

    /// Renders the value with two-space indentation and a trailing newline,
    /// the format the `BENCH_*.json` files are written in.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        Writer::document(self, Some(2))
    }

    /// Parses a JSON document, requiring it to span the whole input.
    /// Arrays and objects nested deeper than 128 levels (`MAX_DEPTH`) are
    /// an `Err` naming the byte offset, so hostile input cannot exhaust the
    /// stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.  The
/// workspace writes at most a handful of levels; the cap keeps the
/// recursive reader's stack use bounded.
const MAX_DEPTH: usize = 128;

/// The one JSON writer: renders a tree into a single byte buffer, which
/// becomes the document's `String` at the end.
struct Writer {
    out: Vec<u8>,
    /// The pretty form's indentation width; `None` writes compact JSON.
    indent: Option<usize>,
}

impl Writer {
    /// `value` as one document: compact, or pretty with a trailing newline
    /// when `indent` is set.  The buffer becomes the `String` with one
    /// check; every byte came from a `&str` copied whole, or is ASCII.
    fn document(value: &Json, indent: Option<usize>) -> String {
        let mut writer = Writer {
            out: Vec::new(),
            indent,
        };
        writer.value(value, 0);
        if indent.is_some() {
            writer.out.push(b'\n');
        }
        match String::from_utf8(writer.out) {
            Ok(text) => text,
            Err(_) => unreachable!("the writer copies whole strings and ASCII"),
        }
    }

    /// Writes `value`, nested `level` sequences deep.
    fn value(&mut self, value: &Json, level: usize) {
        match value {
            Json::Null => self.out.extend_from_slice(b"null"),
            Json::Bool(b) => self
                .out
                .extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Num(n) if n.is_finite() => float::push_f64(&mut self.out, *n),
            Json::Num(_) => self.out.extend_from_slice(b"null"),
            Json::Str(s) => write_escaped(&mut self.out, s),
            Json::Arr(items) => {
                self.out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    self.item(i, level);
                    self.value(item, level + 1);
                }
                self.close(b']', items.is_empty(), level);
            }
            Json::Obj(pairs) => {
                self.out.push(b'{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    self.item(i, level);
                    write_escaped(&mut self.out, key);
                    self.out.extend_from_slice(match self.indent {
                        Some(_) => b": ",
                        None => b":",
                    });
                    self.value(value, level + 1);
                }
                self.close(b'}', pairs.is_empty(), level);
            }
        }
    }

    /// Starts item `i` of a sequence at `level`: a comma after the first,
    /// and in the pretty form a new line one level deeper.
    fn item(&mut self, i: usize, level: usize) {
        if i > 0 {
            self.out.push(b',');
        }
        self.new_line(level + 1);
    }

    /// Closes a sequence at `level`; a non-empty one in the pretty form
    /// closes on a line of its own.
    fn close(&mut self, bracket: u8, empty: bool, level: usize) {
        if !empty {
            self.new_line(level);
        }
        self.out.push(bracket);
    }

    /// A new line indented to `level`, in the pretty form only.
    fn new_line(&mut self, level: usize) {
        if let Some(width) = self.indent {
            self.out.push(b'\n');
            self.out.resize(self.out.len() + width * level, b' ');
        }
    }
}

/// Writes `s` as a string literal.  Only `"`, `\\` and the control
/// characters below U+0020 are escaped.  All of them are ASCII, so every run
/// between two of them is a whole UTF-8 sequence and is copied as one slice:
/// a key or label that needs no escape is a single `extend_from_slice`.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let mut rest = s.as_bytes();
    while let Some(at) = rest
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.extend_from_slice(&rest[..at]);
        match rest[at] {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            control => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(control >> 4)],
                HEX[usize::from(control & 0xf)],
            ]),
        }
        rest = &rest[at + 1..];
    }
    out.extend_from_slice(rest);
    out.push(b'"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
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
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
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
                expect(bytes, pos, ":")?;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((Key::Owned(key), value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash as one slice.  Both
        // are ASCII and the input is a `&str`, so the run ends on a char
        // boundary and needs no re-validation.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(text.get(*pos..*pos + run).ok_or("invalid UTF-8")?);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
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
            Some(b'u') => out.push(parse_unicode_escape(bytes, pos)?),
            _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
        }
        *pos += 1;
    }
}

/// Decodes the `\uXXXX` escape whose `u` is at `*pos`, leaving `*pos` on its
/// last hex digit.  A high surrogate must be followed by an escaped low
/// surrogate, and the pair combines into one astral character; a lone
/// surrogate of either kind is an error.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let start = *pos - 1;
    let high = hex4(bytes, *pos + 1)?;
    *pos += 4;
    let code = match high {
        0xd800..=0xdbff => {
            let low = match bytes.get(*pos + 1..*pos + 3) {
                Some(b"\\u") => hex4(bytes, *pos + 3)?,
                _ => return Err(format!("lone surrogate \\u escape at byte {start}")),
            };
            if !(0xdc00..=0xdfff).contains(&low) {
                return Err(format!("lone surrogate \\u escape at byte {start}"));
            }
            *pos += 6;
            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
        }
        code => code,
    };
    char::from_u32(code).ok_or_else(|| format!("lone surrogate \\u escape at byte {start}"))
}

/// The four hex digits of a `\u` escape starting at byte `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
        .map_err(|_| "bad \\u escape".to_owned())
}

/// Reads a number in RFC 8259's grammar,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.  A literal beyond
/// `f64`'s range is an error; one below it reads as zero.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    let invalid = |pos: usize| format!("invalid number at byte {pos}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // A leading zero stands alone: `01` ends the number after the `0`.
    if bytes.get(*pos) == Some(&b'0') {
        *pos += 1;
    } else if !digits(pos) {
        return Err(invalid(*pos));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(invalid(*pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(invalid(*pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| invalid(start))?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        Ok(_) => Err(format!("number `{text}` at byte {start} overflows f64")),
        Err(_) => Err(invalid(start)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fmt::Write as _;

    #[test]
    fn renders_compact_and_pretty() {
        let value = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::str("x\ny")),
        ]);
        assert_eq!(value.render(), r#"{"a":1,"b":[true,null],"c":"x\ny"}"#);
        let pretty = value.render_pretty();
        assert!(pretty.contains("\n  \"a\": 1,"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn round_trips_every_emittable_value() {
        let numbers = [
            42.0,
            -0.125,
            1.234e-9,
            -0.0,
            5e-324,
            f64::MAX,
            1e21,
            // An exact tie, which `write_f64` rounds up as `Display` does.
            f64::from_bits(0x4317_9085_685d_83c9),
        ];
        for x in numbers {
            let text = Json::Num(x).render();
            assert_eq!(text, format!("{x}"));
            let back = Json::parse(&text).ok().and_then(|v| v.as_f64());
            assert_eq!(back.map(f64::to_bits), Some(x.to_bits()), "{text}");
        }
        let value = Json::obj(vec![
            ("int", Json::Num(42.0)),
            ("neg", Json::Num(-0.125)),
            ("tiny", Json::Num(1.234e-9)),
            (
                "numbers",
                Json::Arr(numbers.iter().map(|&x| Json::Num(x)).collect()),
            ),
            ("nan_as_null", Json::Num(f64::NAN)),
            ("text", Json::str("quotes \" and \\ and unicode é")),
            ("flag", Json::Bool(false)),
            (
                "nested",
                Json::Arr(vec![Json::obj(vec![("k", Json::Num(7.5))])]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = value.render();
        let reparsed = Json::parse(&text).expect("parse");
        // NaN rendered as null, so compare via a second render.
        assert_eq!(reparsed.render(), text);
        // Pretty form parses back to the same tree as the compact form.
        assert_eq!(Json::parse(&value.render_pretty()).unwrap(), reparsed);
    }

    #[test]
    fn accessors_navigate_objects() {
        let value = Json::parse(r#"{"n": 3, "s": "hi", "a": [1, 2], "x": null}"#).unwrap();
        assert_eq!(value.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(value.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(
            value.get("a").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert!(value.get("x").and_then(Json::as_f64).unwrap().is_nan());
        assert!(value.get("missing").is_none());
        assert_eq!(value.get("s").and_then(Json::as_u64), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn as_u64_stops_below_two_to_the_64() {
        // 2^64 is what `u64::MAX as f64` rounds to; it does not fit.
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        // The largest double below 2^64 does.
        assert_eq!(
            Json::Num(18_446_744_073_709_549_568.0).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for (text, bits) in [
            ("0", 0f64.to_bits()),
            ("-0", (-0f64).to_bits()),
            ("-0.0e0", (-0f64).to_bits()),
            ("1E+2", 100f64.to_bits()),
            ("123.456e-7", 123.456e-7f64.to_bits()),
            // Underflow is legal and reads as zero.
            ("1e-400", 0f64.to_bits()),
            ("-1e-400", (-0f64).to_bits()),
        ] {
            let parsed = Json::parse(text).ok().and_then(|v| v.as_f64());
            assert_eq!(parsed.map(f64::to_bits), Some(bits), "{text}");
        }
        for text in [
            "+1",
            ".5",
            "5.",
            "01",
            "-01",
            "1.e3",
            "-",
            "-.5",
            "--1",
            "1e",
            "1e+",
            "1.5e",
            "0x10",
            "Infinity",
            "-Infinity",
            "NaN",
            "1e400",
            "-1e400",
            "[01]",
            "[1.]",
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text}");
        }
        assert_eq!(
            Json::parse("[1, 1e400]"),
            Err("number `1e400` at byte 4 overflows f64".to_owned())
        );
        assert_eq!(
            Json::parse(r#"{"a": 1.e3}"#),
            Err("invalid number at byte 8".to_owned())
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\ttab \"quoted\" back\\slash \u{1}control";
        let rendered = Json::Str(original.to_owned()).render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
        // Standard escapes the writer never emits still parse.
        assert_eq!(
            Json::parse(r#""A\b\f\/""#).unwrap().as_str(),
            Some("A\u{8}\u{c}/")
        );
    }

    #[test]
    fn unicode_escapes_combine_surrogate_pairs() {
        for text in [r#""\ud83d\ude00""#, r#""\uD83D\uDE00""#] {
            assert_eq!(Json::parse(text).unwrap().as_str(), Some("\u{1f600}"));
        }
        assert_eq!(
            Json::parse(r#""a\u00e9\u20ACz""#).unwrap().as_str(),
            Some("aé€z")
        );
        // A lone surrogate of either kind is rejected, not replaced.
        for text in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ude0""#,
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        // 200 000 levels would overflow the stack of a recursive reader.
        let deep = 200_000;
        let text = "[".repeat(deep);
        assert_eq!(
            Json::parse(&text),
            Err("nesting deeper than 128 levels at byte 128".to_owned())
        );
        let text = format!("{}{}", "{\"k\":".repeat(deep), "null");
        assert!(Json::parse(&text).unwrap_err().contains("nesting deeper"));

        // The cap itself is accepted.
        let mut value = Json::Null;
        for _ in 0..MAX_DEPTH {
            value = Json::Arr(vec![value]);
        }
        assert_eq!(Json::parse(&value.render()).as_ref(), Ok(&value));
    }

    // The vendored proptest has no string or recursive strategies, so the
    // properties build their inputs from one drawn seed, which a failure
    // report prints next to the input itself.

    /// ASCII, control characters, the escaped punctuation, and 2-, 3- and
    /// 4-byte UTF-8 scalars (surrogates are not scalars).
    fn random_char(rng: &mut StdRng) -> char {
        let code: u32 = match rng.gen_range(0..6) {
            0 => rng.gen_range(0x20..0x7f),
            1 => rng.gen_range(0..0x20),
            2 => u32::from([b'"', b'\\', b'/'][rng.gen_range(0..3usize)]),
            3 => rng.gen_range(0x80..0xd800),
            4 => rng.gen_range(0xe000..0x1_0000),
            _ => rng.gen_range(0x1_0000..0x11_0000),
        };
        char::from_u32(code).unwrap()
    }

    fn random_string(rng: &mut StdRng, max_len: usize) -> String {
        let len = rng.gen_range(0..=max_len);
        (0..len).map(|_| random_char(rng)).collect()
    }

    fn random_number(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            5 => -f64::from_bits(rng.gen_range(1..1u64 << 52)),
            6 => [f64::MIN_POSITIVE, f64::MAX, f64::MIN, f64::EPSILON][rng.gen_range(0..4usize)],
            7 => f64::from_bits(rng.gen()),
            8 => f64::from(rng.gen_range(-100_000..1_000_000)),
            _ => rng.gen_range(-1e6..1e6),
        }
    }

    fn random_tree(rng: &mut StdRng, depth: u32) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen()),
            2 => Json::Num(random_number(rng)),
            3 => Json::Str(random_string(rng, 8)),
            4 => Json::Arr(
                (0..rng.gen_range(0..6))
                    .map(|_| random_tree(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0..6))
                    .map(|_| (random_string(rng, 6).into(), random_tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Writes `s` as a JSON string literal choosing, per character, a raw
    /// copy, its short escape, or a `\u` escape (a surrogate pair above
    /// the BMP) in either hex case.
    fn escape_randomly(rng: &mut StdRng, s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let must_escape = c == '"' || c == '\\';
            match (rng.gen_range(0..3), short) {
                (0, _) if !must_escape => out.push(c),
                (1, Some(escape)) => out.push_str(escape),
                _ => {
                    let mut units = [0u16; 2];
                    for unit in c.encode_utf16(&mut units) {
                        if rng.gen() {
                            let _ = write!(out, "\\u{unit:04x}");
                        } else {
                            let _ = write!(out, "\\u{unit:04X}");
                        }
                    }
                }
            }
        }
        out.push('"');
        out
    }

    /// A string writer that decides char by char: the oracle of
    /// `write_escaped`, which copies the runs between escapes.
    fn write_escaped_per_char(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// The `String` writer the byte writer replaced, kept as its oracle:
    /// a closure per sequence, a `String` per indent, and numbers through
    /// `Display` itself.
    fn write_oracle(value: &Json, out: &mut String, indent: Option<usize>, level: usize) {
        match value {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped_per_char(out, s),
            Json::Arr(items) => {
                write_sequence(out, indent, level, '[', ']', items.len(), |out, i| {
                    write_oracle(&items[i], out, indent, level + 1);
                });
            }
            Json::Obj(pairs) => {
                write_sequence(out, indent, level, '{', '}', pairs.len(), |out, i| {
                    let (key, value) = &pairs[i];
                    write_escaped_per_char(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_oracle(value, out, indent, level + 1);
                });
            }
        }
    }

    /// The oracle's shared body/indentation logic for arrays and objects.
    fn write_sequence(
        out: &mut String,
        indent: Option<usize>,
        level: usize,
        open: char,
        close: char,
        len: usize,
        mut write_item: impl FnMut(&mut String, usize),
    ) {
        out.push(open);
        if len == 0 {
            out.push(close);
            return;
        }
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(width) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(width * (level + 1)));
            }
            write_item(out, i);
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * level));
        }
        out.push(close);
    }

    #[test]
    fn keys_compare_by_text_whether_borrowed_or_owned() {
        let written = Json::obj(vec![("a", Json::Num(1.0)), ("b", Json::Null)]);
        let parsed = Json::parse(r#"{"a":1,"b":null}"#).unwrap();
        assert!(matches!(&written, Json::Obj(pairs) if matches!(pairs[0].0, Key::Borrowed(_))));
        assert!(matches!(&parsed, Json::Obj(pairs) if matches!(pairs[0].0, Key::Owned(_))));
        assert_eq!(written, parsed);
        assert_eq!(parsed.get("b"), Some(&Json::Null));
        let runtime = Json::obj(vec![(String::from("a"), Json::Num(1.0))]);
        assert_eq!(runtime.get("a"), written.get("a"));
    }

    /// `value` as the text codec writes it: non-finite numbers become
    /// `null`.
    fn as_written(value: &Json) -> Json {
        match value {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(as_written).collect()),
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(key, value)| (key.clone(), as_written(value)))
                    .collect(),
            ),
            _ => value.clone(),
        }
    }

    /// Structural equality that compares every number by its bits, so
    /// `-0.0` and `0.0` differ.
    fn same_bits(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(xs), Json::Arr(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
            }
            (Json::Obj(xs), Json::Obj(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
            }
            _ => a == b,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_strings_round_trip_through_text(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let original = random_string(&mut rng, 64);
            let rendered = Json::Str(original.clone()).render();
            let parsed = Json::parse(&rendered);
            prop_assert!(
                parsed.as_ref().ok().and_then(Json::as_str) == Some(original.as_str()),
                "input {original:?} rendered {rendered:?} parsed {parsed:?}"
            );
            let escaped = escape_randomly(&mut rng, &original);
            let parsed = Json::parse(&escaped);
            prop_assert!(
                parsed.as_ref().ok().and_then(Json::as_str) == Some(original.as_str()),
                "input {original:?} escaped {escaped:?} parsed {parsed:?}"
            );
        }

        #[test]
        fn strings_are_written_as_the_per_char_writer_writes_them(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mixed = random_string(&mut rng, 48);
            // The same text without any character that needs an escape.
            let clean: String = mixed
                .chars()
                .filter(|&c| u32::from(c) >= 0x20 && c != '"' && c != '\\')
                .collect();
            for text in [&mixed, &clean] {
                let (mut fast, mut oracle) = (Vec::new(), String::new());
                write_escaped(&mut fast, text);
                write_escaped_per_char(&mut oracle, text);
                prop_assert!(
                    fast == oracle.as_bytes(),
                    "input {text:?}: wrote {:?}, per char {oracle:?}",
                    String::from_utf8_lossy(&fast)
                );
            }
        }

        #[test]
        fn numbers_render_as_display_and_parse_back(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..16 {
                let x = random_number(&mut rng);
                let text = Json::Num(x).render();
                let expected = if x.is_finite() { format!("{x}") } else { "null".to_owned() };
                prop_assert_eq!(&text, &expected);
                let back = Json::parse(&text).ok().and_then(|v| v.as_f64());
                let same = back.is_some_and(|b| b.to_bits() == x.to_bits() || (b.is_nan() && !x.is_finite()));
                prop_assert!(same, "{x:?} rendered {text} parsed {back:?}");
            }
        }

        #[test]
        fn random_trees_render_as_the_string_writer_renders_them(seed in 0u64..u64::MAX) {
            let value = random_tree(&mut StdRng::seed_from_u64(seed), 4);
            for (indent, rendered) in [(None, value.render()), (Some(2), value.render_pretty())] {
                let mut oracle = String::new();
                write_oracle(&value, &mut oracle, indent, 0);
                if indent.is_some() {
                    oracle.push('\n');
                }
                prop_assert!(rendered == oracle, "input {value:?}\nrendered {rendered:?}\noracle {oracle:?}");
            }
        }

        #[test]
        fn random_trees_round_trip_through_text(seed in 0u64..u64::MAX) {
            let value = random_tree(&mut StdRng::seed_from_u64(seed), 4);
            let rendered = value.render();
            let parsed = Json::parse(&rendered);
            prop_assert!(
                matches!(&parsed, Ok(parsed) if same_bits(parsed, &as_written(&value))),
                "input {value:?}\nrendered {rendered}\nparsed {parsed:?}"
            );
            let again = parsed.map(|parsed| parsed.render());
            prop_assert!(again.as_ref() == Ok(&rendered), "input {value:?}: re-rendering changed the text");
        }
    }
}
