//! Hand-rolled JSON support — the workspace builds offline, so there is
//! no serde. The writer emits compact objects field-by-field; the
//! parser is a small recursive-descent reader for the snapshot files
//! this crate itself produces (objects, arrays, strings, unsigned
//! integers, booleans, null). It is not a general-purpose validator —
//! it accepts exactly the JSON this crate writes, plus whitespace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Incremental writer for one compact JSON object.
pub struct JsonWriter {
    buf: String,
    first: bool,
}

impl JsonWriter {
    /// Starts an object (`{`).
    #[must_use]
    pub fn object() -> JsonWriter {
        JsonWriter { buf: String::from("{"), first: true }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
    }

    /// Appends `"name":"value"` with escaping.
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
    }

    /// Appends `"name":123`.
    pub fn u64_field(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends `"name":true|false`.
    pub fn bool_field(&mut self, name: &str, value: bool) {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Appends `"name":<raw>` where `raw` is already-valid JSON.
    pub fn raw_field(&mut self, name: &str, raw: &str) {
        self.key(name);
        self.buf.push_str(raw);
    }

    /// Closes the object and returns the string.
    #[must_use]
    pub fn close(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escapes `s` into `out` per JSON string rules.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value (unsigned-integer numbers only — all quantities
/// in this crate are event counts and cycle totals).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. Committed
/// documents nest fewer than 10 levels; the cap bounds the parser's
/// recursion, so a hostile line of nested `[` is an error, not a stack
/// overflow that aborts the process.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, requiring it to span the whole input.
///
/// # Errors
///
/// The first syntax error, or nesting deeper than [`MAX_DEPTH`], with
/// its byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` enclosing
/// arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() => parse_num(b, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unmodified.
                let len = utf8_len(c);
                let chunk = b
                    .get(*pos..*pos + len)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or_else(|| format!("bad utf-8 at byte {}", *pos))?;
                out.push_str(chunk);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_then_parser_roundtrip() {
        let mut w = JsonWriter::object();
        w.str_field("name", "tree\"add\n");
        w.u64_field("count", 42);
        w.bool_field("ok", true);
        w.raw_field("list", "[1,2,3]");
        let text = w.close();
        let v = parse(&text).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["name"].as_str(), Some("tree\"add\n"));
        assert_eq!(obj["count"].as_u64(), Some(42));
        assert_eq!(obj["ok"], Json::Bool(true));
        assert_eq!(obj["list"].as_arr().unwrap().len(), 3);
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"))
        );
        // A hostile line: a million unclosed brackets on a default-size
        // test thread stack.
        let err = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
        let err = parse(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
    }

    /// Round-trips a string through the writer and parser and asserts
    /// it comes back unchanged.
    fn roundtrip(s: &str) {
        let mut w = JsonWriter::object();
        w.str_field("v", s);
        let text = w.close();
        let v = parse(&text).unwrap_or_else(|e| panic!("parse of {text:?} failed: {e}"));
        assert_eq!(v.as_obj().unwrap()["v"].as_str(), Some(s), "round-trip of {s:?}");
    }

    #[test]
    fn escaping_roundtrips_control_characters() {
        roundtrip("\u{0}");
        roundtrip("\u{1}\u{2}\u{3}");
        roundtrip("a\nb\rc\td");
        roundtrip("\u{8}\u{c}\u{b}"); // backspace, form feed, vertical tab
        roundtrip("\u{1f}\u{7f}"); // unit separator; DEL is not escaped but must survive
                                   // Every C0 control character, individually.
        for c in 0u32..0x20 {
            let s = char::from_u32(c).map(String::from).expect("C0 is valid char");
            roundtrip(&s);
        }
    }

    #[test]
    fn escaping_roundtrips_non_ascii() {
        roundtrip("héllo wörld");
        roundtrip("日本語のラベル");
        roundtrip("emoji \u{1f980} crab"); // astral plane (4-byte UTF-8)
        roundtrip("mixed: ascii → ünïcode → 漢字");
    }

    #[test]
    fn escaping_roundtrips_embedded_quotes_and_backslashes() {
        roundtrip(r#"run start: "treeadd"/cheri"#);
        roundtrip(r"back\slash");
        roundtrip(r#"\" tricky \\" nested"#);
        roundtrip("\"\\\"\\"); // quote, backslash, quote, backslash
        roundtrip("already-escaped-looking: \\n \\u0041");
    }

    #[test]
    fn escaped_control_chars_render_as_unicode_escapes() {
        let mut w = JsonWriter::object();
        w.str_field("v", "\u{1}\n\"x\\");
        let text = w.close();
        // Raw control bytes must not appear in the output.
        assert!(text.bytes().all(|b| b >= 0x20), "output has raw control bytes: {text:?}");
        assert_eq!(text, "{\"v\":\"\\u0001\\n\\\"x\\\\\"}");
    }
}
