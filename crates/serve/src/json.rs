//! The workspace's hand-rolled JSON reader and writer.
//!
//! Originally this parser lived in `amle-bench`'s perf-diff module; the
//! serving protocol speaks newline-delimited JSON over TCP, so the reader is
//! promoted here and shared: the daemon's protocol, the bench crate's
//! `suite --json` writer and its `perf-diff` reader all go through this one
//! module, not drifting copies.
//!
//! The reader covers the full JSON grammar the suite documents and the
//! protocol use, including `\uXXXX` escapes with surrogate pairs: a valid
//! high/low pair decodes to its supplementary-plane scalar, and a *lone*
//! surrogate is a parse error rather than a silent pair of U+FFFD
//! replacement characters (the bug the old copy had — protocol payloads,
//! unlike suite output, are not guaranteed ASCII).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as `f64` (counters in suite documents and
    /// protocol payloads are well below 2^53, so the conversion is exact).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is irrelevant to consumers.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up a key when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a whole
    /// non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload as a signed integer, if this is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace). Numbers that are
    /// exact integers render without a fractional part, so counters
    /// round-trip textually.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::String(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(key));
                    out.push_str("\":");
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Number(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Number(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Number(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Number(n as f64)
    }
}

impl FromIterator<(String, Json)> for Json {
    fn from_iter<T: IntoIterator<Item = (String, Json)>>(iter: T) -> Json {
        Json::Object(iter.into_iter().collect())
    }
}

impl FromIterator<Json> for Json {
    fn from_iter<T: IntoIterator<Item = Json>>(iter: T) -> Json {
        Json::Array(iter.into_iter().collect())
    }
}

/// Builds a JSON object from key/value pairs (a tiny literal helper).
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Escapes a string for embedding in a JSON document (quotes, backslashes,
/// control characters).
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
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
    out
}

/// Parses a JSON document. Errors carry the byte offset of the problem.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing content at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape (the `\u` itself must
    /// already be consumed).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape".to_string())?;
        let code = u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let c = match code {
                                // A high surrogate must be followed by an
                                // escaped low surrogate; together they name
                                // one supplementary-plane scalar.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                        return Err(format!(
                                            "lone high surrogate \\u{code:04X} at byte {}",
                                            self.pos
                                        ));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(format!(
                                            "high surrogate \\u{code:04X} followed by \\u{low:04X}, \
                                             which is not a low surrogate"
                                        ));
                                    }
                                    let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(scalar).ok_or_else(|| {
                                        format!("invalid surrogate pair \\u{code:04X}\\u{low:04X}")
                                    })?
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!(
                                        "lone low surrogate \\u{code:04X} at byte {}",
                                        self.pos
                                    ));
                                }
                                _ => char::from_u32(code).ok_or_else(|| {
                                    format!("invalid \\u{code:04X} escape at byte {}", self.pos)
                                })?,
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let chunk = self
                        .bytes
                        .get(start..start + width)
                        .ok_or("truncated UTF-8 sequence".to_string())?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let json =
            parse_json("{\"a\": [1, -2.5e1, \"x\\\"y\\n\", true, null], \"b\": {}}").unwrap();
        let a = json.get("a").unwrap();
        match a {
            Json::Array(items) => {
                assert_eq!(items[0], Json::Number(1.0));
                assert_eq!(items[1], Json::Number(-25.0));
                assert_eq!(items[2], Json::String("x\"y\n".to_string()));
                assert_eq!(items[3], Json::Bool(true));
                assert_eq!(items[4], Json::Null);
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert!(parse_json("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(parse_json("[1 2]").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // U+1D11E MUSICAL SYMBOL G CLEF as an escaped surrogate pair.
        let json = parse_json("\"\\uD834\\uDD1E\"").unwrap();
        assert_eq!(json, Json::String("\u{1D11E}".to_string()));
        // Astral emoji round-trips through parse after a literal encode.
        let json = parse_json("\"\\uD83D\\uDE00!\"").unwrap();
        assert_eq!(json, Json::String("😀!".to_string()));
        // Basic-plane escapes are unchanged.
        let json = parse_json("\"\\u00e9\\u0041\"").unwrap();
        assert_eq!(json, Json::String("éA".to_string()));
    }

    #[test]
    fn lone_surrogates_are_errors_not_replacement_chars() {
        // The old parser produced two U+FFFD characters here.
        let err = parse_json("\"\\uD834\"").unwrap_err();
        assert!(err.contains("lone high surrogate"), "{err}");
        let err = parse_json("\"\\uDD1E\"").unwrap_err();
        assert!(err.contains("lone low surrogate"), "{err}");
        // High surrogate followed by a non-surrogate escape.
        let err = parse_json("\"\\uD834\\u0041\"").unwrap_err();
        assert!(err.contains("not a low surrogate"), "{err}");
        // High surrogate followed by a plain character.
        let err = parse_json("\"\\uD834x\"").unwrap_err();
        assert!(err.contains("lone high surrogate"), "{err}");
        // Truncated pair at end of input.
        assert!(parse_json("\"\\uD834\\u\"").is_err());
    }

    #[test]
    fn render_round_trips() {
        let doc = obj([
            ("name", Json::from("amle\n\"quoted\"")),
            ("count", Json::from(42u64)),
            ("ratio", Json::from(0.5)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::Array(vec![Json::from(1i64), Json::from(-3i64)]),
            ),
            ("emoji", Json::from("😀")),
        ]);
        let text = doc.render();
        assert_eq!(parse_json(&text).unwrap(), doc);
        // Integers render without a fractional part.
        assert!(text.contains("\"count\":42"));
        assert!(!text.contains("42.0"));
        // Newline-delimited protocol frames must stay on one line.
        assert!(!text.contains('\n'));
    }

    #[test]
    fn accessors() {
        let doc = parse_json("{\"n\": 3, \"s\": \"x\", \"b\": false, \"a\": [1]}").unwrap();
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("n").unwrap().as_i64(), Some(3));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(parse_json("2.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-2").unwrap().as_u64(), None);
        assert_eq!(parse_json("-2").unwrap().as_i64(), Some(-2));
    }
}
