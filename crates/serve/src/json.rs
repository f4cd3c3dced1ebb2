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
                    push_integer(out, *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::String(s) => push_string(out, s),
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
                    push_string(out, key);
                    out.push(':');
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

/// Appends `text` as a JSON string literal. Quotes, backslashes and control
/// characters are escaped; every run between two of them is copied whole.
/// Each of them is one ASCII byte, so every run ends on a character
/// boundary.
fn push_string(out: &mut String, text: &str) {
    out.push('"');
    let mut run = 0;
    for (at, byte) in text.bytes().enumerate() {
        let short = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x20.. => continue,
            _ => None,
        };
        out.push_str(&text[run..at]);
        run = at + 1;
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xF)]));
            }
        }
    }
    out.push_str(&text[run..]);
    out.push('"');
}

/// Appends the decimal digits of `n`.
fn push_integer(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Parses a JSON document. Errors carry the byte offset of the problem.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        text,
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
    text: &'a str,
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
            // Copy the run up to the next quote or backslash whole: both are
            // ASCII, so the run ends on a character boundary of the input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string".to_string())?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
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
        let token = &self.text[start..self.pos];
        // A plain integer of at most 15 digits is below 2^53, so folding its
        // digits gives exactly the `f64` the float parser would.
        let digits = token.strip_prefix('-').unwrap_or(token);
        if (1..=15).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
            let magnitude = digits
                .bytes()
                .fold(0u64, |n, b| n * 10 + u64::from(b - b'0')) as f64;
            let negative = digits.len() < token.len();
            return Ok(Json::Number(if negative { -magnitude } else { magnitude }));
        }
        token
            .parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The character-by-character escaper the run-wise renderer replaced:
    /// a rendered string keeps its bytes.
    fn reference_literal(text: &str) -> String {
        let mut out = String::from('"');
        for c in text.chars() {
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
        out
    }

    /// `text` with every character written as a `\uXXXX` escape, astral
    /// characters as surrogate pairs.
    fn escaped_literal(text: &str) -> String {
        let mut out = String::from('"');
        for unit in text.encode_utf16() {
            out.push_str(&format!("\\u{unit:04X}"));
        }
        out.push('"');
        out
    }

    #[test]
    fn any_string_round_trips_from_render_to_parse() {
        // Quote, backslash, every control byte, plain ASCII, DEL, and two-,
        // three- and four-byte characters.
        let pool: Vec<char> = [
            '"', '\\', '/', 'a', 'Z', ' ', '\u{7f}', 'é', '€', '中', '😀', '𝄞',
        ]
        .into_iter()
        .chain((0u8..0x20).map(char::from))
        .collect();
        let mut rng = StdRng::seed_from_u64(0x0150_0001);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..24usize);
            let text: String = (0..len)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let rendered = Json::from(text.as_str()).render();
            assert_eq!(rendered, reference_literal(&text));
            assert_eq!(parse_json(&rendered), Ok(Json::String(text.clone())));
            assert_eq!(
                parse_json(&escaped_literal(&text)),
                Ok(Json::String(text.clone()))
            );
            let keyed = obj([(text.as_str(), Json::from(text.as_str()))]);
            assert_eq!(parse_json(&keyed.render()), Ok(keyed));
        }
    }

    #[test]
    fn numbers_parse_as_the_float_parser_does_and_render_as_before() {
        let mut tokens: Vec<String> = [
            "0", "-0", "007", "-007", "2.5", "-2.5e1", "1E3", "1e999", "-1e999", "1e-400",
        ]
        .map(String::from)
        .into();
        let mut rng = StdRng::seed_from_u64(0x0150_0002);
        for _ in 0..2_000 {
            let mut token = String::from(if rng.gen_bool(0.5) { "-" } else { "" });
            let digits = rng.gen_range(1..=20usize);
            token.extend((0..digits).map(|_| char::from(rng.gen_range(b'0'..=b'9'))));
            tokens.push(token);
        }
        for token in &tokens {
            let parsed = parse_json(token).unwrap().as_f64().unwrap();
            let expected = token.parse::<f64>().unwrap();
            assert_eq!(parsed.to_bits(), expected.to_bits(), "{token}");
        }

        // Whole numbers render as the integer formatter did; any other
        // number through `f64`'s own formatter.
        let reference = |n: f64| {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            }
        };
        let mut numbers = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0e15,
            -9.0e15,
            8_999_999_999_999_999.0,
            1e20,
            0.5,
            -2.5,
        ];
        for _ in 0..2_000 {
            let whole = rng.gen_range(-9_000_000_000_000_000i64..=9_000_000_000_000_000) as f64;
            numbers.push(whole);
            numbers.push(whole / 1024.0);
        }
        for n in numbers {
            assert_eq!(Json::Number(n).render(), reference(n), "{n:?}");
        }
    }

    #[test]
    fn malformed_documents_keep_their_errors() {
        for (text, error) in [
            ("\"abc", "unterminated string"),
            ("\"a\\q\"", "unknown escape at byte 4"),
            ("\"é\\x\"", "unknown escape at byte 5"),
            ("\"a\\", "unterminated escape"),
            ("\"😀\\", "unterminated escape"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\uzzzz\"", "invalid digit found in string"),
            ("-", "invalid number at byte 0"),
            ("--5", "invalid number at byte 0"),
            ("1.2.3", "invalid number at byte 0"),
            ("1e", "invalid number at byte 0"),
            ("[1,]", "invalid number at byte 3"),
            ("0x10", "trailing content at byte 1"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("{\"a\": 1,}", "expected '\"' at byte 8"),
            ("[\"a\",", "unexpected end of input"),
            ("tru", "invalid literal at byte 0"),
        ] {
            assert_eq!(parse_json(text), Err(error.to_string()), "{text}");
        }
    }
}
