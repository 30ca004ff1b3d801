//! The workspace's one JSON reader, and the string escaper its writers
//! share.
//!
//! The build is offline and has no serde, so every document the
//! workspace writes by hand and later reads back goes through this
//! module: the `hopp-check` ratchet baseline, the `BENCH_quality.json`
//! scoreboard the regression gate diffs, the sweep engine's per-cell
//! cache entries, and exporter output checked by tests.
//!
//! [`parse`] is a strict recursive-descent parser for RFC 8259 JSON.
//! Three choices shape it:
//!
//! * objects keep their members in document order, so a test can check
//!   an exporter's key order; on a duplicate key [`Value::get`] returns
//!   the last value;
//! * numbers keep their source text, so an integer above 2^53 reads back
//!   exactly ([`Value::as_u64`]) and a float written with Rust's
//!   shortest round-trip `Display` reads back bit for bit
//!   ([`Value::as_f64`]);
//! * malformed input is always an `Err`, never a panic: nesting deeper
//!   than 128 levels is rejected instead of overflowing the stack.
//!
//! # Example
//!
//! ```
//! use hopp_types::json;
//!
//! let v = json::parse(r#"{"rows": [{"id": 18446744073709551615, "ok": true}]}"#).unwrap();
//! let row = &v.get("rows").unwrap().as_arr().unwrap()[0];
//! assert_eq!(row.get("id").and_then(json::Value::as_u64), Some(u64::MAX));
//! assert_eq!(row.get("ok").and_then(json::Value::as_bool), Some(true));
//! assert!(json::parse("[1, 2").is_err());
//! ```

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its (validated) source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` (the last one, if the key repeats), when
    /// this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an `f64`, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as a `u64`, when this is a non-negative integer
    /// written without fraction or exponent that fits in 64 bits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// [`Value::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members in document order, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document, which must span the whole input
/// (surrounding whitespace aside).
///
/// # Errors
///
/// Returns the byte offset and kind of the first syntax error.
pub fn parse(src: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src,
        at: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != src.len() {
        return p.fail("trailing data");
    }
    Ok(v)
}

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    src: &'a str,
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &'static str) -> Result<T, ParseError> {
        Err(ParseError { at: self.at, what })
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.at += 1;
        }
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::obj),
            Some(b'[') => self.nested(Self::arr),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.num(),
            _ => self.fail("expected a value"),
        }
    }

    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.fail("nesting too deep");
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.src[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(v)
        } else {
            self.fail("bad literal")
        }
    }

    /// Skips ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - start
    }

    fn num(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        self.eat(b'-');
        let int_start = self.at;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.src.as_bytes()[int_start] == b'0') {
            return self.fail("bad number");
        }
        if self.eat(b'.') && self.digits() == 0 {
            return self.fail("bad number");
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return self.fail("bad number");
            }
        }
        Ok(Value::Num(self.src[start..self.at].to_string()))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.at += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte as one slice; all three are ASCII, so the cut always
            // falls on a char boundary.
            let start = self.at;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.at += 1;
            }
            out.push_str(&self.src[start..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    self.unescape_into(&mut out)?;
                }
                Some(_) => return self.fail("control character in string"),
                None => return self.fail("unterminated string"),
            }
        }
    }

    fn unescape_into(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .src
                    .get(self.at + 1..self.at + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                let Some(code) = hex else {
                    return self.fail("bad \\u escape");
                };
                self.at += 4;
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return self.fail("bad escape"),
        };
        self.at += 1;
        out.push(c);
        Ok(())
    }

    fn obj(&mut self) -> Result<Value, ParseError> {
        self.at += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.fail("expected an object key");
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return self.fail("expected ':'");
            }
            members.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(members));
            }
            if !self.eat(b',') {
                return self.fail("expected ',' or '}'");
            }
        }
    }

    fn arr(&mut self) -> Result<Value, ParseError> {
        self.at += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return self.fail("expected ',' or ']'");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn reads_every_value_kind() {
        let src = r#"{"version": 1, "ok": true, "no": false, "none": null,
                      "findings": [{"rule": "determinism", "line": 42}],
                      "msg": "a \"quoted\" piece\nwith a newline é \u00e9"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("version").and_then(Value::as_usize), Some(1));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("no").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let f = &v.get("findings").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(f.get("rule").and_then(Value::as_str), Some("determinism"));
        assert_eq!(f.get("line").and_then(Value::as_u64), Some(42));
        assert_eq!(
            v.get("msg").and_then(Value::as_str),
            Some("a \"quoted\" piece\nwith a newline é é")
        );
    }

    #[test]
    fn objects_keep_document_order_and_the_last_duplicate_wins() {
        let v = parse(r#"{"b": 1, "a": 2, "b": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(v.get("b").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn numbers_read_back_exactly() {
        let v = parse(&format!("[{}, {}, -0.5e-3, 1E+2]", u64::MAX, 1.0f64 / 3.0)).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(u64::MAX));
        assert_eq!(
            a[1].as_f64().map(f64::to_bits),
            Some((1.0f64 / 3.0).to_bits())
        );
        assert_eq!(a[1].as_u64(), None, "a fraction is not an integer");
        assert_eq!(a[2].as_f64(), Some(-0.0005));
        assert_eq!(a[3].as_f64(), Some(100.0));
        for bad in ["01", "-", "1.", ".5", "1e", "+1", "0x10", "1.e3"] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn rejects_bad_syntax_with_the_offset() {
        assert_eq!(
            parse("{} x"),
            Err(ParseError {
                at: 3,
                what: "trailing data"
            })
        );
        for bad in [
            "",
            "{\"a\":}",
            "[1, 2",
            "[1,]",
            "{\"a\" 1}",
            "{a: 1}",
            "\"open",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+abc\"",
            "\"tab\there\"",
            "tru",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert_eq!(parse(&deep).unwrap_err().what, "nesting too deep");
    }

    #[test]
    fn escape_survives_a_parse_round_trip() {
        let nasty = "a\"b\\c\nd\te\r\u{1}é";
        let v = parse(&format!("{{\"k\": \"{}\"}}", escape(nasty))).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }

    /// Seeded mutations of valid documents (replaced, inserted and
    /// deleted characters, truncation) must come back as `Ok` or `Err`,
    /// never as a panic.
    #[test]
    fn mutated_documents_never_panic() {
        const SEEDS: [&str; 3] = [
            r#"{"schema": "x/v1", "rows": [{"a": 1.5e3, "b": "q\"\u00e9"}, null, true]}"#,
            r#"[[[]], {}, "", -0, 12345678901234567890, {"k": [false]}]"#,
            "{\"scale\": {\"footprint\": 4096}, \"waivers\": []}\n",
        ];
        const ALPHABET: &[char] = &[
            '{', '}', '[', ']', '"', '\\', ':', ',', '-', '.', 'e', '0', '9', 'u', 'n', 't', ' ',
            '\n', '\u{1}', 'é',
        ];
        let mut rng = SplitMix64::seed_from_u64(0x15_0e);
        for round in 0..4_000 {
            let mut doc: Vec<char> = SEEDS[round % SEEDS.len()].chars().collect();
            for _ in 0..rng.gen_range(1..5) {
                let i = rng.gen_range(0..doc.len() as u64) as usize;
                let c = ALPHABET[rng.gen_range(0..ALPHABET.len() as u64) as usize];
                match rng.gen_range(0..4) {
                    0 => doc[i] = c,
                    1 => doc.insert(i, c),
                    2 if doc.len() > 1 => {
                        doc.remove(i);
                    }
                    _ => doc.truncate(i.max(1)),
                }
            }
            let text: String = doc.into_iter().collect();
            let _ = parse(&text);
        }
    }
}
