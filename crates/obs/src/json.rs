//! Minimal hand-rolled JSON: a [`Value`] tree, one pretty-printing
//! writer, and a recursive-descent parser.
//!
//! The workspace vendors no serde. Every BENCH snapshot is a [`Value`]
//! tree written by [`write()`], and the bench-gate differ
//! (`holmes-bench --bin bench_diff`) reads it back with [`parse`]. The
//! parser takes the JSON subset the writers emit (objects, arrays,
//! strings with escapes, finite numbers incl. exponents, booleans, null),
//! keeps object keys in insertion order so diffs report fields in file
//! order, and is safe on untrusted input: nesting is capped at
//! [`MAX_DEPTH`] and the scan is linear in the input length.

/// Deepest container nesting [`parse`] accepts; deeper input is a
/// [`ParseError`], not a stack overflow.
pub const MAX_DEPTH: usize = 256;

/// Widest line, in bytes, on which [`write()`] puts a container of scalars.
const LINE_WIDTH: usize = 100;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in file order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field by key (first match), `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        /// Exact below 2^53, like every JSON number read as `f64`.
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Num(n as f64)
            }
        }
    )*};
}
from_number!(f64, u32, u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// An object from `(key, value)` pairs, keys kept in the given order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Parse failure: a message and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Escape a string for embedding in a JSON writer (backslash, quote and
/// control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize `v` as pretty-printed JSON, ending in a newline.
///
/// A container whose items are all scalars goes on one line when that
/// line fits in 100 bytes; every other container puts one item
/// per line, indented two spaces per level. Numbers print in Rust's
/// shortest round-trip form less any `.0` suffix, so `parse(&write(v)) == v`
/// and the bytes are a pure function of `v`.
///
/// # Panics
///
/// On a non-finite number, which JSON cannot represent (panicking beats
/// silently corrupting a CI artifact).
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &Value, depth: usize) {
    let (brackets, items): (_, Vec<(Option<&str>, &Value)>) = match v {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            assert!(n.is_finite(), "non-finite number in JSON output: {n}");
            let text = format!("{n:?}");
            return out.push_str(text.strip_suffix(".0").unwrap_or(&text));
        }
        Value::Str(s) => return out.push_str(&format!("\"{}\"", escape(s))),
        Value::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
        Value::Obj(fields) => ("{}", fields.iter().map(|(k, v)| (Some(&**k), v)).collect()),
    };
    let (open, close) = brackets.split_at(1);
    let write_item = |out: &mut String, (key, v): (Option<&str>, &Value), depth| {
        if let Some(key) = key {
            out.push_str(&format!("\"{}\": ", escape(key)));
        }
        write_value(out, v, depth);
    };
    let start = out.len();
    if items
        .iter()
        .all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)))
    {
        out.push_str(open);
        for (i, &item) in items.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            write_item(out, item, depth);
        }
        out.push_str(close);
        let line_start = out[..start].rfind('\n').map_or(0, |i| i + 1);
        if items.is_empty() || out.len() - line_start <= LINE_WIDTH {
            return;
        }
        out.truncate(start);
    }
    let pad = "  ".repeat(depth + 1);
    out.push_str(open);
    for (i, &item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&pad);
        write_item(out, item, depth + 1);
    }
    out.push('\n');
    out.push_str(&pad[2..]);
    out.push_str(close);
}

/// Parse a complete JSON document.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let hex = self
                                .input
                                .get(start..start + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.input[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(self.err(&format!("invalid or non-finite number '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v =
            parse(r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\"y", "d": null}, "e": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e"), Some(&Value::Bool(true)));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[2].as_f64(), Some(-0.03));
    }

    #[test]
    fn keys_keep_file_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn escape_and_parse_round_trip() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parses_empty_containers() {
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
    }

    #[test]
    fn nesting_beyond_the_cap_is_an_error_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().message.contains("nesting"));
        // Far deeper than any test thread's stack can recurse.
        assert!(parse(&"[{\"a\": ".repeat(100_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Two million characters, multi-byte ones included: the old
        // per-character re-validation of the remaining input took minutes.
        let body = "ab\u{e9}\u{1f600}".repeat(500_000);
        let v = parse(&format!("[\"{body}\", \"x\\ny\"]")).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some(body.as_str()));
        assert_eq!(items[1].as_str(), Some("x\ny"));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        assert!(parse("1e999").is_err());
        assert!(parse("[-1e400]").is_err());
        assert_eq!(parse("1e308").unwrap(), Value::Num(1e308));
    }

    #[test]
    fn write_round_trips_and_is_stable() {
        let v = obj([
            ("ints", Value::from(vec![0u64, 16, 1 << 52])),
            (
                "floats",
                Value::from(vec![1e-6, -0.25, 9.918972, 1e300, 2.5e15]),
            ),
            ("text", Value::from("quote \" tab\t é")),
            ("empty", Value::Arr(vec![])),
            (
                "nested",
                obj([("flag", true.into()), ("none", Value::Null)]),
            ),
            ("long", Value::from(vec!["0123456789"; 12])),
        ]);
        let text = write(&v);
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(write(&parse(&text).unwrap()), text);
        assert!(text.contains("\"ints\": [0, 16, 4503599627370496]"));
        assert!(text.contains("\"nested\": {\"flag\": true, \"none\": null}"));
        // Too wide for one line: one item per line.
        assert!(text.contains("\"long\": [\n    \"0123456789\",\n"));
        assert!(text.ends_with("}\n"));
    }
}
