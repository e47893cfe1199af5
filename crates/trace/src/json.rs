//! The workspace's JSON module: one string escaper, a small writer that
//! keeps fields in insertion order, and one depth-bounded parser.
//!
//! Every report, reply and trace in the co-design flow is rendered
//! through [`Object`] (the build is fully offline, so there is no
//! external serializer), and every JSON input — protocol lines, replies
//! read back by clients, traces checked by tests — goes through
//! [`parse`].
//!
//! The writer has three layouts, matching the report styles in use:
//! [`Object::compact`] (`{"k":v}`, protocol lines), [`Object::inline`]
//! (`{"k": v}`, one row of a report) and [`Object::block`] (two-space
//! indented, one field per line). Numbers are rendered by the caller's
//! choice: [`Object::num`] uses `Display`, [`Object::float`] a fixed
//! precision. Fields are written straight into one output buffer as they
//! are added.

use std::fmt::{self, Write as _};

/// Quotes and escapes `s` as a JSON string literal (including the
/// surrounding double quotes).
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    // Copy the runs between characters that need escaping whole; every
    // such character is ASCII, so the run bounds are char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// How an [`Object`] lays out its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Compact,
    Inline,
    Block,
}

/// A JSON object written field by field, in insertion order, in one of
/// three layouts chosen at construction. Nested objects and arrays are
/// rendered first and added with [`Object::raw`].
#[derive(Debug)]
pub struct Object {
    out: String,
    layout: Layout,
    empty: bool,
}

impl Object {
    /// `{"k":v,"k2":v2}` — one protocol line.
    #[must_use]
    pub fn compact() -> Self {
        Object::with(Layout::Compact)
    }

    /// `{"k": v, "k2": v2}` — one row of a report.
    #[must_use]
    pub fn inline() -> Self {
        Object::with(Layout::Inline)
    }

    /// One field per line, indented two spaces; multi-line values
    /// (nested blocks) are indented with their field.
    #[must_use]
    pub fn block() -> Self {
        Object::with(Layout::Block)
    }

    fn with(layout: Layout) -> Self {
        Object {
            out: String::from("{"),
            layout,
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        let (comma, colon) = match self.layout {
            Layout::Compact => (",", ":"),
            Layout::Inline => (", ", ": "),
            Layout::Block => (",", ": "),
        };
        if !self.empty {
            self.out.push_str(comma);
        }
        if self.layout == Layout::Block {
            self.out.push_str("\n  ");
        }
        self.empty = false;
        push_quoted(&mut self.out, key);
        self.out.push_str(colon);
    }

    /// Appends `key` with an already-rendered JSON value.
    #[must_use]
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        if self.layout == Layout::Block {
            push_indented(&mut self.out, json);
        } else {
            self.out.push_str(json);
        }
        self
    }

    /// Appends a string value, escaped.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_quoted(&mut self.out, value);
        self
    }

    /// Appends a value rendered with `Display`: integers, booleans, and
    /// floats in their shortest round-trip form.
    #[must_use]
    pub fn num(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Appends a float with `precision` digits after the point.
    #[must_use]
    pub fn float(mut self, key: &str, value: f64, precision: usize) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value:.precision$}");
        self
    }

    /// Closes the object and returns its text.
    #[must_use]
    pub fn finish(mut self) -> String {
        if self.layout == Layout::Block {
            self.out.push('\n');
        }
        self.out.push('}');
        self.out
    }
}

/// `[a, b]` from rendered items.
#[must_use]
pub fn inline_array<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(item.as_ref());
    }
    out.push(']');
    out
}

/// Rendered items one per line, indented two spaces; `[\n]` when empty.
#[must_use]
pub fn block_array<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        push_indented(&mut out, item.as_ref());
    }
    out.push_str("\n]");
    out
}

/// Appends `json`, indenting every line after its first by two spaces.
fn push_indented(out: &mut String, json: &str) {
    for (i, line) in json.split('\n').enumerate() {
        if i > 0 {
            out.push_str("\n  ");
        }
        out.push_str(line);
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`parse`] accepts; deeper input is a
/// [`ErrorKind::TooDeep`] error rather than a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep their members in source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number with no fraction or exponent that fits in an `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A (fully unescaped) string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (the last one, if repeated).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|m| &m.1),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// What [`parse`] rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside a value.
    Eof,
    /// A byte that cannot start or continue a value here.
    Unexpected,
    /// A malformed number.
    Number,
    /// A malformed escape or a raw control character in a string.
    String,
    /// Nesting deeper than [`MAX_DEPTH`].
    TooDeep,
    /// More input after the top-level value.
    Trailing,
}

/// A parse error and the byte offset it was found at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// What was wrong.
    pub kind: ErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            ErrorKind::Eof => "unexpected end of input",
            ErrorKind::Unexpected => "unexpected character",
            ErrorKind::Number => "malformed number",
            ErrorKind::String => "malformed string",
            ErrorKind::TooDeep => "nesting too deep",
            ErrorKind::Trailing => "trailing characters",
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for Error {}

/// Parses one JSON document (surrounding whitespace allowed). Never
/// panics, whatever the input.
///
/// # Errors
///
/// The first syntax error, with its byte offset.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.pos != text.len() {
        return Err(p.err(ErrorKind::Trailing));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, kind: ErrorKind) -> Error {
        Error {
            kind,
            offset: self.pos,
        }
    }

    /// The error for whatever sits at the cursor.
    fn unexpected(&self) -> Error {
        self.err(match self.peek() {
            None => ErrorKind::Eof,
            Some(_) => ErrorKind::Unexpected,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    fn word(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(ErrorKind::Unexpected))
        }
    }

    fn nested(&mut self) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(ErrorKind::TooDeep));
        }
        self.depth += 1;
        let value = if self.peek() == Some(b'{') {
            let mut members = Vec::new();
            self.items(b'{', b'}', |p| {
                p.ws();
                let key = p.string()?;
                p.ws();
                p.eat(b':')?;
                members.push((key, p.value()?));
                Ok(())
            })
            .map(|()| Value::Object(members))
        } else {
            let mut items = Vec::new();
            self.items(b'[', b']', |p| {
                items.push(p.value()?);
                Ok(())
            })
            .map(|()| Value::Array(items))
        };
        self.depth -= 1;
        value
    }

    /// A comma-separated sequence between `open` and `close`.
    fn items(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.eat(open)?;
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let bad = Error {
            kind: ErrorKind::Number,
            offset: start,
        };
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos - from
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let lead = self.peek();
        let n = digits(self);
        if n == 0 || (lead == Some(b'0') && n > 1) {
            return Err(bad);
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integral = false;
            if digits(self) == 0 {
                return Err(bad);
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(bad);
            }
        }
        let lexeme = &self.text[start..self.pos];
        match lexeme.parse::<i64>() {
            Ok(i) if integral => Ok(Value::Int(i)),
            _ => lexeme.parse::<f64>().map(Value::Float).map_err(|_| bad),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err(ErrorKind::Eof)),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err(self.err(ErrorKind::String)),
                // Multi-byte UTF-8 continues the run; `&str` input is
                // valid UTF-8 and the run only ends at ASCII bytes.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// One backslash escape, cursor on the backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let at = self.err(ErrorKind::String);
        self.pos += 1;
        let b = self.peek().ok_or(self.err(ErrorKind::Eof))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4().ok_or(at)?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // A high surrogate must pair with an escaped low one.
                    if !self.text[self.pos..].starts_with("\\u") {
                        return Err(at);
                    }
                    self.pos += 2;
                    let lo = self.hex4().filter(|lo| (0xDC00..0xE000).contains(lo));
                    0x10000 + ((hi - 0xD800) << 10) + (lo.ok_or(at)? - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or(at)?
            }
            _ => return Err(at),
        })
    }

    fn hex4(&mut self) -> Option<u32> {
        let hex = self.text.get(self.pos..self.pos + 4)?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).ok()
    }
}

// ---------------------------------------------------------------------
// Chrome trace validation
// ---------------------------------------------------------------------

/// Validates that `text` is a well-formed Chrome trace-event JSON
/// document: a JSON object whose `traceEvents` member is an array of
/// objects, each carrying a `"ph"` (phase) member. Returns the number of
/// trace events.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax or structure
/// violation.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    if !matches!(doc, Value::Object(_)) {
        return Err("top level is not a JSON object".to_string());
    }
    let Some(events) = doc.get("traceEvents") else {
        return Err("top-level object lacks \"traceEvents\"".to_string());
    };
    let Value::Array(events) = events else {
        return Err("\"traceEvents\" is not an array".to_string());
    };
    for (i, event) in events.iter().enumerate() {
        match event {
            Value::Object(_) if event.get("ph").is_some() => {}
            Value::Object(_) => return Err(format!("trace event {i} lacks \"ph\"")),
            _ => return Err(format!("trace event {i} is not an object")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn accepts_minimal_trace() {
        let n = validate_chrome_trace(
            r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 2, "pid": 1, "tid": 1, "args": {}}]}"#,
        )
        .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn accepts_empty_trace() {
        assert_eq!(validate_chrome_trace(r#"{"traceEvents": []}"#), Ok(0));
    }

    #[test]
    fn rejects_missing_trace_events() {
        assert!(validate_chrome_trace(r#"{"other": []}"#).is_err());
    }

    #[test]
    fn rejects_event_without_phase() {
        assert!(validate_chrome_trace(r#"{"traceEvents": [{"name": "a"}]}"#).is_err());
    }

    #[test]
    fn rejects_non_object_event() {
        assert!(validate_chrome_trace(r#"{"traceEvents": [1]}"#).is_err());
    }

    #[test]
    fn rejects_syntax_errors() {
        for bad in [
            "",
            "[",
            "{",
            r#"{"traceEvents": [}"#,
            r#"{"traceEvents": []"#,
            r#"{"traceEvents": []} trailing"#,
            r#"{"traceEvents": [],}"#,
            r#"{"a": 01}"#,
            r#"{"a": "unterminated}"#,
        ] {
            assert!(validate_chrome_trace(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn accepts_numbers_and_literals() {
        let doc = r#"{"traceEvents": [], "x": [-1.5e-3, true, false, null, "s"]}"#;
        validate_chrome_trace(doc).unwrap();
    }

    #[test]
    fn layouts_render_in_insertion_order() {
        let row = |o: Object| o.str("b", "x").num("a", 2).float("f", 0.5, 3).finish();
        assert_eq!(row(Object::compact()), r#"{"b":"x","a":2,"f":0.500}"#);
        assert_eq!(row(Object::inline()), r#"{"b": "x", "a": 2, "f": 0.500}"#);
        let doc = Object::block()
            .raw("rows", &block_array([row(Object::inline())]))
            .raw("none", &block_array(Vec::<String>::new()))
            .raw("list", &inline_array(["1", "2"]))
            .raw("inner", &Object::block().num("k", true).finish());
        assert_eq!(
            doc.finish(),
            "{\n  \"rows\": [\n    {\"b\": \"x\", \"a\": 2, \"f\": 0.500}\n  ],\n  \
             \"none\": [\n  ],\n  \"list\": [1, 2],\n  \"inner\": {\n    \"k\": true\n  }\n}"
        );
        assert_eq!(Object::inline().finish(), "{}");
        assert_eq!(Object::block().finish(), "{\n}");
    }

    #[test]
    fn parses_every_value_shape() {
        let v = parse(r#" {"a": [1, -2.5e1, "s\u00e9\n", true, null], "b": {}} "#).unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                (
                    "a".into(),
                    Value::Array(vec![
                        Value::Int(1),
                        Value::Float(-25.0),
                        Value::Str("sé\n".into()),
                        Value::Bool(true),
                        Value::Null,
                    ])
                ),
                ("b".into(), Value::Object(vec![])),
            ])
        );
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".into())
        );
        assert_eq!(
            parse("99999999999999999999").unwrap(),
            Value::Float(99_999_999_999_999_999_999.0)
        );
    }

    #[test]
    fn errors_carry_kind_and_offset() {
        let at = |s: &str| parse(s).map(|_| ()).unwrap_err();
        assert_eq!(at("").kind, ErrorKind::Eof);
        assert_eq!(at("[1,]").offset, 3);
        assert_eq!(at("-").kind, ErrorKind::Number);
        assert_eq!(at("\"\\ud800\"").kind, ErrorKind::String);
        assert_eq!(at("\"a\u{1}\"").offset, 2);
        assert_eq!(at("{} x").kind, ErrorKind::Trailing);
        assert_eq!(at("[1 2]").kind, ErrorKind::Unexpected);
        assert_eq!(at("\"abc").to_string(), "unexpected end of input at byte 4");
        assert_eq!(
            at(&"[".repeat(MAX_DEPTH + 1)),
            Error {
                kind: ErrorKind::TooDeep,
                offset: MAX_DEPTH
            }
        );
        parse(&format!(
            "{}{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ))
        .unwrap();
    }
}
