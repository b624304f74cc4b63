//! A dynamic value tree plus TOML-subset and JSON parsers/writers.
//!
//! Scenario specs are declarative TOML or JSON files. With no crates.io
//! access (no `serde`/`toml`), this module carries a small, strict parser
//! for the subset of TOML a scenario spec needs — top-level key/values,
//! `[table]` / `[table.sub]` headers, single- and multi-line arrays,
//! strings, numbers, booleans, comments — and a complete JSON
//! reader/writer (the cache and export format). Both readers reject
//! arrays and objects nested deeper than 64 levels, so hostile input
//! gets a [`ParseError`], not a stack overflow.
//!
//! Everything parses into [`Value`]; `spec.rs` maps that onto the typed
//! [`crate::spec::ScenarioSpec`] with field validation.

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically typed value: the common denominator of TOML and JSON.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A UTF-8 string.
    Str(String),
    /// An integer (TOML distinguishes these from floats).
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered list.
    Array(Vec<Value>),
    /// A string-keyed table; `BTreeMap` keeps iteration (and therefore
    /// serialization) order deterministic.
    Table(BTreeMap<String, Value>),
    /// JSON `null` (no TOML spelling).
    Null,
}

impl Value {
    /// The table fields, if this is a table.
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value (int or float), widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer value, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render as compact JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s, None);
        s
    }

    /// Render as indented JSON.
    pub fn to_json_pretty(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s, Some(0));
        s.push('\n');
        s
    }

    fn write_json(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => out.push_str(&json_number(*f)),
            Value::Str(s) => write_json_string(out, s),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    if let Some(level) = indent {
                        newline_indent(out, level + 1);
                        v.write_json(out, Some(level + 1));
                    } else {
                        v.write_json(out, None);
                    }
                }
                if let Some(level) = indent {
                    if !a.is_empty() {
                        newline_indent(out, level);
                    }
                }
                out.push(']');
            }
            Value::Table(t) => {
                out.push('{');
                for (i, (k, v)) in t.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if indent.is_none() {
                            out.push(' ');
                        }
                    }
                    if let Some(level) = indent {
                        newline_indent(out, level + 1);
                        write_json_string(out, k);
                        out.push_str(": ");
                        v.write_json(out, Some(level + 1));
                    } else {
                        write_json_string(out, k);
                        out.push_str(": ");
                        v.write_json(out, None);
                    }
                }
                if let Some(level) = indent {
                    if !t.is_empty() {
                        newline_indent(out, level);
                    }
                }
                out.push('}');
            }
        }
    }
}

/// Shortest-roundtrip float rendering that stays valid JSON (no `NaN`/
/// `inf` — those become `null`, the only JSON-representable option).
fn json_number(f: f64) -> String {
    if !f.is_finite() {
        return "null".into();
    }
    let s = format!("{f}");
    // ensure floats stay floats on reparse (JSON has one number type, but
    // our Value distinguishes Int and the cache roundtrip test compares)
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn newline_indent(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_json_string(out: &mut String, s: &str) {
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

/// A parse error with 1-based line information.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending input.
    pub line: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deep arrays and objects may nest in parsed input. The readers
/// recurse once per level; deeper input is rejected.
const MAX_DEPTH: usize = 64;

fn too_deep(line: usize) -> ParseError {
    err(line, &format!("nested deeper than {MAX_DEPTH} levels"))
}

// ---------------------------------------------------------------------------
// TOML subset
// ---------------------------------------------------------------------------

/// Parse the TOML subset scenario specs use. See the module docs for what
/// is supported; anything else is a hard error (strict by design — a typo
/// in a spec should fail loudly, not silently produce a default sweep).
pub fn parse_toml(input: &str) -> Result<Value, ParseError> {
    let mut root = BTreeMap::new();
    let mut current_path: Vec<String> = Vec::new();

    let mut lines = input.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err(line_no, "unterminated table header"))?
                .trim();
            if header.is_empty() || header.starts_with('[') {
                return Err(err(
                    line_no,
                    "empty or array-of-tables header (unsupported)",
                ));
            }
            current_path = header.split('.').map(|s| s.trim().to_string()).collect();
            if current_path.iter().any(|s| s.is_empty()) {
                return Err(err(line_no, "empty segment in table header"));
            }
            // materialize the table path
            table_at(&mut root, &current_path, line_no)?;
            continue;
        }
        let (key, rest) = line
            .split_once('=')
            .ok_or_else(|| err(line_no, "expected `key = value`"))?;
        let key = parse_key(key.trim(), line_no)?;
        let mut value_text = rest.trim().to_string();
        // multi-line arrays: keep consuming lines until brackets balance
        // outside strings
        while unbalanced_brackets(&value_text) {
            let (cont_idx, cont) = lines
                .next()
                .ok_or_else(|| err(line_no, "unterminated array"))?;
            let _ = cont_idx;
            value_text.push(' ');
            value_text.push_str(strip_comment(cont).trim());
        }
        let value = parse_toml_value(&value_text, line_no, 0)?;
        let table = table_at(&mut root, &current_path, line_no)?;
        if table.insert(key.clone(), value).is_some() {
            return Err(err(line_no, &format!("duplicate key `{key}`")));
        }
    }
    Ok(Value::Table(root))
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unbalanced_brackets(text: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth > 0
}

fn parse_key(raw: &str, line: usize) -> Result<String, ParseError> {
    let raw = raw.trim();
    if let Some(q) = raw.strip_prefix('"') {
        return q
            .strip_suffix('"')
            .map(|s| s.to_string())
            .ok_or_else(|| err(line, "unterminated quoted key"));
    }
    if raw.is_empty()
        || !raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(err(line, &format!("invalid key `{raw}`")));
    }
    Ok(raw.to_string())
}

fn table_at<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    line: usize,
) -> Result<&'a mut BTreeMap<String, Value>, ParseError> {
    let mut cur = root;
    for seg in path {
        let entry = cur
            .entry(seg.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        cur = match entry {
            Value::Table(t) => t,
            _ => return Err(err(line, &format!("`{seg}` is not a table"))),
        };
    }
    Ok(cur)
}

/// Parse one value that sits inside `depth` enclosing arrays.
fn parse_toml_value(text: &str, line: usize, depth: usize) -> Result<Value, ParseError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(err(line, "missing value"));
    }
    if let Some(inner) = text.strip_prefix('[') {
        if depth == MAX_DEPTH {
            return Err(too_deep(line));
        }
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| err(line, "unterminated array"))?;
        let mut out = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            out.push(parse_toml_value(part, line, depth + 1)?);
        }
        return Ok(Value::Array(out));
    }
    if let Some(q) = text.strip_prefix('"') {
        let body = q
            .strip_suffix('"')
            .ok_or_else(|| err(line, "unterminated string"))?;
        return Ok(Value::Str(unescape(body, line)?));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let cleaned = text.replace('_', "");
    if let Ok(i) = cleaned.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = cleaned.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(err(line, &format!("cannot parse value `{text}`")))
}

/// Split on commas that are not inside strings or nested brackets.
fn split_top_level(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i64;
    let mut in_str = false;
    let mut start = 0;
    for (i, c) in text.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

fn unescape(s: &str, line: usize) -> Result<String, ParseError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let cp =
                    u32::from_str_radix(&hex, 16).map_err(|_| err(line, "invalid \\u escape"))?;
                out.push(char::from_u32(cp).ok_or_else(|| err(line, "invalid codepoint"))?);
            }
            other => return Err(err(line, &format!("invalid escape `\\{other:?}`"))),
        }
    }
    Ok(out)
}

fn err(line: usize, message: &str) -> ParseError {
    ParseError {
        message: message.to_string(),
        line,
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Parse a complete JSON document.
pub fn parse_json(input: &str) -> Result<Value, ParseError> {
    let mut p = JsonParser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err(p.line(), "trailing characters after JSON value"));
    }
    Ok(v)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl JsonParser<'_> {
    fn line(&self) -> usize {
        1 + self.bytes[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
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
            Err(err(self.line(), &format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err(err(self.line(), "unexpected end of input")),
        }
    }

    /// Parse one array or object, one level deeper than the caller.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep(self.line()));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(err(self.line(), &format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut table = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Table(table));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            table.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Table(table));
                }
                _ => return Err(err(self.line(), "expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(err(self.line(), "expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut has_escape = false;
        loop {
            match self.peek() {
                Some(b'"') => break,
                Some(b'\\') => {
                    has_escape = true;
                    self.pos += 2;
                }
                Some(_) => self.pos += 1,
                None => return Err(err(self.line(), "unterminated string")),
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| err(self.line(), "invalid UTF-8 in string"))?;
        self.pos += 1; // closing quote
        if has_escape {
            unescape(raw, self.line())
        } else {
            Ok(raw.to_string())
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| err(self.line(), &format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_tables_arrays_scalars() {
        let v = parse_toml(
            r#"
            # a scenario
            name = "demo"
            count = 3
            scale = 1.5e-2
            on = true

            [grid]
            eta = [0.01, 0.02, 0.05]  # axis
            protocol = ["disco", "u-connect"]

            [sim]
            seed = 42

            [sim.extra]
            nested = "yes"
            "#,
        )
        .unwrap();
        let t = v.as_table().unwrap();
        assert_eq!(t["name"].as_str(), Some("demo"));
        assert_eq!(t["count"].as_i64(), Some(3));
        assert_eq!(t["scale"].as_f64(), Some(0.015));
        assert_eq!(t["on"].as_bool(), Some(true));
        let grid = t["grid"].as_table().unwrap();
        assert_eq!(grid["eta"].as_array().unwrap().len(), 3);
        assert_eq!(
            grid["protocol"].as_array().unwrap()[1].as_str(),
            Some("u-connect")
        );
        let extra = t["sim"].as_table().unwrap()["extra"].as_table().unwrap();
        assert_eq!(extra["nested"].as_str(), Some("yes"));
    }

    #[test]
    fn toml_multiline_array() {
        let v = parse_toml("xs = [\n  1,\n  2,\n  3,\n]\n").unwrap();
        assert_eq!(
            v.as_table().unwrap()["xs"],
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn toml_empty_array_and_strings_with_hash() {
        let v = parse_toml("a = []\nb = \"has # inside\"\n").unwrap();
        let t = v.as_table().unwrap();
        assert_eq!(t["a"], Value::Array(vec![]));
        assert_eq!(t["b"].as_str(), Some("has # inside"));
    }

    #[test]
    fn toml_rejects_garbage() {
        assert!(parse_toml("key").is_err());
        assert!(parse_toml("k = ").is_err());
        assert!(parse_toml("k = what").is_err());
        assert!(parse_toml("[unclosed\n").is_err());
        assert!(parse_toml("k = 1\nk = 2\n").is_err());
        // nesting is bounded: 64 levels parse, 65 and far more are errors
        let nest = |n: usize| format!("k = {}1{}\n", "[".repeat(n), "]".repeat(n));
        assert!(parse_toml(&nest(MAX_DEPTH)).is_ok());
        for n in [MAX_DEPTH + 1, 10_000] {
            let e = parse_toml(&nest(n)).unwrap_err();
            assert!(e.message.contains("nested deeper"), "{e}");
        }
    }

    #[test]
    fn json_roundtrip() {
        let v = Value::Table(BTreeMap::from([
            ("s".to_string(), Value::Str("a\"b\n".into())),
            ("i".to_string(), Value::Int(-3)),
            ("f".to_string(), Value::Float(0.25)),
            (
                "a".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("t".to_string(), Value::Table(BTreeMap::new())),
        ]));
        let compact = v.to_json();
        let pretty = v.to_json_pretty();
        assert_eq!(parse_json(&compact).unwrap(), v);
        assert_eq!(parse_json(&pretty).unwrap(), v);
    }

    #[test]
    fn json_number_types_survive() {
        let v = parse_json("{\"i\": 5, \"f\": 5.0}").unwrap();
        let t = v.as_table().unwrap();
        assert_eq!(t["i"], Value::Int(5));
        assert_eq!(t["f"], Value::Float(5.0));
        // and floats that happen to be integral still reparse as floats
        assert_eq!(parse_json(&t["f"].to_json()).unwrap(), Value::Float(5.0));
    }

    #[test]
    fn json_errors_carry_lines() {
        let e = parse_json("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(e.line, 2);
        // nesting is bounded: 64 levels parse, deeper input is an error
        // on the line it went too deep, not a stack overflow
        let nest = |n: usize| format!("{}1{}", "[{\"k\": ".repeat(n / 2), "}]".repeat(n / 2));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        for (deep, line) in [
            (nest(MAX_DEPTH + 2), 1),
            (format!("\n{}", "[".repeat(10_000)), 2),
        ] {
            let e = parse_json(&deep).unwrap_err();
            assert!(e.message.contains("nested deeper"), "{e}");
            assert_eq!(e.line, line);
        }
    }
}
