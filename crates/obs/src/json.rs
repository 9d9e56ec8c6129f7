//! The JSON-lines exporter and a minimal validating JSON parser.
//!
//! One JSON object per line; the `k` field discriminates the record kind:
//!
//! ```text
//! {"k":"thread","tid":0,"name":"main"}
//! {"k":"span","id":0,"parent":null,"tid":0,"name":"verify","start_ns":12,
//!  "dur_ns":3456,"counters":{"clight/tokens":42}}
//! {"k":"counter","name":"qhl/rule/Q:SEQ","value":17}
//! {"k":"hist","name":"asm/stack_depth","count":9,"min":0,"max":48,"sum":212,
//!  "buckets":[[0,1],[6,8]]}
//! ```
//!
//! Span `id`s are depth-first preorder indices; `parent` is the parent's
//! `id` or `null` for roots, so consumers can rebuild the tree without
//! relying on line order. `tid` is the span's timeline (thread) id;
//! `thread` records map registered timeline labels. Histogram buckets
//! are `[bit_length, count]` pairs — bucket `b` covers values whose
//! binary length is `b`.
//!
//! The [`parse`] function implements just enough of RFC 8259 to validate
//! and inspect these lines in tests without external dependencies.

use crate::record::{Report, SpanNode};
use std::collections::BTreeMap;
use std::fmt::Write;

impl Report {
    /// Serializes the whole report as JSON-lines (spans depth-first, then
    /// counters, then histograms).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (tid, name) in &self.threads {
            let _ = writeln!(
                out,
                "{{\"k\":\"thread\",\"tid\":{tid},\"name\":{}}}",
                escape(name)
            );
        }
        let mut next_id = 0usize;
        for root in &self.roots {
            write_span(&mut out, root, None, &mut next_id);
        }
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"k\":\"counter\",\"name\":{},\"value\":{value}}}",
                escape(name)
            );
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| format!("[{i},{n}]"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"k\":\"hist\",\"name\":{},\"count\":{},\"min\":{},\"max\":{},\"sum\":{},\"buckets\":[{}]}}",
                escape(name),
                h.count,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.sum,
                buckets.join(","),
            );
        }
        out
    }
}

fn write_span(out: &mut String, node: &SpanNode, parent: Option<usize>, next_id: &mut usize) {
    let id = *next_id;
    *next_id += 1;
    let counters: Vec<String> = node
        .counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", escape(k)))
        .collect();
    let parent_str = parent.map_or("null".to_owned(), |p| p.to_string());
    let _ = writeln!(
        out,
        "{{\"k\":\"span\",\"id\":{id},\"parent\":{parent_str},\"tid\":{},\"name\":{},\"start_ns\":{},\"dur_ns\":{},\"counters\":{{{}}}}}",
        node.tid,
        escape(&node.name),
        node.start_ns,
        node.duration_ns,
        counters.join(","),
    );
    for child in &node.children {
        write_span(out, child, Some(id), next_id);
    }
}

/// JSON-escapes a string (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order dropped).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (e.g. one exporter line).
///
/// # Errors
///
/// Returns a byte offset and message for malformed input or trailing
/// garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.lit("null", Value::Null),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'"' => Ok(Value::String(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(self.err(&format!("unexpected byte `{}`", c as char))),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }
}
