//! A small JSON value with a writer and a parser: result files, the trace
//! export and `reference.json` all go through it (std only, no serde).

use std::fmt::Write as _;

/// One JSON value. Objects keep insertion order so files diff cleanly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite number is written as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, written without a fraction.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Builder: add `key` to an object (panics on a non-object: a bug).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Insert or replace `key` in an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object");
        };
        let value = value.into();
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => entries.push((key.to_string(), value)),
        }
    }

    /// Member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walk nested objects.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        keys.iter().try_fold(self, |node, key| node.get(key))
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(entries) => entries,
            _ => &[],
        }
    }

    /// The items, if this is an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces), with a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(width) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', width * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{:?}` is the shortest decimal that parses back to the same
            // bits, so a measured value keeps all its digits.
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (k, (key, value)) in entries.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent, depth + 1);
                }
                if !entries.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn write_string(out: &mut String, s: &str) {
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
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        // Counts beyond i64 do not occur; a float keeps the magnitude.
        i64::try_from(x).map_or(Json::Num(x as f64), Json::Int)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::from(x as u64)
    }
}
impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}
impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::Str(x.to_string())
    }
}
impl From<String> for Json {
    fn from(x: String) -> Json {
        Json::Str(x)
    }
}
impl From<Vec<Json>> for Json {
    fn from(x: Vec<Json>) -> Json {
        Json::Arr(x)
    }
}

/// Nesting bound: result files are four levels deep; input is a file the
/// user names, so recursion must not be theirs to choose.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(|p| {
                p.pos += 1;
                let mut items = Vec::new();
                p.skip_ws();
                if p.bytes.get(p.pos) == Some(&b']') {
                    p.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(p.value()?);
                    p.skip_ws();
                    if p.bytes.get(p.pos) == Some(&b',') {
                        p.pos += 1;
                    } else {
                        p.eat(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }),
            Some(b'{') => self.nested(|p| {
                p.pos += 1;
                let mut entries = Vec::new();
                p.skip_ws();
                if p.bytes.get(p.pos) == Some(&b'}') {
                    p.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(b':')?;
                    entries.push((key, p.value()?));
                    p.skip_ws();
                    if p.bytes.get(p.pos) == Some(&b',') {
                        p.pos += 1;
                    } else {
                        p.eat(b'}')?;
                        return Ok(Json::Obj(entries));
                    }
                }
            }),
            Some(_) => self.number(),
        }
    }

    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Json, String>,
    ) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if let Ok(whole) = text.parse::<i64>() {
            return Ok(Json::Int(whole));
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            // Lone surrogates become U+FFFD; this writer
                            // only ever emits \u for control characters.
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_keeps_every_digit_and_the_order() {
        let doc = Json::obj()
            .with("wall_s", 1.203_456_789_012_345_6)
            .with("tiny", 1.0e-7)
            .with("count", 2474u64)
            .with("ok", true)
            .with("name", "a \"quoted\"\tname\n\u{1}")
            .with("none", Json::Null)
            .with(
                "nested",
                Json::obj().with("list", vec![Json::Num(1.0), Json::Str("x".into())]),
            );
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
        assert!(doc.render().starts_with("{\"wall_s\":1.2034567890123455,"));
        assert!(
            doc.render().contains("\"count\":2474,"),
            "whole numbers have no fraction"
        );
        assert_eq!(
            doc.path(&["nested", "list"]).unwrap().items()[1].as_str(),
            Some("x")
        );
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let doc = Json::obj().with("x", f64::NAN).with("y", f64::INFINITY);
        assert_eq!(doc.render(), "{\"x\":null,\"y\":null}");
    }

    #[test]
    fn set_replaces_in_place() {
        let mut doc = Json::obj().with("a", 1.0).with("b", 2.0);
        doc.set("a", 3.0);
        assert_eq!(doc.render(), "{\"a\":3.0,\"b\":2.0}");
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "", "{", "[1,", "{\"a\" 1}", "\"open", "nul", "1 2", "{\"a\":}", "[1,]", "\"\\q\"",
            "\"\\u12\"", "--", "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
    }
}
