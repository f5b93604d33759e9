//! Offline shim for `serde_json`: text parsing and printing for the shim
//! `serde`'s [`Value`] tree, plus `from_str`/`to_string`/`to_string_pretty`
//! over any `Serialize`/`Deserialize` type.

pub use serde::Value;

use serde::{Deserialize, Serialize};

/// Parse or conversion error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.to_string())
    }
}

/// Serialize `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serialize `value` as human-readable JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Parse JSON text into any deserializable type (including [`Value`]).
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

// ---- printer ----------------------------------------------------------

fn write_value(v: &Value, indent: Option<usize>, level: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                // `{:?}` prints the shortest representation that
                // round-trips, and always includes a `.` or exponent.
                out.push_str(&format!("{f:?}"));
            } else {
                // Match upstream serde_json: non-finite floats print null.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            write_seq(
                items.iter(),
                indent,
                level,
                out,
                '[',
                ']',
                |item, lvl, o| {
                    write_value(item, indent, lvl, o);
                },
            );
        }
        Value::Object(members) => {
            write_seq(
                members.iter(),
                indent,
                level,
                out,
                '{',
                '}',
                |(k, item), lvl, o| {
                    write_string(k, o);
                    o.push(':');
                    if indent.is_some() {
                        o.push(' ');
                    }
                    write_value(item, indent, lvl, o);
                },
            );
        }
    }
}

fn write_seq<I: ExactSizeIterator>(
    items: I,
    indent: Option<usize>,
    level: usize,
    out: &mut String,
    open: char,
    close: char,
    mut write_item: impl FnMut(I::Item, usize, &mut String),
) {
    out.push(open);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (level + 1)));
        }
        write_item(item, level + 1, out);
    }
    if !empty {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * level));
        }
    }
    out.push(close);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser -----------------------------------------------------------

/// The deepest nesting of arrays and objects [`parse`] accepts, as in
/// serde_json. The parser recurses once per level, so without a limit a
/// deeply nested input overflows the stack and aborts the process.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// Parse JSON text into a [`Value`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
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

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parse one array or object with `container`, one level deeper;
    /// past [`MAX_DEPTH`] levels, fail instead.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut members = Vec::new();
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
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the raw bytes through.
                b => {
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = if b >= 0xF0 {
                            4
                        } else if b >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        let end = start + len;
                        let slice = self
                            .bytes
                            .get(start..end)
                            .ok_or_else(|| self.error("truncated UTF-8"))?;
                        out.push_str(
                            std::str::from_utf8(slice).map_err(|_| self.error("invalid UTF-8"))?,
                        );
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let s = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let s = std::str::from_utf8(s).map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.error("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| self.error("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| self.error("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("a \"b\"\n".into())),
            ("count".into(), Value::U64(3)),
            ("neg".into(), Value::I64(-7)),
            ("ratio".into(), Value::F64(2.5)),
            (
                "items".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, v, "failed for {text}");
        }
    }

    #[test]
    fn floats_keep_distinction_from_ints() {
        let text = to_string(&Value::F64(3.0)).unwrap();
        assert_eq!(text, "3.0");
        assert_eq!(from_str::<Value>("3.0").unwrap(), Value::F64(3.0));
        assert_eq!(from_str::<Value>("3").unwrap(), Value::U64(3));
        assert_eq!(from_str::<Value>("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(to_string(&Value::F64(f64::NAN)).unwrap(), "null");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nest = |levels: usize| {
            let open: String = (0..levels)
                .map(|i| if i % 2 == 0 { "[" } else { "{\"a\":" })
                .collect();
            let close: String = (0..levels)
                .rev()
                .map(|i| if i % 2 == 0 { "]" } else { "}" })
                .collect();
            format!("{open}0{close}")
        };
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        for levels in [MAX_DEPTH + 1, 40_000] {
            let err = from_str::<Value>(&nest(levels)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // Siblings do not add up: only open containers count.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let v = Value::Str("héllo ☃ \u{1F600}".into());
        let text = to_string(&v).unwrap();
        assert_eq!(from_str::<Value>(&text).unwrap(), v);
        // Escaped input form.
        assert_eq!(
            from_str::<Value>(r#""😀""#).unwrap(),
            Value::Str("\u{1F600}".into())
        );
        assert_eq!(
            from_str::<Value>(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("\u{1F600}".into())
        );
        // A high surrogate must pair with a low one, not any escape.
        for text in [r#""\ud800\u0041""#, r#""\ud800\uffff""#, r#""\udc00""#] {
            assert!(from_str::<Value>(text).is_err(), "{text}");
        }
    }
}
