//! The workspace's one JSON value: the tree every exported format
//! (`sttcp-obs-v1`, `sttcp-trace-v1`, chaos fault plans and failure
//! artifacts) is written from and read back through.
//!
//! The dialect is what those formats use and nothing more: objects,
//! arrays, strings, booleans, `null` and **unsigned integers**. A number
//! is a `u64` and round-trips exactly over its whole range (trace
//! timestamps and sequence numbers rely on it); a sign, fraction or
//! exponent is a parse error, as is anything past `u64::MAX`. Object
//! members keep insertion order, so equal values serialize to
//! byte-identical text.

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (exact over the whole `u64` range).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text. Returns `None` on any syntax error, number
    /// outside the dialect, or trailing garbage.
    pub fn parse(text: &str) -> Option<Value> {
        let mut p = Parser { text, pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        (p.pos == text.len()).then_some(v)
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`, always on a character boundary.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Option<()> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.eat_lit("null").map(|()| Value::Null),
            b't' => self.eat_lit("true").map(|()| Value::Bool(true)),
            b'f' => self.eat_lit("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.text.get(self.pos + 1..self.pos + 5)?;
                            out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the run up to the next quote or escape in one
                    // go (both are ASCII, so the cut is a boundary).
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        self.text[start..self.pos].parse().ok().map(Value::Num)
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Value::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Value::Obj(members));
                }
                _ => return None,
            }
        }
    }
}

/// Convenience: an object from key/value pairs.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Convenience: a string value.
pub fn str(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Convenience: a `u64` as a fixed-width hex string (how seeds and frame
/// digests are written, so they read as the constants in the source).
pub fn hex(n: u64) -> Value {
    Value::Str(format!("{n:#018x}"))
}

/// Parses a [`hex`]-encoded `u64`.
pub fn from_hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = obj([
            ("name", str("tap \"drop\"\n")),
            ("count", Value::Num(3)),
            ("seed", hex(0xDEAD_BEEF_0123_4567)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            ("ops", Value::Arr(vec![Value::Num(1), Value::Num(0), str("αβ")])),
        ]);
        let text = v.to_json();
        let back = Value::parse(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(from_hex(back.get("seed").unwrap()), Some(0xDEAD_BEEF_0123_4567));
    }

    #[test]
    fn every_u64_round_trips_exactly() {
        // 2^53 + 1 is where an f64-backed number first goes wrong.
        for n in [0, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let text = Value::Num(n).to_json();
            assert_eq!(text, n.to_string());
            assert_eq!(Value::parse(&text), Some(Value::Num(n)));
        }
        assert_eq!(Value::parse("18446744073709551616"), None, "u64::MAX + 1 is out of range");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"\\q\"",
            "nan",
            "-1",
            "2.5",
            "1e3",
            "not json",
            "\"open",
        ] {
            assert_eq!(Value::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_accepts_whitespace_and_empties() {
        let v = Value::parse(" { \"a\" : [ ] , \"b\" : { } } ").expect("parses");
        assert_eq!(v.get("a"), Some(&Value::Arr(vec![])));
        assert_eq!(v.get("b"), Some(&Value::Obj(vec![])));
    }
}
