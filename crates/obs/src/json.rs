//! Strict JSON: the escaper every writer shares and the one reader every
//! parser in the workspace goes through.
//!
//! Writers stay hand-rolled `format!` calls, so each one owns its exact
//! bytes; they share [`escape`] for string contents. Readers call
//! [`parse`], which accepts RFC 8259 JSON only. It rejects:
//!
//! - unquoted keys, trailing commas, and bytes after the document;
//! - a leading `+`, `NaN`/`inf` literals, and raw control characters in
//!   strings;
//! - duplicate keys within one object;
//! - nesting deeper than [`MAX_DEPTH`] containers (the reader recurses, so
//!   the cap also bounds its stack).
//!
//! Numbers stay as their source text and are only converted on request
//! ([`Value::as_uint`], [`Value::as_f64`]): checkpoints store every float
//! as its `f64::to_bits` pattern, a full-range `u64` that an
//! `f64`-backed number would round. Every value also exposes its exact
//! source text ([`Value::text`]), so a container can hand a nested object
//! on verbatim. [`Value::fields`] destructures an object into the values
//! of the keys a codec expects and fails on a missing or unknown key.
//!
//! ```
//! let [id, name] = obs::json::parse(r#"{"id":7,"name":"pad"}"#)?.fields(["id", "name"])?;
//! assert_eq!(id.as_uint::<u16>()?, 7);
//! assert_eq!(name.as_str()?, "pad");
//! assert!(obs::json::parse(r#"{"id":+7}"#).is_err());
//! # Ok::<(), obs::json::JsonError>(())
//! ```

use std::borrow::Cow;
use std::fmt;
use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. The deepest document the
/// workspace writes, a checkpoint's stroke bounding box, sits 6 levels
/// down.
pub const MAX_DEPTH: usize = 16;

/// Escapes a string for use between JSON quotes: `"` and `\` are
/// backslash-escaped, control characters become `\n`/`\r`/`\t` or
/// `\u00XX`.
pub fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    for c in value.chars() {
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

/// Why a document was rejected, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the parsed document.
    pub offset: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// One parsed JSON value, borrowing from the document.
#[derive(Debug, Clone, PartialEq)]
pub struct Value<'a> {
    offset: usize,
    text: &'a str,
    kind: Kind<'a>,
}

#[derive(Debug, Clone, PartialEq)]
enum Kind<'a> {
    Null,
    Bool(bool),
    /// The digits are the value's `text`.
    Number,
    String(Cow<'a, str>),
    Array(Vec<Value<'a>>),
    /// Members in document order; keys are unique.
    Object(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The value's exact source text.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// An error located at this value.
    pub fn error(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.offset,
            reason: reason.into(),
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        self.kind == Kind::Null
    }

    /// The value as a boolean, or an error if it is not one.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self.kind {
            Kind::Bool(b) => Ok(b),
            _ => Err(self.error("expected a boolean")),
        }
    }

    /// The value as an unescaped string, or an error if it is not one.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match &self.kind {
            Kind::String(s) => Ok(s),
            _ => Err(self.error("expected a string")),
        }
    }

    /// The value as an unsigned integer of type `T`, or an error unless it
    /// is one: no sign, fraction, or exponent, and within `T`'s range.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Result<T, JsonError> {
        self.number::<u64>()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| {
                let ty = std::any::type_name::<T>();
                self.error(format!("expected an unsigned integer of type {ty}"))
            })
    }

    /// The value as a finite `f64`, correctly rounded from its digits, or
    /// an error if it is not a number or overflows `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        self.number::<f64>()
            .filter(|v| v.is_finite())
            .ok_or_else(|| self.error("expected a number in the f64 range"))
    }

    /// A number's digits parsed as `N`; `None` for any other value, or if
    /// `N` cannot hold the digits.
    fn number<N: std::str::FromStr>(&self) -> Option<N> {
        match self.kind {
            Kind::Number => self.text.parse().ok(),
            _ => None,
        }
    }

    /// The items of an array, or an error if the value is not one.
    pub fn into_array(self) -> Result<Vec<Value<'a>>, JsonError> {
        match self.kind {
            Kind::Array(items) => Ok(items),
            _ => Err(self.error("expected an array")),
        }
    }

    /// The members of an object in document order, or an error if the
    /// value is not one.
    pub fn into_object(self) -> Result<Vec<(Cow<'a, str>, Value<'a>)>, JsonError> {
        match self.kind {
            Kind::Object(members) => Ok(members),
            _ => Err(self.error("expected an object")),
        }
    }

    /// Destructures an object whose members are exactly `keys`: returns
    /// their values in `keys` order.
    ///
    /// # Errors
    ///
    /// If the value is not an object, lacks one of `keys` ("missing
    /// field"), or has a member not in `keys` ("unknown field").
    pub fn fields<const N: usize>(self, keys: [&str; N]) -> Result<[Value<'a>; N], JsonError> {
        let offset = self.offset;
        let mut members = self.into_object()?;
        let mut taken = Vec::with_capacity(N);
        for key in keys {
            let at = members
                .iter()
                .position(|(k, _)| k == key)
                .ok_or_else(|| JsonError {
                    offset,
                    reason: format!("missing field {key:?}"),
                })?;
            taken.push(members.remove(at).1);
        }
        if let Some((key, value)) = members.first() {
            return Err(value.error(format!("unknown field {key:?}")));
        }
        Ok(taken.try_into().expect("one value per key"))
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// On any input that is not RFC 8259 JSON, on duplicate keys, and on
/// nesting deeper than [`MAX_DEPTH`]; the error carries the byte offset.
pub fn parse(src: &str) -> Result<Value<'_>, JsonError> {
    let mut parser = Parser { src, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != src.len() {
        return Err(parser.error("trailing bytes after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn error(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        self.skip(&[byte])
    }

    /// Parses the value at the cursor; `depth` counts the containers
    /// enclosing it.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let kind = match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Kind::Array(items)
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected a quoted key"));
                    }
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return Err(p.error("expected ':' after a key"));
                    }
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                if let Some(key) = duplicate_key(&members) {
                    return Err(JsonError {
                        offset: start,
                        reason: format!("duplicate key {key:?}"),
                    });
                }
                Kind::Object(members)
            }
            Some(b'"') => Kind::String(self.string()?),
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
                Kind::Number
            }
            Some(b't') => self.literal("true", Kind::Bool(true))?,
            Some(b'f') => self.literal("false", Kind::Bool(false))?,
            Some(b'n') => self.literal("null", Kind::Null)?,
            Some(_) => return Err(self.error("expected a JSON value")),
            None => return Err(self.error("unexpected end of input")),
        };
        Ok(Value {
            offset: start,
            text: &self.src[start..self.pos],
            kind,
        })
    }

    /// Parses the comma-separated entries of an array or object, from its
    /// opening bracket through `close`, with `entry` reading each one.
    fn items(
        &mut self,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.pos += 1;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            entry(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error(format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn literal(&mut self, word: &str, kind: Kind<'a>) -> Result<Kind<'a>, JsonError> {
        if !self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.error("expected a JSON value"));
        }
        self.pos += word.len();
        Ok(kind)
    }

    /// Consumes `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<(), JsonError> {
        self.skip(b"-");
        if !self.skip(b"0") {
            self.digits()?;
        }
        if self.skip(b".") {
            self.digits()?;
        }
        if self.skip(b"eE") {
            self.skip(b"+-");
            self.digits()?;
        }
        Ok(())
    }

    /// Consumes one byte if it is one of `any`.
    fn skip(&mut self, any: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| any.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes one or more decimal digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }

    /// Parses a quoted string, borrowing it when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            // Plain bytes run up to the next quote, backslash or control
            // byte; that byte is ASCII, so the slice ends on a char
            // boundary.
            let run = self.pos;
            let rest = &self.src.as_bytes()[run..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let plain = &self.src[run..self.pos];
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(s) => Cow::Owned(s + plain),
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(plain);
                    self.pos += 1;
                    s.push(self.escaped_char()?);
                }
                Some(_) => return Err(self.error("raw control character in a string")),
            }
        }
    }

    /// Decodes the escape after a backslash, pairing UTF-16 surrogates.
    fn escaped_char(&mut self) -> Result<char, JsonError> {
        let simple = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let at = self.error("unpaired surrogate escape");
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.src[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(at);
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                return char::from_u32(code).ok_or(at);
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(simple)
    }

    /// Consumes four hex digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }
}

/// A key that occurs twice among `members`. Sorting keeps hostile objects
/// with many members O(n log n).
fn duplicate_key<'m>(members: &'m [(Cow<'_, str>, Value<'_>)]) -> Option<&'m str> {
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind_and_keeps_source_text() {
        let doc = r#" {"a":[1,-2.5e3,true,false,null],"b":{"c":"x\"é😀"}} "#;
        let [a, b] = parse(doc).unwrap().fields(["a", "b"]).unwrap();
        assert_eq!(a.text(), "[1,-2.5e3,true,false,null]");
        let items = a.into_array().unwrap();
        assert_eq!(items[0].as_uint::<u8>(), Ok(1));
        assert_eq!(items[1].as_f64(), Ok(-2500.0));
        assert_eq!(items[2].as_bool(), Ok(true));
        assert!(items[4].is_null());
        assert_eq!(b.text(), r#"{"c":"x\"é😀"}"#);
        let [c] = b.fields(["c"]).unwrap();
        assert_eq!(c.as_str(), Ok("x\"é😀"));
    }

    #[test]
    fn integers_keep_full_u64_range() {
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max.as_uint::<u64>(), Ok(u64::MAX));
        assert!(max.as_uint::<u32>().is_err());
        for not_u64 in ["18446744073709551616", "-1", "1.0", "1e3", "\"1\""] {
            let v = parse(not_u64).unwrap();
            assert!(v.as_uint::<u64>().is_err(), "{not_u64}");
        }
        assert!(
            parse("1e400").unwrap().as_f64().is_err(),
            "overflows to inf"
        );
    }

    #[test]
    fn errors_name_the_field_and_carry_the_offset() {
        let doc = r#"{"a":1,"b":2}"#;
        let missing = parse(doc).unwrap().fields(["a", "c"]).unwrap_err();
        assert_eq!(missing.reason, "missing field \"c\"");
        let unknown = parse(doc).unwrap().fields(["a"]).unwrap_err();
        assert_eq!(
            (unknown.offset, unknown.reason.as_str()),
            (11, "unknown field \"b\"")
        );
        assert_eq!(parse(r#"{"a":1,}"#).unwrap_err().offset, 7);
        assert_eq!(parse(r#"[{"a":1,"a":2}]"#).unwrap_err().offset, 1);
        assert_eq!(parse("[1] x").unwrap_err().offset, 4);
    }
}
