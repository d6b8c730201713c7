//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json): the
//! JSON text format on top of the shimmed `serde` [`Value`] tree.
//!
//! Provides exactly what this workspace calls: [`to_string`],
//! [`to_string_pretty`], [`from_str`] and [`read_json`], plus [`Value`]
//! re-exported for ad-hoc inspection. See `docs/offline-build.md` for why
//! the workspace vendors its dependencies.
//!
//! The codec works in runs, not per value:
//!
//! - [`to_string`] writes through [`Serialize::write_json`], so typed data
//!   (derived structs, vectors, strings, integers) reaches the text without
//!   a [`Value`] per element; other types write their tree. Integers are
//!   formatted in a stack buffer, strings are copied a run of unescaped
//!   bytes at a time, and compact output has no indent calls.
//!   [`to_string_pretty`] writes the tree with two-space indents.
//! - The parser copies string runs between `"` and `\` whole (the input is
//!   a `&str`, so every run is valid UTF-8), reads plain integers of up to
//!   18 digits in one pass (every other number goes through `str::parse`
//!   as before), and reads runs of integers inside arrays with its cursor
//!   alone.
//! - [`read_json`] reads typed data through [`Deserialize::read_json`], with
//!   that parser as the token source: derived structs, vectors, strings and
//!   integers are read without a [`Value`] per element.
//! - [`from_str`] parses the text as a tree and moves it into
//!   [`Deserialize::from_owned`], never copied.
//!
//! The per-character writer and parser the codec replaced are kept in
//! `oracle.rs`, compiled into tests only: the codec must write the same
//! bytes from every tree and parse every input to the same tree or the same
//! error message, byte offsets included.

pub use serde::Value;

use serde::{Deserialize, Serialize};
use std::fmt;

mod oracle;

/// A JSON serialization or parse failure.
#[derive(Clone, Debug)]
pub struct Error {
    msg: String,
    /// See [`Error::is_syntax`].
    syntax: bool,
}

impl Error {
    /// A failure of the text itself: it is not JSON.
    fn syntax(msg: impl Into<String>) -> Error {
        Error {
            msg: msg.into(),
            syntax: true,
        }
    }

    /// A failure to read the type asked for from the text.
    fn data(msg: impl Into<String>) -> Error {
        Error {
            msg: msg.into(),
            syntax: false,
        }
    }

    /// Whether the text is not JSON. Then the tree parse fails on it with
    /// this same message, so [`from_str`] returns this error for every
    /// type. Only parse failures are syntax errors: a typed read that
    /// fails for any other reason says `false`, even on text that is not
    /// JSON further on.
    pub fn is_syntax(&self) -> bool {
        self.syntax
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::de::Error> for Error {
    fn from(e: serde::de::Error) -> Error {
        Error::data(e.to_string())
    }
}

/// Serializes a value to compact JSON, through [`Serialize::write_json`]:
/// typed data is written field by field, without building its tree.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut Compact(&mut out));
    Ok(out)
}

/// Serializes a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value::<true>(&value.to_value(), &mut out, 0);
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type: the text's tree, moved
/// into [`Deserialize::from_owned`].
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_owned(value)?)
}

/// Reads JSON text into `T` through [`Deserialize::read_json`], with no
/// tree for the types that read tokens directly. Whenever it returns `Ok`,
/// [`from_str`] returns the same value; its errors are the typed reader's,
/// and it fails on some text [`from_str`] accepts (unknown or repeated keys
/// of a derived struct). An error [`Error::is_syntax`] marks is the one
/// [`from_str`] returns.
pub fn read_json<T: Deserialize>(s: &str) -> Result<T, Error> {
    Reader::new(s).read()
}

/// The compact writer behind [`to_string`].
struct Compact<'a>(&'a mut String);

impl serde::ser::JsonWriter for Compact<'_> {
    fn raw(&mut self, s: &str) {
        self.0.push_str(s);
    }
    fn int(&mut self, neg: bool, n: u64) {
        write_int(neg, n, self.0);
    }
    fn str(&mut self, s: &str) {
        write_escaped(s, self.0);
    }
    fn value(&mut self, v: &Value) {
        write_value::<false>(v, self.0, 0);
    }
}

/// `"00" ..= "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/// Appends an integer's decimal digits, formatted two at a time in a stack
/// buffer.
fn write_int(neg: bool, mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    if neg {
        out.push('-');
    }
    for &d in &buf[i..] {
        out.push(char::from(d));
    }
}

/// Writes `s` as a JSON string, copying every run of bytes that needs no
/// escape whole. Quote, backslash and control bytes are ASCII, so each run
/// ends on a character boundary.
fn write_escaped(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        // `\u00` takes the byte's two hex digits.
        if escape.len() > 2 {
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Indent width of [`to_string_pretty`].
const INDENT: usize = 2;

fn newline_indent<const PRETTY: bool>(out: &mut String, depth: usize) {
    if PRETTY {
        out.push('\n');
        for _ in 0..INDENT * depth {
            out.push(' ');
        }
    }
}

fn write_value<const PRETTY: bool>(v: &Value, out: &mut String, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write_int(*i < 0, i.unsigned_abs(), out),
        Value::UInt(u) => write_int(false, *u, out),
        Value::Float(f) => {
            if f.is_finite() {
                // Always keep a decimal point or exponent so the token
                // re-parses as a float.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent::<PRETTY>(out, depth + 1);
                write_value::<PRETTY>(item, out, depth + 1);
            }
            newline_indent::<PRETTY>(out, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent::<PRETTY>(out, depth + 1);
                write_escaped(k, out);
                out.push_str(if PRETTY { ": " } else { ":" });
                write_value::<PRETTY>(item, out, depth + 1);
            }
            newline_indent::<PRETTY>(out, depth);
            out.push('}');
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// The plain integer token at `pos`: an optional `-` and 1 to 18 digits
/// that no other number character follows, so it fits `i64` and means the
/// same as `str::parse` of the token. Returns the value and the end of the
/// token, or `None` for every other token.
fn plain_int(bytes: &[u8], pos: usize) -> Option<(i64, usize)> {
    let neg = bytes.get(pos) == Some(&b'-');
    let digits = pos + usize::from(neg);
    let mut end = digits;
    let mut n: i64 = 0;
    while let Some(&b @ b'0'..=b'9') = bytes.get(end) {
        if end - digits == 18 {
            return None;
        }
        n = n * 10 + i64::from(b - b'0');
        end += 1;
    }
    if end == digits || matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
        return None;
    }
    Some((if neg { -n } else { n }, end))
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    /// Checks that only whitespace follows the value just read.
    fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::syntax(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::syntax("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::syntax(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::syntax(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(Error::syntax(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run is whole characters of `src`.
            let start = self.pos;
            let Some(len) = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(Error::syntax("unterminated string"));
            };
            self.pos += len + 1;
            out.push_str(&self.src[start..start + len]);
            if self.bytes[start + len] == b'"' {
                return Ok(out);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err(Error::syntax("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| Error::syntax("truncated \\u escape"))?;
                    // Exactly four hex digits: `u32::from_str_radix` would
                    // also take a leading `+`.
                    let code = hex
                        .iter()
                        .try_fold(0u32, |code, &d| {
                            Some(code << 4 | char::from(d).to_digit(16)?)
                        })
                        .ok_or_else(|| Error::syntax("invalid \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not needed by this workspace's
                    // data; map lone surrogates to the replacement
                    // character.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(Error::syntax("invalid escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        if let Some((i, end)) = plain_int(self.bytes, self.pos) {
            self.pos = end;
            return Ok(Value::Int(i));
        }
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The token is ASCII, so it is whole characters of `src`.
        let text = &self.src[start..self.pos];
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::syntax(format!("invalid number '{text}'")))
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            // A run of plain integers, each directly followed by ',' or
            // ']', is read with the cursor alone; anything else (spaces
            // included) takes the general path below.
            while let Some((i, end)) = plain_int(self.bytes, self.pos) {
                match self.bytes.get(end) {
                    Some(b',') => {
                        items.push(Value::Int(i));
                        self.pos = end + 1;
                    }
                    Some(b']') => {
                        items.push(Value::Int(i));
                        self.pos = end + 1;
                        return Ok(Value::Array(items));
                    }
                    _ => break,
                }
            }
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::syntax(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::syntax(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

/// The token source behind [`read_json`]: the tree [`Parser`]'s own
/// string, number, literal and integer-run code, driven one token at a time
/// by [`Deserialize::read_json`].
///
/// The reader consumes text exactly as the tree parse does, so where it
/// meets a syntax error the tree parse meets the same one, with the same
/// message. It notes each such error; a token of the wrong kind for the
/// type read is not one.
struct Reader<'a> {
    p: Parser<'a>,
    /// Set by `begin_array`/`begin_object`: the next item or key is the
    /// first, so no `,` comes before it. The first `next_item`/`next_key`
    /// clears it before any nested value is read, so one flag serves every
    /// depth.
    first: bool,
    /// The message of the last syntax error met.
    syntax: Option<String>,
}

impl From<Error> for serde::de::Error {
    fn from(e: Error) -> serde::de::Error {
        serde::de::Error::custom(e.msg)
    }
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Reader<'a> {
        Reader {
            p: Parser::new(s),
            first: false,
            syntax: None,
        }
    }

    /// Reads the whole text as one `T`. The error is a syntax error when
    /// the read ended at one.
    fn read<T: Deserialize>(&mut self) -> Result<T, Error> {
        let read = T::read_json(self).map_err(Error::from).and_then(|v| {
            let end = self.p.end();
            self.syntax(end).map(|()| v)
        });
        read.map_err(|e| match self.syntax.take() {
            Some(msg) if msg == e.msg => Error::syntax(msg),
            _ => Error::data(e.msg),
        })
    }

    /// Passes `r` on, noting its error as a syntax error.
    fn syntax<T>(&mut self, r: Result<T, Error>) -> Result<T, Error> {
        if let Err(e) = &r {
            self.syntax = Some(e.msg.clone());
        }
        r
    }

    /// Checks, without consuming it, that the next token starts with
    /// `byte`, as the type read needs. The end of input is a syntax error;
    /// any other byte is not.
    fn starts(&mut self, byte: u8) -> Result<(), Error> {
        let peeked = self.p.peek();
        if self.syntax(peeked)? == byte {
            Ok(())
        } else {
            Err(Error::data(format!(
                "expected '{}' at byte {}",
                byte as char, self.p.pos
            )))
        }
    }

    /// Reads the `,` before the next item, or the closing byte `close`
    /// (returning `false`).
    fn next(&mut self, close: u8) -> Result<bool, Error> {
        let peeked = self.p.peek();
        let b = self.syntax(peeked)?;
        if std::mem::take(&mut self.first) {
            if b == close {
                self.p.pos += 1;
                return Ok(false);
            }
            return Ok(true);
        }
        match b {
            b',' => {
                self.p.pos += 1;
                Ok(true)
            }
            _ if b == close => {
                self.p.pos += 1;
                Ok(false)
            }
            _ => {
                let e = Error::syntax(format!(
                    "expected ',' or '{}' at byte {}",
                    close as char, self.p.pos
                ));
                self.syntax(Err(e))
            }
        }
    }
}

/// An integer as the tree holds it, or `None` for a float.
fn int_of(v: &Value) -> Option<i128> {
    match *v {
        Value::Int(i) => Some(i.into()),
        Value::UInt(u) => Some(u.into()),
        _ => None,
    }
}

impl serde::de::JsonReader for Reader<'_> {
    fn value(&mut self) -> Result<Value, serde::de::Error> {
        let value = self.p.value();
        Ok(self.syntax(value)?)
    }

    fn bool(&mut self) -> Result<bool, serde::de::Error> {
        let peeked = self.p.peek();
        let b = match self.syntax(peeked)? {
            b't' => true,
            b'f' => false,
            _ => return Err(Error::data(format!("expected bool at byte {}", self.p.pos)).into()),
        };
        let literal = self
            .p
            .literal(if b { "true" } else { "false" }, Value::Bool(b));
        self.syntax(literal)?;
        Ok(b)
    }

    fn int(&mut self) -> Result<i128, serde::de::Error> {
        let peeked = self.p.peek();
        let b = self.syntax(peeked)?;
        let at = self.p.pos;
        let not_int = || Error::data(format!("expected integer at byte {at}")).into();
        match b {
            b'-' | b'0'..=b'9' => {
                let number = self.p.number();
                int_of(&self.syntax(number)?).ok_or_else(not_int)
            }
            _ => Err(not_int()),
        }
    }

    fn str(&mut self) -> Result<String, serde::de::Error> {
        self.starts(b'"')?;
        let string = self.p.string();
        Ok(self.syntax(string)?)
    }

    fn begin_array(&mut self) -> Result<(), serde::de::Error> {
        self.starts(b'[')?;
        self.p.pos += 1;
        self.first = true;
        Ok(())
    }

    fn next_item(&mut self) -> Result<bool, serde::de::Error> {
        Ok(self.next(b']')?)
    }

    fn ints(
        &mut self,
        each: &mut dyn FnMut(i128) -> Result<(), serde::de::Error>,
    ) -> Result<(), serde::de::Error> {
        self.begin_array()?;
        loop {
            if !self.next(b']')? {
                return Ok(());
            }
            // The integer run of `Parser::array`: plain integers directly
            // followed by ',' or ']' are read with the cursor alone.
            while let Some((i, end)) = plain_int(self.p.bytes, self.p.pos) {
                match self.p.bytes.get(end) {
                    Some(b',') => {
                        each(i.into())?;
                        self.p.pos = end + 1;
                    }
                    Some(b']') => {
                        each(i.into())?;
                        self.p.pos = end + 1;
                        return Ok(());
                    }
                    _ => break,
                }
            }
            each(self.int()?)?;
        }
    }

    fn begin_object(&mut self) -> Result<(), serde::de::Error> {
        self.starts(b'{')?;
        self.p.pos += 1;
        self.first = true;
        Ok(())
    }

    fn next_key(&mut self) -> Result<Option<String>, serde::de::Error> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        let key = self.p.string();
        let key = self.syntax(key)?;
        let colon = self.p.expect(b':');
        self.syntax(colon)?;
        Ok(Some(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy;

    #[test]
    fn roundtrip_nested() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("strassen \"fast\"".into())),
            ("n".into(), Value::Int(7)),
            ("omega".into(), Value::Float(2.807)),
            (
                "rows".into(),
                Value::Array(vec![Value::Int(1), Value::Int(-2)]),
            ),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
        ]);
        let compact = to_string(&v).unwrap();
        let parsed: Value = from_str(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        let parsed_pretty: Value = from_str(&pretty).unwrap();
        assert_eq!(parsed_pretty, v);
        assert!(pretty.contains("\n  \"name\""));
    }

    #[test]
    fn malformed_rejected() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"abc").is_err());
    }

    #[test]
    fn integers_stay_exact() {
        let parsed: Value = from_str("18446744073709551615").unwrap();
        assert_eq!(parsed, Value::UInt(u64::MAX));
        let parsed: Value = from_str("-9223372036854775808").unwrap();
        assert_eq!(parsed, Value::Int(i64::MIN));
    }

    #[test]
    fn floats_keep_a_marker() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
    }

    #[test]
    fn multibyte_strings_roundtrip() {
        // Adjacent multibyte chars and ASCII after a multibyte prefix, all
        // copied as one run.
        let s = "ω₀ ≈ 2.807 — strassen⊗strassen, naïve=false, ✓✓✓ 123".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        // A long single-token string parses in linear time; this is the
        // regression shape (schedule certificates carry ~10⁶-char op
        // strings), though only correctness is asserted here.
        let long = "LC".repeat(1 << 18);
        let back: String = from_str(&to_string(&long).unwrap()).unwrap();
        assert_eq!(back, long);
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "line\nbreak\ttab \"quote\" back\\slash".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    /// The new parser and the old one agree on `input`: the same tree, or
    /// the same error message.
    fn same_as_oracle(input: &str) -> Result<Value, String> {
        let new = from_str::<Value>(input).map_err(|e| e.to_string());
        let old = oracle::parse(input).map_err(|e| e.to_string());
        assert_eq!(new, old, "input {input:?}");
        new
    }

    /// Malformed inputs, with the messages and byte offsets the per-byte
    /// parser reported for them.
    const MALFORMED: &[(&str, &str)] = &[
        ("", "unexpected end of input"),
        ("   ", "unexpected end of input"),
        ("{", "unexpected end of input"),
        ("[1,2", "unexpected end of input"),
        ("{\"a\":1,", "unexpected end of input"),
        ("cert", "unexpected character 'c' at byte 0"),
        ("[1,]", "unexpected character ']' at byte 3"),
        ("\u{fc}", "unexpected character '\u{c3}' at byte 0"),
        (" [1, 2,, 3]", "unexpected character ',' at byte 7"),
        ("nul", "invalid literal at byte 0"),
        ("[true, fals]", "invalid literal at byte 7"),
        ("1 2", "trailing characters at byte 2"),
        ("[1]x", "trailing characters at byte 3"),
        ("01x", "trailing characters at byte 2"),
        ("[1 2]", "expected ',' or ']' at byte 3"),
        ("[1\n,2 3]", "expected ',' or ']' at byte 6"),
        ("{\"a\" 1}", "expected ':' at byte 5"),
        ("{\"a\":1 \"b\":2}", "expected ',' or '}' at byte 7"),
        ("{1:2}", "expected '\"' at byte 1"),
        ("\"abc", "unterminated string"),
        ("[\"a\\\"]", "unterminated string"),
        ("\"abc\\", "unterminated escape"),
        ("\"\\q\"", "invalid escape"),
        ("\"\\u12\"", "truncated \\u escape"),
        ("\"\\u12G4\"", "invalid \\u escape"),
        ("\"\\u1\u{e9}\"", "invalid \\u escape"),
        ("-", "invalid number '-'"),
        ("[-]", "invalid number '-'"),
        ("1.2.3", "invalid number '1.2.3'"),
        ("1e", "invalid number '1e'"),
        ("--1", "invalid number '--1'"),
        ("[7,1-]", "invalid number '1-'"),
    ];

    #[test]
    fn malformed_inputs_keep_their_messages() {
        for &(input, want) in MALFORMED {
            assert_eq!(
                same_as_oracle(input),
                Err(want.to_string()),
                "input {input:?}"
            );
        }
        // Declared divergence from the oracle, which reads `\u+041` as "A"
        // (`from_str_radix` takes a leading `+`); strict JSON allows only
        // four hex digits after `\u`. Escape errors carry no byte offset.
        let input = r#""\u+041""#;
        assert_eq!(
            from_str::<Value>(input).map_err(|e| e.to_string()),
            Err("invalid \\u escape".to_string())
        );
        assert_eq!(oracle::parse(input).ok(), Some(Value::Str("A".into())));
    }

    #[test]
    fn numeric_edge_cases() {
        let table: &[(&str, Value)] = &[
            ("-9223372036854775808", Value::Int(i64::MIN)),
            ("9223372036854775807", Value::Int(i64::MAX)),
            ("9223372036854775808", Value::UInt(1 << 63)),
            ("18446744073709551615", Value::UInt(u64::MAX)),
            ("18446744073709551616", Value::Float(18446744073709551616.0)),
            ("-9223372036854775809", Value::Float(-9223372036854775809.0)),
            ("999999999999999999", Value::Int(999_999_999_999_999_999)),
            ("-999999999999999999", Value::Int(-999_999_999_999_999_999)),
            ("1000000000000000000", Value::Int(1_000_000_000_000_000_000)),
            ("0000000000000000000001", Value::Int(1)),
            ("-0", Value::Int(0)),
            ("01", Value::Int(1)),
            ("007", Value::Int(7)),
            ("1e5", Value::Float(1e5)),
            ("1E5", Value::Float(1e5)),
            ("-1.5e-3", Value::Float(-1.5e-3)),
            ("2e+2", Value::Float(200.0)),
            ("1.", Value::Float(1.0)),
            ("-.5", Value::Float(-0.5)),
            ("-0.0", Value::Float(-0.0)),
        ];
        for (input, want) in table {
            assert_eq!(same_as_oracle(input).as_ref(), Ok(want), "input {input:?}");
            // The same tokens as array items, with and without spaces.
            for sep in [",", " , "] {
                let array = format!("[{input}{sep}{input}]");
                let got = same_as_oracle(&array);
                assert_eq!(got, Ok(Value::Array(vec![want.clone(), want.clone()])));
            }
        }
        let writes: &[(Value, &str)] = &[
            (Value::Int(i64::MIN), "-9223372036854775808"),
            (Value::Int(i64::MAX), "9223372036854775807"),
            (Value::Int(0), "0"),
            (Value::Int(-7), "-7"),
            (Value::UInt(u64::MAX), "18446744073709551615"),
            (Value::Float(-0.0), "-0.0"),
            (Value::Float(1e21), "1000000000000000000000.0"),
            (Value::Float(f64::NAN), "null"),
            (Value::Float(f64::NEG_INFINITY), "null"),
        ];
        for (v, want) in writes {
            assert_eq!(to_string(v).unwrap(), *want);
            assert_eq!(oracle::write(v, None), *want);
        }
    }

    #[test]
    fn string_edge_cases() {
        let parses: &[(&str, &str)] = &[
            (r#""\u00e9\/\b\f""#, "\u{e9}/\u{8}\u{c}"),
            (r#""\u20AC\u20ac""#, "€€"),
            (r#""\ud834""#, "\u{fffd}"),
            ("\"a\u{1}b\u{1f}\"", "a\u{1}b\u{1f}"),
            (r#""é\né\"€\\𝄞""#, "é\né\"€\\𝄞"),
            (r#""\\""#, "\\"),
            (r#""""#, ""),
        ];
        for &(input, want) in parses {
            assert_eq!(same_as_oracle(input), Ok(Value::Str(want.into())));
        }
        let writes: &[(&str, &str)] = &[
            (
                "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
                "\"\\u0000\\u0001\\u0008\\u000c\\u001f\u{7f}\"",
            ),
            ("é\"ü\\\n\r\t€𝄞", r#""é\"ü\\\n\r\t€𝄞""#),
            ("plain", r#""plain""#),
            ("", r#""""#),
        ];
        for &(s, want) in writes {
            let v = Value::Str(s.into());
            assert_eq!(to_string(&v).unwrap(), want);
            assert_eq!(oracle::write(&v, None), want);
            assert_eq!(same_as_oracle(want), Ok(v));
        }
    }

    #[test]
    fn from_str_moves_the_tree() {
        // `from_owned` for `Value` is the identity; every other type still
        // decodes through `from_value`.
        let v: Value = from_str(r#"{"a":[1,"x",null]}"#).unwrap();
        assert_eq!(Value::from_owned(v.clone()), Ok(v.clone()));
        let xs: Vec<u32> = from_str("[1,2,3]").unwrap();
        assert_eq!(xs, [1, 2, 3]);
    }

    /// The typed read of `input` either fails or returns what the tree
    /// path ([`from_str`]: parse, then `from_owned`) returns. Returns the
    /// tree path's answer.
    fn same_as_tree<T>(input: &str) -> Result<T, String>
    where
        T: Deserialize + PartialEq + fmt::Debug,
    {
        let tree = from_str::<T>(input).map_err(|e| e.to_string());
        match read_json::<T>(input) {
            Ok(typed) => assert_eq!(Ok(&typed), tree.as_ref(), "read_json, input {input:?}"),
            Err(e) if e.is_syntax() => {
                assert_eq!(tree.as_ref().err(), Some(&e.to_string()), "input {input:?}")
            }
            Err(_) => {}
        }
        tree
    }

    /// Every std impl with a read of its own, and the tree-reading ones.
    fn every_std_impl(input: &str) {
        same_as_tree::<u8>(input).ok();
        same_as_tree::<u16>(input).ok();
        same_as_tree::<u32>(input).ok();
        same_as_tree::<u64>(input).ok();
        same_as_tree::<usize>(input).ok();
        same_as_tree::<i8>(input).ok();
        same_as_tree::<i16>(input).ok();
        same_as_tree::<i32>(input).ok();
        same_as_tree::<i64>(input).ok();
        same_as_tree::<isize>(input).ok();
        same_as_tree::<bool>(input).ok();
        same_as_tree::<String>(input).ok();
        same_as_tree::<f64>(input).ok();
        same_as_tree::<Value>(input).ok();
        same_as_tree::<Option<u32>>(input).ok();
        same_as_tree::<Option<String>>(input).ok();
        same_as_tree::<Vec<u32>>(input).ok();
        same_as_tree::<Vec<u64>>(input).ok();
        same_as_tree::<Vec<i64>>(input).ok();
        same_as_tree::<Vec<bool>>(input).ok();
        same_as_tree::<Vec<String>>(input).ok();
        same_as_tree::<Vec<Vec<u32>>>(input).ok();
        same_as_tree::<Vec<Option<u8>>>(input).ok();
        same_as_tree::<Read>(input).ok();
    }

    /// A derived struct with every field shape the typed read handles, and
    /// fields named like the derive's own locals.
    #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
    struct Read {
        r: u32,
        key: u64,
        reader: Vec<i64>,
        rows: Vec<Vec<u32>>,
        name: String,
        maybe: Option<String>,
        flag: bool,
        ratio: f64,
        tree: Value,
    }

    #[test]
    fn typed_reads_match_the_tree() {
        let mut inputs: Vec<String> = MALFORMED.iter().map(|&(s, _)| s.to_string()).collect();
        for token in [
            "0",
            "-0",
            "1",
            "-1",
            "01",
            "255",
            "256",
            "-128",
            "-129",
            "65536",
            "4294967295",
            "4294967296",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "18446744073709551616",
            "999999999999999999",
            "1.0",
            "1e0",
            "-0.0",
            "2.5",
            "1E5",
        ] {
            inputs.push(token.to_string());
            inputs.push(format!("[{token}]"));
            inputs.push(format!("[1,{token}, {token} ,{token}]"));
            inputs.push(format!("[[{token}],[],[ 1 ,{token}]]"));
        }
        for other in [
            "true",
            "false",
            "null",
            " null ",
            "\"s\"",
            r#""\u0041\n""#,
            "[]",
            "[ ]",
            "[true,false]",
            r#"["a","\u00e9",""]"#,
            "[null,1]",
            "[1,\"a\"]",
            "{}",
            "[1,2]x",
            "[1,2",
            "[1 ,]",
            "[,1]",
            r#"{"a":1}"#,
        ] {
            inputs.push(other.to_string());
        }
        for input in &inputs {
            every_std_impl(input);
        }

        let read = Read {
            r: 3,
            key: u64::MAX,
            reader: vec![i64::MIN, -1, 0, 7],
            rows: vec![vec![], vec![4294967295, 0]],
            name: "n\"é\u{1}".into(),
            maybe: None,
            flag: true,
            ratio: 0.5,
            tree: Value::Array(vec![Value::Null, Value::Int(-3)]),
        };
        let json = to_string(&read).unwrap();
        assert_eq!(read_json::<Read>(&json).unwrap(), read);
        let v: Value = from_str(&json).unwrap();
        let Value::Object(fields) = &v else { panic!() };
        let object =
            |fields: &[(String, Value)]| to_string(&Value::Object(fields.to_vec())).unwrap();
        let mut variants = vec![json.clone(), to_string_pretty(&v).unwrap()];
        let mut reversed = fields.clone();
        reversed.reverse();
        variants.push(object(&reversed));
        for i in 0..fields.len() {
            let mut repeated = fields.clone();
            repeated.push(fields[i].clone());
            variants.push(object(&repeated));
            let mut missing = fields.clone();
            missing.remove(i);
            variants.push(object(&missing));
            let mut unknown = fields.clone();
            unknown.insert(i, ("extra".into(), Value::Int(i as i64)));
            variants.push(object(&unknown));
        }
        variants.push(json.replace("\"name\":\"n", "\"name\":\"\\u006e"));
        variants.push(json.replace("\"r\":3", "\"r\":3.0"));
        variants.push(json.replace("\"r\":3", "\"r\":-0"));
        for end in 0..json.len() {
            if json.is_char_boundary(end) {
                variants.push(json[..end].to_string());
            }
        }
        for input in &variants {
            same_as_tree::<Read>(input).ok();
        }
        // A truncated text fails as a syntax error, at any cut.
        for end in [0, 1, 2, json.len() - 1] {
            assert!(read_json::<Read>(&json[..end]).unwrap_err().is_syntax());
        }
        // In order, once each: the typed read takes it. Out of order: the
        // typed read takes it too. Repeated or unknown keys: only the tree.
        assert!(read_json::<Read>(&variants[0]).is_ok());
        assert!(read_json::<Read>(&variants[2]).is_ok());
        assert!(read_json::<Read>(&variants[3])
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
        assert!(same_as_tree::<Read>(&variants[3]).is_ok());
        assert!(read_json::<Read>(&variants[5])
            .unwrap_err()
            .to_string()
            .contains("unknown"));
        assert!(same_as_tree::<Read>(&variants[5]).is_ok());
    }

    /// Random JSON trees, shaped like what the workspace writes: integers
    /// of every size, finite floats, strings mixing escapes, control bytes
    /// and multibyte characters, and nested arrays and objects.
    struct Trees {
        depth: u32,
    }

    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        '€', '𝄞', ':', ',', '[', '{',
    ];

    fn draw(rng: &mut proptest::TestRng, below: u32) -> u32 {
        Strategy::gen_value(&(0..below), rng)
    }

    fn text(rng: &mut proptest::TestRng) -> String {
        let len = draw(rng, 12);
        (0..len)
            .map(|_| CHARS[draw(rng, CHARS.len() as u32) as usize])
            .collect()
    }

    impl Strategy for Trees {
        type Value = Value;
        fn gen_value(&self, rng: &mut proptest::TestRng) -> Value {
            let kinds = if self.depth == 0 { 6 } else { 8 };
            match draw(rng, kinds) {
                0 => [Value::Null, Value::Bool(true), Value::Bool(false)][draw(rng, 3) as usize]
                    .clone(),
                1 => Value::Int(Strategy::gen_value(&(-1000i64..=1000), rng)),
                2 => Value::Int(Strategy::gen_value(&(i64::MIN..=i64::MAX), rng)),
                3 => Value::UInt(Strategy::gen_value(&((1u64 << 63)..=u64::MAX), rng)),
                4 => {
                    let f = f64::from_bits(Strategy::gen_value(&(0..=u64::MAX), rng));
                    Value::Float(if f.is_finite() { f } else { 0.5 })
                }
                5 => Value::Str(text(rng)),
                6 => {
                    let inner = Trees {
                        depth: self.depth - 1,
                    };
                    Value::Array((0..draw(rng, 6)).map(|_| inner.gen_value(rng)).collect())
                }
                _ => {
                    let inner = Trees {
                        depth: self.depth - 1,
                    };
                    Value::Object(
                        (0..draw(rng, 5))
                            .map(|_| (text(rng), inner.gen_value(rng)))
                            .collect(),
                    )
                }
            }
        }
    }

    /// Every field shape `write_json` has its own impl for, derived.
    #[derive(serde::Serialize)]
    struct Typed {
        small: u8,
        wide: u64,
        size: usize,
        signed: Vec<i64>,
        rows: Vec<Vec<u32>>,
        name: String,
        maybe: Option<String>,
        none: Option<u32>,
        flag: bool,
        ratio: f64,
        tree: Value,
        pair: (u32, String),
    }

    #[test]
    fn typed_writes_match_the_tree() {
        let typed = Typed {
            small: 255,
            wide: u64::MAX,
            size: 0,
            signed: vec![i64::MIN, -1, 0, 1, i64::MAX],
            rows: vec![vec![], vec![7], vec![1, 22, 333]],
            name: "a\"b\\c\nd\u{1}é€".into(),
            maybe: Some(String::new()),
            none: None,
            flag: true,
            ratio: 2.5,
            tree: Value::Array(vec![Value::UInt(u64::MAX), Value::Null]),
            pair: (3, "x".into()),
        };
        let bytes = to_string(&typed).unwrap();
        assert_eq!(bytes, oracle::write(&typed.to_value(), None));
        assert_eq!(to_string(&"é\t").unwrap(), r#""é\t""#);
        assert_eq!(to_string(&[1u32, 2][..]).unwrap(), "[1,2]");
        assert_eq!(to_string(&Vec::<u32>::new()).unwrap(), "[]");
    }

    proptest::proptest! {
        #[test]
        fn codec_matches_the_old_writer_and_parser(tree in Trees { depth: 4 }) {
            for (bytes, old) in [
                (to_string(&tree).unwrap(), oracle::write(&tree, None)),
                (to_string_pretty(&tree).unwrap(), oracle::write(&tree, Some(2))),
            ] {
                proptest::prop_assert_eq!(&bytes, &old);
                let parsed: Value = from_str(&bytes).unwrap();
                proptest::prop_assert_eq!(&parsed, &tree);
                proptest::prop_assert_eq!(Ok(parsed), oracle::parse(&bytes).map_err(|e| e.to_string()));
            }
        }

        #[test]
        fn typed_writes_match_the_old_writer(
            (signed, rows) in (
                proptest::collection::vec(i64::MIN..=i64::MAX, 0..8),
                proptest::collection::vec(proptest::collection::vec(0u32..=u32::MAX, 0..6), 0..6),
            ),
            (wide, size) in (0u64..=u64::MAX, 0usize..1000),
        ) {
            let typed = Typed {
                small: (size % 256) as u8,
                wide,
                size,
                signed,
                rows,
                name: CHARS.iter().cycle().skip(size % CHARS.len()).take(size % 9).collect(),
                maybe: (size % 2 == 0).then(|| "m".to_string()),
                none: None,
                flag: size % 3 == 0,
                ratio: size as f64 / 7.0,
                tree: Value::Int(wide as i64),
                pair: (size as u32, String::new()),
            };
            proptest::prop_assert_eq!(to_string(&typed).unwrap(), oracle::write(&typed.to_value(), None));
        }
    }
}
