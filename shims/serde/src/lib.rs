//! Offline stand-in for [`serde`](https://docs.rs/serde), built around an
//! explicit JSON-like [`Value`] tree instead of upstream's
//! serializer/deserializer visitors.
//!
//! The container this repository builds in has no network access to
//! crates.io, so the workspace vendors minimal shims for its external
//! dependencies (see `docs/offline-build.md`). The API is intentionally
//! much smaller than real serde:
//!
//! - [`Serialize`] renders a value into a [`Value`], or writes it as
//!   compact JSON through a [`ser::JsonWriter`]
//!   ([`Serialize::write_json`]; the default writes the tree, the std
//!   impls and the derive write their fields directly, byte-identical);
//! - [`Deserialize`] reconstructs a value from a [`Value`], borrowed
//!   ([`Deserialize::from_value`]) or owned ([`Deserialize::from_owned`],
//!   so parsing into a [`Value`] moves the parsed tree instead of copying
//!   it), or reads it straight from JSON tokens through a
//!   [`de::JsonReader`] ([`Deserialize::read_json`]; the default reads the
//!   tree, the std impls and the derive read their fields directly, so a
//!   large integer array is never held as one [`Value`] per element);
//! - the `derive` feature re-exports `#[derive(Serialize, Deserialize)]`
//!   macros (from the sibling `serde_derive` shim) for non-generic structs
//!   with named fields — the only shape this workspace derives.
//!
//! `serde_json` (also shimmed) supplies the text format on top of [`Value`].

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;

/// A JSON-shaped value tree: the interchange type between [`Serialize`],
/// [`Deserialize`], and the `serde_json` shim.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (fits all workspace counters up to `i64::MAX`).
    Int(i64),
    /// Unsigned integer beyond `i64::MAX`.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys (field order of the struct).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// One-word name of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization into a [`Value`] tree, or straight to compact JSON.
pub trait Serialize {
    /// Renders `self` as a [`Value`].
    fn to_value(&self) -> Value;

    /// Writes `self` as compact JSON: the bytes the tree of
    /// [`Serialize::to_value`] writes as, which is what the default does.
    /// The std impls and the derive write their fields directly instead,
    /// so a large array is never held as one [`Value`] per element.
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        w.value(&self.to_value());
    }
}

/// Deserialization out of a [`Value`] tree, or straight from JSON tokens.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, de::Error>;

    /// Reconstructs `Self` from a [`Value`] the caller gives up. The
    /// default borrows it through [`Deserialize::from_value`]; [`Value`]
    /// itself returns the tree unchanged instead of copying it.
    fn from_owned(v: Value) -> Result<Self, de::Error> {
        Self::from_value(&v)
    }

    /// Reads `Self` from the next JSON value of `r`. The default reads that
    /// value as a tree and hands it to [`Deserialize::from_owned`]. The std
    /// impls and the derive read tokens directly instead, and are stricter
    /// than the tree: a derived struct rejects a missing, unknown or
    /// repeated key. Whenever this returns `Ok`, the value equals what
    /// [`Deserialize::from_owned`] makes of the same text's tree.
    fn read_json(r: &mut dyn de::JsonReader) -> Result<Self, de::Error> {
        Self::from_owned(r.value()?)
    }

    /// Reads a JSON array of `Self`: [`Deserialize::read_json`] per item.
    /// The integer impls read the whole array through
    /// [`de::JsonReader::ints`] instead.
    fn read_json_array(r: &mut dyn de::JsonReader) -> Result<Vec<Self>, de::Error> {
        let mut items = Vec::new();
        r.begin_array()?;
        while r.next_item()? {
            items.push(Self::read_json(r)?);
        }
        Ok(items)
    }
}

pub mod ser {
    //! Serialization-side helpers: the compact-JSON sink that
    //! [`Serialize::write_json`] writes through, and the object shape the
    //! derive and hand-written impls share: one field list gives both the
    //! tree ([`object`]) and the text ([`write_fields`]).
    pub use super::Serialize;
    use super::Value;

    /// A sink for compact JSON text; `serde_json` supplies the one writer.
    pub trait JsonWriter {
        /// Writes punctuation or a literal (`[`, `,`, `null`, …) as is.
        fn raw(&mut self, s: &str);
        /// Writes an integer: a minus sign when `neg`, then `n`'s digits.
        fn int(&mut self, neg: bool, n: u64);
        /// Writes `s` as a JSON string, escaped.
        fn str(&mut self, s: &str);
        /// Writes a whole tree.
        fn value(&mut self, v: &Value);
    }

    /// The [`Value::Object`] of these fields, in order.
    pub fn object(fields: &[(&str, &dyn Serialize)]) -> Value {
        Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }

    /// Writes `{"k":v,…}`: the JSON of [`object`] of these fields.
    pub fn write_fields(w: &mut dyn JsonWriter, fields: &[(&str, &dyn Serialize)]) {
        w.raw("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.str(k);
            w.raw(":");
            v.write_json(w);
        }
        w.raw("}");
    }
}

pub mod de {
    //! Deserialization-side helpers: the error type (mirroring
    //! `serde::de::Error::custom`), the JSON token source that
    //! [`Deserialize::read_json`] reads from, and the field bookkeeping the
    //! derive and hand-written impls share.
    pub use super::Deserialize;
    use super::Value;
    use std::fmt;

    /// A source of JSON tokens; `serde_json` supplies the one reader. Every
    /// method skips the whitespace before its token, and fails on any token
    /// other than the one it reads.
    pub trait JsonReader {
        /// Reads the next value whole, as a tree.
        fn value(&mut self) -> Result<Value, Error>;
        /// Reads `true` or `false`.
        fn bool(&mut self) -> Result<bool, Error>;
        /// Reads a number the tree holds as [`Value::Int`] or
        /// [`Value::UInt`]; any other number is an error.
        fn int(&mut self) -> Result<i128, Error>;
        /// Reads a string, escapes decoded.
        fn str(&mut self) -> Result<String, Error>;
        /// Reads the `[` that opens an array.
        fn begin_array(&mut self) -> Result<(), Error>;
        /// Moves to the next array item: `true` when one follows (its `,`
        /// read), `false` once the closing `]` is read.
        fn next_item(&mut self) -> Result<bool, Error>;
        /// Reads a whole array of integers (as [`JsonReader::int`] reads
        /// each), handing each to `each` in order.
        fn ints(&mut self, each: &mut dyn FnMut(i128) -> Result<(), Error>) -> Result<(), Error>;
        /// Reads the `{` that opens an object.
        fn begin_object(&mut self) -> Result<(), Error>;
        /// Moves to the next object field: its key (the `,` before it and
        /// the `:` after it read), or `None` once the closing `}` is read.
        fn next_key(&mut self) -> Result<Option<String>, Error>;
    }

    /// Reads the value of field `key` into `slot`; a repeated key is an
    /// error.
    pub fn read_field<T: Deserialize>(
        slot: &mut Option<T>,
        key: &str,
        r: &mut dyn JsonReader,
    ) -> Result<(), Error> {
        if slot.is_some() {
            return Err(Error::custom(format!("duplicate field `{key}`")));
        }
        *slot = Some(T::read_json(r)?);
        Ok(())
    }

    /// The value read for field `key`; a missing key is an error.
    pub fn required<T>(slot: Option<T>, key: &str) -> Result<T, Error> {
        slot.ok_or_else(|| Error::custom(format!("missing field `{key}`")))
    }

    /// The error for a key the type does not have.
    pub fn unknown_field(key: &str) -> Error {
        Error::custom(format!("unknown field `{key}`"))
    }

    /// A deserialization failure.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Error(String);

    impl Error {
        /// Creates an error from any displayable message.
        pub fn custom<T: fmt::Display>(msg: T) -> Error {
            Error(msg.to_string())
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}
}

fn type_error<T>(want: &str, got: &Value) -> Result<T, de::Error> {
    Err(de::Error::custom(format!(
        "expected {want}, got {}",
        got.kind()
    )))
}

macro_rules! impl_serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as u64;
                if let Ok(i) = i64::try_from(v) { Value::Int(i) } else { Value::UInt(v) }
            }
            fn write_json(&self, w: &mut dyn ser::JsonWriter) {
                w.int(false, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, de::Error> {
                let raw: u64 = match *v {
                    Value::Int(i) if i >= 0 => i as u64,
                    Value::UInt(u) => u,
                    ref other => return type_error("unsigned integer", other),
                };
                <$t>::try_from(raw).map_err(|_| de::Error::custom("integer out of range"))
            }
            fn read_json(r: &mut dyn de::JsonReader) -> Result<Self, de::Error> {
                int_as(r.int()?)
            }
            fn read_json_array(r: &mut dyn de::JsonReader) -> Result<Vec<Self>, de::Error> {
                read_int_array(r)
            }
        }
    )*};
}

macro_rules! impl_serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
            fn write_json(&self, w: &mut dyn ser::JsonWriter) {
                let v = *self as i64;
                w.int(v < 0, v.unsigned_abs());
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, de::Error> {
                let raw: i64 = match *v {
                    Value::Int(i) => i,
                    Value::UInt(u) => i64::try_from(u)
                        .map_err(|_| de::Error::custom("integer out of range"))?,
                    ref other => return type_error("integer", other),
                };
                <$t>::try_from(raw).map_err(|_| de::Error::custom("integer out of range"))
            }
            fn read_json(r: &mut dyn de::JsonReader) -> Result<Self, de::Error> {
                int_as(r.int()?)
            }
            fn read_json_array(r: &mut dyn de::JsonReader) -> Result<Vec<Self>, de::Error> {
                read_int_array(r)
            }
        }
    )*};
}

/// `n` as `T`: what `from_value` makes of the [`Value::Int`] or
/// [`Value::UInt`] that holds `n`.
fn int_as<T: TryFrom<i128>>(n: i128) -> Result<T, de::Error> {
    T::try_from(n).map_err(|_| de::Error::custom("integer out of range"))
}

/// An array of integers, read with the reader's integer-run path: no
/// [`Value`] per item.
fn read_int_array<T: TryFrom<i128>>(r: &mut dyn de::JsonReader) -> Result<Vec<T>, de::Error> {
    let mut items = Vec::new();
    r.ints(&mut |n| {
        items.push(int_as(n)?);
        Ok(())
    })?;
    Ok(items)
}

impl_serialize_unsigned!(u8, u16, u32, u64, usize);
impl_serialize_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match *v {
            Value::Float(f) => Ok(f),
            Value::Int(i) => Ok(i as f64),
            Value::UInt(u) => Ok(u as f64),
            ref other => type_error("number", other),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        w.raw(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match *v {
            Value::Bool(b) => Ok(b),
            ref other => type_error("bool", other),
        }
    }
    fn read_json(r: &mut dyn de::JsonReader) -> Result<Self, de::Error> {
        r.bool()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        w.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => type_error("string", other),
        }
    }
    fn read_json(r: &mut dyn de::JsonReader) -> Result<Self, de::Error> {
        r.str()
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        w.str(self);
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        w.value(self);
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        Ok(v.clone())
    }

    fn from_owned(v: Value) -> Result<Self, de::Error> {
        Ok(v)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => type_error("array", other),
        }
    }
    fn read_json(r: &mut dyn de::JsonReader) -> Result<Self, de::Error> {
        T::read_json_array(r)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
    /// `[x,…]`: the JSON of the [`Value::Array`] of the items.
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        w.raw("[");
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            x.write_json(w);
        }
        w.raw("]");
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
    fn write_json(&self, w: &mut dyn ser::JsonWriter) {
        match self {
            Some(x) => x.write_json(w),
            None => w.raw("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v: Vec<u32> = Deserialize::from_value(&vec![1u32, 2, 3].to_value()).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn big_u64_preserved() {
        let big = u64::MAX - 1;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn type_mismatches_rejected() {
        assert!(u64::from_value(&Value::Str("x".into())).is_err());
        assert!(u32::from_value(&Value::UInt(u64::MAX)).is_err());
        assert!(String::from_value(&Value::Int(1)).is_err());
    }

    #[test]
    fn object_get() {
        let v = Value::Object(vec![("a".into(), Value::Int(1))]);
        assert_eq!(v.get("a"), Some(&Value::Int(1)));
        assert_eq!(v.get("b"), None);
    }
}
