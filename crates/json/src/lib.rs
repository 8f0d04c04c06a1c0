//! Dependency-free JSON support for the workspace.
//!
//! The container this repo builds in has no network access, so the crate
//! registry is unreachable and `serde`/`serde_json` cannot be fetched.
//! This crate replaces them with a small, exact subset of what the
//! workspace actually needs:
//!
//! - a [`Json`] value type (`null`, `bool`, number, string, array,
//!   object with insertion-ordered keys);
//! - a recursive-descent [`parse`] and compact [`write`] pair that
//!   round-trips every value the workspace produces (floats are written
//!   with Rust's shortest round-trip formatting);
//! - [`ToJson`] / [`FromJson`] traits with impls for the primitive,
//!   container, tuple, and array shapes used by the model types;
//! - a [`JsonKey`] trait for types that serialize as JSON object keys
//!   (`EventId`, `FreqConfig`, plain strings);
//! - the [`impl_json!`] macro deriving struct/unit-enum conversions with
//!   optional per-field defaults, mirroring the `#[serde(default)]`
//!   attributes the workspace previously used.
//!
//! Conventions intentionally match `serde_json` so existing files and
//! fixtures stay readable: unit enum variants serialize as their name in
//! a string, data-carrying enums are externally tagged
//! (`{"Variant": payload}`), maps require string-like keys, unknown
//! object fields are ignored on input, and non-finite floats serialize
//! as `null`.
//!
//! The [`integrity`] module adds a length + CRC-32 trailer for artifacts
//! that must survive crashes (the serve-layer model registry): seal a
//! compact payload before persisting it, unseal on read to detect torn
//! writes and bit rot before the parser ever sees them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod integrity;

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are preserved exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object's fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks up a field of an object by name.
    pub fn get(&self, name: &str) -> Option<&Json> {
        self.as_obj()
            .and_then(|fields| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v))
    }

    /// A short name for the value's type, used in error messages.
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Error raised by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// An error with a free-form message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// "expected X, found Y" conversion error.
    pub fn expected(what: &str, found: &Json) -> Self {
        JsonError::new(format!("expected {what}, found {}", found.type_name()))
    }

    /// Missing required object field.
    pub fn missing_field(name: &str) -> Self {
        JsonError::new(format!("missing field `{name}`"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serializes a value to compact JSON text.
pub fn write(value: &Json) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_num(*n, out),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(key, out);
                out.push(':');
                write_into(val, out);
            }
            out.push('}');
        }
    }
}

/// Serializes a value to compact JSON text, rejecting non-finite numbers.
///
/// [`write`] follows the serde_json convention of turning `NaN`/`inf`
/// into `null`, which is the right lossy behaviour for diagnostics
/// (traces, reports) but silently corrupts artifacts that must parse
/// back into the same numbers — a degraded robust fit can leave `NaN`
/// coefficients, and a model registry must refuse to persist them. This
/// variant walks the value first and names the offending location.
///
/// # Errors
///
/// Returns a [`JsonError`] carrying the JSON path of the first
/// non-finite number (e.g. `$.core.omegas[3]`).
pub fn write_checked(value: &Json) -> Result<String, JsonError> {
    let mut path = String::from("$");
    check_finite(value, &mut path)?;
    Ok(write(value))
}

fn check_finite(value: &Json, path: &mut String) -> Result<(), JsonError> {
    match value {
        Json::Num(n) if !n.is_finite() => Err(JsonError::new(format!(
            "non-finite number ({n}) at {path} cannot be serialized losslessly"
        ))),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let len = path.len();
                let _ = {
                    use fmt::Write;
                    write!(path, "[{i}]")
                };
                check_finite(item, path)?;
                path.truncate(len);
            }
            Ok(())
        }
        Json::Obj(fields) => {
            for (key, val) in fields {
                let len = path.len();
                path.push('.');
                path.push_str(key);
                check_finite(val, path)?;
                path.truncate(len);
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn write_num(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        // Matches serde_json: non-finite floats become null.
        out.push_str("null");
    } else if n == 0.0 && n.is_sign_negative() {
        out.push_str("-0.0");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Rust's Display for f64 is the shortest round-trip form.
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses JSON text into a [`Json`] value.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        text,
        bytes,
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(JsonError::new(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::new(format!(
                "unexpected byte `{}` at {}",
                b as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("invalid number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a character boundary of
                    // the (already valid) input text.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(JsonError::new("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError::new("invalid \\u escape"))?;
        let code =
            u32::from_str_radix(text, 16).map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: must be followed by \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(combined)
                        .ok_or_else(|| JsonError::new("invalid surrogate pair"));
                }
            }
            return Err(JsonError::new("unpaired surrogate in \\u escape"));
        }
        char::from_u32(first).ok_or_else(|| JsonError::new("invalid \\u escape"))
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `]` at {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected `,` or `}}` at {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs a value, or explains why the JSON doesn't fit.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] value to compact JSON text (the
/// `serde_json::to_string` replacement; infallible by construction).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    Ok(write(&value.to_json()))
}

/// Serializes any [`ToJson`] value to compact JSON text, failing with a
/// typed error (naming the JSON path) if the value contains a
/// non-finite number. See [`write_checked`].
///
/// # Errors
///
/// Returns a [`JsonError`] for the first non-finite number encountered.
pub fn to_string_checked<T: ToJson + ?Sized>(value: &T) -> Result<String, JsonError> {
    write_checked(&value.to_json())
}

/// Parses JSON text into any [`FromJson`] type (the
/// `serde_json::from_str` replacement).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

/// Looks up an object field; helper used by the [`impl_json!`] expansion.
pub fn field<'a>(fields: &'a [(String, Json)], name: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Types usable as JSON object keys (serialized as strings).
pub trait JsonKey: Sized {
    /// The string form used as a map key.
    fn to_key(&self) -> String;
    /// Parses the string form back.
    fn from_key(key: &str) -> Result<Self, JsonError>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        Ok(key.to_string())
    }
}

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::Num(*self as f64)
                }
            }
            impl FromJson for $ty {
                fn from_json(json: &Json) -> Result<Self, JsonError> {
                    let n = json.as_num().ok_or_else(|| JsonError::expected("number", json))?;
                    if n.fract() != 0.0 {
                        return Err(JsonError::new(format!("expected integer, found {n}")));
                    }
                    let v = n as $ty;
                    if v as f64 != n {
                        return Err(JsonError::new(format!(
                            "number {n} out of range for {}", stringify!($ty)
                        )));
                    }
                    Ok(v)
                }
            }
        )+
    };
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Num(n) => Ok(*n),
            // serde_json writes non-finite floats as null; accept it back.
            Json::Null => Ok(f64::NAN),
            other => Err(JsonError::expected("number", other)),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::expected("bool", other)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::expected("string", json))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError::expected("array", json))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + fmt::Debug, const N: usize> FromJson for [T; N] {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let items = json
            .as_arr()
            .ok_or_else(|| JsonError::expected("array", json))?;
        if items.len() != N {
            return Err(JsonError::new(format!(
                "expected array of length {N}, found {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items.iter().map(T::from_json).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| JsonError::new("array length mismatch"))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::expected("2-element array", json)),
        }
    }
}

impl<K: JsonKey + Ord, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: JsonKey + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_obj()
            .ok_or_else(|| JsonError::expected("object", json))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
            .collect()
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Derives [`ToJson`] + [`FromJson`] for structs with named fields and
/// for unit-only enums.
///
/// Struct form — `field = expr` supplies a default used when the field
/// is absent on input (the `#[serde(default)]` replacement):
///
/// ```
/// use gpm_json::impl_json;
///
/// #[derive(Debug, PartialEq)]
/// struct Sample { name: String, weight: f64 }
/// impl_json!(struct Sample { name, weight = 1.0 });
///
/// let s: Sample = gpm_json::from_str(r#"{"name":"a"}"#).unwrap();
/// assert_eq!(s.weight, 1.0);
/// ```
///
/// Unit-enum form serializes each variant as its name in a string and
/// additionally implements [`JsonKey`] so the enum can be a map key:
///
/// ```
/// use gpm_json::impl_json;
///
/// #[derive(Debug, PartialEq)]
/// enum Kind { Alpha, Beta }
/// impl_json!(enum Kind { Alpha, Beta });
///
/// assert_eq!(gpm_json::to_string(&Kind::Beta).unwrap(), "\"Beta\"");
/// ```
///
/// Unknown object fields are ignored on input, matching serde's default.
#[macro_export]
macro_rules! impl_json {
    (struct $ty:ident { $($field:ident $(= $default:expr)?),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(json: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let fields = json
                    .as_obj()
                    .ok_or_else(|| $crate::JsonError::expected("object", json))?;
                Ok($ty {
                    $(
                        $field: $crate::field(fields, stringify!($field))
                            .map($crate::FromJson::from_json)
                            .transpose()?
                            $(.or_else(|| Some($default)))?
                            .ok_or_else(|| {
                                $crate::JsonError::missing_field(stringify!($field))
                            })?,
                    )+
                })
            }
        }
    };
    (enum $ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str($crate::JsonKey::to_key(self))
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(json: &$crate::Json) -> Result<Self, $crate::JsonError> {
                let name = json
                    .as_str()
                    .ok_or_else(|| $crate::JsonError::expected("string", json))?;
                <$ty as $crate::JsonKey>::from_key(name)
            }
        }
        impl $crate::JsonKey for $ty {
            fn to_key(&self) -> String {
                match self {
                    $( $ty::$variant => stringify!($variant).to_string(), )+
                }
            }
            fn from_key(key: &str) -> Result<Self, $crate::JsonError> {
                match key {
                    $( stringify!($variant) => Ok($ty::$variant), )+
                    other => Err($crate::JsonError::new(format!(
                        "unknown {} variant `{other}`",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_writes_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"hi\\n\"").unwrap(), Json::Str("hi\n".into()));
        assert_eq!(write(&Json::Num(3.0)), "3");
        assert_eq!(write(&Json::Num(0.1)), "0.1");
        assert_eq!(write(&Json::Num(f64::NAN)), "null");
        assert_eq!(write(&Json::Str("a\"b".into())), "\"a\\\"b\"");
    }

    #[test]
    fn checked_writer_rejects_non_finite_numbers_with_a_path() {
        let ok = parse(r#"{"a":[1,2.5],"b":{"c":-0.5}}"#).unwrap();
        assert_eq!(write_checked(&ok).unwrap(), write(&ok));

        let nan_in_array = Json::Obj(vec![(
            "omegas".to_string(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(f64::NAN)]),
        )]);
        let err = write_checked(&nan_in_array).unwrap_err();
        assert!(err.to_string().contains("$.omegas[1]"), "{err}");

        let inf_nested = Json::Obj(vec![(
            "core".to_string(),
            Json::Obj(vec![("static_coef".to_string(), Json::Num(f64::INFINITY))]),
        )]);
        let err = write_checked(&inf_nested).unwrap_err();
        assert!(err.to_string().contains("$.core.static_coef"), "{err}");

        // The lossy writer still follows the serde_json convention.
        assert_eq!(write(&Json::Num(f64::NEG_INFINITY)), "null");
        assert!(to_string_checked(&f64::NEG_INFINITY).is_err());
        assert_eq!(to_string_checked(&1.5f64).unwrap(), "1.5");
    }

    #[test]
    fn round_trips_nested_structures() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":"x","d":{"e":false}}"#;
        let value = parse(text).unwrap();
        assert_eq!(write(&value), text);
    }

    #[test]
    fn shortest_float_formatting_round_trips() {
        for &x in &[0.1, 1.0 / 3.0, 6.02e23, 1e-300, -0.0, 123456.789] {
            let text = write(&Json::Num(x));
            let back = parse(&text).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "value {x}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "\"\\q\"", "{}x"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_and_raw_utf8() {
        assert_eq!(parse("\"\\u00e9\"").unwrap(), Json::Str("é".into()));
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(parse("\"\\ud834\\udd1e\"").unwrap(), Json::Str("𝄞".into()));
        assert!(parse("\"\\ud834\"").is_err());
        let round = parse(&write(&Json::Str("héllo — 𝄞".into()))).unwrap();
        assert_eq!(round, Json::Str("héllo — 𝄞".into()));
    }

    #[test]
    fn primitive_conversions_round_trip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert!(from_str::<u32>("-1").is_err());
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u32>("1.5").is_err());
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert_eq!(
            from_str::<Vec<f64>>("[1,2,3]").unwrap(),
            vec![1.0, 2.0, 3.0]
        );
        assert_eq!(from_str::<[f64; 2]>("[1,2]").unwrap(), [1.0, 2.0]);
        assert!(from_str::<[f64; 2]>("[1]").is_err());
        assert_eq!(from_str::<(u8, u8)>("[3,5]").unwrap(), (3, 5));
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("9").unwrap(), Some(9));
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
    }

    #[test]
    fn string_maps_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), 2u64);
        m.insert("a".to_string(), 1u64);
        let text = to_string(&m).unwrap();
        assert_eq!(text, r#"{"a":1,"b":2}"#);
        assert_eq!(from_str::<BTreeMap<String, u64>>(&text).unwrap(), m);
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        count: u32,
        scale: f64,
    }
    impl_json!(struct Demo { name, count = 7, scale });

    #[test]
    fn struct_macro_round_trips_and_applies_defaults() {
        let d = Demo {
            name: "x".into(),
            count: 3,
            scale: 0.5,
        };
        let text = to_string(&d).unwrap();
        assert_eq!(text, r#"{"name":"x","count":3,"scale":0.5}"#);
        assert_eq!(from_str::<Demo>(&text).unwrap(), d);
        // Missing defaulted field takes the default; unknown fields ignored.
        let partial: Demo = from_str(r#"{"name":"y","scale":2,"zzz":1}"#).unwrap();
        assert_eq!(partial.count, 7);
        // Missing non-defaulted field errors.
        assert!(from_str::<Demo>(r#"{"name":"y"}"#).is_err());
    }

    #[derive(Debug, PartialEq, PartialOrd, Eq, Ord)]
    enum Flavor {
        Sweet,
        Sour,
    }
    impl_json!(
        enum Flavor {
            Sweet,
            Sour,
        }
    );

    #[test]
    fn unit_enum_macro_serializes_variant_names_and_keys() {
        assert_eq!(to_string(&Flavor::Sour).unwrap(), "\"Sour\"");
        assert_eq!(from_str::<Flavor>("\"Sweet\"").unwrap(), Flavor::Sweet);
        assert!(from_str::<Flavor>("\"Umami\"").is_err());
        let mut m = BTreeMap::new();
        m.insert(Flavor::Sweet, 1u32);
        let text = to_string(&m).unwrap();
        assert_eq!(text, r#"{"Sweet":1}"#);
        assert_eq!(from_str::<BTreeMap<Flavor, u32>>(&text).unwrap(), m);
    }
}
