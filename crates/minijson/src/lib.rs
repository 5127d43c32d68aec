//! A tiny JSON value type with a recursive-descent parser and writer.
//!
//! The build environment is offline, so `serde`/`serde_json` are not
//! available; this crate covers the workspace's serialization needs
//! (GBT / GNN model persistence, benchmark reports): a [`Json`] value
//! tree, [`Json::parse`], [`Json::dump`], and typed accessors.
//!
//! Numbers are stored as `f64`; integers are exact up to 2^53.
//! Larger `u64` values (arbitrary seeds) roundtrip exactly through
//! [`Json::from_u64`] / [`Json::as_u64`] (string encoding), and
//! non-finite floats through the `"NaN"` / `"inf"` / `"-inf"` string
//! forms emitted by the writer and decoded by the accessors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

/// Parse or access error with a short message and byte position
/// (position 0 for accessor errors).
#[derive(Clone, Debug)]
pub struct Error {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input where parsing failed.
    pub pos: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for Error {}

fn err<T>(msg: impl Into<String>, pos: usize) -> Result<T, Error> {
    Err(Error {
        msg: msg.into(),
        pos,
    })
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, Error> {
        let b = text.as_bytes();
        let mut p = Parser { b, i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != b.len() {
            return err("trailing characters", p.i);
        }
        Ok(v)
    }

    /// Serializes the value as compact JSON.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    it.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors (for deserializers).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the field is absent or `self` is not an
    /// object.
    pub fn field(&self, key: &str) -> Result<&Json, Error> {
        match self.get(key) {
            Some(v) => Ok(v),
            None => err(format!("missing field `{key}`"), 0),
        }
    }

    /// The value as `f64`. Accepts the writer's non-finite encodings
    /// (`"NaN"`, `"inf"`, `"-inf"`), so float roundtrips are total.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value is not a number.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match self {
            Json::Num(v) => Ok(*v),
            Json::Str(s) if s == "NaN" => Ok(f64::NAN),
            Json::Str(s) if s == "inf" => Ok(f64::INFINITY),
            Json::Str(s) if s == "-inf" => Ok(f64::NEG_INFINITY),
            _ => err("expected number", 0),
        }
    }

    /// The value as `f32` (narrowed from the stored `f64`).
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value is not a number.
    pub fn as_f32(&self) -> Result<f32, Error> {
        Ok(self.as_f64()? as f32)
    }

    /// Encodes a `u64` exactly: a JSON number when representable in
    /// `f64` (≤ 2^53), a decimal string otherwise. [`Json::as_u64`]
    /// decodes both forms.
    pub fn from_u64(v: u64) -> Json {
        if v <= 1u64 << 53 {
            Json::Num(v as f64)
        } else {
            Json::Str(v.to_string())
        }
    }

    /// The value as `u64`: a non-negative integral number, or a
    /// decimal string as produced by [`Json::from_u64`] for values
    /// beyond `f64`'s exact-integer range.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for anything else.
    pub fn as_u64(&self) -> Result<u64, Error> {
        if let Json::Str(s) = self {
            return s.parse().map_err(|_| Error {
                msg: format!("expected unsigned integer, got {s:?}"),
                pos: 0,
            });
        }
        let v = self.as_f64()?;
        if v.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&v) {
            return err(format!("expected unsigned integer, got {v}"), 0);
        }
        Ok(v as u64)
    }

    /// The value as `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for non-numbers and non-integral values.
    pub fn as_usize(&self) -> Result<usize, Error> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] for non-numbers, non-integral, or
    /// out-of-range values.
    pub fn as_u32(&self) -> Result<u32, Error> {
        let v = self.as_u64()?;
        u32::try_from(v).map_err(|_| Error {
            msg: format!("{v} out of u32 range"),
            pos: 0,
        })
    }

    /// The value as `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, Error> {
        match self {
            Json::Bool(v) => Ok(*v),
            _ => err("expected bool", 0),
        }
    }

    /// The value as `&str`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value is not a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Json::Str(s) => Ok(s),
            _ => err("expected string", 0),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value is not an array.
    pub fn as_arr(&self) -> Result<&[Json], Error> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => err("expected array", 0),
        }
    }
}

fn write_num(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's Display is shortest-roundtrip, never uses exponent
        // notation, and prints integral values without a fraction —
        // including "-0" for negative zero, which parses back with
        // the sign bit intact.
        out.push_str(&format!("{v}"));
    } else if v.is_nan() {
        // JSON has no Inf/NaN tokens; encode as strings the numeric
        // accessors decode, so a model with a non-finite weight still
        // roundtrips instead of failing only at load time.
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), Error> {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            err(format!("expected `{}`", c as char), self.i)
        }
    }

    fn value(&mut self) -> Result<Json, Error> {
        self.skip_ws();
        match self.b.get(self.i) {
            None => err("unexpected end of input", self.i),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, Error> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            err(format!("expected `{word}`"), self.i)
        }
    }

    fn object(&mut self) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err("expected `,` or `}`", self.i),
            }
        }
    }

    fn array(&mut self) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err("expected `,` or `]`", self.i),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return err("unterminated string", self.i),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self.b.get(self.i + 1..self.i + 5).ok_or_else(|| Error {
                                msg: "truncated \\u escape".into(),
                                pos: self.i,
                            })?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| Error {
                                    msg: "bad \\u escape".into(),
                                    pos: self.i,
                                })?,
                                16,
                            )
                            .map_err(|_| Error {
                                msg: "bad \\u escape".into(),
                                pos: self.i,
                            })?;
                            // Surrogate pairs are not produced by this
                            // crate's writer; map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return err("bad escape", self.i),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // Consume one UTF-8 scalar (input is &str, so
                    // boundaries are valid).
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let s =
                        std::str::from_utf8(&self.b[self.i..self.i + len]).map_err(|_| Error {
                            msg: "invalid utf8".into(),
                            pos: self.i,
                        })?;
                    out.push_str(s);
                    self.i += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::Num(v)),
            Err(_) => err(format!("bad number `{text}`"), start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_value_tree() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("a \"b\"\n".into())),
            ("n".into(), Json::Num(42.0)),
            ("x".into(), Json::Num(0.125)),
            ("flag".into(), Json::Bool(true)),
            (
                "arr".into(),
                Json::Arr(vec![Json::Null, Json::Num(-3.0), Json::Str("z".into())]),
            ),
        ]);
        let text = v.dump();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(v, back);
    }

    #[test]
    fn f32_values_roundtrip_exactly() {
        for x in [0.1f32, 1.0 / 3.0, -2.5e-8, 123456.78, f32::MIN_POSITIVE] {
            let text = Json::Num(f64::from(x)).dump();
            let back = Json::parse(&text).expect("parses").as_f32().expect("num");
            // f64 widening keeps the f32 exactly, so the narrowing
            // accessor must recover the original bits.
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = Json::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").expect("valid");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn non_finite_floats_roundtrip() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::Num(x).dump();
            let back = Json::parse(&text).expect("parses").as_f64().expect("num");
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {text}");
        }
        assert_eq!(Json::Num(f64::NAN).dump(), "\"NaN\"");
    }

    #[test]
    fn large_u64_roundtrips_exactly() {
        for v in [0u64, 7, 1 << 53, u64::MAX, 0xDEAD_BEEF_DEAD_BEEF] {
            let text = Json::from_u64(v).dump();
            let back = Json::parse(&text).expect("parses").as_u64().expect("u64");
            assert_eq!(v, back, "{v} -> {text}");
        }
        // Small values stay plain JSON numbers.
        assert_eq!(Json::from_u64(42).dump(), "42");
    }

    #[test]
    fn integer_accessors() {
        let v = Json::parse("{\"u\": 7, \"f\": 1.5}").expect("valid");
        assert_eq!(v.field("u").unwrap().as_u64().unwrap(), 7);
        assert_eq!(v.field("u").unwrap().as_usize().unwrap(), 7);
        assert!(v.field("f").unwrap().as_u64().is_err());
        assert!(v.field("missing").is_err());
    }
}
