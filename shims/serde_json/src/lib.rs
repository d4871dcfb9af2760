//! Offline stand-in for `serde_json`.
//!
//! Renders and parses the [`Value`] document tree defined by the workspace's
//! vendored `serde` shim. Provides the pieces this repo actually calls:
//! [`from_str`] (which always yields a [`Value`]), [`to_value`], the
//! [`json!`] macro (objects with expression keys, nested objects, and
//! arbitrary `Serialize` values), and re-exports of [`Value`] / [`Map`].
//! Values render as compact JSON through `Display`, with object keys in
//! insertion order.

pub use serde::{Map, Value};

use serde::Serialize;

/// Encode any [`Serialize`] value as a document tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// A JSON parse failure, with the byte offset where it was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Parse JSON text into a document tree.
///
/// # Errors
/// Returns [`Error`] on malformed JSON.
pub fn from_str(s: &str) -> Result<Value, Error> {
    Parser::new(s).parse_document()
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self { src: s, bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn parse_document(&mut self) -> Result<Value, Error> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Value::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>().map(Value::Number).map_err(|_| self.err("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by this shim's
                            // writer; map lone surrogates to the replacement
                            // character rather than failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\`. Both are
                    // ASCII, so the run ends on a char boundary.
                    let Some(run) =
                        self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\')
                    else {
                        self.pos = self.bytes.len();
                        return Err(self.err("unterminated string"));
                    };
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
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

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            map.insert(key, self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Build a [`Value`] in place: `json!(null)`, `json!(expr)`, or
/// `json!({ key: value, ... })` where keys are string expressions (literals
/// or things like `names[0]`) and values are nested `{...}` objects or any
/// [`Serialize`] expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::new();
        $crate::json_object_internal!(object () $($body)*);
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

/// TT-muncher behind [`json!`]: accumulates key tokens until the `:` (so
/// expression keys work — `:` cannot follow an `expr` fragment), then takes
/// either a nested `{...}` object or an `expr` value.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_internal {
    ($obj:ident ()) => {};
    ($obj:ident ($($key:tt)+) : { $($inner:tt)* } , $($rest:tt)*) => {
        $obj.insert(($($key)+).to_string(), $crate::json!({ $($inner)* }));
        $crate::json_object_internal!($obj () $($rest)*);
    };
    ($obj:ident ($($key:tt)+) : { $($inner:tt)* }) => {
        $obj.insert(($($key)+).to_string(), $crate::json!({ $($inner)* }));
    };
    ($obj:ident ($($key:tt)+) : $value:expr , $($rest:tt)*) => {
        $obj.insert(($($key)+).to_string(), $crate::to_value(&$value));
        $crate::json_object_internal!($obj () $($rest)*);
    };
    ($obj:ident ($($key:tt)+) : $value:expr) => {
        $obj.insert(($($key)+).to_string(), $crate::to_value(&$value));
    };
    ($obj:ident ($($key:tt)*) $t:tt $($rest:tt)*) => {
        $crate::json_object_internal!($obj ($($key)* $t) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_objects_and_exprs() {
        let names = ["first", "second"];
        let xs = [0.25f64, 0.75];
        let v = json!({
            names[0]: xs[0],
            "nested": {"b": true, "arr": vec![(1u32, 0.5f64)]},
            "opt": xs.first(),
            "second": xs[1],
        });
        assert_eq!(
            v.to_string(),
            r#"{"first":0.25,"nested":{"b":true,"arr":[[1,0.5]]},"opt":0.25,"second":0.75}"#
        );
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(3u8).to_string(), "3");
    }

    #[test]
    fn parse_round_trip() {
        let text = r#"{"a": [1, 2.5, -3e2], "s": "x\n\"yA", "t": true, "n": null}"#;
        let v = from_str(text).unwrap();
        assert_eq!(v.as_object().unwrap().get("s").unwrap().as_str().unwrap(), "x\n\"yA");
        let compact = v.to_string();
        let again = from_str(&compact).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn long_strings_and_dense_escapes_parse_in_linear_time() {
        // 3 MB of mixed ASCII and multi-byte text in one string: decoding
        // must copy runs, not re-validate the rest of the document per char.
        let long: String = "abcdé€𝄞".repeat(1 << 18);
        let doc = Value::Array(vec![Value::String(long.clone()), Value::Bool(true)]).to_string();
        assert!(doc.len() > 3 << 20);
        let v = from_str(&doc).unwrap();
        assert_eq!(v.as_array().unwrap()[0].as_str().unwrap(), long);

        // Most characters escaped, with every escape the writer emits.
        let unit = "q\"\\/\n\r\té€\u{8}\u{c}\u{1}";
        let escaped = unit.repeat(50_000);
        let text = Value::String(escaped.clone()).to_string();
        assert!(text.matches('\\').count() > 400_000);
        let back = from_str(&text).unwrap();
        assert_eq!(back.as_str().unwrap(), escaped);
        let raw = format!("\"{}\"", "\\u00e9\\/".repeat(100_000));
        let decoded = from_str(&raw).unwrap();
        assert_eq!(decoded.as_str().unwrap(), "é/".repeat(100_000));
        assert!(from_str("\"unterminated é").is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str("{\"a\": }").is_err());
        assert!(from_str("[1, 2").is_err());
        assert!(from_str("true false").is_err());
        assert!(from_str("").is_err());
    }

    #[test]
    fn error_display_is_usable() {
        let e = from_str("nope").unwrap_err();
        assert!(e.to_string().contains("expected"));
    }
}
