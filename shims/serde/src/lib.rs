//! Offline stand-in for `serde`.
//!
//! The build environment is air-gapped, so the workspace vendors a minimal
//! serialization layer: one concrete data model, [`Value`] — a JSON
//! document tree — and a [`Serialize`] trait that encodes values into it
//! (which `serde_json`'s `json!` macro builds on). The companion
//! `serde_json` shim renders and parses the tree; decoding into Rust types
//! is written by hand where it is needed. Numbers are `f64` (exact for the
//! integers this workspace writes, which stay far below 2^53).

/// An ordered JSON object: preserves insertion order, like `serde_json`'s
/// `preserve_order` feature, so emitted documents read in source order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert, replacing any existing entry with the same key (keeps the
    /// original position, as an ordered map should).
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.entries.push((key, value));
        None
    }

    /// Look up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up by key, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A JSON document tree — the shim's single data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact below 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// Borrow as an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

fn write_escaped(f: &mut std::fmt::Formatter<'_>, s: &str) -> std::fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

impl std::fmt::Display for Value {
    /// Compact JSON rendering. Non-finite numbers become `null` (JSON has
    /// no representation for them), matching `serde_json`'s behavior.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) if !n.is_finite() => write!(f, "null"),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Conversion into the [`Value`] data model.
pub trait Serialize {
    /// Encode `self` as a document tree.
    fn to_value(&self) -> Value;
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_serde_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}

impl_serde_num!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}

impl_serialize_tuple!((A.0)(A.0, B.1)(A.0, B.1, C.2)(A.0, B.1, C.2, D.3));

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_compact_json() {
        let mut m = Map::new();
        m.insert("a".into(), Value::Number(1.0));
        m.insert("b".into(), Value::Array(vec![Value::Bool(true), Value::Null]));
        m.insert("s".into(), Value::String("x\"y".into()));
        assert_eq!(Value::Object(m).to_string(), r#"{"a":1,"b":[true,null],"s":"x\"y"}"#);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Value::Number(42.0).to_string(), "42");
        assert_eq!(Value::Number(0.5).to_string(), "0.5");
        assert_eq!(Value::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut m = Map::new();
        m.insert("k".into(), Value::Number(1.0));
        m.insert("j".into(), Value::Number(2.0));
        assert_eq!(m.insert("k".into(), Value::Number(3.0)), Some(Value::Number(1.0)));
        assert_eq!(m.iter().next().unwrap().0, "k");
        assert_eq!(m.get("k"), Some(&Value::Number(3.0)));
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn primitives_encode_as_values() {
        assert_eq!(3.5f64.to_value(), Value::Number(3.5));
        assert_eq!(7usize.to_value(), Value::Number(7.0));
        assert_eq!("hi".to_value(), Value::String("hi".into()));
        assert_eq!(
            vec![1u32, 2].to_value(),
            Value::Array(vec![Value::Number(1.0), Value::Number(2.0)])
        );
        assert_eq!(None::<u32>.to_value(), Value::Null);
        assert_eq!((true, "x").to_value().to_string(), r#"[true,"x"]"#);
    }
}
