//! The one JSON codec of the DataLab workspace.
//!
//! DSL specs, chart specs, knowledge graphs, notebooks, request bodies and
//! fleet reports all travel as JSON (paper §IV-C). Every layer encodes and
//! decodes them through this crate:
//!
//! - [`Value`] is the document tree. Numbers keep an exact integer
//!   representation beside `f64`, so `u64::MAX`, `i64::MIN` and `2^53 + 1`
//!   round-trip. Objects keep insertion order.
//! - [`Value::parse`] is a panic-free recursive-descent parser hardened
//!   for untrusted input: it runs in time linear in the input, nesting is
//!   bounded by [`MAX_DEPTH`], duplicate object keys, raw control
//!   characters and lone surrogates are rejected, and every failure is an
//!   [`Error`] that names the byte offset.
//! - [`ToJson`] / [`FromJson`] map typed values onto the tree. Structs
//!   and unit enums implement them with [`json_struct!`],
//!   [`json_newtype!`] and [`json_enum!`].
//! - [`json!`] builds a tree from a JSON-shaped literal.
//!
//! Output is compact (`to_string`) or two-space indented
//! (`to_string_pretty`). Floats print with `{:?}` (shortest round-trip
//! form, always with a decimal point or exponent); non-finite floats
//! print as `null`.

mod convert;
mod parse;
mod write;

pub use convert::{FromJson, ToJson};

use std::fmt;

/// Maximum nesting depth accepted by [`Value::parse`]. Deeper documents
/// are hostile or broken input.
pub const MAX_DEPTH: usize = 64;

/// A JSON number: an exact `i64`/`u64` when the text is an integer,
/// otherwise an `f64`.
#[derive(Debug, Clone, Copy)]
pub struct Number {
    repr: Repr,
}

#[derive(Debug, Clone, Copy)]
enum Repr {
    I(i64),
    U(u64),
    F(f64),
}

impl Number {
    /// An exact signed integer.
    pub fn from_i64(v: i64) -> Number {
        Number { repr: Repr::I(v) }
    }

    /// An exact unsigned integer.
    pub fn from_u64(v: u64) -> Number {
        Number { repr: Repr::U(v) }
    }

    /// A float.
    pub fn from_f64(v: f64) -> Number {
        Number { repr: Repr::F(v) }
    }

    /// The value as `i64`, when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.repr {
            Repr::I(v) => Some(v),
            Repr::U(v) => i64::try_from(v).ok(),
            Repr::F(_) => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.repr {
            Repr::I(v) => u64::try_from(v).ok(),
            Repr::U(v) => Some(v),
            Repr::F(_) => None,
        }
    }

    /// The value as `f64` (integers convert, possibly rounding).
    pub fn as_f64(&self) -> f64 {
        match self.repr {
            Repr::I(v) => v as f64,
            Repr::U(v) => v as f64,
            Repr::F(v) => v,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.repr, other.repr) {
            (Repr::F(_), _) | (_, Repr::F(_)) => self.as_f64() == other.as_f64(),
            _ => match (self.as_i64(), other.as_i64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_u64() == other.as_u64(),
            },
        }
    }
}

/// An insertion-ordered, string-keyed JSON object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty object.
    pub fn new() -> Map {
        Map::default()
    }

    /// Sets `key`, replacing (in place) and returning any previous value.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => Some(std::mem::replace(v, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Appends `key` without looking for an earlier entry. For callers
    /// whose keys are already distinct (struct fields, sorted map keys),
    /// so building an object of n keys stays O(n).
    pub fn push(&mut self, key: String, value: Value) {
        self.entries.push((key, value));
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let at = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(at).1)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the object has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Key/value pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A JSON document tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// Parses one JSON document, rejecting trailing non-whitespace and
    /// objects that repeat a key (readers disagree on which copy wins).
    pub fn parse(text: &str) -> Result<Value, Error> {
        parse::parse(text)
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True for objects.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// True for arrays.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// True for strings.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// True for numbers.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// True for numbers that are exact `i64`s.
    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }

    /// True for numbers that are exact `u64`s.
    pub fn is_u64(&self) -> bool {
        self.as_u64().is_some()
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `i64`, when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The number as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `f64`, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The elements as a slice, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        self.as_array().map(Vec::as_slice)
    }

    /// The object, when this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The object, mutably, when this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup; `None` on non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// `get(key)` then `as_str`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    /// `v["key"]`: the field, or `null` when absent or not an object.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    /// `v[i]`: the element, or `null` when out of range or not an array.
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

macro_rules! value_eq_int {
    ($($t:ty)*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_i64() == i64::try_from(*other).ok()
            }
        }
    )*};
}
value_eq_int!(i32 i64 u32 u64 usize);

impl fmt::Display for Value {
    /// Compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write::compact(self, &mut out);
        f.write_str(&out)
    }
}

/// A parse or conversion failure. Parse errors end with
/// ` at byte N`, the offset where the input stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub message: String,
}

impl Error {
    /// An error with the given message.
    pub fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Encodes `value` as compact JSON.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write::compact(&value.to_value(), &mut out);
    out
}

/// Encodes `value` as two-space-indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write::pretty(&value.to_value(), &mut out, 0);
    out
}

/// Converts `value` into a document tree.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Parses `text` and decodes it as a `T` (which may be [`Value`]).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_value(&Value::parse(text)?)
}

/// Decodes a document tree as a `T`.
pub fn from_value<T: FromJson>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Builds a [`Value`] from a JSON-shaped literal. Keys are expressions
/// that convert with `to_string()`; values are nested literals or any
/// expression implementing [`ToJson`], which is taken by reference.
///
/// ```
/// let n = 3;
/// let v = datalab_json::json!({"a": [1, null, {"b": n}], "c": "d"});
/// assert_eq!(v.to_string(), r#"{"a":[1,null,{"b":3}],"c":"d"}"#);
/// ```
#[macro_export]
macro_rules! json {
    // Array element muncher: build each element, then collect.
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json!(@array [$($elems,)* $crate::json!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json!(@array [$($elems,)* $crate::json!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json!(@array [$($elems,)* $crate::json!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($arr:tt)*] $($rest:tt)*) => {
        $crate::json!(@array [$($elems,)* $crate::json!([$($arr)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json!(@array [$($elems,)* $crate::json!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json!(@array [$($elems,)* $crate::json!($last),])
    };
    (@array [$($elems:expr,)*] $next:expr , $($rest:tt)*) => {
        $crate::json!(@array [$($elems,)* $crate::json!($next),] $($rest)*)
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json!(@array [$($elems,)*] $($rest)*)
    };

    // Object muncher: (@object map (key tokens) (rest) (copy of rest)).
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).to_string(), $value);
        $crate::json!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).to_string(), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json!(@object $object [$($key)+] ($crate::json!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json!(@object $object [$($key)+] ($crate::json!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json!(@object $object [$($key)+] ($crate::json!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($arr:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json!(@object $object [$($key)+] ($crate::json!([$($arr)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json!(@object $object [$($key)+] ($crate::json!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json!(@object $object [$($key)+] ($crate::json!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json!(@object $object [$($key)+] ($crate::json!($value)));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(::std::vec::Vec::new())
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object($crate::Map::new())
    };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json!(@object object () ($($tt)+) ($($tt)+));
        $crate::Value::Object(object)
    }};
    ($other:expr) => {
        $crate::to_value(&$other)
    };
}

#[cfg(test)]
mod tests;
