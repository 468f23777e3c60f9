//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a minimal value-tree serialization framework under the same crate name.
//! Types implement [`Serialize`]/[`Deserialize`] by converting to and from a
//! JSON-shaped [`Value`]; the `serde_json` shim supplies the text format.
//! The derive macros (re-exported from the `serde_derive` shim) generate the
//! same externally-tagged representation real serde uses, so persisted
//! artifacts keep their on-disk shape.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// A JSON-shaped value tree. Re-exported by the `serde_json` shim as
/// `serde_json::Value`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object (insertion-ordered).
    Object(Map<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` for every other variant.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `i64`, when integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The number as `u64`, when a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

macro_rules! value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::from(v))
            }
        }
    )*};
}
value_from_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

/// Compact JSON rendering, matching `serde_json::Value`'s `Display`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => write_json_string(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_json_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A JSON number: integer or floating point.
#[derive(Debug, Clone, Copy)]
pub struct Number(N);

#[derive(Debug, Clone, Copy)]
enum N {
    Int(i64),
    UInt(u64),
    Float(f64),
}

impl Number {
    /// The value as `i64`, when integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::Int(i) => Some(i),
            N::UInt(u) => i64::try_from(u).ok(),
            N::Float(_) => None,
        }
    }

    /// The value as `u64`, when a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::Int(i) => u64::try_from(i).ok(),
            N::UInt(u) => Some(u),
            N::Float(_) => None,
        }
    }

    /// The value as `f64` (always possible, possibly lossy).
    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            N::Int(i) => Some(i as f64),
            N::UInt(u) => Some(u as f64),
            N::Float(f) => Some(f),
        }
    }

    /// Builds a float number; `None` on NaN/infinity (JSON cannot express
    /// them — mirrors `serde_json::Number::from_f64`).
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }

    /// True when the payload is a float.
    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => a == b,
            _ => match (self.as_u64(), other.as_u64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_f64() == other.as_f64(),
            },
        }
    }
}

macro_rules! number_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Number {
                Number(N::Int(v as i64))
            }
        }
    )*};
}
number_from_signed!(i8, i16, i32, i64, isize);

macro_rules! number_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Number {
                Number(N::UInt(v as u64))
            }
        }
    )*};
}
number_from_unsigned!(u8, u16, u32, u64, usize);

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::Int(i) => write!(f, "{i}"),
            N::UInt(u) => write!(f, "{u}"),
            N::Float(x) => {
                if x == x.trunc() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// An insertion-ordered string-keyed map, mirroring `serde_json::Map`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value> {
    entries: Vec<(K, V)>,
}

impl Map<String, Value> {
    /// An empty map.
    pub fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    /// Inserts, replacing any value under the same key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True when the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Value)>,
        fn(&'a (String, Value)) -> (&'a String, &'a Value),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// Deserialization failure: a message and the JSON path it happened at
/// (`query.edges[1].bound`). Containers prefix the path as the error
/// passes out through each field and element; `Display` prints
/// `path: message`.
#[derive(Debug, Clone)]
pub struct DeError {
    path: String,
    msg: String,
}

impl DeError {
    /// Builds an error from a message, at the root path.
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError {
            path: String::new(),
            msg: msg.to_string(),
        }
    }

    /// `expected {expected}, got {v}`: numbers, `null` and booleans are
    /// shown as written; strings, arrays and objects by their kind.
    pub fn invalid_type(expected: &str, v: &Value) -> Self {
        let got = match v {
            Value::String(_) => "a string".to_string(),
            Value::Array(_) => "an array".to_string(),
            Value::Object(_) => "an object".to_string(),
            _ => v.to_string(),
        };
        DeError::custom(format!("expected {expected}, got {got}"))
    }

    /// Prefixes the path with the object key this error happened under.
    pub fn at_field(self, key: &str) -> Self {
        self.prefixed(key)
    }

    /// Prefixes the path with the array index this error happened under.
    pub fn at_index(self, i: usize) -> Self {
        self.prefixed(&format!("[{i}]"))
    }

    fn prefixed(mut self, segment: &str) -> Self {
        let dot = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{segment}{dot}{}", self.path);
        self
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.msg)
        } else {
            write!(f, "{}: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for DeError {}

/// Serialization into the [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Deserialization from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---- impls for std types ----

macro_rules! serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let kind = if <$t>::MIN == 0 { "a nonnegative integer" } else { "an integer" };
                let Value::Number(n) = v else {
                    return Err(DeError::invalid_type(kind, v));
                };
                n.as_i64()
                    .and_then(|i| <$t>::try_from(i).ok())
                    .or_else(|| n.as_u64().and_then(|u| <$t>::try_from(u).ok()))
                    .ok_or_else(|| {
                        DeError::custom(format!(
                            "expected {kind} in [{}, {}], got {n}",
                            <$t>::MIN,
                            <$t>::MAX
                        ))
                    })
            }
        }
    )*};
}
serialize_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::from(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Number(n) => Ok(n.as_f64().unwrap_or(f64::NAN)),
            // Non-finite floats serialize as null; restore a quiet NaN so
            // numeric summaries round-trip without failing the whole record.
            Value::Null => Ok(f64::NAN),
            other => Err(DeError::invalid_type("a number", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::from(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool()
            .ok_or_else(|| DeError::invalid_type("a boolean", v))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::invalid_type("a string", v))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::custom("expected char"))?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::custom("expected single-char string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(t) => t.to_value(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::invalid_type("an array", v))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_value(item).map_err(|e| e.at_index(i)))
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! serialize_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let a = v.as_array().ok_or_else(|| DeError::custom("expected tuple array"))?;
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                if a.len() != LEN {
                    return Err(DeError::custom(format!("expected {LEN}-tuple, got {} elements", a.len())));
                }
                Ok(($($t::from_value(&a[$n]).map_err(|e| e.at_index($n))?,)+))
            }
        }
    )*};
}
serialize_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

// JSON object keys must be strings; like serde_json, non-string keys that
// serialize to scalars are stringified on the way out and re-parsed on the
// way in (newtype IDs over integers rely on this).
fn key_to_string(k: Value) -> String {
    match k {
        Value::String(s) => s,
        Value::Number(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!("map key must serialize to a string or scalar, got {other:?}"),
    }
}

fn key_from_string<K: Deserialize>(s: &str) -> Result<K, DeError> {
    if let Ok(k) = K::from_value(&Value::String(s.to_string())) {
        return Ok(k);
    }
    if let Ok(i) = s.parse::<i64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::from(i))) {
            return Ok(k);
        }
    }
    if let Ok(u) = s.parse::<u64>() {
        if let Ok(k) = K::from_value(&Value::Number(Number::from(u))) {
            return Ok(k);
        }
    }
    if let Some(n) = s.parse::<f64>().ok().and_then(Number::from_f64) {
        if let Ok(k) = K::from_value(&Value::Number(n)) {
            return Ok(k);
        }
    }
    if s == "true" || s == "false" {
        if let Ok(k) = K::from_value(&Value::Bool(s == "true")) {
            return Ok(k);
        }
    }
    Err(DeError::custom(format!("cannot parse map key {s:?}")))
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Sort keys so serialized maps are byte-stable across runs.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_to_string(k.to_value()), v.to_value()))
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut m = Map::new();
        for (k, v) in entries {
            m.insert(k, v);
        }
        Value::Object(m)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom("expected object"))?;
        let mut out = HashMap::with_capacity_and_hasher(obj.len(), S::default());
        for (k, val) in obj.iter() {
            out.insert(
                key_from_string(k)?,
                V::from_value(val).map_err(|e| e.at_field(k))?,
            );
        }
        Ok(out)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(key_to_string(k.to_value()), v.to_value());
        }
        Value::Object(m)
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom("expected object"))?;
        obj.iter()
            .map(|(k, v)| {
                Ok((
                    key_from_string(k)?,
                    V::from_value(v).map_err(|e| e.at_field(k))?,
                ))
            })
            .collect()
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize + Ord, S> Serialize for std::collections::HashSet<T, S> {
    fn to_value(&self) -> Value {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        Value::Array(items.into_iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Eq + Hash, S: std::hash::BuildHasher + Default> Deserialize
    for std::collections::HashSet<T, S>
{
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for Map<String, Value> {
    fn to_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl Deserialize for Map<String, Value> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .cloned()
            .ok_or_else(|| DeError::custom("expected object"))
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(_: &Value) -> Result<Self, DeError> {
        Ok(())
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::from(self.as_secs_f64())
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let secs = f64::from_value(v)?;
        if secs.is_finite() && secs >= 0.0 {
            Ok(std::time::Duration::from_secs_f64(secs))
        } else {
            Err(DeError::custom("invalid duration"))
        }
    }
}
