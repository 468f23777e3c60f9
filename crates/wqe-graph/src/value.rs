//! Attribute values carried by graph nodes.
//!
//! The paper's data model (§2.1) assigns each node a tuple of
//! attribute–value pairs. Values are either *numeric* (comparable with the
//! full operator set `{<, <=, =, >=, >}`) or *categorical* (comparable with
//! equality only). We model both, plus booleans which behave like
//! categoricals.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A single attribute value.
///
/// Integers and floats are mutually comparable (numeric family); strings and
/// booleans compare only within their own family. Cross-family comparisons
/// yield `None` from [`AttrValue::partial_cmp_value`], which every caller
/// treats as "predicate not satisfied".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AttrValue {
    /// 64-bit signed integer value.
    Int(i64),
    /// 64-bit floating point value. NaN is rejected at construction by
    /// [`AttrValue::float`].
    Float(f64),
    /// Categorical string value.
    Str(String),
    /// Boolean value (categorical: equality only).
    Bool(bool),
}

impl AttrValue {
    /// Builds a float value, normalizing NaN to `None`.
    pub fn float(f: f64) -> Option<Self> {
        if f.is_nan() {
            None
        } else {
            Some(AttrValue::Float(f))
        }
    }

    /// True if the value belongs to the numeric family (Int or Float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, AttrValue::Int(_) | AttrValue::Float(_))
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view of the value, if categorical.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compares two values, returning `None` for cross-family comparisons.
    ///
    /// Int/Float compare numerically; Str compares lexicographically; Bool
    /// compares with `false < true`.
    pub fn partial_cmp_value(&self, other: &AttrValue) -> Option<Ordering> {
        use AttrValue::*;
        match (self, other) {
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Structural equality with Int/Float numeric coercion.
    pub fn value_eq(&self, other: &AttrValue) -> bool {
        self.partial_cmp_value(other) == Some(Ordering::Equal)
    }

    /// Absolute numeric difference `|self - other|` when both are numeric.
    pub fn numeric_distance(&self, other: &AttrValue) -> Option<f64> {
        Some((self.as_f64()? - other.as_f64()?).abs())
    }
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        self.value_eq(other)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// Comparison operators used in search predicates and exemplar constraints
/// (§2.1: `op ∈ {>, >=, =, <=, <}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// All five operators, in ascending "permissiveness around =" order.
    pub const ALL: [CmpOp; 5] = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ge, CmpOp::Gt];

    /// Evaluates `lhs op rhs`, treating incomparable values as `false`.
    pub fn eval(self, lhs: &AttrValue, rhs: &AttrValue) -> bool {
        match lhs.partial_cmp_value(rhs) {
            None => false,
            Some(ord) => match self {
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ge => ord != Ordering::Less,
                CmpOp::Gt => ord == Ordering::Greater,
            },
        }
    }

    /// True if the operator admits values *above* the constant
    /// (used by picky `RxL` generation, §5.3).
    pub fn is_upper_open(self) -> bool {
        matches!(self, CmpOp::Ge | CmpOp::Gt)
    }

    /// True if the operator admits values *below* the constant.
    pub fn is_lower_open(self) -> bool {
        matches!(self, CmpOp::Le | CmpOp::Lt)
    }

    /// The mirrored operator (`<` ↔ `>`, `<=` ↔ `>=`, `=` ↔ `=`).
    pub fn mirror(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        f.write_str(s)
    }
}

/// The JSON form of an [`AttrValue`]: a number that fits `i64` is `Int`,
/// any other number `Float`; a string is `Str` and a boolean `Bool`.
/// `null`, arrays and objects are errors. The one JSON ↔ [`AttrValue`]
/// converter: graph files and the question wire both use it.
#[derive(Debug, Clone)]
pub struct Scalar(pub AttrValue);

impl Deserialize for Scalar {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde::DeError> {
        use serde_json::Value;
        Ok(Scalar(match v {
            Value::Number(n) => match n.as_i64() {
                Some(i) => AttrValue::Int(i),
                None => n
                    .as_f64()
                    .and_then(AttrValue::float)
                    .ok_or_else(|| serde::DeError::custom("invalid number"))?,
            },
            Value::String(s) => AttrValue::Str(s.clone()),
            Value::Bool(b) => AttrValue::Bool(*b),
            other => {
                let want = "a number, string or boolean";
                return Err(serde::DeError::invalid_type(want, other));
            }
        }))
    }
}

impl Serialize for Scalar {
    fn to_value(&self) -> serde_json::Value {
        match &self.0 {
            AttrValue::Int(i) => i.to_value(),
            AttrValue::Float(f) => f.to_value(),
            AttrValue::Str(s) => s.to_value(),
            AttrValue::Bool(b) => b.to_value(),
        }
    }
}

/// An object of attribute name → [`Scalar`], in document order (a loader
/// or an update interns new attribute names in that order).
#[derive(Debug, Clone, Default)]
pub struct Cells(pub Vec<(String, Scalar)>);

impl Serialize for Cells {
    fn to_value(&self) -> serde_json::Value {
        serde_json::Value::Object(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for Cells {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::invalid_type("an object", v))?;
        let cell = |(k, v): (&String, &serde_json::Value)| {
            Ok((k.clone(), Scalar::from_value(v).map_err(|e| e.at_field(k))?))
        };
        obj.iter()
            .map(cell)
            .collect::<Result<_, serde::DeError>>()
            .map(Cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_family_comparison() {
        assert!(CmpOp::Eq.eval(&AttrValue::Int(3), &AttrValue::Float(3.0)));
        assert!(CmpOp::Lt.eval(&AttrValue::Float(2.5), &AttrValue::Int(3)));
        assert!(!CmpOp::Eq.eval(&AttrValue::Int(3), &AttrValue::Str("3".into())));
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert!(CmpOp::Lt.eval(&"abc".into(), &"abd".into()));
        assert!(CmpOp::Eq.eval(&"x".into(), &"x".into()));
        assert!(!CmpOp::Gt.eval(&"a".into(), &"b".into()));
    }

    #[test]
    fn bool_comparison() {
        assert!(CmpOp::Lt.eval(&false.into(), &true.into()));
        assert!(CmpOp::Eq.eval(&true.into(), &true.into()));
    }

    #[test]
    fn incomparable_is_false_for_all_ops() {
        let a = AttrValue::Str("x".into());
        let b = AttrValue::Int(1);
        for op in CmpOp::ALL {
            assert!(!op.eval(&a, &b), "{op} should be false on str vs int");
        }
    }

    #[test]
    fn nan_rejected() {
        assert!(AttrValue::float(f64::NAN).is_none());
        assert!(AttrValue::float(1.5).is_some());
    }

    #[test]
    fn numeric_distance() {
        let a = AttrValue::Int(10);
        let b = AttrValue::Float(12.5);
        assert_eq!(a.numeric_distance(&b), Some(2.5));
        assert_eq!(a.numeric_distance(&AttrValue::Str("s".into())), None);
    }

    #[test]
    fn mirror_roundtrip() {
        for op in CmpOp::ALL {
            assert_eq!(op.mirror().mirror(), op);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(CmpOp::Ge.to_string(), ">=");
        assert_eq!(AttrValue::Int(5).to_string(), "5");
        assert_eq!(AttrValue::Str("hi".into()).to_string(), "hi");
    }
}
