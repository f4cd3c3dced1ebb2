//! Concrete values of the expression language.

use crate::Sort;
use std::fmt;

/// A concrete value of some [`Sort`].
///
/// Integer and enumeration values are both carried as `i64`; the owning
/// [`Sort`] determines the valid range and the wrap-around behaviour.
///
/// # Example
///
/// ```
/// use amle_expr::{Sort, Value};
///
/// let v = Value::Int(41);
/// assert_eq!(v.as_int(), Some(41));
/// assert!(Value::Bool(true).as_bool().unwrap());
/// assert!(Value::Int(200).fits(&Sort::int(8)));
/// assert!(!Value::Int(300).fits(&Sort::int(8)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A boolean value.
    Bool(bool),
    /// A fixed-width integer value (interpretation given by the sort).
    Int(i64),
    /// An enumeration value, stored as the variant index.
    Enum(i64),
}

impl Value {
    /// The boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The enumeration variant index, if this is a [`Value::Enum`].
    pub fn as_enum(&self) -> Option<i64> {
        match self {
            Value::Enum(i) => Some(*i),
            _ => None,
        }
    }

    /// A uniform numeric view of the value: booleans become 0/1, integers and
    /// enumeration indices are returned as-is.
    ///
    /// This is the representation used by trace files, the simulator and the
    /// alphabet-abstraction step of the learner.
    pub fn to_i64(&self) -> i64 {
        match self {
            Value::Bool(b) => i64::from(*b),
            Value::Int(i) | Value::Enum(i) => *i,
        }
    }

    /// Builds a value of the given sort from a raw numeric representation,
    /// wrapping into the representable range.
    pub fn from_i64(sort: &Sort, raw: i64) -> Value {
        match sort {
            Sort::Bool => Value::Bool(sort.wrap(raw) != 0),
            Sort::Int { .. } => Value::Int(sort.wrap(raw)),
            Sort::Enum(_) => Value::Enum(sort.wrap(raw)),
        }
    }

    /// Returns `true` if the value is structurally of the given sort and lies
    /// within its representable range.
    pub fn fits(&self, sort: &Sort) -> bool {
        let (lo, hi) = sort.value_range();
        match (self, sort) {
            (Value::Bool(_), Sort::Bool) => true,
            (Value::Int(i), Sort::Int { .. }) => *i >= lo && *i <= hi,
            (Value::Enum(i), Sort::Enum(_)) => *i >= lo && *i <= hi,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Enum(i) => write!(f, "#{i}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Enum(2).as_enum(), Some(2));
        assert_eq!(Value::Int(7).as_enum(), None);
    }

    #[test]
    fn numeric_view_roundtrip() {
        let s = Sort::int(8);
        for raw in [0, 1, 100, 255] {
            let v = Value::from_i64(&s, raw);
            assert_eq!(v.to_i64(), raw);
        }
        assert_eq!(Value::from_i64(&s, 256).to_i64(), 0);
        assert_eq!(Value::from_i64(&Sort::Bool, 3), Value::Bool(true));
        let e = Sort::enumeration("M", ["A", "B", "C"]);
        assert_eq!(Value::from_i64(&e, 4), Value::Enum(1));
    }

    #[test]
    fn fits_checks_sort_and_range() {
        assert!(Value::Bool(false).fits(&Sort::Bool));
        assert!(!Value::Int(0).fits(&Sort::Bool));
        assert!(Value::Int(255).fits(&Sort::int(8)));
        assert!(!Value::Int(256).fits(&Sort::int(8)));
        assert!(Value::Int(-5).fits(&Sort::signed_int(4)));
        assert!(!Value::Int(-9).fits(&Sort::signed_int(4)));
        let e = Sort::enumeration("M", ["A", "B"]);
        assert!(Value::Enum(1).fits(&e));
        assert!(!Value::Enum(2).fits(&e));
        assert!(!Value::Int(1).fits(&e));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Enum(2).to_string(), "#2");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(9i64), Value::Int(9));
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = [
            Value::Int(3),
            Value::Bool(true),
            Value::Int(1),
            Value::Enum(0),
        ];
        vs.sort();
        assert_eq!(vs.len(), 4);
    }
}
